"""Flat-top taper families, their inverse-Fourier smoothing kernels, and the
periodized weight functions used to smooth the periodogram.

A flat-top taper lam(s) equals 1 on [-c, c], decays to 0 outside, and is even.
Its inverse Fourier transform Lam(x) = (1/pi) * int_0^S lam(s) cos(s x) ds is
a high-order (for the smooth family, infinite-order) smoothing kernel. The
frequency-domain weight applied to periodogram ordinates is the periodization
W(x) = (1/(2*pi)) * sum_u lam(B*u) exp(-i x u), a finite cosine series because
lam has compact support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DomainError, ParseError, _check_positive, _is_integer

__all__ = [
    "KernelFamily",
    "FlatTopSpec",
    "UnsupportedKernelError",
    "trapezoid",
    "flat_top_parzen",
    "infinitely_differentiable",
    "epanechnikov",
    "lambda_eval",
    "support_radius",
    "capital_lambda_batch",
    "weight_function",
    "baseline_weight",
    "effective_flat_top_radius",
    "kernel_moment",
    "check_bandwidth",
    "lag_weights",
    "spec_from_json_dict",
    "parse_kernel",
]


class UnsupportedKernelError(ValueError):
    """The requested operation has no meaning for this kernel family."""


class KernelFamily(str, Enum):
    INFINITELY_DIFFERENTIABLE = "ID"
    TRAPEZOID = "TR"
    FLAT_TOP_PARZEN = "PR"
    EPANECHNIKOV = "EPA"


_DEFAULT_C = {
    KernelFamily.INFINITELY_DIFFERENTIABLE: 0.05,
    KernelFamily.TRAPEZOID: 0.5,
    KernelFamily.FLAT_TOP_PARZEN: 0.75,
}
_DEFAULT_B = 0.25

#: Tolerance defining the effective flat-top region: lam(s) >= 1 - EPSILON_EF.
EPSILON_EF = 0.01


@dataclass(frozen=True)
class FlatTopSpec:
    """Parametric description of a taper: family, flat-top half-width c and
    shape parameter b (smooth family only)."""

    family: KernelFamily
    c: float | None = None
    b: float | None = None

    def __post_init__(self):
        family = KernelFamily(self.family)
        object.__setattr__(self, "family", family)
        c, b = self.c, self.b
        if family is KernelFamily.EPANECHNIKOV:
            if c is not None or b is not None:
                raise DomainError("the Epanechnikov baseline takes no c or b")
        else:
            c = float(_DEFAULT_C[family] if c is None else c)
            if family is KernelFamily.FLAT_TOP_PARZEN:
                c = _check_positive("flat-top Parzen c", c)
            elif not 0.0 < c < 1.0:
                raise DomainError(f"{family.value} needs 0 < c < 1, got {c}")
            if family is KernelFamily.INFINITELY_DIFFERENTIABLE:
                b = _check_positive("shape parameter b", _DEFAULT_B if b is None else b)
            elif b is not None:
                raise DomainError(f"{family.value} takes no shape parameter b")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)

    @property
    def is_flat_top(self) -> bool:
        return self.family is not KernelFamily.EPANECHNIKOV

    @property
    def identifier(self) -> str:
        if self.family is KernelFamily.EPANECHNIKOV:
            return "EPA"
        if self.family is KernelFamily.INFINITELY_DIFFERENTIABLE:
            return f"ID(b={_label(self.b)},c={_label(self.c)})"
        return f"{self.family.value}(c={_label(self.c)})"


def _label(x: float) -> str:
    """x in the short :g form when that reads back as x, else in full, so
    distinct parameters never share an identifier."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def trapezoid(c: float | None = None) -> FlatTopSpec:
    return FlatTopSpec(KernelFamily.TRAPEZOID, c=c)


def flat_top_parzen(c: float | None = None) -> FlatTopSpec:
    return FlatTopSpec(KernelFamily.FLAT_TOP_PARZEN, c=c)


def infinitely_differentiable(b: float | None = None,
                              c: float | None = None) -> FlatTopSpec:
    return FlatTopSpec(KernelFamily.INFINITELY_DIFFERENTIABLE, c=c, b=b)


def epanechnikov() -> FlatTopSpec:
    return FlatTopSpec(KernelFamily.EPANECHNIKOV)


def _require_flat_top(spec: FlatTopSpec, what: str) -> None:
    if not spec.is_flat_top:
        raise UnsupportedKernelError(
            f"{what} is undefined for the Epanechnikov baseline; it enters the "
            "estimator directly as a frequency-domain weight"
        )


def support_radius(spec: FlatTopSpec) -> float:
    """Radius S such that lam(s) = 0 for |s| >= S."""
    _require_flat_top(spec, "the taper support")
    return _branch_points(spec)[-1]


def _branch_points(spec: FlatTopSpec) -> list[float]:
    """The points where the taper's pieces meet, from 0 to the support radius."""
    if spec.family is KernelFamily.FLAT_TOP_PARZEN:
        return [0.0, spec.c, spec.c + 0.5, spec.c + 1.0]
    return [0.0, spec.c, 1.0]


def lambda_eval(spec: FlatTopSpec, s):
    """Evaluate the flat-top taper lam(s); even in s, 1 on [-c, c], 0 beyond
    the support radius. Accepts scalars or arrays."""
    _require_flat_top(spec, "lambda")
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.abs(np.atleast_1d(np.asarray(s, dtype=float)))
    c = spec.c
    out = np.zeros_like(s)
    out[s <= c] = 1.0
    if spec.family is KernelFamily.TRAPEZOID:
        mid = (s > c) & (s < 1.0)
        out[mid] = (s[mid] - 1.0) / (c - 1.0)
    elif spec.family is KernelFamily.INFINITELY_DIFFERENTIABLE:
        mid = (s > c) & (s < 1.0)
        sm = s[mid]
        # the double exponential underflows cleanly to 0/1 at the junctions
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            out[mid] = np.exp(-spec.b * np.exp(-spec.b / (sm - c) ** 2) / (sm - 1.0) ** 2)
    else:  # flat-top Parzen: piecewise cubic tail
        m1 = (s > c) & (s <= c + 0.5)
        t = s[m1] - c
        out[m1] = 1.0 - 6.0 * t**2 + 6.0 * t**3
        m2 = (s > c + 0.5) & (s < c + 1.0)
        t = s[m2] - c
        out[m2] = 2.0 * (1.0 - t) ** 3
    return float(out[0]) if scalar else out


def _gauss_legendre_panels(a: float, b: float, n: int):
    """Nodes and weights of the 16-point Gauss-Legendre rule on n equal
    panels of [a, b]."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(a, b, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * gl_x).ravel(), (half[:, None] * gl_w).ravel()


def capital_lambda_batch(spec: FlatTopSpec, xs) -> np.ndarray:
    """Vectorized Lam(x) on an array of points via panel Gauss-Legendre in s.

    Panel sizes shrink with max |x| so the cosine oscillation is resolved;
    agrees with adaptive oscillatory (QAWO) quadrature to ~1e-12.
    """
    _require_flat_top(spec, "the smoothing kernel")
    xs = np.asarray(xs, dtype=float)
    flat = np.abs(xs.ravel())
    xmax = max(1.0, float(flat.max())) if flat.size else 1.0
    pts = _branch_points(spec)
    # >= 4 panels per cos period at the largest argument
    panels = [_gauss_legendre_panels(a, b, max(4, int(np.ceil((b - a) * xmax / 4.0))))
              for a, b in zip(pts[:-1], pts[1:])]
    nodes = np.concatenate([p[0] for p in panels])
    coef = np.concatenate([p[1] for p in panels]) * lambda_eval(spec, nodes)
    out = np.empty(flat.size, dtype=float)
    chunk = max(1, int(4e6 // max(1, nodes.size)))
    for i in range(0, flat.size, chunk):
        out[i:i + chunk] = np.cos(np.outer(flat[i:i + chunk], nodes)) @ coef
    return (out / np.pi).reshape(xs.shape)


def check_bandwidth(bandwidth: float) -> float:
    """The bandwidth as a float; DomainError unless it lies in (0, 1]."""
    bandwidth = float(bandwidth)
    if not 0.0 < bandwidth <= 1.0:
        raise DomainError(f"bandwidth must lie in (0, 1], got {bandwidth}")
    return bandwidth


def _lag_count(spec: FlatTopSpec, bandwidth: float) -> int:
    """ceil(S / bandwidth) for a checked bandwidth; DomainError beyond 10^7.
    The ratio is compared first: the ceil of a subnormal's inf overflows."""
    ratio = support_radius(spec) / bandwidth
    if not ratio <= 10**7:
        raise DomainError(f"bandwidth {bandwidth} is too small to periodize")
    return math.ceil(ratio)


def lag_weights(spec: FlatTopSpec, bandwidth: float) -> np.ndarray:
    """Taper values lam(bandwidth * u) for u = 0 .. ceil(S / bandwidth); all
    later lags fall outside the support and contribute exactly zero."""
    bandwidth = check_bandwidth(bandwidth)
    return lambda_eval(spec, bandwidth * np.arange(_lag_count(spec, bandwidth) + 1))


def weight_function(spec: FlatTopSpec, bandwidth: float, x):
    """Periodized flat-top weight W(x) = (1/(2*pi)) * sum_u lam(B u) e^{-ixu},
    evaluated through its finite cosine-series form. 2*pi-periodic and even."""
    lam = lag_weights(spec, bandwidth)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.arange(1, lam.size)
    out = (1.0 + 2.0 * (np.cos(np.multiply.outer(x, u)) @ lam[1:])) / (2.0 * np.pi)
    return float(out[0]) if scalar else out


def baseline_weight(bandwidth: float, x):
    """Periodized Epanechnikov weight sum_j (1/B) * W((x + 2*pi*j)/B) with
    W(x) = 0.75 * (1 - x^2) on [-1, 1], evaluated at the one image nearest 0."""
    bandwidth = check_bandwidth(bandwidth)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # the images sit 2*pi apart and each vanishes beyond B <= 1 < pi of its
    # center, so only the image nearest 0 can be nonzero
    z = (x + 2.0 * np.pi * np.round(-x / (2.0 * np.pi))) / bandwidth
    out = np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z**2), 0.0) / bandwidth
    return float(out[0]) if scalar else out


def effective_flat_top_radius(spec: FlatTopSpec) -> float:
    """Largest radius c_ef with lam(s) >= 1 - EPSILON_EF on [-c_ef, c_ef],
    located by bisection on the strictly decaying tail (1e-6 precision)."""
    _require_flat_top(spec, "the effective flat-top radius")
    target = 1.0 - EPSILON_EF
    lo, hi = spec.c, support_radius(spec)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if lambda_eval(spec, mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kernel_moment(spec: FlatTopSpec, k: int, truncation: float = 200.0) -> float:
    """Truncated moment int_{-X}^{X} x^k Lam(x) dx by composite Gauss-Legendre.

    Odd moments vanish identically on the symmetric domain and are returned
    as exact zeros. X may not exceed 1000: the cost grows as X^2.
    """
    _require_flat_top(spec, "kernel moments")
    if not _is_integer(k) or k < 0:
        raise DomainError(f"moment order must be a nonnegative integer, got {k!r}")
    truncation = _check_positive("truncation radius", truncation)
    if truncation > 1000.0:
        raise DomainError(f"truncation radius must be at most 1000, got {truncation!r}")
    if k % 2 == 1:
        return 0.0
    nodes, weights = _gauss_legendre_panels(
        0.0, truncation, max(8, int(math.ceil(truncation / 0.8))))
    vals = capital_lambda_batch(spec, nodes)
    return float(2.0 * np.sum(weights * nodes ** k * vals))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def spec_from_json_dict(obj: dict) -> FlatTopSpec:
    """Read {"family", "c", "b"}; c and b are optional and must be JSON
    numbers (not bools or strings)."""
    def number(key):
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{key} must be a number, got {value!r}")
        return float(value)

    try:
        family = KernelFamily(obj["family"])
        kwargs = {key: number(key) for key in ("c", "b") if key in obj}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad kernel JSON: {exc}") from exc
    return FlatTopSpec(family, **kwargs)


def parse_kernel(text: str) -> FlatTopSpec:
    """Parse a CLI kernel argument: a bare family name (``TR``, ``PR``, ``ID``,
    ``EPA``) with default parameters, or a JSON object like
    ``{"family": "TR", "c": 0.5}``. Raises DomainError on anything else, so a
    bad flag is reported as invalid configuration rather than unreadable input.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            return spec_from_json_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad kernel JSON: {exc}") from exc
        except ParseError as exc:  # already says "bad kernel JSON"
            raise DomainError(str(exc)) from exc
    try:
        family = KernelFamily(text.upper())
    except ValueError as exc:
        raise DomainError(
            f"unknown kernel {text!r}; expected TR, PR, ID, EPA or a JSON object"
        ) from exc
    return FlatTopSpec(family)
