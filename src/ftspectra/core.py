"""Shared substrate: midpoint grids on [0, 1], discretized curve collections,
Hermitian frequency kernels, and quadrature-based Hilbert-Schmidt norms."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: Relative tolerance enforced on the Hermitian symmetry of frequency kernels.
HERMITIAN_RTOL = 1e-10


class DimensionError(ValueError):
    """Operands have mismatched shapes or live on incompatible grids."""


class DomainError(ValueError):
    """A parameter lies outside its admissible range."""


class NotCenteredError(ValueError):
    """The operation requires a mean-centered series."""


class DegenerateDataError(ValueError):
    """The sample carries no usable variation (e.g. zero variance at a point)."""


class NumericError(RuntimeError):
    """A numerical routine failed or produced non-finite output."""


class ParseError(ValueError):
    """An input file could not be parsed into the expected structure."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid tau_i = (i + 1/2) / d on [0, 1], weight 1/d per point.

    The midpoint placement keeps every node strictly inside (0, 1) and makes
    plain Riemann sums with weight 1/d exact for the trigonometric bases used
    elsewhere in the package.
    """

    d: int

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or self.d < 2:
            raise DomainError(f"grid needs an integer d >= 2, got {self.d!r}")

    @property
    def points(self) -> np.ndarray:
        return (np.arange(self.d) + 0.5) / self.d

    @property
    def weight(self) -> float:
        return 1.0 / self.d


@dataclass(frozen=True)
class FunctionalSeries:
    """T curves observed on a shared grid; row t of ``values`` is curve t.

    ``centered`` records whether the sample mean curve has been removed.
    Instances are immutable; every operation returns a new object.
    """

    grid: Grid
    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionError(f"values must be a T x d matrix, got shape {v.shape}")
        if v.shape[0] < 2:
            raise DomainError(f"need at least two curves, got T = {v.shape[0]}")
        if v.shape[1] != self.grid.d:
            raise DimensionError(
                f"values have {v.shape[1]} columns but the grid has d = {self.grid.d}"
            )
        if not np.all(np.isfinite(v)):
            raise NumericError("series values contain non-finite entries")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n_curves(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.grid.d


def center(series: FunctionalSeries) -> FunctionalSeries:
    """Subtract the sample mean curve.

    Idempotent: centering an already-centered series returns it unchanged,
    so repeated application is bitwise stable.
    """
    if series.centered:
        return series
    vals = series.values - series.values.mean(axis=0)
    return FunctionalSeries(series.grid, vals, centered=True)


@dataclass(frozen=True)
class FrequencyKernel:
    """One d x d complex Hermitian matrix approximating f(tau_i, tau_j) at
    a single frequency omega in [0, 2*pi)."""

    omega: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"kernel matrix must be square, got shape {m.shape}")
        if not (0.0 <= float(self.omega) < TWO_PI):
            raise DomainError(f"omega must lie in [0, 2*pi), got {self.omega}")
        if not np.all(np.isfinite(m)):
            raise NumericError("kernel matrix contains non-finite entries")
        residual = hermitian_residual(m)
        if residual > HERMITIAN_RTOL:
            raise DomainError(f"matrix is not Hermitian (relative residual {residual:.3e})")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def hermitian_residual(m: np.ndarray) -> float:
    """Relative departure from Hermitian symmetry, max |m - m^H| / max |m|;
    0 for the zero matrix."""
    scale = np.max(np.abs(m))
    return float(np.max(np.abs(m - m.conj().T)) / scale) if scale > 0.0 else 0.0


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize a numerically-Hermitian matrix so the symmetry is exact."""
    return 0.5 * (m + m.conj().T)


def hs_norm(kernel: FrequencyKernel) -> float:
    """Hilbert-Schmidt norm of the kernel, i.e. the quadrature approximation
    sqrt((1/d^2) * sum |k_ij|^2) of its L2([0,1]^2) norm."""
    return float(np.linalg.norm(kernel.matrix) / kernel.d)


def hs_distance(a: FrequencyKernel, b: FrequencyKernel) -> float:
    """Hilbert-Schmidt norm of the entrywise difference of two kernels."""
    if a.matrix.shape != b.matrix.shape:
        raise DimensionError(
            f"kernel shapes differ: {a.matrix.shape} vs {b.matrix.shape}"
        )
    return float(np.linalg.norm(a.matrix - b.matrix) / a.d)


@dataclass(frozen=True)
class SpectralEstimate:
    """A frequency kernel per evaluation frequency plus estimation metadata."""

    frequencies: np.ndarray
    kernels: tuple
    bandwidth: float
    kernel_id: str
    method: str

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        kernels = tuple(self.kernels)
        if f.ndim != 1:
            raise DimensionError("frequencies must be one-dimensional")
        if len(kernels) != f.size:
            raise DimensionError(
                f"{len(kernels)} kernels for {f.size} frequencies"
            )
        if f.size and (f[0] < 0.0 or f[-1] >= TWO_PI or np.any(np.diff(f) <= 0.0)):
            raise DomainError("frequencies must be strictly increasing within [0, 2*pi)")
        object.__setattr__(self, "frequencies", _readonly(f))
        object.__setattr__(self, "kernels", kernels)

    def kernel_at(self, omega: float) -> FrequencyKernel:
        idx = int(np.argmin(np.abs(self.frequencies - omega)))
        if not np.isclose(self.frequencies[idx], omega, rtol=0.0, atol=1e-12):
            raise DomainError(f"no kernel stored at omega = {omega}")
        return self.kernels[idx]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    # repr of a Python float round-trips exactly
    return repr(float(x))


def series_to_csv(series: FunctionalSeries, path) -> None:
    """Write a series as CSV: header tau_0..tau_{d-1}, one row per curve."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"tau_{i}" for i in range(series.d)])
        for row in series.values:
            writer.writerow([_fmt(v) for v in row])


def series_from_csv(path) -> FunctionalSeries:
    """Read a series written by :func:`series_to_csv`. The grid is implied by
    the column count; the centered flag is not stored and resets to False."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or not all(h.startswith("tau_") for h in header):
                raise ParseError(f"{path}: expected a tau_0..tau_{{d-1}} header row")
            d = len(header)
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != d:
                    raise ParseError(f"{path}:{lineno}: expected {d} columns, got {len(row)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least two data rows")
    return FunctionalSeries(Grid(d), np.array(rows, dtype=float), centered=False)


def series_to_json_dict(series: FunctionalSeries) -> dict:
    return {
        "d": series.d,
        "T": series.n_curves,
        "values": series.values.tolist(),
        "centered": series.centered,
    }


def series_from_json_dict(obj: dict) -> FunctionalSeries:
    try:
        d = int(obj["d"])
        values = np.asarray(obj["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad series JSON: {exc}") from exc
    if "T" in obj and int(obj["T"]) != values.shape[0]:
        raise ParseError("series JSON: T does not match the number of rows")
    return FunctionalSeries(Grid(d), values, centered=bool(obj.get("centered", False)))


def matrix_to_json_dict(m: np.ndarray) -> dict:
    m = np.asarray(m)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json_dict(obj: dict) -> np.ndarray:
    try:
        return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad complex-matrix JSON: {exc}") from exc


def estimate_to_json_dict(est: SpectralEstimate) -> dict:
    return {
        "frequencies": est.frequencies.tolist(),
        "kernels": [matrix_to_json_dict(k.matrix) for k in est.kernels],
        "bandwidth": float(est.bandwidth),
        "kernel_id": est.kernel_id,
        "method": est.method,
    }


def estimate_from_json_dict(obj: dict) -> SpectralEstimate:
    try:
        freqs = np.asarray(obj["frequencies"], dtype=float)
        kernels = tuple(
            FrequencyKernel(w, matrix_from_json_dict(k))
            for w, k in zip(freqs, obj["kernels"])
        )
        return SpectralEstimate(freqs, kernels, float(obj["bandwidth"]),
                                str(obj["kernel_id"]), str(obj["method"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (DomainError, DimensionError)):
            raise
        raise ParseError(f"bad estimate JSON: {exc}") from exc


def estimate_to_csv_dir(est: SpectralEstimate, path) -> None:
    """Write an estimate as a directory: meta.json plus one re/im CSV pair
    per frequency (freq_0000_re.csv, freq_0000_im.csv, ...)."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "frequencies": est.frequencies.tolist(),
        "bandwidth": float(est.bandwidth),
        "kernel_id": est.kernel_id,
        "method": est.method,
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for i, k in enumerate(est.kernels):
        for part, data in (("re", k.matrix.real), ("im", k.matrix.imag)):
            with open(os.path.join(path, f"freq_{i:04d}_{part}.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                for row in data:
                    writer.writerow([_fmt(v) for v in row])


def estimate_from_csv_dir(path) -> SpectralEstimate:
    try:
        with open(os.path.join(path, "meta.json")) as fh:
            meta = json.load(fh)
        freqs = np.asarray(meta["frequencies"], dtype=float)
        kernels = []
        for i, w in enumerate(freqs):
            parts = {}
            for part in ("re", "im"):
                fname = os.path.join(path, f"freq_{i:04d}_{part}.csv")
                with open(fname, newline="") as fh:
                    parts[part] = np.array(
                        [[float(v) for v in row] for row in csv.reader(fh) if row]
                    )
            kernels.append(FrequencyKernel(w, parts["re"] + 1j * parts["im"]))
        return SpectralEstimate(freqs, tuple(kernels), float(meta["bandwidth"]),
                                str(meta["kernel_id"]), str(meta["method"]))
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        if isinstance(exc, (DomainError, DimensionError)):
            raise
        raise ParseError(f"bad estimate directory {path}: {exc}") from exc
