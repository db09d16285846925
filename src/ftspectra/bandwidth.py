"""Data-driven bandwidth selection by correlogram thresholding.

For each pair on a 10 x 10 grid of [0,1]^2, find the smallest shift q after
which the cross-correlogram stays below C0 * sqrt(log10(T)/T) over a short
window of lags; aggregate the per-pair shifts and rescale by the effective
flat-top radius: B = 1 / max(ceil(q / c_ef), 1).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DegenerateDataError,
    DomainError,
    FunctionalSeries,
    NumericError,
    center,
    _check_positive,
    _is_integer,
    _readonly,
)
from .estimator import _autocovariance_stack, _check_lag, _lag_product
from .kernels import FlatTopSpec, effective_flat_top_radius

__all__ = [
    "BandwidthReport",
    "correlogram",
    "select_bandwidth",
    "report_to_json_dict",
]

GRID_SIDE = 10


@dataclass(frozen=True)
class BandwidthReport:
    """Outcome of the empirical bandwidth rule, with the full per-pair shift
    grid kept for diagnostics."""

    q_hat: int
    q_grid: np.ndarray
    B_T: float
    c_ef: float
    C0: float
    K_T: int
    aggregation: str
    threshold: float
    window_start: int
    truncated: bool

    def __post_init__(self):
        object.__setattr__(self, "q_grid", _readonly(np.asarray(self.q_grid, dtype=int)))


def _bandwidth_from_q(q: int, c_ef: float) -> float:
    return 1.0 / max(math.ceil(q / c_ef), 1)


def _check_series_length(T: int) -> None:
    if T < 8:
        raise DomainError(f"bandwidth selection needs T >= 8, got T = {T}")


def gamma_grid_indices(d: int) -> np.ndarray:
    """Nearest midpoint-grid indices for the probe points i/10, i = 0..9."""
    idx = np.array([round(i * d / 10 - 0.5) for i in range(GRID_SIDE)], dtype=int)
    return np.clip(idx, 0, d - 1)


def correlogram(series: FunctionalSeries, lag: int, tau_idx: int, sigma_idx: int) -> float:
    """Sample cross-correlation rhohat_m(tau, sigma) =
    rhat_m(tau, sigma) / sqrt(rhat_0(tau, tau) * rhat_0(sigma, sigma)).

    The divisor-T autocovariance keeps |rhohat| <= 1 by Cauchy-Schwarz.
    DomainError unless the lag is an integer with |lag| < T and both grid
    indices are integers in 0..d-1 (a bool is not an integer).
    """
    lag = _check_lag(lag, series.n_curves)
    for idx in (tau_idx, sigma_idx):
        if not _is_integer(idx) or not 0 <= idx < series.d:
            raise DomainError(f"grid index must be an integer in 0..{series.d - 1}, "
                              f"got {idx!r}")
    xy = center(series).values[:, [tau_idx, sigma_idx]]
    var = np.diagonal(_lag_product(xy, 0))
    if np.any(var <= 0.0):
        raise DegenerateDataError("zero variance at a probed grid point")
    cross = _lag_product(xy, abs(lag))
    num = cross[0, 1] if lag >= 0 else cross[1, 0]
    return float(num / math.sqrt(var[0] * var[1]))


def select_bandwidth(series: FunctionalSeries, spec: FlatTopSpec,
                     C0: float = 2.0, aggregation: str = "mean",
                     window_start: int = 1) -> BandwidthReport:
    """Empirical bandwidth rule over the 10 x 10 probe grid.

    Per pair, q is the smallest shift such that |rhohat_{m+q}| stays below the
    threshold for every m = window_start..K_T, with the window length
    K_T = max(5, ceil(sqrt(log10 T))). With window_start = 1 (default)
    the window covers the lags strictly beyond q, matching the simultaneous
    confidence-band reading of the rule; window_start = 0 additionally tests
    lag q itself, which can never pass at q = 0 on the diagonal (rhohat_0 = 1)
    and therefore never selects B = 1.

    Aggregation over the grid is mean-with-ceiling by default, which keeps a
    single outlying pair from dominating; ``max`` is the conservative variant.
    If some pair stays significant through the largest testable shift, its
    entry is capped at T - K_T - 1 and the report is flagged as truncated.
    Every option is checked before the search: UnsupportedKernelError for a
    spec without an effective flat-top radius (the Epanechnikov baseline),
    DomainError for a bad option or T < 8.
    """
    c_ef = effective_flat_top_radius(spec)
    T = series.n_curves
    _check_series_length(T)
    if window_start not in (0, 1):
        raise DomainError(f"window_start must be 0 or 1, got {window_start}")
    C0 = _check_positive("C0", C0)
    if aggregation not in ("max", "mean"):
        raise DomainError(f"aggregation must be 'max' or 'mean', got {aggregation!r}")
    K_T = max(5, math.ceil(math.sqrt(math.log10(T))))

    values = center(series).values
    sub = values[:, gamma_grid_indices(values.shape[1])]     # T x 10
    r0 = np.diagonal(_lag_product(sub, 0))
    if np.any(r0 <= 0.0):
        raise DegenerateDataError("zero variance at a probed grid point")
    denom = np.sqrt(np.outer(r0, r0))
    threshold = C0 * math.sqrt(math.log10(T) / T)

    # ok[m] flags the pairs with |rhohat_m| below the threshold; shift q passes
    # when ok holds on every lag of its window, m = q + window_start .. q + K_T.
    # The lag range doubles until every pair has a passing shift or T - 1 is
    # reached.
    max_lag = min(T - 1, 4 * K_T + 8)
    while True:
        rho = _autocovariance_stack(sub, max_lag, circular=False) / denom
        if not (np.isfinite(denom).all() and np.isfinite(rho).all()):
            raise NumericError("the probe variances or correlations are not finite")
        ok = np.abs(rho) < threshold
        passes = sliding_window_view(ok[window_start:], K_T + 1 - window_start,
                                     axis=0).all(axis=-1)
        found = passes.any(axis=0)
        if found.all() or max_lag >= T - 1:
            break
        max_lag = min(T - 1, 2 * max_lag)

    q_grid = np.where(found, passes.argmax(axis=0), T - K_T - 1)
    q_hat = (int(q_grid.max()) if aggregation == "max"
             else int(math.ceil(q_grid.mean())))
    return BandwidthReport(q_hat=q_hat, q_grid=q_grid, B_T=_bandwidth_from_q(q_hat, c_ef),
                           c_ef=c_ef, C0=C0, K_T=K_T, aggregation=aggregation,
                           threshold=threshold, window_start=window_start,
                           truncated=not found.all())


def report_to_json_dict(report: BandwidthReport) -> dict:
    return {**asdict(report), "q_grid": report.q_grid.tolist()}
