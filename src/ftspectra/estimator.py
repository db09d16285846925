"""Frequency-domain machinery: functional DFT, sample autocovariance kernels,
and the two spectral density estimators (smoothed periodogram and lag
window). For flat-top tapers both estimators are one lag sum over a stack of
autocovariances, circular or linear. Every public function centers its own
input."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    TWO_PI,
    DomainError,
    FunctionalSeries,
    SpectralEstimate,
    _check_integer,
    _hermitian_sum,
    center,
    check_frequencies,
)
from .kernels import (
    FlatTopSpec,
    UnsupportedKernelError,
    _lag_phases,
    baseline_weight,
    check_bandwidth,
    lag_weights,
)

#: Paper-grid default: omega_j = pi * j / 10 for j = 0..9.
DEFAULT_FREQUENCIES = np.pi * np.arange(10) / 10.0

METHOD_SMOOTHED = "smoothed-periodogram"
METHOD_LAG_WINDOW = "lag-window"


def fdft_all(series: FunctionalSeries) -> np.ndarray:
    """Functional DFT of the centered series at every Fourier frequency
    2*pi*s/T, s = 0..T-1, as a T x d complex matrix with row s
    Xtilde_omega(tau_i) = (2*pi*T)^(-1/2) * sum_t X_t(tau_i) e^(-i omega t).
    Cost O(d T log T) via one real FFT over the time axis: rows 0..T//2 are
    computed, and row T - s is the conjugate of row s."""
    H = _fdft(center(series).values)
    return np.concatenate([H, H[1:(series.n_curves + 1) // 2][::-1].conj()])


def _fdft(values: np.ndarray) -> np.ndarray:
    """Rows s = 0..T//2 of fdft_all of the already centered T x d values."""
    H = np.fft.rfft(values, axis=0)
    H /= math.sqrt(TWO_PI * values.shape[0])
    return H


def _lag_product(values: np.ndarray, u: int) -> np.ndarray:
    """(1/T) * sum_{t<T-u} X_{t+u} X_t^T for a lag 0 <= u < T: the linear,
    biased (divisor T) sample autocovariance of the centered values."""
    T = values.shape[0]
    return (values[u:].T @ values[: T - u]) / T


def autocovariance(series: FunctionalSeries, lag: int) -> np.ndarray:
    """Sample autocovariance kernel of the centered series at an integer lag
    u, |u| < T, as a d x d real matrix with entry (i, j)
    rhat_u(tau_i, tau_j) = (1/T) * sum_t X_{t+u}(tau_i) X_t(tau_j), the sum
    over all t keeping both indices in range (divisor T, biased form)."""
    lag = _check_lag(lag, series.n_curves)
    m = _lag_product(center(series).values, abs(lag))
    return m.T if lag < 0 else m


def _check_lag(lag, T: int) -> int:
    """The lag as an int; DomainError unless an integer with |lag| < T."""
    lag = _check_integer("lag", lag)
    if abs(lag) >= T:
        raise DomainError(f"lag {lag} out of range for T = {T}")
    return lag


#: Rows t of the raw series the lag stack centers and sums at a time,
#: besides the lead rows t + u of its largest lag.
_ROWS = 4096


def _centered_rows(values: np.ndarray, mean: np.ndarray, start: int,
                   out: np.ndarray) -> np.ndarray:
    """out, filled with the rows start, start + 1, ... of the T x d values
    minus the mean, the row indices taken mod T: a circular stack's last
    rows are followed by its first ones again."""
    own = min(out.shape[0], values.shape[0] - start)
    np.subtract(values[start: start + own], mean, out=out[:own])
    np.subtract(values[: out.shape[0] - own], mean, out=out[own:])
    return out


def _autocovariance_stack(values: np.ndarray, n_lags: int, circular: bool,
                          centered: np.ndarray | None = None) -> np.ndarray:
    """Stack of lag products (1/T) * sum_t X_{t+u} X_t^T of the centered
    series for the distinct lags u = 0..min(n_lags, T - 1), n of them:
    circular (t + u taken mod T) or linear (t < T - u).

    The lags read the centered rows, followed for circular lags by the first
    n - 1 of them again. The stack takes the raw values and centers _ROWS
    rows at a time, with the lead rows of the largest lag, in one reused
    buffer, so no centered copy of the series is made; or it is handed all
    those rows already centered, as centered, and reads the same blocks of
    them. Each lag adds up one product per block; lag 0 is each block's
    product with itself, exactly symmetric. Up to _ROWS rows that is one
    product per lag; past it the blocks' sums move the last bits."""
    T, d = values.shape
    n = min(n_lags, T - 1) + 1
    extent = T + n - 1 if circular else T   # rows t + u the lags read
    if centered is None:
        mean = values.mean(axis=0)
        buffer = np.empty((min(extent, _ROWS + n - 1), d))
    stack = np.empty((n, d, d))
    for start in range(0, T, _ROWS):
        stop = min(start + _ROWS, T)
        end = min(stop + n - 1, extent)
        block = (centered[start:end] if centered is not None
                 else _centered_rows(values, mean, start, buffer[: end - start]))
        for u, lag in enumerate(stack[: extent - start]):
            rows = min(stop, extent - u) - start    # t = start..start+rows-1
            if start == 0:
                np.matmul(block[u: u + rows].T, block[:rows], out=lag)
            else:
                lag += block[u: u + rows].T @ block[:rows]
    stack /= T
    return stack


def _lag_sum(stack: np.ndarray, lam: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
    """(1/(2*pi)) * sum_{|u|<=L} lam_u e^(-i omega u) C_u with C_(-u) = C_u^T,
    at every frequency at once: (n_frequencies, d, d). A lag u = r + k*n past
    the n stacked ones is row r (circular lags repeat with period T), so
    e^(-i omega u) = e^(-i omega r) e^(-i omega k n) folds its weight onto r.

    Computed as A + A^H with A the one-sided sum (lag 0 at half weight), which
    makes every matrix exactly Hermitian. The lags are real, so A = R + iS
    comes from one real product of the real and imaginary rows of the phase
    weights with the stack, with no complex copy of the stack or of A.
    """
    n, d = stack.shape[0], stack.shape[1]
    phase = _lag_phases(lam, n, frequencies)
    # lag-major weights make the left operand a transposed one, for which
    # OpenBLAS sums each entry over the lags as the complex phase.T @ stack
    # does: the same bits for two or more frequencies and up to 20 lags
    rows = np.concatenate([phase.real, phase.imag], axis=1)
    return _hermitian_sum(*(rows.T @ stack.reshape(n, d * d)).reshape(2, -1, d, d))


def _frequencies(frequencies) -> np.ndarray:
    return check_frequencies(DEFAULT_FREQUENCIES if frequencies is None else frequencies)


def _flat_top_lags(spec, bandwidth, T: int, circular: bool) -> np.ndarray:
    """lam(B u) for u = 0..L, L the last lag with a nonzero weight (linear lags
    end at T - 1); the trailing zero weights add nothing to the lag sum."""
    lam = lag_weights(spec, bandwidth)
    if not circular:
        lam = lam[:T]
    return lam[: int(np.flatnonzero(lam)[-1]) + 1]


def _baseline_block(H, T, bandwidth, frequencies) -> np.ndarray:
    """Epanechnikov-weighted periodogram average, the sum as written,
    (2*pi/T) * sum_{s=1}^{T-1} W(omega - 2*pi*s/T) F_s F_s^H over the terms
    with a nonzero weight, at every frequency: (n_frequencies, d, d).

    H holds the fDFT rows 0..T//2 of the centered series. A row s > T/2 is
    F_s = conj(H_(T-s)), so those terms add up to the conjugate of
    sum_r W(omega - 2*pi*(T-r)/T) H_r H_r^H over r = 1..(T-1)//2; the row
    T/2 of an even T enters once. One weight row at a time, O(T) memory:
    only the gathered rows are conjugated."""
    H = H[1:]
    omegas = TWO_PI * np.arange(1, T) / T
    acc = np.empty((len(frequencies), H.shape[1], H.shape[1]), dtype=complex)
    for m, w in zip(acc, frequencies):
        weights = baseline_weight(bandwidth, w - omegas)
        # low weighs the fDFT rows s = 1..T//2; high the conjugates of rows
        # r = 1..(T-1)//2, which are the ordinates s = T - r
        low, high = weights[: T // 2], weights[T // 2:][::-1]
        s, r = np.flatnonzero(low), np.flatnonzero(high)
        m[...] = (H[s].T * low[s]) @ H[s].conj()
        m += (H[r].conj().T * high[r]) @ H[r]
    # (2*pi/T) * (m + m^H) / 2, exactly Hermitian
    block = _hermitian_sum(acc.real, acc.imag)
    block *= np.pi / T
    return block


def _estimate_specs(values, specs, bandwidths, frequencies, method):
    """An iterator over the SpectralEstimates of the raw T x d values by the
    method, estimate_smoothed's or estimate_lagwindow's, for each spec at
    its bandwidth, on the checked frequencies. The specs share the work,
    done here: the flat-top ones contract one lag stack, circular for the
    smoothed periodogram and linear for the lag window, built at their
    largest lag count; the baselines one half-spectrum fDFT. The stack
    centers the values a block of rows at a time; with a baseline the
    values are centered once, with the circular stack's lead rows, and the
    fDFT and the stack both read that copy. Every bandwidth is checked, and
    the lag window refuses a baseline, before any of it. Lag u of a stack
    is the same lag product however many lags the stack holds, so each
    estimate is the one-spec estimate bit for bit. The iterator holds the
    stack and the fDFT, not the values, and makes one estimate at a time."""
    T = values.shape[0]
    circular = method == METHOD_SMOOTHED
    bandwidths = [check_bandwidth(bandwidth) for bandwidth in bandwidths]
    if not circular and not all(spec.is_flat_top for spec in specs):
        raise UnsupportedKernelError("the Epanechnikov baseline has no lag-window form")
    lams = [_flat_top_lags(spec, bandwidth, T, circular) if spec.is_flat_top else None
            for spec, bandwidth in zip(specs, bandwidths)]
    n_lags = max((lam.size - 1 for lam in lams if lam is not None), default=None)
    centered = H = None
    if any(lam is None for lam in lams):
        n = min(n_lags or 0, T - 1) + 1
        centered = _centered_rows(values, values.mean(axis=0), 0,
                                  np.empty((T + n - 1, values.shape[1])))
        values = centered[:T]   # lets the raw values go, unless a caller holds them
        H = _fdft(values)
    stack = None if n_lags is None else _autocovariance_stack(values, n_lags, circular,
                                                              centered)
    return (SpectralEstimate(frequencies,
                             _baseline_block(H, T, bandwidth, frequencies) if lam is None
                             else _lag_sum(stack[: lam.size], lam, frequencies),
                             bandwidth, spec.identifier, method)
            for spec, bandwidth, lam in zip(specs, bandwidths, lams))


def _estimate(series, spec, bandwidth, frequencies, method) -> SpectralEstimate:
    frequencies = _frequencies(frequencies)
    estimate, = _estimate_specs(series.values, (spec,), (bandwidth,), frequencies, method)
    return estimate


def estimate_smoothed(series: FunctionalSeries, spec: FlatTopSpec,
                      bandwidth: float, frequencies=None) -> SpectralEstimate:
    """Spectral density estimate by smoothing periodogram ordinates:
    fhat_omega = (2*pi/T) * sum_{s=1}^{T-1} W(omega - 2*pi*s/T) * p_{2*pi*s/T}.

    The series is centered first, which makes the excluded s = 0 ordinate
    identically zero. For flat-top specs W is the finite cosine series
    (1/(2*pi)) * sum_{|u|<=L} lam(B*u) e^(-ixu), L = ceil(S/B), and the sum is
    evaluated in its equal lag form
    fhat_omega = (1/(2*pi)) * sum_{|u|<=L} lam(B*u) chat_u e^(-i omega u)
    over the circular autocovariances
    chat_u = (1/T) * sum_{t=0}^{T-1} X_{(t+u) mod T} X_t^T, for L >= T too.
    The Epanechnikov baseline has no finite lag form; its periodized weight
    multiplies the ordinates directly, and the terms with a nonzero weight
    are summed.
    """
    return _estimate(series, spec, bandwidth, frequencies, METHOD_SMOOTHED)


def estimate_lagwindow(series: FunctionalSeries, spec: FlatTopSpec,
                       bandwidth: float, frequencies=None) -> SpectralEstimate:
    """Lag-window form of the flat-top estimate:
    fhat_omega = (1/(2*pi)) * sum_{|u|<T} lam(B*u) rhat_u e^(-i omega u).

    lam has compact support, so the sum is truncated at the first lag outside
    it; all dropped terms are exactly zero. Flat-top specs only: the baseline
    has no taper form.
    """
    return _estimate(series, spec, bandwidth, frequencies, METHOD_LAG_WINDOW)
