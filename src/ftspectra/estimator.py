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
    FrequencyKernel,
    FunctionalSeries,
    SpectralEstimate,
    center,
    check_frequencies,
    hermitize,
)
from .kernels import (
    FlatTopSpec,
    UnsupportedKernelError,
    baseline_weight,
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
    Cost O(d T log T) via an FFT over the time axis."""
    return _fdft(center(series).values)


def _fdft(values: np.ndarray) -> np.ndarray:
    """fdft_all of the already centered T x d values."""
    return np.fft.fft(values, axis=0) / math.sqrt(TWO_PI * values.shape[0])


def _lag_product(values: np.ndarray, u: int, circular: bool = False) -> np.ndarray:
    """(1/T) * sum_t X_{t+u} X_t^T for a lag 0 <= u (divisor T). Linear: the
    sum runs over t < T - u, the biased sample autocovariance. Circular: it
    runs over every t with t + u taken mod T, for any u >= 0."""
    T = values.shape[0]
    lead = np.roll(values, -u, axis=0) if circular else values[u:]
    return (lead.T @ values[: lead.shape[0]]) / T


def autocovariance(series: FunctionalSeries, lag: int) -> np.ndarray:
    """Sample autocovariance kernel of the centered series at an integer lag
    u, |u| < T, as a d x d real matrix with entry (i, j)
    rhat_u(tau_i, tau_j) = (1/T) * sum_t X_{t+u}(tau_i) X_t(tau_j), the sum
    over all t keeping both indices in range (divisor T, biased form)."""
    T = series.n_curves
    lag = int(lag)
    if abs(lag) >= T:
        raise DomainError(f"lag {lag} out of range for T = {T}")
    m = _lag_product(center(series).values, abs(lag))
    return m.T if lag < 0 else m


def _autocovariance_stack(values: np.ndarray, n_lags: int, circular: bool) -> np.ndarray:
    """(n_lags + 1, d, d) stack of lag products for u = 0..n_lags. Circular
    lags repeat with period T, so only the distinct ones are computed."""
    T = values.shape[0]
    stack = np.stack([_lag_product(values, u, circular)
                      for u in range(min(n_lags, T - 1) + 1)])
    return stack[np.arange(n_lags + 1) % T] if n_lags >= T else stack


def _lag_sum(stack: np.ndarray, lam: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
    """(1/(2*pi)) * sum_{|u|<=L} lam_u e^(-i omega u) C_u with C_(-u) = C_u^T,
    at every frequency at once: (n_frequencies, d, d).

    Computed as A + A^H with A the one-sided sum (lag 0 at half weight), which
    makes every matrix exactly Hermitian.
    """
    n, d = stack.shape[0], stack.shape[1]
    w = lam[:n] / TWO_PI
    w[0] *= 0.5
    phase = np.exp(-1j * np.outer(frequencies, np.arange(n))) * w
    a = (phase @ stack.reshape(n, d * d)).reshape(-1, d, d)
    return a + a.conj().transpose(0, 2, 1)


def _frequencies(frequencies) -> np.ndarray:
    return check_frequencies(DEFAULT_FREQUENCIES if frequencies is None else frequencies)


def _flat_top_lags(spec, bandwidth, T: int, circular: bool) -> np.ndarray:
    """lam(B u) for u = 0..L, L the last lag with a nonzero weight (linear lags
    end at T - 1); the trailing zero weights add nothing to the lag sum."""
    lam = lag_weights(spec, bandwidth)
    if not circular:
        lam = lam[:T]
    return lam[: int(np.flatnonzero(lam)[-1]) + 1]


def _baseline_core(F, bandwidth, frequencies) -> SpectralEstimate:
    """Epanechnikov-weighted periodogram average from the T x d fDFT F of the
    centered series, the sum as written, (2*pi/T) * sum_{s=1}^{T-1}
    W(omega - 2*pi*s/T) F_s F_s^H, over the terms with a nonzero weight."""
    T = F.shape[0]
    F, F_conj = F[1:], F[1:].conj()
    omegas = TWO_PI * np.arange(1, T) / T
    kernels = []
    for w in frequencies:
        weights = baseline_weight(bandwidth, w - omegas)
        s = np.flatnonzero(weights)
        m = TWO_PI / T * ((F[s].T * weights[s]) @ F_conj[s])
        kernels.append(FrequencyKernel(hermitize(m)))
    return SpectralEstimate(frequencies, tuple(kernels), float(bandwidth), "EPA",
                            METHOD_SMOOTHED)


def _estimate_specs(values, specs, bandwidths, frequencies, method):
    """An iterator over the estimates of the centered T x d values by the
    method, estimate_smoothed's or estimate_lagwindow's, for each spec at its
    bandwidth. The specs share the work, done here: the flat-top ones
    contract one lag stack, circular for the smoothed periodogram and linear
    for the lag window, built at their largest lag count; the baselines one
    fDFT. The lag window refuses a baseline before any of it. Lag u of a
    stack is the same lag product however many lags the stack holds, so each
    estimate is the one-spec estimate bit for bit. The iterator holds the
    stack and the fDFT, not the values, and makes one estimate at a time."""
    T = values.shape[0]
    circular = method == METHOD_SMOOTHED
    if not circular and not all(spec.is_flat_top for spec in specs):
        raise UnsupportedKernelError("the Epanechnikov baseline has no lag-window form")
    lams = [_flat_top_lags(spec, bandwidth, T, circular) if spec.is_flat_top else None
            for spec, bandwidth in zip(specs, bandwidths)]
    sizes = [lam.size for lam in lams if lam is not None]
    stack = _autocovariance_stack(values, max(sizes) - 1, circular) if sizes else None
    F = _fdft(values) if any(lam is None for lam in lams) else None
    return (_baseline_core(F, bandwidth, frequencies) if lam is None
            else SpectralEstimate(
                frequencies,
                map(FrequencyKernel, _lag_sum(stack[: lam.size], lam, frequencies)),
                float(bandwidth), spec.identifier, method)
            for spec, bandwidth, lam in zip(specs, bandwidths, lams))


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
    frequencies = _frequencies(frequencies)
    return next(_estimate_specs(center(series).values, (spec,), (bandwidth,),
                                frequencies, METHOD_SMOOTHED))


def estimate_lagwindow(series: FunctionalSeries, spec: FlatTopSpec,
                       bandwidth: float, frequencies=None) -> SpectralEstimate:
    """Lag-window form of the flat-top estimate:
    fhat_omega = (1/(2*pi)) * sum_{|u|<T} lam(B*u) rhat_u e^(-i omega u).

    lam has compact support, so the sum is truncated at the first lag outside
    it; all dropped terms are exactly zero. Flat-top specs only: the baseline
    has no taper form.
    """
    frequencies = _frequencies(frequencies)
    return next(_estimate_specs(center(series).values, (spec,), (bandwidth,),
                                frequencies, METHOD_LAG_WINDOW))
