import json
import tracemalloc

import numpy as np
import pytest

from ftspectra import (
    DomainError,
    FunctionalSeries,
    Grid,
    NumericError,
    UnsupportedKernelError,
    autocovariance,
    baseline_weight,
    center,
    epanechnikov,
    estimate_from_json_dict,
    estimate_lagwindow,
    estimate_smoothed,
    estimate_to_json_dict,
    fdft_all,
    flat_top_parzen,
    generate_fma1,
    hs_distance,
    hs_norm,
    infinitely_differentiable,
    lambda_eval,
    make_fma1_model,
    trapezoid,
    weight_function,
)
from ftspectra import estimator
from ftspectra.estimator import DEFAULT_FREQUENCIES

FLAT_TOPS = [trapezoid(), flat_top_parzen(), infinitely_differentiable()]
IDS = ["TR", "PR", "ID"]


@pytest.fixture(scope="module")
def fma_series():
    model = make_fma1_model(42, d=30)
    return center(generate_fma1(model, 256))


def centered(values):
    values = np.asarray(values, dtype=float)
    return center(FunctionalSeries(Grid(values.shape[1]), values))


def test_centers_own_input(rng):
    # fdft_all and autocovariance on a raw series equal, bit for bit, the
    # same formulas applied to values - values.mean(axis=0); the fDFT's rows
    # 0..T/2 are the real FFT, the others their conjugates
    T = 12
    s = FunctionalSeries(Grid(4), rng.standard_normal((T, 4)) + 5.0)
    c = s.values - s.values.mean(axis=0)
    half = np.fft.rfft(c, axis=0) / np.sqrt(2 * np.pi * T)
    assert np.array_equal(fdft_all(s), np.concatenate([half, half[1:T // 2][::-1].conj()]))
    for u in (0, 1, 5, T - 1):
        lagged = (c[u:].T @ c[: T - u]) / T
        assert np.array_equal(autocovariance(s, u), lagged)
        assert np.array_equal(autocovariance(s, -u), lagged.T)


class TestFdft:
    def test_zero_series(self):
        s = FunctionalSeries(Grid(3), np.zeros((8, 3)))
        assert np.all(fdft_all(s) == 0.0)

    def test_two_point_alternating(self, rng):
        # row 1 is the frequency pi
        v = rng.standard_normal(5)
        s = FunctionalSeries(Grid(5), np.vstack([v, -v]))
        F = fdft_all(s)
        expected = 2.0 * v / np.sqrt(4.0 * np.pi)
        assert np.allclose(F[1], expected, rtol=1e-14)
        assert np.allclose(F[0], 0.0, atol=1e-15)

    def test_parseval(self, fma_series):
        s = fma_series
        T, d = s.n_curves, s.d
        F = fdft_all(s)
        lhs = (2 * np.pi / T) * np.sum(np.abs(F) ** 2) / d
        rhs = np.sum(s.values**2) / T / d
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_conjugate_pairing(self, fma_series):
        F = fdft_all(fma_series)
        T = fma_series.n_curves
        for s in (1, 5, T // 3):
            assert np.allclose(F[T - s], F[s].conj(), rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("T", [2, 3, 7, 8, 9, 16, 257])
    def test_rows_pair_as_exact_conjugates(self, rng, T):
        # row T - s is built as the conjugate of row s, s = 1..T-1; at T/2
        # the real FFT's Nyquist row is real
        F = fdft_all(FunctionalSeries(Grid(5), rng.standard_normal((T, 5))))
        s = np.arange(1, T)
        assert F.shape == (T, 5)
        assert np.array_equal(F[T - s], F[s].conj())

    @pytest.mark.parametrize("T", [2, 7, 8, 64, 2048])
    def test_agrees_with_the_complex_fft(self, rng, T):
        values = rng.standard_normal((T, 6))
        c = values - values.mean(axis=0)
        direct = np.fft.fft(c, axis=0) / np.sqrt(2 * np.pi * T)
        F = fdft_all(FunctionalSeries(Grid(6), values))
        assert np.max(np.abs(F - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_requires_centered(self, rng):
        # fdft_all centers its own input: a constant added to each column
        # leaves the fDFT unchanged, and the frequency-zero row vanishes
        values = rng.standard_normal((10, 4))
        F = fdft_all(FunctionalSeries(Grid(4), values))
        shifted = fdft_all(FunctionalSeries(Grid(4), values + [5.0, -3.0, 0.5, 100.0]))
        assert np.allclose(shifted, F, rtol=0, atol=1e-12)
        assert np.allclose(F[0], 0.0, atol=1e-15)


class TestPeriodogram:
    def test_equals_autocovariance_fourier_sum(self):
        model = make_fma1_model(3, d=8)
        s = center(generate_fma1(model, 32))
        T = s.n_curves
        covs = {u: autocovariance(s, u) for u in range(-(T - 1), T)}
        F = fdft_all(s)
        for si in (1, 7, 20):
            w = 2 * np.pi * si / T
            direct = np.outer(F[si], F[si].conj())
            summed = sum(covs[u] * np.exp(-1j * w * u)
                         for u in range(-(T - 1), T)) / (2 * np.pi)
            assert np.max(np.abs(direct - summed)) < 1e-8


class TestAutocovariance:
    def test_lag_zero_single_pattern(self):
        v = np.array([1.0, -2.0, 0.5])
        s = FunctionalSeries(Grid(3), np.vstack([v, -v, v, -v]))
        r0 = autocovariance(s, 0)
        assert np.allclose(r0, np.outer(v, v), rtol=1e-14)

    def test_max_lag_single_term(self, rng):
        # rows in +/- pairs, so the mean is exactly zero
        half = rng.standard_normal((3, 4))
        vals = np.stack([half, -half], axis=1).reshape(6, 4)
        s = FunctionalSeries(Grid(4), vals)
        r = autocovariance(s, 5)
        assert np.allclose(r, np.outer(vals[5], vals[0]) / 6, rtol=1e-14)

    def test_transpose_symmetry_exact(self, fma_series):
        for u in (1, 3, 17):
            pos = autocovariance(fma_series, u)
            neg = autocovariance(fma_series, -u)
            assert np.array_equal(neg, pos.T)

    def test_lag_out_of_range(self, fma_series):
        with pytest.raises(DomainError):
            autocovariance(fma_series, fma_series.n_curves)
        with pytest.raises(DomainError, match=f"lag -{fma_series.n_curves} out of range "
                                              f"for T = {fma_series.n_curves}"):
            autocovariance(fma_series, -fma_series.n_curves)

    @pytest.mark.parametrize("lag", [1.7, 1.0, True, np.float64(2.0)],
                             ids=["fraction", "integral-float", "bool", "numpy-float"])
    def test_lag_must_be_an_integer(self, fma_series, lag):
        # int(1.7) used to read lag 1
        with pytest.raises(DomainError) as raised:
            autocovariance(fma_series, lag)
        assert str(raised.value) == f"lag must be an integer, got {lag!r}"
        assert np.array_equal(autocovariance(fma_series, np.int64(2)),
                              autocovariance(fma_series, 2))


class TestSmoothedEstimator:
    def test_uniform_weight_recovers_mean_periodogram(self, fma_series):
        s = fma_series
        T = s.n_curves
        # trapezoid at bandwidth 1: lam(u) = 0 for u >= 1, so W = 1/(2 pi)
        est = estimate_smoothed(s, trapezoid(), 1.0,
                                frequencies=np.array([0.0, np.pi / 2]))
        F = fdft_all(s)[1:]
        pmean = sum(np.outer(f, f.conj()) for f in F) / T
        for k in est.kernels:
            assert np.max(np.abs(k.matrix - pmean)) < 1e-12 * np.max(np.abs(pmean))

    @pytest.mark.parametrize("T, bandwidth", [(512, 512 ** (-0.2)), (16, 0.05), (64, 1.0)],
                             ids=["T512-rate", "T16-wrapping-lags", "T64-unit"])
    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_smoothed_equals_periodogram_sum(self, spec, T, bandwidth):
        # the lag form over circular autocovariances against the explicit
        # (2 pi / T) * sum_{s=1}^{T-1} W(omega - omega_s) p_s; at T = 16,
        # B = 0.05 the lag count L = ceil(S / B) exceeds T, so lags wrap
        s = center(generate_fma1(make_fma1_model(11, d=12), T))
        est = estimate_smoothed(s, spec, bandwidth)
        ordinates = fdft_all(s)[1:]
        omegas = 2 * np.pi * np.arange(1, T) / T
        for w, k in zip(est.frequencies, est.kernels):
            weights = weight_function(spec, bandwidth, w - omegas)
            direct = (2 * np.pi / T) * sum(
                wt * np.outer(f, f.conj()) for wt, f in zip(weights, ordinates))
            assert np.max(np.abs(k.matrix - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("T, bandwidth", [(512, 512 ** (-0.2)), (64, 1.0), (2, 1.0),
                                              (3, 1.0), (5, 1.0), (64, 0.01),
                                              (2048, 2048 ** (-0.2))],
                             ids=["T512-rate", "T64-unit", "T2-unit", "T3-unit", "T5-unit",
                                  "T64-narrow", "T2048-rate"])
    def test_baseline_equals_periodogram_sum(self, T, bandwidth):
        # EPA against the explicit sum over every s = 1..T-1. Frequencies
        # near 0 and 2 pi make the band wrap, and one sits exactly on an
        # ordinate. With B = 1 the band holds most ordinates at T = 2, 3 and
        # 5. At T = 64 with B = 0.01, four of the five frequencies have no
        # ordinate in their support, and their estimate is the zero matrix.
        s = generate_fma1(make_fma1_model(11, d=12), T)
        freqs = np.unique([0.0, 0.005, 2 * np.pi * (T // 2) / T, 3.0,
                           2 * np.pi - 0.001])
        est = estimate_smoothed(s, epanechnikov(), bandwidth, freqs)
        ordinates = fdft_all(s)[1:]
        omegas = 2 * np.pi * np.arange(1, T) / T
        for w, k in zip(freqs, est.kernels):
            weights = baseline_weight(bandwidth, w - omegas)
            direct = (2 * np.pi / T) * sum(
                wt * np.outer(f, f.conj()) for wt, f in zip(weights, ordinates))
            assert np.max(np.abs(k.matrix - direct)) <= 1e-12 * np.max(np.abs(direct))
            assert np.any(weights) or not np.any(k.matrix)

    @pytest.mark.parametrize("T", [7, 8, 9, 16])
    @pytest.mark.parametrize("bandwidth", [0.3, 1.0])
    def test_half_spectrum_baseline_equals_the_full_sum(self, T, bandwidth):
        # EPA from the real FFT's rows 0..T/2 against the sum over every
        # s = 1..T-1 of the complex FFT's ordinates: odd and even T (the
        # Nyquist ordinate counted once), frequencies near 0, on pi and near
        # it, and near 2 pi. Where no ordinate has a weight, both are zero.
        s = generate_fma1(make_fma1_model(13, d=5), T)
        c = s.values - s.values.mean(axis=0)
        F = np.fft.fft(c, axis=0) / np.sqrt(2 * np.pi * T)
        freqs = np.array([0.0, 1e-3, 0.2, np.pi - 1e-3, np.pi, np.pi + 1e-3,
                          2 * np.pi - 1e-3])
        est = estimate_smoothed(s, epanechnikov(), bandwidth, freqs)
        for w, k in zip(freqs, est.kernels):
            direct = (2 * np.pi / T) * sum(
                baseline_weight(bandwidth, w - 2 * np.pi * j / T) * np.outer(F[j], F[j].conj())
                for j in range(1, T))
            assert np.max(np.abs(k.matrix - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_white_noise_mean_matches_flat_spectrum(self):
        # iid curves: E fhat = E r0 / (2 pi). The pooled difference must sit
        # within 3 MC standard errors (any normalization slip would blow this
        # up by orders of magnitude); entrywise deviations get a multiplicity
        # allowance across the d^2 correlated entries.
        rng = np.random.default_rng(99)
        d, T, reps = 12, 128, 200
        root = rng.standard_normal((d, d)) / np.sqrt(d)
        diffs = []
        for _ in range(reps):
            s = centered(rng.standard_normal((T, d)) @ root.T)
            est = estimate_smoothed(s, trapezoid(), 0.25,
                                    frequencies=np.array([np.pi / 3]))
            r0 = autocovariance(s, 0)
            diffs.append((est.kernels[0].matrix - r0 / (2 * np.pi)).real)
        diffs = np.array(diffs)
        mean = diffs.mean(axis=0)
        se = diffs.std(axis=0, ddof=1) / np.sqrt(reps)
        pooled = diffs.mean(axis=(1, 2))
        pooled_se = pooled.std(ddof=1) / np.sqrt(reps)
        assert abs(pooled.mean()) <= 3.0 * pooled_se + 1e-12
        assert np.all(np.abs(mean) <= 4.0 * se + 1e-12)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_agrees_with_lag_window(self, fma_series, spec):
        B = 256 ** (-0.2)
        sm = estimate_smoothed(fma_series, spec, B)
        lw = estimate_lagwindow(fma_series, spec, B)
        for a, b in zip(sm.kernels, lw.kernels):
            rel = hs_distance(a, b) / max(hs_norm(a), hs_norm(b))
            assert rel < 0.1

    def test_baseline_weight_path(self, fma_series):
        est = estimate_smoothed(fma_series, epanechnikov(), 0.3)
        assert est.kernel_id == "EPA"
        assert len(est.kernels) == 10

    def test_hermitian_and_mirror_symmetry(self, fma_series):
        w = 0.7
        freqs = np.array([w, 2 * np.pi - w])
        est = estimate_smoothed(fma_series, trapezoid(), 0.3, frequencies=freqs)
        for k in est.kernels:
            assert np.array_equal(k.matrix, k.matrix.conj().T)
        a, b = est.kernels
        assert np.max(np.abs(b.matrix - a.matrix.conj())) < 1e-12 * np.max(np.abs(a.matrix))

    def test_linear_in_disjoint_frequency_components(self):
        d, T = 6, 64
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(d), rng.standard_normal(d)
        t = np.arange(T)
        s1 = np.outer(np.cos(2 * np.pi * 5 * t / T), a)
        s2 = np.outer(np.cos(2 * np.pi * 13 * t / T), b)
        e1 = estimate_smoothed(centered(s1), trapezoid(), 0.2)
        e2 = estimate_smoothed(centered(s2), trapezoid(), 0.2)
        esum = estimate_smoothed(centered(s1 + s2), trapezoid(), 0.2)
        for k1, k2, ks in zip(e1.kernels, e2.kernels, esum.kernels):
            combined = k1.matrix + k2.matrix
            scale = max(np.max(np.abs(combined)), 1e-30)
            assert np.max(np.abs(ks.matrix - combined)) < 1e-10 * scale

    def test_rejects_bad_bandwidth(self, fma_series):
        for b in (0.0, -1.0, 1.0001):
            with pytest.raises(DomainError):
                estimate_smoothed(fma_series, trapezoid(), b)


class TestLagWindowEstimator:
    def test_only_lag_zero_survives(self, fma_series):
        # trapezoid at bandwidth 1: lam(u) = 0 for every u >= 1
        est = estimate_lagwindow(fma_series, trapezoid(), 1.0)
        r0 = autocovariance(fma_series, 0)
        for k in est.kernels:
            assert np.allclose(k.matrix, r0 / (2 * np.pi), rtol=1e-12, atol=1e-15)

    def test_zero_frequency_real_symmetric(self, fma_series):
        est = estimate_lagwindow(fma_series, trapezoid(), 0.25,
                                 frequencies=np.array([0.0]))
        m = est.kernels[0].matrix
        assert np.max(np.abs(m.imag)) < 1e-12
        assert np.allclose(m.real, m.real.T, rtol=0, atol=1e-12)

    def test_baseline_unsupported(self, fma_series):
        with pytest.raises(UnsupportedKernelError):
            estimate_lagwindow(fma_series, epanechnikov(), 0.3)

    def test_metadata(self, fma_series):
        est = estimate_lagwindow(fma_series, flat_top_parzen(), 0.25)
        assert est.method == "lag-window"
        assert est.kernel_id == "PR(c=0.75)"
        assert np.array_equal(est.frequencies, DEFAULT_FREQUENCIES)

    def test_baseline_refused_before_any_work(self, fma_series, monkeypatch):
        def no_work(*args):
            raise AssertionError("the lag window worked on a baseline spec")

        monkeypatch.setattr(estimator, "_autocovariance_stack", no_work)
        monkeypatch.setattr(estimator, "_fdft", no_work)
        with pytest.raises(UnsupportedKernelError):
            estimate_lagwindow(fma_series, epanechnikov(), 0.3)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    @pytest.mark.parametrize("T, B", [(512, 512 ** (-0.2)), (16, 0.05), (64, 1.0),
                                      (5000, 5000 ** (-0.2))],
                             ids=["rate", "L-beyond-T", "B-one", "two-row-blocks"])
    def test_matches_the_direct_lag_sum(self, spec, T, B):
        # (1/(2 pi)) sum_{|u|<T} lam(B u) rhat_u e^{-i omega u}, term by term;
        # at B = 0.05 and T = 16 the support runs past the last lag T - 1,
        # and T = 5000 sums the lag stack over two blocks of rows; a lag
        # with a zero weight adds nothing, so it is left out. Scaled by the
        # largest entry over all frequencies: a centered series has a
        # vanishing omega = 0 term.
        s = generate_fma1(make_fma1_model(7, d=6), T)
        est = estimate_lagwindow(s, spec, B)
        lags = [u for u in range(-(T - 1), T) if lambda_eval(spec, B * u) != 0.0]
        terms = [lambda_eval(spec, B * u) * autocovariance(s, u) for u in lags]
        direct = np.array([sum(np.exp(-1j * w * u) * c for u, c in zip(lags, terms))
                           for w in est.frequencies]) / (2 * np.pi)
        got = np.array([k.matrix for k in est.kernels])
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


def complex_lag_sum(stack, lam, frequencies):
    """The lag sum in complex arithmetic: A = sum_u w_u e^(-i omega u) C_u
    (lag 0 at half weight) by one complex product, then A + A^H."""
    n, d = stack.shape[0], stack.shape[1]
    w = lam[:n] / (2 * np.pi)
    w[0] *= 0.5
    phase = np.exp(-1j * np.outer(frequencies, np.arange(n))) * w
    a = (phase @ stack.reshape(n, d * d)).reshape(-1, d, d)
    return a + a.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("d", [2, 3, 50, 100])
def test_lag_sum_is_the_complex_lag_sum_bit_for_bit(n, d):
    # with the bundled OpenBLAS the real product sums each entry over the
    # lags in the order of the complex one, so the blocks agree to the last
    # bit, signed zeros included
    rng = np.random.default_rng(100 * n + d)
    stack = rng.standard_normal((n, d, d))
    lam = rng.uniform(0.0, 1.0, n)
    two_pi = 2 * np.pi
    frequencies = np.array([0.0, 1e-9, 0.3, np.pi, two_pi - 1e-6, np.nextafter(two_pi, 0)])
    got = estimator._lag_sum(stack, lam.copy(), frequencies)
    expected = complex_lag_sum(stack, lam.copy(), frequencies)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("T", [2, 3, 16])
@pytest.mark.parametrize("periods, extra", [(1, 0), (2, 3), (10, 0)],
                         ids=["T", "2T+3", "10T"])
def test_lag_sum_folds_the_lags_past_the_stack(T, periods, extra):
    # lag u of a stack of T circular lags is row u mod T: the folded sum over
    # the T rows is the sum over the stack repeated out to every lag
    rng = np.random.default_rng(10 * T + periods)
    stack = rng.standard_normal((T, 4, 4))
    lam = rng.uniform(0.0, 1.0, periods * T + extra)
    got = estimator._lag_sum(stack, lam, DEFAULT_FREQUENCIES)
    expected = estimator._lag_sum(stack[np.arange(lam.size) % T], lam, DEFAULT_FREQUENCIES)
    for a, b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("T", [2, 3])
def test_lag_sum_over_many_period_blocks_matches_exact_phases(T):
    # 5000 periods of T lags take two blocks of the fold; on the paper grid
    # omega_j = pi*j/10 the reference phase e^(-i pi j u/10) is taken at the
    # exactly reduced u mod 20, so it carries no rounding of omega_j * u
    rng = np.random.default_rng(T)
    stack = rng.standard_normal((T, 4, 4))
    lam = rng.uniform(0.0, 1.0, 5000 * T + 1)
    u = np.arange(lam.size)
    w = lam / (2 * np.pi)
    w[0] *= 0.5
    phase = np.exp(-1j * np.pi * np.outer(np.arange(10), u % 20) / 10) * w
    a = (phase @ stack[u % T].reshape(-1, 16)).reshape(-1, 4, 4)
    expected = a + a.conj().transpose(0, 2, 1)
    got = estimator._lag_sum(stack, lam, DEFAULT_FREQUENCIES)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_lags_past_T_cost_no_period_table_memory():
    # B = 1e-6 weighs 10^6 lags onto T = 2 circular lags: their phases are
    # made a block of periods at a time, not as one table of 5 * 10^5 periods
    series = generate_fma1(make_fma1_model(1, d=2), 2)
    tracemalloc.start()
    try:
        estimate_smoothed(series, trapezoid(), 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_lags_past_T_cost_no_stack_memory():
    # B = 1e-4 weighs 10^4 lags, which T = 64 circular lags hold: the
    # estimate needs the 64 distinct 50 x 50 lags, not a stack of 10^4
    series = generate_fma1(make_fma1_model(1, d=50), 64)
    tracemalloc.start()
    try:
        estimate_smoothed(series, trapezoid(), 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_lag_window_holds_no_centered_copy():
    # the linear lag stack centers the raw series a block of rows at a time
    series = generate_fma1(make_fma1_model(1, d=50), 16384)
    estimate_lagwindow(series, trapezoid(), 0.1)
    tracemalloc.start()
    try:
        estimate_lagwindow(series, trapezoid(), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * series.values.nbytes


@pytest.mark.parametrize("estimate, spec", [(estimate_smoothed, trapezoid()),
                                            (estimate_smoothed, epanechnikov()),
                                            (estimate_lagwindow, trapezoid())],
                         ids=["smoothed-TR", "smoothed-EPA", "lagwindow-TR"])
@pytest.mark.parametrize("frequencies", [[7.0], [np.nan], [0.5, 0.2]],
                         ids=["beyond-two-pi", "nan", "unsorted"])
def test_frequencies_checked_before_any_work(fma_series, monkeypatch, estimate, spec,
                                             frequencies):
    def no_work(*args):
        raise AssertionError("the estimator ran before checking its frequencies")

    monkeypatch.setattr(estimator, "_autocovariance_stack", no_work)
    monkeypatch.setattr(estimator, "_fdft", no_work)
    with pytest.raises(DomainError):
        estimate(fma_series, spec, 0.5, frequencies)


@pytest.mark.parametrize("estimate, spec", [(estimate_smoothed, epanechnikov()),
                                            (estimate_smoothed, trapezoid()),
                                            (estimate_lagwindow, trapezoid())],
                         ids=["smoothed-EPA", "smoothed-TR", "lagwindow-TR"])
@pytest.mark.parametrize("bandwidth", [5.0, 0.0, np.nan])
@pytest.mark.parametrize("frequencies", [[], None], ids=["no-frequencies", "paper-grid"])
def test_bandwidth_checked_before_any_work(fma_series, monkeypatch, estimate, spec,
                                           bandwidth, frequencies):
    # an empty frequency grid once gave the baseline an empty estimate that
    # carried the refused bandwidth
    def no_work(*args):
        raise AssertionError("the estimator ran before checking its bandwidth")

    monkeypatch.setattr(estimator, "_autocovariance_stack", no_work)
    monkeypatch.setattr(estimator, "_fdft", no_work)
    with pytest.raises(DomainError, match="bandwidth"):
        estimate(fma_series, spec, bandwidth, frequencies)


@pytest.mark.parametrize("estimate, spec", [(estimate_smoothed, epanechnikov()),
                                            (estimate_smoothed, trapezoid()),
                                            (estimate_lagwindow, trapezoid())],
                         ids=["smoothed-EPA", "smoothed-TR", "lagwindow-TR"])
def test_empty_frequency_grid_gives_an_empty_estimate(fma_series, estimate, spec):
    est = estimate(fma_series, spec, 0.5, [])
    assert est.matrices.shape == (0, fma_series.d, fma_series.d)
    assert est.kernels == ()
    obj = json.loads(json.dumps(estimate_to_json_dict(est)))
    assert obj["kernels"] == [] and obj["frequencies"] == []
    back = estimate_from_json_dict(obj)
    assert back.frequencies.size == 0 and back.kernels == ()
    assert estimate_to_json_dict(back) == obj


@pytest.mark.parametrize("spec", [epanechnikov(), trapezoid()], ids=["EPA", "TR"])
@pytest.mark.parametrize("bad, error", [(np.nan, NumericError), (1e-3j, DomainError)],
                         ids=["non-finite", "non-Hermitian"])
def test_every_block_is_checked(fma_series, monkeypatch, spec, bad, error):
    # a block that comes out spoiled is refused before it becomes an estimate
    def spoiled(build):
        def wrapper(*args):
            block = build(*args)
            block[1, 0, 1] += bad
            return block
        return wrapper

    monkeypatch.setattr(estimator, "_lag_sum", spoiled(estimator._lag_sum))
    monkeypatch.setattr(estimator, "_baseline_block", spoiled(estimator._baseline_block))
    with pytest.raises(error):
        estimate_smoothed(fma_series, spec, 0.3)


def test_blocks_are_fresh_arrays(fma_series):
    # _lag_sum and _baseline_block hand back a new block each call, which
    # the caller may change
    values = fma_series.values
    lam = estimator._flat_top_lags(trapezoid(), 0.3, values.shape[0], True)
    stack = estimator._autocovariance_stack(values, lam.size - 1, True)
    H = estimator._fdft(values)
    for build in (lambda: estimator._lag_sum(stack, lam, DEFAULT_FREQUENCIES),
                  lambda: estimator._baseline_block(H, values.shape[0], 0.3,
                                                    DEFAULT_FREQUENCIES)):
        first, second = build(), build()
        expected = second.copy()
        first[...] = np.nan
        assert np.array_equal(build(), expected)
        assert np.array_equal(second, expected)
