import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftspectra import (
    DegenerateDataError,
    DomainError,
    FunctionalSeries,
    Grid,
    NumericError,
    UnsupportedKernelError,
    center,
    correlogram,
    epanechnikov,
    generate_fma1,
    make_fma1_model,
    select_bandwidth,
    trapezoid,
)
from ftspectra import bandwidth
from ftspectra.bandwidth import (
    _bandwidth_from_q,
    gamma_grid_indices,
    report_to_json_dict,
)


def iid_model(seed, d=60):
    model = make_fma1_model(seed, d=d)
    return dataclasses.replace(model, a1=np.zeros_like(model.a1))


@pytest.fixture(scope="module")
def fma_series():
    return center(generate_fma1(make_fma1_model(11, d=60), 512))


class TestCorrelogram:
    def test_unit_at_zero_lag_diagonal(self, fma_series):
        for idx in (0, 17, 59):
            assert correlogram(fma_series, 0, idx, idx) == pytest.approx(1.0, abs=1e-14)

    def test_bounded_by_one(self, fma_series):
        for lag in range(-30, 31, 3):
            for i, j in [(0, 0), (5, 40), (59, 10)]:
                assert abs(correlogram(fma_series, lag, i, j)) <= 1.0 + 1e-12

    def test_reflection_swaps_arguments(self, fma_series):
        a = correlogram(fma_series, -7, 3, 48)
        b = correlogram(fma_series, 7, 48, 3)
        assert a == pytest.approx(b, rel=1e-14)

    def test_iid_small_at_positive_lags(self):
        # under serial independence, |rho_5| < 4/sqrt(T) almost always
        T = 256
        hits = 0
        reps = 200
        ss = np.random.SeedSequence(77)
        for ch in ss.spawn(reps):
            rng = np.random.default_rng(ch)
            model = iid_model(1, d=20)
            s = center(generate_fma1(model, T, rng=rng))
            if abs(correlogram(s, 5, 3, 15)) < 4.0 / math.sqrt(T):
                hits += 1
        assert hits >= 0.95 * reps

    def test_degenerate_variance(self):
        vals = np.zeros((16, 4))
        vals[:, 1:] = np.random.default_rng(0).standard_normal((16, 3))
        s = FunctionalSeries(Grid(4), vals)
        with pytest.raises(DegenerateDataError):
            correlogram(s, 1, 0, 2)

    def test_lag_out_of_range(self, fma_series):
        with pytest.raises(DomainError):
            correlogram(fma_series, fma_series.n_curves, 0, 0)

    @pytest.mark.parametrize("lag", [1.7, 1.0, True, np.float64(2.0)],
                             ids=["fraction", "integral-float", "bool", "numpy-float"])
    def test_lag_must_be_an_integer(self, fma_series, lag):
        # int(1.7) used to read lag 1
        with pytest.raises(DomainError) as raised:
            correlogram(fma_series, lag, 0, 1)
        assert str(raised.value) == f"lag must be an integer, got {lag!r}"
        assert correlogram(fma_series, np.int64(2), 0, 1) == correlogram(fma_series, 2, 0, 1)

    @pytest.mark.parametrize("tau_idx, sigma_idx, bad", [
        (-1, 0, -1), (8, 0, 8), (0, -3, -3), (2, 9, 9), (1.5, 0, 1.5), (True, 0, True),
    ], ids=["negative", "d", "sigma-negative", "sigma-beyond", "fraction", "bool"])
    def test_grid_index_out_of_range(self, rng, tau_idx, sigma_idx, bad):
        # -1 used to read index d - 1, d and 1.5 raised a bare IndexError, and
        # True read index 1
        s = FunctionalSeries(Grid(8), rng.standard_normal((32, 8)))
        with pytest.raises(DomainError) as raised:
            correlogram(s, 1, tau_idx, sigma_idx)
        assert str(raised.value) == f"grid index must be an integer in 0..7, got {bad!r}"
        assert correlogram(s, 1, np.int64(7), 0) == correlogram(s, 1, 7, 0)


class TestGammaGrid:
    def test_d100_maps_to_round_indices(self):
        assert list(gamma_grid_indices(100)) == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]

    def test_small_d_clamped(self):
        idx = gamma_grid_indices(7)
        assert idx.min() >= 0 and idx.max() <= 6


class TestSelectBandwidth:
    def test_fma_typical_shift(self, fma_series):
        report = select_bandwidth(fma_series, trapezoid())
        assert report.q_hat in (1, 2)
        assert report.B_T in (0.5, 0.25)
        assert not report.truncated
        assert report.K_T == 5

    def test_report_reconstruction(self, fma_series):
        report = select_bandwidth(fma_series, trapezoid())
        agg = (int(report.q_grid.max()) if report.aggregation == "max"
               else int(np.ceil(report.q_grid.mean())))
        assert agg == report.q_hat
        assert report.B_T == 1.0 / max(math.ceil(report.q_hat / report.c_ef), 1)

    def test_arithmetic_of_the_rule(self):
        # q = 3, c_ef = 0.505: ceil(5.94) = 6
        assert _bandwidth_from_q(3, 0.505) == pytest.approx(1.0 / 6.0)
        assert _bandwidth_from_q(0, 0.505) == 1.0
        assert _bandwidth_from_q(1, 0.505) == 0.5

    def test_iid_selects_unit_bandwidth(self):
        model = iid_model(23, d=60)
        s = center(generate_fma1(model, 2048))
        report = select_bandwidth(s, trapezoid())
        assert report.q_hat == 0
        assert report.B_T == 1.0

    def test_max_aggregation_never_larger_bandwidth(self):
        ss = np.random.SeedSequence(5)
        for ch in ss.spawn(10):
            rng = np.random.default_rng(ch)
            s = center(generate_fma1(make_fma1_model(2, d=40), 256, rng=rng))
            b_max = select_bandwidth(s, trapezoid(), aggregation="max").B_T
            b_mean = select_bandwidth(s, trapezoid(), aggregation="mean").B_T
            assert b_max <= b_mean

    def test_printed_window_forces_shift_on_diagonal(self):
        # with the window starting at lag 0, rho_0 = 1 on the diagonal can
        # never pass, so the unit bandwidth is unreachable
        model = iid_model(29, d=60)
        s = center(generate_fma1(model, 1024))
        report = select_bandwidth(s, trapezoid(), window_start=0)
        assert report.q_hat >= 1
        assert report.B_T <= 0.5

    def test_fallback_truncates(self):
        # alternating curves keep every lag significant against a tiny
        # threshold, so no shift up to the largest testable one passes
        T = 16
        v = np.linspace(1.0, 2.0, 12)
        vals = np.outer((-1.0) ** np.arange(T), v)
        s = FunctionalSeries(Grid(12), vals)
        report = select_bandwidth(s, trapezoid(), C0=1e-6)
        assert report.truncated
        assert report.q_hat == T - report.K_T - 1 == 10
        assert np.all(report.q_grid == T - report.K_T - 1)

    @pytest.mark.parametrize("window_start", [0, 1])
    def test_window_doubling_matches_brute_force(self, window_start):
        # a persistent AR(1) keeps the correlogram significant far beyond the
        # first lag window of 4 K_T + 8, which must double three times
        T, d, phi = 512, 20, 0.97
        rng = np.random.default_rng(11)
        e = rng.standard_normal((T, d))
        x = np.empty_like(e)
        x[0] = e[0]
        for t in range(1, T):
            x[t] = phi * x[t - 1] + e[t]
        s = center(FunctionalSeries(Grid(d), x))
        report = select_bandwidth(s, trapezoid(), window_start=window_start)
        K = report.K_T
        assert not report.truncated
        assert report.q_grid.max() + K > 4 * (4 * K + 8)

        idx = gamma_grid_indices(d)
        ok = {}

        def below(m, i, j):
            if (m, i, j) not in ok:
                ok[m, i, j] = abs(correlogram(s, m, idx[i], idx[j])) < report.threshold
            return ok[m, i, j]

        for i in range(10):
            for j in range(10):
                q = next(q for q in range(T - K)
                         if all(below(m, i, j) for m in range(q + window_start, q + K + 1)))
                assert report.q_grid[i, j] == q

    def test_needs_minimum_length(self):
        s = FunctionalSeries(Grid(10), np.random.default_rng(0).standard_normal((4, 10)))
        with pytest.raises(DomainError):
            select_bandwidth(s, trapezoid())

    @pytest.mark.parametrize("scale", [1e200, 1e100])
    def test_overflowing_autocovariances_are_numeric_error(self, scale):
        # every value is finite, but at 1e200 the lag products overflow to inf
        # and the correlations read NaN, which every comparison used to call
        # significant: the rule returned its largest shift. At 1e100 only the
        # product of two variances overflows, and every correlation read 0:
        # B = 1. Overflow is left silent here, so the rule's own check is
        # what refuses the input
        values = np.random.default_rng(5).standard_normal((64, 4)) * scale
        s = FunctionalSeries(Grid(4), values)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            select_bandwidth(s, trapezoid())

    def test_baseline_refused_before_the_search(self, fma_series, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the shift search ran for the baseline")

        monkeypatch.setattr(bandwidth, "_autocovariance_stack", no_search)
        with pytest.raises(UnsupportedKernelError):
            select_bandwidth(fma_series, epanechnikov())

    def test_bad_aggregation_refused_before_the_search(self, fma_series, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the shift search ran for a bad aggregation")

        monkeypatch.setattr(bandwidth, "_autocovariance_stack", no_search)
        with pytest.raises(DomainError):
            select_bandwidth(fma_series, trapezoid(), aggregation="median")

    def test_rejects_bad_options(self, fma_series):
        with pytest.raises(DomainError):
            select_bandwidth(fma_series, trapezoid(), aggregation="median")
        with pytest.raises(DomainError):
            select_bandwidth(fma_series, trapezoid(), window_start=2)
        for C0 in (0.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                select_bandwidth(fma_series, trapezoid(), C0=C0)


class TestRuleMonotonicity:
    @given(q=st.integers(0, 50), q2=st.integers(0, 50))
    @settings(deadline=None, max_examples=60)
    def test_nonincreasing_in_q(self, q, q2):
        lo, hi = sorted((q, q2))
        for c_ef in (0.3, 0.505, 0.79):
            assert _bandwidth_from_q(hi, c_ef) <= _bandwidth_from_q(lo, c_ef)

    @given(q=st.integers(0, 50))
    @settings(deadline=None, max_examples=60)
    def test_nondecreasing_in_c_ef(self, q):
        values = [_bandwidth_from_q(q, c) for c in (0.1, 0.3, 0.505, 0.79, 0.99)]
        assert values == sorted(values)


class TestReportSerialization:
    def test_roundtrip(self, fma_series):
        report = select_bandwidth(fma_series, trapezoid())
        obj = json.loads(json.dumps(report_to_json_dict(report)))
        assert obj == {
            "q_hat": report.q_hat, "q_grid": report.q_grid.tolist(), "B_T": report.B_T,
            "c_ef": report.c_ef, "C0": report.C0, "K_T": report.K_T,
            "aggregation": report.aggregation, "threshold": report.threshold,
            "window_start": report.window_start, "truncated": report.truncated}
