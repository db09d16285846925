"""Acceptance suite: one test per release criterion, each printing a PASS or
FAIL line with the measured quantity. Run with ``pytest tests/test_acceptance.py
-v -rA`` to see every line."""

import dataclasses
import subprocess
import sys
import time

import numpy as np
import pytest

from ftspectra import (
    FrequencyKernel,
    ImseConfig,
    center,
    estimate_lagwindow,
    estimate_smoothed,
    flat_top_parzen,
    generate_fma1,
    hs_distance,
    hs_norm,
    imse_experiment,
    infinitely_differentiable,
    kernel_moment,
    make_fma1_model,
    select_bandwidth,
    trapezoid,
    weight_function,
)
from ftspectra.estimator import (
    DEFAULT_FREQUENCIES,
    _autocovariance_stack,
    _flat_top_lags,
    _lag_sum,
)
from ftspectra.kernels import baseline_weight, lag_weights
from ftspectra.psd import clip_to_psd
from ftspectra.sim import DEFAULT_KERNELS

from conftest import random_hermitian, random_psd

FLAT_TOPS = [trapezoid(), flat_top_parzen(), infinitely_differentiable()]
IDS = ["TR", "PR", "ID"]

# Frozen reference mean log2-IMSE values for the matched benchmark setup
# (moving-average model, bandwidth T^(-1/5), 200-run study).
REFERENCE_LOG2_IMSE = {
    "EPA": {64: -6.188, 128: -6.852, 256: -7.588, 512: -8.276,
            1024: -9.082, 2048: -9.816},
    "TR(c=0.5)": {64: -6.389, 128: -7.112, 256: -7.902, 512: -8.719,
                  1024: -9.493, 2048: -10.146},
    "PR(c=0.75)": {64: -6.383, 128: -7.041, 256: -8.018, 512: -8.846,
                   1024: -9.710, 2048: -10.453},
    "ID(b=0.25,c=0.05)": {64: -6.344, 128: -7.262, 256: -8.074, 512: -8.832,
                          1024: -9.719, 2048: -10.470},
}


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def gauss_panels(a, b, n_panels, n_nodes=16):
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * gl_x).ravel(), (half[:, None] * gl_w).ravel()


def test_criterion_1_weight_normalization():
    t0 = time.time()
    nodes, w = gauss_panels(-np.pi, np.pi, 192)
    worst = 0.0
    for spec in FLAT_TOPS:
        for bandwidth in (0.5, 0.2, 0.05):
            integral = float(np.sum(w * weight_function(spec, bandwidth, nodes)))
            worst = max(worst, abs(integral - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    report("1 weight normalization", ok,
           f"max |integral - 1| = {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 1.0


def test_criterion_2_riemann_sum_identity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    omegas = rng.uniform(0.0, 2.0 * np.pi, size=10)
    worst = 0.0
    for spec in FLAT_TOPS:
        for T in (64, 128, 256, 512, 1024, 2048):
            bandwidth = T ** (-0.2)
            om_s = 2.0 * np.pi * np.arange(1, T) / T
            for w in omegas:
                total = (2.0 * np.pi / T) * np.sum(
                    weight_function(spec, bandwidth, w - om_s))
                worst = max(worst, abs(total - 1.0) * bandwidth * T)
    elapsed = time.time() - t0
    ok = worst < 50.0 and elapsed < 5.0
    report("2 Riemann-sum identity", ok,
           f"max |dev|*B*T = {worst:.3f}, {elapsed:.2f}s")
    assert worst < 50.0
    assert elapsed < 5.0


def test_criterion_3_kernel_order():
    t0 = time.time()
    worst_mass = max(abs(kernel_moment(spec, 0, truncation=200.0) - 1.0)
                     for spec in FLAT_TOPS)
    odd_ok = all(kernel_moment(spec, k) == 0.0
                 for spec in FLAT_TOPS for k in (1, 3))
    second = abs(kernel_moment(infinitely_differentiable(), 2, truncation=200.0))
    elapsed = time.time() - t0
    ok = worst_mass < 1e-3 and odd_ok and second < 1e-2 and elapsed < 5.0
    report("3 kernel order", ok,
           f"max |mass - 1| = {worst_mass:.2e}, odd exact = {odd_ok}, "
           f"|second moment| = {second:.2e}, {elapsed:.2f}s")
    assert worst_mass < 1e-3
    assert odd_ok
    assert second < 1e-2
    assert elapsed < 5.0


def test_criterion_4_estimator_equivalence():
    t0 = time.time()
    T = 512
    series = center(generate_fma1(make_fma1_model(404, d=100), T))
    bandwidth = T ** (-0.2)
    worst = 0.0
    for spec in FLAT_TOPS:
        sm = estimate_smoothed(series, spec, bandwidth)
        lw = estimate_lagwindow(series, spec, bandwidth)
        for a, b in zip(sm.kernels, lw.kernels):
            rel = hs_distance(a, b) / max(hs_norm(a), hs_norm(b))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 0.1 and elapsed < 30.0
    report("4 estimator equivalence", ok,
           f"max relative HS distance = {worst:.4f}, {elapsed:.1f}s")
    assert worst < 0.1
    assert elapsed < 30.0


@pytest.mark.parametrize("T", [16, 64, 513])
def test_smoothed_minus_lag_window_is_the_wrap_lag_sum(T):
    """The exact relation behind criterion 4. A circular lag u is the linear
    lag u plus the transpose of the linear lag T - u, so for L < T the
    smoothed estimate minus the lag-window one is the lag sum, with the same
    lam, over the wrap terms (0, C_(T-1)^T, ..., C_(T-L)^T) of the linear
    autocovariances C_u."""
    series = generate_fma1(make_fma1_model(T, d=20), T)
    linear = _autocovariance_stack(center(series).values, T - 1, circular=False)
    wrap = np.concatenate([np.zeros_like(linear[:1]), linear[:0:-1].swapaxes(1, 2)])
    for spec in FLAT_TOPS:
        for bandwidth in (0.2, 0.5, 1.0, T ** (-0.2)):
            lam = _flat_top_lags(spec, bandwidth, T, circular=True)
            assert lam.size <= T, "the identity needs L < T"
            sm = estimate_smoothed(series, spec, bandwidth).matrices
            lw = estimate_lagwindow(series, spec, bandwidth).matrices
            expected = _lag_sum(wrap[: lam.size], lam, DEFAULT_FREQUENCIES)
            scale = np.abs(sm).max()
            assert np.abs((sm - lw) - expected).max() <= 1e-13 * scale, (spec, bandwidth)


@pytest.mark.parametrize("T", [5, 8, 9])
def test_every_estimate_is_a_quadratic_form_in_the_series(T):
    """Every estimate is sum_{t,s} K[t,s] X_t X_s^T = X^T K X in the raw
    series, with K = P M P, P = I - 11^T/T the centering and M the weight
    matrix of the estimator, here in u = t - s:
    - smoothed flat-top: (2*pi*T)^-1 sum lam(B v) e^(-i omega v) over the
      |v| <= L with v = u (mod T), which covers L >= T;
    - EPA: T^-2 sum_{r=1}^{T-1} W(omega - omega_r) e^(-i omega_r u),
      omega_r = 2*pi*r/T;
    - lag window: (2*pi*T)^-1 lam(B u) e^(-i omega u), a Toeplitz matrix."""
    series = generate_fma1(make_fma1_model(T, d=2), T)
    X = series.values
    frequencies = np.array([0.0, 0.7, 3.0])
    u = np.subtract.outer(np.arange(T), np.arange(T))
    P = np.eye(T) - 1.0 / T
    omegas = 2 * np.pi * np.arange(1, T) / T

    def smoothed(spec, bandwidth, omega):
        if not spec.is_flat_top:
            weights = baseline_weight(bandwidth, omega - omegas)
            return (weights * np.exp(-1j * omegas * u[..., None])).sum(axis=-1) / T**2
        lam = lag_weights(spec, bandwidth)
        v = np.arange(1 - lam.size, lam.size)
        column = np.zeros(T, dtype=complex)
        np.add.at(column, v % T, lam[np.abs(v)] * np.exp(-1j * omega * v))
        return column[u % T] / (2 * np.pi * T)

    def lagwindow(spec, bandwidth, omega):
        lam = np.zeros(T)
        weights = lag_weights(spec, bandwidth)[:T]
        lam[: weights.size] = weights
        return lam[np.abs(u)] * np.exp(-1j * omega * u) / (2 * np.pi * T)

    for spec in DEFAULT_KERNELS:
        for estimator, weight_matrix in ((estimate_smoothed, smoothed),
                                         (estimate_lagwindow, lagwindow)):
            if estimator is estimate_lagwindow and not spec.is_flat_top:
                continue
            for bandwidth in (0.2, 0.5, 1.0):
                est = estimator(series, spec, bandwidth, frequencies).matrices
                expected = [X.T @ (P @ weight_matrix(spec, bandwidth, omega) @ P) @ X
                            for omega in frequencies]
                # EPA's weights can all vanish on a coarse grid: then both
                # sides are zero and the check is absolute
                scale = np.abs(est).max() or 1.0
                assert np.abs(est - expected).max() <= 1e-12 * scale, (
                    spec.identifier, estimator.__name__, bandwidth)


def test_criterion_5_psd_projection_contraction():
    t0 = time.time()
    rng = np.random.default_rng(505)
    violations = 0
    worst = -np.inf
    for _ in range(1000):
        fhat = FrequencyKernel(random_hermitian(rng, 20))
        target = FrequencyKernel(random_psd(rng, 20))
        gap = hs_distance(clip_to_psd(fhat), target) - hs_distance(fhat, target)
        worst = max(worst, gap)
        if gap > 1e-12:
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 10.0
    report("5 PSD projection contraction", ok,
           f"violations = {violations}/1000, worst gap = {worst:.2e}, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_6_imse_consistency():
    t0 = time.time()
    config = ImseConfig(T_list=(128, 256, 512, 1024), n_runs=50,
                        kernel_specs=(trapezoid(),), bandwidth_mode="rate",
                        seed=606, d=50, n_jobs=2)
    rows = imse_experiment(config)
    means = [r.mean_imse for r in rows]
    elapsed = time.time() - t0
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ok = decreasing and elapsed < 600.0
    report("6 IMSE consistency", ok,
           "mean IMSE " + " -> ".join(f"{m:.2e}" for m in means) + f", {elapsed:.0f}s")
    assert decreasing
    assert elapsed < 600.0


@pytest.fixture(scope="module")
def benchmark_rows():
    t0 = time.time()
    config = ImseConfig(T_list=(64, 128, 256, 512, 1024, 2048), n_runs=100,
                        kernel_specs=DEFAULT_KERNELS, bandwidth_mode="rate",
                        seed=707, d=50, n_jobs=2)
    rows = imse_experiment(config)
    elapsed = time.time() - t0
    assert elapsed < 1800.0, f"benchmark exceeded its 30 min budget: {elapsed:.0f}s"
    table = {}
    for r in rows:
        table.setdefault(r.kernel, {})[r.T] = r.mean_log2_imse
    return table


def test_criterion_7a_flat_top_dominance(benchmark_rows):
    failures = []
    for T in (256, 512, 1024, 2048):
        epa = benchmark_rows["EPA"][T]
        for kernel in ("TR(c=0.5)", "PR(c=0.75)", "ID(b=0.25,c=0.05)"):
            if benchmark_rows[kernel][T] >= epa:
                failures.append((kernel, T))
    ok = not failures
    report("7a flat-top dominance", ok,
           "every flat-top below the baseline for T >= 256" if ok else str(failures))
    assert not failures


def test_criterion_7b_baseline_slope(benchmark_rows):
    first, last = benchmark_rows["EPA"][64], benchmark_rows["EPA"][2048]
    slope = (last - first) / 5.0
    ok = -1.0 <= slope <= -0.5
    report("7b baseline slope", ok, f"per-doubling slope = {slope:.3f}")
    assert -1.0 <= slope <= -0.5


def test_criterion_7c_reference_levels(benchmark_rows):
    """Absolute log2-IMSE levels against the frozen reference table, +-1.5.

    Known red: the measured levels land 0.64 to 2.88 above the reference
    entries, the worst EPA at T = 1024. The pipeline itself validates
    against closed forms (white-noise level, exact-spectrum recovery, the
    classical variance law), and the reference entries sit below the
    theoretical variance floor of the printed data-generating process, so
    the offset cannot be closed by any faithful implementation; the
    structural checks (7a, 7b) do pass. The reference
    levels are reproduced if the innovation curves carry half their printed
    variance (a factor 1/4 on every IMSE, uniform in T and kernel).
    """
    diffs = {}
    for kernel, per_t in REFERENCE_LOG2_IMSE.items():
        for T, ref in per_t.items():
            diffs[(kernel, T)] = benchmark_rows[kernel][T] - ref
    worst_key = max(diffs, key=lambda k: abs(diffs[k]))
    ok = all(abs(v) <= 1.5 for v in diffs.values())
    report("7c reference levels", ok,
           f"worst |diff| = {abs(diffs[worst_key]):.2f} at {worst_key}; "
           + "; ".join(f"{k[0]}@{k[1]}:{v:+.2f}" for k, v in sorted(diffs.items())
                       if abs(v) > 1.5) if not ok else "all within 1.5")
    assert ok, (
        "benchmark levels deviate from the reference table by more than 1.5: "
        + ", ".join(f"{k}: {v:+.2f}" for k, v in sorted(diffs.items()) if abs(v) > 1.5)
    )


def test_criterion_8_bandwidth_rule_behavior():
    t0 = time.time()
    reps = 200

    iid = dataclasses.replace(make_fma1_model(808, d=100),
                              a1=np.zeros((50, 100)))
    unit = 0
    ss = np.random.SeedSequence(818)
    for ch in ss.spawn(reps):
        series = center(generate_fma1(iid, 2048, rng=np.random.default_rng(ch)))
        if select_bandwidth(series, trapezoid()).B_T == 1.0:
            unit += 1

    fma_hits = 0
    ss = np.random.SeedSequence(828)
    for ch in ss.spawn(reps):
        rng = np.random.default_rng(ch)
        model = make_fma1_model(0, d=100)
        model = dataclasses.replace(model, a0=rng.standard_normal((50, 100)) /
                                    np.arange(1, 51)[:, None],
                                    a1=rng.standard_normal((50, 100)) /
                                    np.arange(1, 51)[:, None])
        series = center(generate_fma1(model, 512, rng=rng))
        if select_bandwidth(series, trapezoid()).q_hat in (1, 2):
            fma_hits += 1

    elapsed = time.time() - t0
    ok = unit >= 0.9 * reps and fma_hits >= 0.9 * reps and elapsed < 300.0
    report("8 bandwidth rule", ok,
           f"iid unit bandwidth {unit}/{reps}, shift in {{1,2}} {fma_hits}/{reps}, "
           f"{elapsed:.0f}s")
    assert unit >= 0.9 * reps
    assert fma_hits >= 0.9 * reps
    assert elapsed < 300.0


def test_criterion_9_bench_determinism(tmp_path):
    def run_bench(out, parallel):
        res = subprocess.run(
            [sys.executable, "-m", "ftspectra", "bench", "--T-list", "64,128",
             "--replications", "4", "--kernels", "TR,EPA", "--seed", "42",
             "--d", "16", "--parallel", str(parallel), "--out-dir", str(out)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_bench(tmp_path / "a", 1)
    second = run_bench(tmp_path / "b", 1)
    eight = run_bench(tmp_path / "c", 8)
    same_rerun = first == second
    same_parallel = first == eight
    ok = same_rerun and same_parallel
    report("9 bench determinism", ok,
           f"rerun identical = {same_rerun}, parallel-8 identical = {same_parallel}")
    assert same_rerun
    assert same_parallel


def test_bench_parallel_matches_serial_at_d50(tmp_path):
    # beside criterion 9, at a size where the lag products take a different
    # summation order under one and two BLAS threads: a pool whose workers
    # alone ran one BLAS thread would write other bits than the serial run.
    # The thread environment is left as found.
    def run_bench(out, parallel):
        res = subprocess.run(
            [sys.executable, "-m", "ftspectra", "bench", "--T-list", "1024",
             "--replications", "4", "--d", "50", "--seed", "9",
             "--parallel", str(parallel), "--out-dir", str(out)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert run_bench(tmp_path / "serial", 1) == run_bench(tmp_path / "pool", 2)
