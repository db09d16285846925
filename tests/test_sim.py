import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from ftspectra import (
    DimensionError,
    DomainError,
    Fma1Model,
    Grid,
    ImseConfig,
    SpectralEstimate,
    center,
    autocovariance,
    epanechnikov,
    estimate_from_json_dict,
    estimate_smoothed,
    estimate_to_json_dict,
    generate_fma1,
    hs_distance,
    imse_experiment,
    imse_from_estimate,
    make_fma1_model,
    trapezoid,
    true_spectrum,
)
from ftspectra import UnsupportedKernelError, estimator, parse_kernel, sim
from ftspectra import bandwidth as ftbandwidth
from ftspectra.sim import (
    basis_matrix,
    imse_frequency_weights,
    parse_bandwidth_mode,
    resolve_bandwidths,
)


@pytest.fixture(scope="module")
def model():
    return make_fma1_model(314, d=40)


def zero_ma(model):
    return dataclasses.replace(model, a1=np.zeros_like(model.a1))


def estimate_and_truth(frequencies):
    """An estimate and a truth on the frequencies, with the same matrices."""
    block = np.tile(np.eye(2), (len(frequencies), 1, 1))
    return (SpectralEstimate(frequencies, block, 0.5, "TR(c=0.5)", "smoothed-periodogram"),
            SpectralEstimate(frequencies, block, 0.0, "truth", "closed-form"))


class TestModel:
    def test_innovation_variances(self):
        eta = sim.ETA
        assert eta.shape == (100,)
        assert eta[0] == pytest.approx(1.0 / (0.25 * np.pi**2))
        assert np.all(eta > 0) and np.all(np.diff(eta) < 0)
        assert not eta.flags.writeable

    def test_operator_shapes_and_seed(self, model):
        assert model.a0.shape == (50, 100)
        again = make_fma1_model(314, d=40)
        assert np.array_equal(model.a0, again.a0)
        other = make_fma1_model(315, d=40)
        assert not np.array_equal(model.a0, other.a0)

    def test_row_scale_shrinks(self):
        # row j has standard deviation 1/j: check gross decay over many draws
        rows = np.array([make_fma1_model(s, d=10).a0 for s in range(40)])
        sd = rows.std(axis=(0, 2))
        ratio = sd[0] / sd[-1]
        assert 35 < ratio < 70  # expected 50

    def test_basis_orthonormal_on_grid(self):
        for d in (50, 100):
            psi = basis_matrix(Grid(d))
            gram = psi.T @ psi / d
            assert np.max(np.abs(gram - np.eye(50))) < 1e-12

    def test_validation(self, model):
        with pytest.raises(Exception):
            Fma1Model(model.a0, model.a1[:, :50], model.grid)
        broken = model.a1.copy()
        broken[3, 7] = np.nan
        with pytest.raises(DomainError):
            Fma1Model(model.a0, broken, model.grid)


class TestGenerate:
    def test_zero_operators_give_zero_series(self, model):
        silent = dataclasses.replace(model, a0=np.zeros_like(model.a0),
                                     a1=np.zeros_like(model.a1))
        s = generate_fma1(silent, 16)
        assert np.all(s.values == 0.0)

    def test_reproducible_from_model_seed(self, model):
        s1 = generate_fma1(model, 32)
        s2 = generate_fma1(model, 32)
        assert np.array_equal(s1.values, s2.values)

    def test_explicit_rng_overrides(self, model):
        rng = np.random.default_rng(1)
        s1 = generate_fma1(model, 32, rng=rng)
        s2 = generate_fma1(model, 32, rng=np.random.default_rng(1))
        assert np.array_equal(s1.values, s2.values)
        assert not np.array_equal(s1.values, generate_fma1(model, 32).values)

    def test_iid_variant_has_vanishing_lag_one(self, model):
        # without the moving-average term the lag-1 autocovariance shrinks
        # like 1/sqrt(T)
        iid = zero_ma(model)
        norms = {}
        for T in (256, 4096):
            acc = 0.0
            ss = np.random.SeedSequence(8)
            for ch in ss.spawn(20):
                s = center(generate_fma1(iid, T, rng=np.random.default_rng(ch)))
                r1 = autocovariance(s, 1)
                r0 = autocovariance(s, 0)
                acc += np.linalg.norm(r1) / np.linalg.norm(r0)
            norms[T] = acc / 20
        assert norms[4096] < norms[256] / 2.5  # expected factor 4

    def test_lag_zero_matches_analytic_moment(self, model):
        # MC mean of rhat_0 against A0 C A0' + A1 C A1' mapped to the grid,
        # on a 5 x 5 sub-grid, within 3 MC standard errors entrywise
        psi = basis_matrix(model.grid)
        r0_coef = (model.a0 * sim.ETA) @ model.a0.T + (model.a1 * sim.ETA) @ model.a1.T
        truth = (psi @ r0_coef @ psi.T)[np.ix_(range(0, 40, 8), range(0, 40, 8))]
        reps, T = 200, 512
        draws = []
        ss = np.random.SeedSequence(21)
        for ch in ss.spawn(reps):
            s = center(generate_fma1(model, T, rng=np.random.default_rng(ch)))
            r0 = autocovariance(s, 0)
            draws.append(r0[np.ix_(range(0, 40, 8), range(0, 40, 8))])
        draws = np.array(draws)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(mean - truth) <= 3.0 * se + 1e-12)


def whole_matrix_fma1(model, T, rng):
    """The generator's values from one (T + 1) x N_INNOV draw and
    whole-series products: the reference the streamed draw equals bit for
    bit."""
    eps = rng.standard_normal((T + 1, sim.N_INNOV))
    eps *= np.sqrt(sim.ETA)
    coef = eps[1:] @ model.a0.T
    coef += eps[:-1] @ model.a1.T
    m = np.arange(1, sim.N_BASIS + 1)
    psi = np.sqrt(2.0) * np.sin(np.outer(model.grid.points, (m - 0.5) * np.pi))
    return coef @ psi.T


class TestStreamedGenerator:
    @pytest.mark.parametrize("T", [2, 3, 24, 25, 255, 256, 257, 511, 512, 513, 1000, 2048,
                                   2049, 3071, 4099, 5000])
    @pytest.mark.parametrize("d", [2, 12, 50, 100])
    def test_same_bits_as_the_whole_matrix_draw(self, T, d):
        # a block of a few rows would give other bits under OpenBLAS, so the
        # remainder joins the last block (257 = one block, 4099 = 15 x 256 + 259);
        # the grid blocks of 1024 rows do the same (3071 = 1024 + 2047,
        # 5000 = 3 x 1024 + 1928)
        model = make_fma1_model(1000 * d + T, d=d)
        seeded = np.random.default_rng(np.random.SeedSequence(model.seed).spawn(2)[1])
        cases = [(generate_fma1(model, T), seeded),
                 (generate_fma1(model, T, rng=np.random.default_rng(T)),
                  np.random.default_rng(T))]
        for series, rng in cases:
            expected = whole_matrix_fma1(model, T, rng)
            assert np.array_equal(series.values.view(np.uint64), expected.view(np.uint64))

    def test_holds_no_whole_innovation_matrix(self):
        model = make_fma1_model(5, d=2)
        T = 4099
        generate_fma1(model, T)
        tracemalloc.start()
        try:
            generate_fma1(model, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # less than the (T + 1) x N_INNOV innovation matrix alone
        assert peak < (T + 1) * sim.N_INNOV * 8

    def test_holds_no_second_series(self):
        # the coefficients go to the grid a block of rows at a time: the
        # series and O(block) rows, no T x N_BASIS coefficient matrix
        model = make_fma1_model(5, d=50)
        T = 16384
        generate_fma1(model, T)
        tracemalloc.start()
        try:
            series = generate_fma1(model, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * series.values.nbytes


class TestTrueSpectrum:
    def test_is_a_spectral_estimate(self, model):
        ts = true_spectrum(model)
        assert isinstance(ts, SpectralEstimate)
        assert (ts.kernel_id, ts.method, ts.bandwidth) == ("truth", "closed-form", 0.0)
        assert len(ts.kernels) == ts.frequencies.size == 10

    def test_json_roundtrip_bitwise(self, model):
        ts = true_spectrum(model, np.array([0.0, 0.7, 3.0]))
        back = estimate_from_json_dict(json.loads(json.dumps(estimate_to_json_dict(ts))))
        assert back.frequencies.tobytes() == ts.frequencies.tobytes()
        assert all(a.matrix.tobytes() == b.matrix.tobytes()
                   for a, b in zip(back.kernels, ts.kernels))
        assert (back.bandwidth, back.kernel_id, back.method) == (0.0, "truth", "closed-form")

    @pytest.mark.parametrize("n_kernels", [1, 3], ids=["too-few", "too-many"])
    def test_wrong_kernel_count_refused(self, model, n_kernels):
        # a truth with one kernel too few or too many scored 0.0 against an
        # identity estimate when imse_from_estimate paired kernels with zip;
        # it can no longer be built
        truth = true_spectrum(model, (0.0, np.pi / 2))
        with pytest.raises(DimensionError):
            dataclasses.replace(truth,
                                matrices=np.concatenate([truth.matrices] * 2)[:n_kernels])

    def test_white_noise_constant_in_omega(self, model):
        iid = zero_ma(model)
        ts = true_spectrum(iid, np.array([0.1, 1.0, 2.5]))
        psi = basis_matrix(iid.grid)
        expected = psi @ ((iid.a0 * sim.ETA) @ iid.a0.T) @ psi.T / (2 * np.pi)
        for k in ts.kernels:
            assert np.max(np.abs(k.matrix - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_three_term_autocovariance_form(self, model):
        # the lag sum over C_0 and C_1 against the transfer-function form
        # Psi (A0 + e^{-i w} A1) diag(eta) (...)^H Psi^T / (2 pi)
        psi = basis_matrix(model.grid)
        frequencies = np.array([0.0, 0.7, np.pi / 2, 3.0])
        ts = true_spectrum(model, frequencies)
        for w, k in zip(frequencies, ts.kernels):
            aw = model.a0 + np.exp(-1j * w) * model.a1
            direct = psi @ ((aw * sim.ETA) @ aw.conj().T) @ psi.T / (2 * np.pi)
            assert np.max(np.abs(k.matrix - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_zero_frequency_real_psd(self, model):
        k = true_spectrum(model, np.array([0.0])).kernels[0]
        assert np.max(np.abs(k.matrix.imag)) < 1e-14
        eigs = np.linalg.eigvalsh(k.matrix)
        assert eigs[0] >= -1e-8 * np.linalg.norm(k.matrix)

    def test_hermitian_psd_everywhere(self, model):
        ts = true_spectrum(model)
        for k in ts.kernels:
            eigs = np.linalg.eigvalsh(k.matrix)
            assert eigs[0] >= -1e-8 * np.linalg.norm(k.matrix)

    def test_integrates_back_to_lag_zero_covariance(self, model):
        # Fourier-pair consistency: int_{-pi}^{pi} f_omega d omega = r_0;
        # by conjugate symmetry, 2 * Re(int over [0, pi]) - f_pi-term handling
        # is done on the full circle directly
        grid_w = np.linspace(0.0, 2.0 * np.pi, 801)[:-1]
        psi = basis_matrix(model.grid)
        c = np.diag(sim.ETA)
        r0_true = psi @ (model.a0 @ c @ model.a0.T + model.a1 @ c @ model.a1.T) @ psi.T
        acc = np.zeros_like(r0_true, dtype=complex)
        ts = true_spectrum(model, grid_w)
        for k in ts.kernels:
            acc += k.matrix
        integral = acc.real * (2.0 * np.pi / grid_w.size)
        assert np.max(np.abs(integral - r0_true)) < 1e-4 * np.max(np.abs(r0_true))


class TestImseExperiment:
    def test_truth_injection_gives_zero(self, monkeypatch):
        # an estimator that returns the truth scores exactly zero
        def identity(bandwidth, kernel_id, method):
            return SpectralEstimate(estimator.DEFAULT_FREQUENCIES, np.stack([np.eye(2)] * 10),
                                    bandwidth, kernel_id, method)

        monkeypatch.setattr(sim, "true_spectrum",
                            lambda *args: identity(0.0, "truth", "closed-form"))
        monkeypatch.setattr(sim, "_estimates", lambda *args: [
            identity(0.5, "TR(c=0.5)", "smoothed-periodogram")])
        cfg = ImseConfig(T_list=(64,), n_runs=2, d=10,
                         kernel_specs=(trapezoid(),), seed=5)
        rows = imse_experiment(cfg)
        assert rows[0].mean_imse == 0.0

    def test_deterministic_given_seed(self):
        cfg = ImseConfig(T_list=(64, 128), n_runs=3, d=12, seed=9)
        r1 = imse_experiment(cfg)
        r2 = imse_experiment(cfg)
        assert [r.mean_log2_imse for r in r1] == [r.mean_log2_imse for r in r2]

    def test_parallel_matches_serial(self):
        base = dict(T_list=(64,), n_runs=4, d=12, seed=3)
        r1 = imse_experiment(ImseConfig(n_jobs=1, **base))
        r2 = imse_experiment(ImseConfig(n_jobs=2, **base))
        assert [r.mean_imse for r in r1] == [r.mean_imse for r in r2]

    def test_fixed_operators_share_draw(self):
        cfg = ImseConfig(T_list=(64,), n_runs=3, d=12, seed=3,
                         redraw_operators=False, kernel_specs=(trapezoid(),))
        rows = imse_experiment(cfg)
        assert rows[0].n_runs == 3  # smoke: runs complete with a shared draw

    def test_fixed_operators_make_one_truth(self, monkeypatch):
        # one model and one truth serve every replication; each scores as if
        # it had built them from the shared operators itself
        cfg = ImseConfig(T_list=(64, 128), n_runs=3, d=12, seed=4,
                         redraw_operators=False, kernel_specs=(trapezoid(),))
        sim._fixed_model.cache_clear()
        truths = counting(monkeypatch, sim, "true_spectrum")
        rows = imse_experiment(cfg)
        assert len(truths) == 1
        children = np.random.SeedSequence(4).spawn(7)
        model = Fma1Model(*sim._draw_operators(np.random.default_rng(children[6])), Grid(12))
        truth = true_spectrum(model)
        for i, (T, row) in enumerate(zip(cfg.T_list, rows)):
            imses = [imse_from_estimate(estimate_smoothed(
                        generate_fma1(model, T, rng=np.random.default_rng(ch)),
                        trapezoid(), T ** -0.2), truth)
                     for ch in children[3 * i: 3 * i + 3]]
            assert row.mean_imse == np.mean(imses)

    def test_explicit_bandwidth_checked_at_construction(self):
        with pytest.raises(DomainError):
            ImseConfig(bandwidth_mode=5.0)
        assert ImseConfig(bandwidth_mode=1.0).bandwidth_mode == 1.0

    @pytest.mark.parametrize("mode, parsed", [("auto", "auto"), ("rate", "rate"),
                                              ("2rate", "2rate"), ("0.5", 0.5),
                                              (0.5, 0.5), (1, 1.0)])
    def test_bandwidth_mode_parsed_once(self, mode, parsed):
        # the CLI flags and ImseConfig share parse_bandwidth_mode; 'auto'
        # needs flat-top specs, since the baseline has no c_ef
        assert parse_bandwidth_mode(mode) == parsed
        specs = sim.DEFAULT_KERNELS[1:]
        assert ImseConfig(kernel_specs=specs, bandwidth_mode=mode).bandwidth_mode == parsed

    @pytest.mark.parametrize("mode", ["bogus", "RATE", "0", "1.5", "nan", None, 5.0,
                                      True, False])
    def test_bad_bandwidth_mode_rejected(self, mode):
        with pytest.raises(DomainError):
            parse_bandwidth_mode(mode)
        with pytest.raises(DomainError):
            ImseConfig(bandwidth_mode=mode)

    def test_out_of_range_parameters_rejected(self, model):
        with pytest.raises(DomainError):
            ImseConfig(n_jobs=0)
        with pytest.raises(DomainError):  # 2 * 16^(-1/5) > 1
            resolve_bandwidths("2rate", generate_fma1(model, 16), (trapezoid(),))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(T_list=(64.7,)), "T must be an integer, got 64.7"),
        (dict(T_list=(64, True)), "T must be an integer, got True"),
        (dict(T_list=(np.float64(64.0),)), "T must be an integer, got np.float64(64.0)"),
        (dict(n_runs=2.5), "n_runs must be an integer, got 2.5"),
        (dict(n_runs=True), "n_runs must be an integer, got True"),
        (dict(n_jobs=1.0), "n_jobs must be an integer, got 1.0"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed="3"), "seed must be an integer, got '3'"),
        (dict(seed=-1), "seed must be nonnegative, got -1"),
    ], ids=["T-fraction", "T-bool", "T-numpy-float", "n_runs-fraction", "n_runs-bool",
            "n_jobs-float", "seed-fraction", "seed-string", "seed-negative"])
    def test_counts_and_seed_checked_at_construction(self, kwargs, message):
        with pytest.raises(DomainError) as raised:
            ImseConfig(**kwargs)
        assert str(raised.value) == message

    def test_numpy_integers_accepted_and_T_kept_as_int(self):
        config = ImseConfig(T_list=(np.int64(64), np.int32(128)), n_runs=np.int64(2),
                            seed=np.uint32(3))
        assert config.T_list == (64, 128)
        assert all(type(T) is int for T in config.T_list)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be nonnegative, got -1"),
        (2.5, "seed must be an integer, got 2.5"),
        (True, "seed must be an integer, got True"),
    ], ids=["negative", "fraction", "bool"])
    def test_one_seed_rule(self, model, seed, message):
        # the model, its maker and the benchmark config refuse a seed alike
        for make in (lambda: make_fma1_model(seed, d=8),
                     lambda: Fma1Model(model.a0, model.a1, model.grid, seed=seed),
                     lambda: ImseConfig(seed=seed)):
            with pytest.raises(DomainError) as raised:
                make()
            assert str(raised.value) == message

    def test_numpy_integer_seed_accepted(self):
        assert np.array_equal(make_fma1_model(np.uint32(3), d=8).a0,
                              make_fma1_model(3, d=8).a0)

    def test_generator_refuses_a_fractional_length(self, model):
        with pytest.raises(DomainError, match="T must be an integer, got 64.7"):
            generate_fma1(model, 64.7)

    @pytest.mark.parametrize("argv, error, message", [
        (["--T-list", "2048,4", "--kernels", "TR", "--bandwidth", "auto", "--d", "50"],
         "DomainError", "bandwidth selection needs T >= 8, got T = 4"),
        (["--T-list", "2048,1", "--parallel", "2", "--kernels", "TR"],
         "DomainError", "need T >= 2, got 1"),
        (["--T-list", "64", "--d", "1"], "DomainError",
         "grid needs an integer d >= 2, got 1"),
        (["--T-list", "1", "--d", "1"], "DomainError",
         "grid needs an integer d >= 2, got 1"),
        (["--T-list", "64,4", "--kernels", "TR,EPA", "--bandwidth", "auto"],
         "UnsupportedKernelError", "the effective flat-top radius is undefined for the "
         "Epanechnikov baseline; it enters the estimator directly as a "
         "frequency-domain weight"),
        (["--T-list", "1", "--kernels", "EPA", "--bandwidth", "auto"],
         "DomainError", "need T >= 2, got 1"),
        (["--T-list", "64,16", "--kernels", "TR", "--bandwidth", "2rate"],
         "DomainError", "bandwidth must lie in (0, 1], got 1.1486983549970349"),
        (["--T-list", "64", "--kernels", "TR", "--bandwidth", "1e-8", "--parallel", "2"],
         "DomainError", "bandwidth 1e-08 is too small to periodize"),
    ], ids=["auto-T4", "T1-parallel", "d1", "d1-and-T1", "auto-baseline",
            "T1-and-auto-baseline", "2rate-T16", "past-lag-limit-parallel"])
    def test_bench_refuses_before_any_replication(self, monkeypatch, capsys, tmp_path,
                                                  argv, error, message):
        # each refusal is the one the first failing replication used to raise
        import concurrent.futures

        from ftspectra import cli

        def never(*args, **kwargs):
            raise AssertionError("a replication or a process pool was started")

        monkeypatch.setattr(sim, "_run_replication", never)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        code = cli.main(["bench", "--replications", "20", "--out-dir",
                         str(tmp_path / "b"), *argv])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            {"code": 1, "type": error, "message": message}
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(T_list=(2048, 4), kernel_specs=(trapezoid(),), bandwidth_mode="auto", d=50),
         DomainError, "bandwidth selection needs T >= 8, got T = 4"),
        (dict(T_list=(2048, 1), n_jobs=2, kernel_specs=(trapezoid(),)),
         DomainError, "need T >= 2, got 1"),
        (dict(T_list=(64,), d=1), DomainError, "grid needs an integer d >= 2, got 1"),
        (dict(T_list=(1,), d=1), DomainError, "grid needs an integer d >= 2, got 1"),
        (dict(T_list=(64, 4), kernel_specs=(trapezoid(), epanechnikov()),
              bandwidth_mode="auto"),
         UnsupportedKernelError, "the effective flat-top radius is undefined for the "
         "Epanechnikov baseline; it enters the estimator directly as a "
         "frequency-domain weight"),
        (dict(T_list=(1,), kernel_specs=(epanechnikov(),), bandwidth_mode="auto"),
         DomainError, "need T >= 2, got 1"),
        (dict(T_list=(64, 16), kernel_specs=(trapezoid(),), bandwidth_mode="2rate"),
         DomainError, "bandwidth must lie in (0, 1], got 1.1486983549970349"),
        (dict(T_list=(64,), kernel_specs=(trapezoid(),), bandwidth_mode=1e-8),
         DomainError, "bandwidth 1e-08 is too small to periodize"),
    ], ids=["auto-T4", "T1-parallel", "d1", "d1-and-T1", "auto-baseline",
            "T1-and-auto-baseline", "2rate-T16", "past-lag-limit"])
    def test_config_refuses_what_a_replication_would(self, kwargs, error, message):
        # the same refusals as test_bench_refuses_before_any_replication,
        # raised by ImseConfig itself
        with pytest.raises(error) as raised:
            ImseConfig(n_runs=20, **kwargs)
        assert type(raised.value) is error and str(raised.value) == message

    def test_repeated_kernel_spec_rejected(self):
        with pytest.raises(DomainError, match=r"share the identifier TR\(c=0.5\)"):
            ImseConfig(kernel_specs=(trapezoid(), epanechnikov(), trapezoid()))
        # distinct specs of one family stay allowed
        assert len(ImseConfig(kernel_specs=(trapezoid(0.4), trapezoid())).kernel_specs) == 2

    @pytest.mark.parametrize("kwargs, message", [
        (dict(T_list=(64, 128, 64)), "T = 64 is given twice"),
        (dict(T_list=()), "at least one T"),
        (dict(kernel_specs=()), "one kernel spec"),
    ], ids=["repeated-T", "empty-T-list", "no-kernel-specs"])
    def test_repeated_T_and_empty_lists_rejected(self, kwargs, message):
        # each (spec, T) cell gives one row
        with pytest.raises(DomainError, match=message):
            ImseConfig(**kwargs)

    def test_close_parameters_are_distinct_specs(self):
        near = parse_kernel('{"family": "TR", "c": 0.5000001}')
        config = ImseConfig(kernel_specs=(trapezoid(), near))
        assert [s.identifier for s in config.kernel_specs] == \
            ["TR(c=0.5)", "TR(c=0.5000001)"]

    def test_rows_follow_spec_position(self):
        base = dict(T_list=(64,), n_runs=2, d=10, seed=6)
        forward = imse_experiment(ImseConfig(kernel_specs=(epanechnikov(), trapezoid()),
                                             **base))
        backward = imse_experiment(ImseConfig(kernel_specs=(trapezoid(), epanechnikov()),
                                              **base))
        assert [r.kernel for r in forward] == ["EPA", "TR(c=0.5)"]
        assert forward == backward[::-1]

    @pytest.mark.parametrize("frequencies", [(0.3, 0.4, 2.0), (0.3, 0.4, 0.5),
                                             (0.0, 0.5, 1.5), (0.0, 0.0), (),
                                             (0.0, float("inf")), (0.0, 2.0, 4.0),
                                             (0.0, 0.5, 1.0)],
                             ids=["uneven-off-zero", "even-off-zero", "uneven",
                                  "repeated", "empty", "infinite", "beyond-pi",
                                  "partial-band"])
    def test_frequency_grid_checked_at_construction(self, frequencies):
        # imse_frequency_weights integrates over [0, n * h) for n points of
        # spacing h and doubles that half-circle integral, so the grid must
        # be pi * j / n, j = 0..n-1; imse_from_estimate scores through it.
        # An estimate refuses the repeated and infinite grids itself.
        with pytest.raises(DomainError):
            imse_frequency_weights(frequencies)
        with pytest.raises(DomainError):
            imse_from_estimate(*estimate_and_truth(frequencies))
        for good in [(0.0,), (0.0, np.pi / 3, 2 * np.pi / 3)]:
            assert imse_frequency_weights(good).size == len(good)
            assert imse_from_estimate(*estimate_and_truth(good)) == 0.0

    def test_frequency_weights(self):
        w = imse_frequency_weights(np.pi * np.arange(10) / 10)
        assert w[0] == pytest.approx(np.pi / 10)
        assert np.all(w[1:] == pytest.approx(2 * np.pi / 10))

    def test_imse_positive_for_real_estimates(self, model):
        series = center(generate_fma1(model, 128))
        est = estimate_smoothed(series, trapezoid(), 128 ** -0.2)
        val = imse_from_estimate(est, true_spectrum(model))
        assert val > 0.0

    def test_block_imse_is_the_weighted_hs_sum(self):
        # a replication's block scores and imse_from_estimate against the
        # per-kernel sum of w_j * hs_distance^2, for every default kernel;
        # at d = 100 each frequency's 2 d^2 squares are summed in chunks
        T = 256
        for d in (20, 100):
            seed = np.random.SeedSequence(8)
            config = ImseConfig(T_list=(T,), d=d)
            imses = sim._run_replication(config, (T, seed, None))
            rng = np.random.default_rng(seed)
            model = Fma1Model(*sim._draw_operators(rng), Grid(d))
            series = generate_fma1(model, T, rng=rng)
            truth = true_spectrum(model)
            w = imse_frequency_weights(truth.frequencies)
            assert len(imses) == len(config.kernel_specs)
            for spec, imse in zip(config.kernel_specs, imses):
                est = estimate_smoothed(series, spec, T ** -0.2)
                expected = sum(wi * hs_distance(a, b) ** 2
                               for wi, a, b in zip(w, est.kernels, truth.kernels))
                assert imse == pytest.approx(expected, rel=1e-14, abs=0.0)
                assert imse_from_estimate(est, truth) == pytest.approx(
                    expected, rel=1e-14, abs=0.0)

    def test_imse_rejects_other_kernel_size(self, model):
        est = estimate_smoothed(generate_fma1(model, 128), trapezoid(), 128 ** -0.2)
        other = true_spectrum(dataclasses.replace(model, grid=Grid(model.grid.d + 1)))
        with pytest.raises(DimensionError):
            imse_from_estimate(est, other)

    def test_imse_rejects_other_frequency_grid(self, model):
        # kernels are compared frequency by frequency, never by position
        est = estimate_smoothed(generate_fma1(model, 128), trapezoid(), 128 ** -0.2)
        with pytest.raises(DimensionError):
            imse_from_estimate(est, true_spectrum(model, [0.0, 0.5]))
        with pytest.raises(DimensionError):
            imse_from_estimate(est, true_spectrum(model, est.frequencies + 0.01))


def counting(monkeypatch, module, name):
    """Wrap module.name with a wrapper that records each call's arguments."""
    calls, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSharedReplicationWork:
    """sim._estimates centers once and shares one circular lag stack, one
    fDFT and, under 'auto', one correlogram search among the specs."""

    FORWARD = sim.DEFAULT_KERNELS
    BACKWARD = tuple(parse_kernel(k) for k in ("ID", "PR", "TR", "EPA"))

    @pytest.mark.parametrize("specs", [FORWARD, BACKWARD], ids=["forward", "backward"])
    @pytest.mark.parametrize("T, mode", [(16, "rate"), (256, "rate"), (16, 0.05)],
                             ids=["T16-rate", "T256-rate", "T16-wrapped"])
    @pytest.mark.parametrize("frequencies", [None, np.linspace(0.0, np.pi, 65)],
                             ids=["paper-grid", "trace-grid"])
    def test_bitwise_the_per_spec_estimator(self, model, specs, T, mode, frequencies):
        series = generate_fma1(model, T)
        if mode == 0.05:  # L >= T: the stack's lags wrap around mod T
            lags = [estimator._flat_top_lags(s, mode, T, circular=True).size - 1
                    for s in specs if s.is_flat_top]
            assert min(lags) >= T
        shared = list(sim._estimates(specs, mode, series, frequencies))
        assert len(shared) == len(specs)
        for spec, est in zip(specs, shared):
            bandwidth, = resolve_bandwidths(mode, series, (spec,))
            one = estimate_smoothed(series, spec, bandwidth, frequencies)
            assert (est.kernel_id, est.bandwidth, est.method) == \
                (one.kernel_id, one.bandwidth, one.method)
            assert np.array_equal(est.frequencies, one.frequencies)
            for a, b in zip(est.kernels, one.kernels, strict=True):
                assert np.array_equal(a.matrix, b.matrix)

    def test_one_center_and_one_lag_stack_per_replication(self, monkeypatch):
        config = ImseConfig(T_list=(2048,))
        stacks = counting(monkeypatch, estimator, "_autocovariance_stack")
        products = counting(monkeypatch, estimator, "_lag_product")
        centers = counting(monkeypatch, sim, "center")
        imses = sim._run_replication(config, (2048, np.random.SeedSequence(0), None))
        assert len(imses) == 4
        assert len(centers) == 1
        # rate bandwidth at T = 2048: L = 4, 8, 4 for TR, PR, ID; one
        # circular stack of lags 0..8
        assert [args[1:] for args, _ in stacks] == [(8, True)]
        assert [args[1] for args, _ in products] == list(range(9))

    def test_auto_searches_once_per_replication(self, model, monkeypatch):
        series = generate_fma1(model, 256)
        stacks = counting(monkeypatch, ftbandwidth, "_autocovariance_stack")
        ftbandwidth.select_bandwidth(series, trapezoid())
        one_search = len(stacks)
        assert one_search >= 1
        stacks.clear()
        specs = tuple(parse_kernel(k) for k in ("TR", "PR", "ID"))
        shared = list(sim._estimates(specs, "auto", series))
        assert len(stacks) == one_search
        assert [e.bandwidth for e in shared] == \
            [ftbandwidth.select_bandwidth(series, s).B_T for s in specs]

    def test_auto_refuses_the_baseline_before_any_search(self, model, monkeypatch):
        stacks = counting(monkeypatch, ftbandwidth, "_autocovariance_stack")
        with pytest.raises(UnsupportedKernelError):
            next(sim._estimates((trapezoid(), epanechnikov()), "auto",
                                generate_fma1(model, 256)))
        assert stacks == []
        # and a config holding those specs is refused when it is built
        with pytest.raises(UnsupportedKernelError):
            ImseConfig(kernel_specs=(trapezoid(), epanechnikov()), bandwidth_mode="auto")


class TestEstimatorMeanRecoversTruth:
    def test_mean_estimate_near_truth(self):
        # long-sample average of the estimator against the exact spectrum on
        # a 5 x 5 sub-grid at two frequencies, 3 MC standard errors, with a
        # pooled-statistic gate and an entrywise multiplicity allowance
        model = make_fma1_model(7, d=20)
        freqs = np.array([0.0, np.pi / 2])
        truth = true_spectrum(model, freqs)
        reps, T = 200, 1024
        sub = np.ix_(range(0, 20, 4), range(0, 20, 4))
        diffs = {0: [], 1: []}
        ss = np.random.SeedSequence(13)
        for ch in ss.spawn(reps):
            s = center(generate_fma1(model, T, rng=np.random.default_rng(ch)))
            est = estimate_smoothed(s, trapezoid(), T ** -0.2, freqs)
            for fi in (0, 1):
                diffs[fi].append((est.kernels[fi].matrix - truth.kernels[fi].matrix)[sub])
        for fi in (0, 1):
            arr = np.array(diffs[fi])
            mean = arr.mean(axis=0)
            se = arr.std(axis=0, ddof=1) / np.sqrt(reps) + 1e-300
            pooled = arr.mean(axis=(1, 2)).real
            pooled_se = pooled.std(ddof=1) / np.sqrt(reps)
            assert abs(pooled.mean()) <= 3.0 * pooled_se
            assert np.all(np.abs(mean) <= 4.0 * np.abs(se) + 1e-12)
