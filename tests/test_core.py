import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftspectra import (
    DimensionError,
    DomainError,
    FrequencyKernel,
    FunctionalSeries,
    Grid,
    NumericError,
    SpectralEstimate,
    center,
    clip_estimate,
    epanechnikov,
    estimate_from_json_dict,
    estimate_lagwindow,
    estimate_smoothed,
    estimate_to_csv_dir,
    estimate_to_json_dict,
    flat_top_parzen,
    generate_fma1,
    hs_distance,
    hs_norm,
    make_fma1_model,
    series_from_csv,
    series_from_json_dict,
    series_to_csv,
    trapezoid,
)
from ftspectra import core
from ftspectra.core import (
    HERMITIAN_RTOL,
    ParseError,
    read_csv,
    read_json,
    write_csv,
    write_json,
)

from conftest import random_hermitian


def make_series(values):
    values = np.asarray(values, dtype=float)
    return FunctionalSeries(Grid(values.shape[1]), values)


class TestGrid:
    def test_midpoints(self):
        g = Grid(4)
        assert np.allclose(g.points, [0.125, 0.375, 0.625, 0.875])

    def test_points_inside_open_interval_and_increasing(self):
        for d in (2, 3, 17, 100):
            p = Grid(d).points
            assert np.all(p > 0) and np.all(p < 1)
            assert np.all(np.diff(p) > 0)

    @pytest.mark.parametrize("d", [0, 1, -3])
    def test_rejects_small_d(self, d):
        with pytest.raises(DomainError):
            Grid(d)


class TestFunctionalSeries:
    def test_rejects_single_curve(self):
        with pytest.raises(DomainError):
            make_series([[1.0, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            make_series([[1.0, np.nan], [0.0, 1.0]])

    def test_rejects_grid_mismatch(self):
        with pytest.raises(DimensionError):
            FunctionalSeries(Grid(3), np.zeros((4, 2)))

    def test_values_are_readonly(self):
        s = make_series([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 7.0


class TestCenter:
    def test_constant_series_becomes_zero(self):
        s = make_series(np.full((5, 3), 4.2))
        assert np.all(center(s).values == 0.0)

    def test_two_row_example(self):
        s = make_series([[1.0, 1.0], [3.0, 3.0]])
        assert np.array_equal(center(s).values, [[-1.0, -1.0], [1.0, 1.0]])

    def test_column_means_vanish(self, rng):
        s = make_series(rng.standard_normal((20, 7)) + 3.0)
        c = center(s)
        assert np.max(np.abs(c.values.mean(axis=0))) < 1e-14

    def test_idempotent_bitwise(self, rng):
        # rows in +/- pairs have column means of exactly 0.0, so centering
        # such a series, once or twice, leaves every value bit for bit
        v, w = rng.standard_normal((2, 4))
        s = make_series(np.vstack([v, -v, w, -w]))
        once = center(s)
        assert np.array_equal(once.values, s.values)
        assert np.array_equal(center(once).values, once.values)


class TestHsNorm:
    def test_zero_matrix(self):
        assert hs_norm(FrequencyKernel(np.zeros((5, 5)))) == 0.0

    @pytest.mark.parametrize("d", [2, 5, 37])
    def test_all_ones_is_one(self, d):
        assert hs_norm(FrequencyKernel(np.ones((d, d)))) == pytest.approx(1.0)

    def test_identity_d10(self):
        k = FrequencyKernel(np.eye(10))
        assert hs_norm(k) == pytest.approx(np.sqrt(0.1), abs=1e-12)

    @given(scale=st.one_of(st.just(0.0), st.floats(1e-6, 100.0),
                           st.floats(-100.0, -1e-6)))
    @settings(deadline=None, max_examples=50)
    def test_scaling_linear(self, scale):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 6)
        base = hs_norm(FrequencyKernel(m))
        scaled = hs_norm(FrequencyKernel(scale * m))
        assert scaled == pytest.approx(abs(scale) * base, rel=1e-12, abs=1e-300)


class TestHsDistance:
    def test_identical_kernels(self, rng):
        k = FrequencyKernel(random_hermitian(rng, 4))
        assert hs_distance(k, k) == 0.0

    def test_distance_to_zero_is_norm(self, rng):
        b = FrequencyKernel(random_hermitian(rng, 4))
        zero = FrequencyKernel(np.zeros((4, 4)))
        assert hs_distance(zero, b) == hs_norm(b)

    def test_matches_norm_of_difference(self, rng):
        a = FrequencyKernel(random_hermitian(rng, 8))
        b = FrequencyKernel(random_hermitian(rng, 8))
        direct = np.sqrt(np.sum(np.abs(a.matrix - b.matrix) ** 2)) / 8
        assert hs_distance(a, b) == pytest.approx(direct, rel=1e-14)

    def test_symmetric_exactly(self, rng):
        a = FrequencyKernel(random_hermitian(rng, 6))
        b = FrequencyKernel(random_hermitian(rng, 6))
        assert hs_distance(a, b) == hs_distance(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            a, b, c = (FrequencyKernel(random_hermitian(rng, 5)) for _ in range(3))
            assert hs_distance(a, c) <= hs_distance(a, b) + hs_distance(b, c) + 1e-12

    def test_dimension_mismatch(self, rng):
        a = FrequencyKernel(random_hermitian(rng, 4))
        b = FrequencyKernel(random_hermitian(rng, 5))
        with pytest.raises(DimensionError):
            hs_distance(a, b)


class TestFrequencyKernel:
    def test_rejects_non_hermitian(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DomainError):
            FrequencyKernel(m)

    def test_accepts_tiny_asymmetry(self, rng):
        m = np.array(random_hermitian(rng, 4))
        m[0, 1] += 1e-14 * np.max(np.abs(m))
        FrequencyKernel(m)  # within the 1e-10 relative tolerance


H2 = np.array([[1.0, 2.0], [3.0, 4.0]])     # relative residual 1/4
NAN2 = np.full((2, 2), np.nan)
SQUARE = "kernel matrix must be square, got shape "
FINITE = "kernel matrix contains non-finite entries"
HERMITIAN = "matrix is not Hermitian (relative residual 2.500e-01)"


class TestKernelErrors:
    """The error type and text of each fault, and of each double fault, which
    the checks meet in their order: square, count, finite, Hermitian."""

    @pytest.mark.parametrize("matrices, frequencies, error, text", [
        (np.zeros((1, 2, 3)), [0.1], DimensionError, SQUARE + "(2, 3)"),
        (np.zeros((1, 2, 2, 2)), [0.1], DimensionError, SQUARE + "(2, 2, 2)"),
        (5.0, [0.1], DimensionError, SQUARE + "()"),
        (np.stack([np.eye(2)] * 2), [0.1], DimensionError, "2 kernels for 1 frequencies"),
        ((), [0.1], DimensionError, "0 kernels for 1 frequencies"),
        (NAN2[None], [0.1], NumericError, FINITE),
        (H2[None], [0.1], DomainError, HERMITIAN),
        # double faults: the earlier check names the fault
        (np.zeros(3), [0.1], DimensionError, SQUARE + "(3,)"),
        (np.zeros((2, 2, 3)), [0.1], DimensionError, SQUARE + "(2, 3)"),
        ([np.zeros((2, 3))], [0.1, 0.2], DimensionError, SQUARE + "(2, 3)"),
        (np.stack([NAN2] * 2), [0.1], DimensionError, "2 kernels for 1 frequencies"),
        (np.stack([H2] * 2), [0.1], DimensionError, "2 kernels for 1 frequencies"),
        (np.stack([H2, NAN2]), [0.1, 0.2], NumericError, FINITE),
    ], ids=["non-square", "four-axes", "scalar", "too-many", "none", "non-finite",
            "non-Hermitian", "vector-and-count", "non-square-and-count",
            "non-square-list-and-count", "count-and-non-finite",
            "count-and-non-Hermitian", "non-Hermitian-and-non-finite"])
    def test_estimate(self, matrices, frequencies, error, text):
        with pytest.raises(error) as raised:
            SpectralEstimate(frequencies, matrices, 0.5, "TR", "lag-window")
        assert type(raised.value) is error and str(raised.value) == text

    @pytest.mark.parametrize("matrix, error, text", [
        (np.zeros(3), DimensionError, SQUARE + "(3,)"),
        (np.zeros((2, 3)), DimensionError, SQUARE + "(2, 3)"),
        (np.zeros((2, 2, 2)), DimensionError, SQUARE + "(2, 2, 2)"),
        (5.0, DimensionError, SQUARE + "()"),
        (NAN2, NumericError, FINITE),
        (H2, DomainError, HERMITIAN),
        (np.full((2, 3), np.nan), DimensionError, SQUARE + "(2, 3)"),
        (np.array([[np.nan, 1.0], [2.0, 0.0]]), NumericError, FINITE),
    ], ids=["vector", "non-square", "three-axes", "scalar", "non-finite",
            "non-Hermitian", "non-square-and-non-finite", "non-Hermitian-and-non-finite"])
    def test_kernel(self, matrix, error, text):
        with pytest.raises(error) as raised:
            FrequencyKernel(matrix)
        assert type(raised.value) is error and str(raised.value) == text


class TestHermitianResidual:
    def test_stack_matches_each_matrix_bit_for_bit(self, rng):
        block = np.stack([random_hermitian(rng, 5) for _ in range(4)] + [np.zeros((5, 5))])
        block[1] += 1e-9 * rng.standard_normal((5, 5))
        block[2, 0, 3] += 3e-7j
        block[3] = rng.standard_normal((5, 5))
        residuals = core.hermitian_residual(block)
        assert residuals.shape == (5,)
        assert residuals.tolist() == [core.hermitian_residual(m) for m in block]
        assert residuals[0] == residuals[4] == 0.0 and residuals[1:4].min() > 0.0
        assert core.hermitian_residual(block.reshape(1, 5, 5, 5)).shape == (1, 5)
        assert isinstance(core.hermitian_residual(block[3]), float)

    def test_one_matrix(self):
        assert core.hermitian_residual(H2) == 0.25
        assert core.hermitian_residual(np.zeros((3, 3))) == 0.0

    def test_check_names_the_first_offending_matrix(self, rng):
        block = np.stack([random_hermitian(rng, 4) for _ in range(4)])
        block[1, 0, 1] += 1e-14 * np.abs(block[1]).max()   # within the tolerance
        block[2, 0, 2] += 1e-6 * np.abs(block[2]).max()
        block[3, 1, 2] += 1e-3 * np.abs(block[3]).max()
        first = core.hermitian_residual(block[2])
        assert HERMITIAN_RTOL < first < core.hermitian_residual(block[3])
        with pytest.raises(DomainError) as raised:
            core._check_kernels(block)
        assert str(raised.value) == f"matrix is not Hermitian (relative residual {first:.3e})"


class TestKernelBlockCheck:
    """core._check_kernels checks an (n, d, d) block the way FrequencyKernel
    checks its one matrix, and FrequencyKernel runs it."""

    @staticmethod
    def block(rng):
        return np.stack([random_hermitian(rng, 4) for _ in range(3)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imaginary-inf"])
    def test_non_finite_block_raises_what_a_kernel_raises(self, rng, bad):
        block = self.block(rng)
        block[1, 2, 2] = bad
        with pytest.raises(NumericError) as kernel:
            FrequencyKernel(block[1])
        with pytest.raises(NumericError) as checked:
            core._check_kernels(block)
        assert str(checked.value) == str(kernel.value)

    def test_non_hermitian_block_raises_what_a_kernel_raises(self, rng):
        block = self.block(rng)
        block[2, 0, 3] += 1e-8 * np.max(np.abs(block[2]))
        with pytest.raises(DomainError) as kernel:
            FrequencyKernel(block[2])
        with pytest.raises(DomainError) as checked:
            core._check_kernels(block)
        assert str(checked.value) == str(kernel.value)
        assert "not Hermitian" in str(checked.value)

    def test_passes_within_the_tolerance(self, rng):
        block = self.block(rng)
        assert core._check_kernels(block) is block  # exactly Hermitian
        block[0, 1, 2] += 1e-14 * np.max(np.abs(block[0]))
        before = block.copy()
        assert core._check_kernels(block) is block
        assert np.array_equal(block, before)
        assert core._check_kernels(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4, 4)

    @pytest.mark.parametrize("bad, error", [(np.nan, NumericError), (1e-8j, DomainError)],
                             ids=["non-finite", "non-Hermitian"])
    def test_estimate_raises_what_a_kernel_raises(self, rng, bad, error):
        block = self.block(rng)
        block[1, 0, 3] += bad * np.max(np.abs(block[1]))
        with pytest.raises(error) as kernel:
            FrequencyKernel(block[1])
        with pytest.raises(error) as estimate:
            SpectralEstimate(np.array([0.0, 0.5, 1.0]), block, 0.5, "TR", "lag-window")
        assert str(estimate.value) == str(kernel.value)

    @given(data=st.data())
    @settings(deadline=None, max_examples=200)
    def test_exact_hermitian_test_is_the_conjugate_transpose_comparison(self, data):
        # a Hermitian block drawn from finite floats and signed zeros, then a
        # few entries of either part moved by one ulp, negated or given the
        # other zero sign; the view test agrees with the complex comparison
        n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        finite = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                           st.floats(-4.0, 4.0),
                           st.floats(allow_nan=False, allow_infinity=False))
        parts = np.array(data.draw(st.lists(finite, min_size=2 * n * d * d,
                                            max_size=2 * n * d * d))).reshape(2, n, d, d)
        re, im = parts
        re = np.triu(re) + np.triu(re, 1).swapaxes(1, 2)
        im = np.triu(im, 1) - np.triu(im, 1).swapaxes(1, 2)
        block = np.empty((n, d, d), dtype=complex)
        block.real, block.imag = re, im
        moves = {"ulp-up": lambda x: np.nextafter(x, np.inf),
                 "ulp-down": lambda x: np.nextafter(x, -np.inf),
                 "negate": np.negative,
                 "zero-sign": lambda x: np.copysign(0.0, -np.copysign(1.0, x))}
        for _ in range(data.draw(st.integers(0, 3))):
            part = block.real if data.draw(st.booleans()) else block.imag
            index = tuple(data.draw(st.integers(0, size - 1)) for size in (n, d, d))
            move = moves[data.draw(st.sampled_from(sorted(moves)))]
            with np.errstate(over="ignore"):  # one ulp past the largest float is inf
                moved = move(part[index])
            if np.isfinite(moved):
                part[index] = moved
        assert core._exactly_hermitian(block) == np.array_equal(
            block, block.conj().swapaxes(1, 2))


class TestSpectralEstimate:
    def test_rejects_unsorted_frequencies(self, rng):
        with pytest.raises(DomainError):
            SpectralEstimate(np.array([0.2, 0.1]), np.stack([np.eye(2)] * 2), 0.5, "TR",
                             "lag-window")

    @pytest.mark.parametrize("frequencies", [[np.nan], [0.1, np.nan], [2 * np.pi],
                                             [0.1, 7.0], [-0.1], [0.1, np.inf]],
                             ids=["nan", "nan-last", "two-pi", "beyond-two-pi",
                                  "negative", "infinite"])
    def test_rejects_frequencies_outside_range(self, frequencies):
        # the estimate alone holds the frequencies: its kernels carry none
        block = np.stack([np.eye(2)] * len(frequencies))
        with pytest.raises(DomainError):
            SpectralEstimate(np.array(frequencies), block, 0.5, "TR", "lag-window")

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            SpectralEstimate(np.array([0.1]), (), 0.5, "TR", "lag-window")

    @pytest.mark.parametrize("as_list", [False, True], ids=["block", "list"])
    def test_matrices_are_one_read_only_block(self, rng, as_list):
        freqs = np.array([0.0, 0.5, 1.0])
        block = np.stack([random_hermitian(rng, 4) for _ in freqs])
        est = SpectralEstimate(freqs, list(block) if as_list else block, 0.5, "TR",
                               "lag-window")
        assert est.matrices.shape == (3, 4, 4)
        assert est.matrices.dtype == complex
        assert not est.matrices.flags.writeable
        with pytest.raises(ValueError):
            est.matrices[0, 0, 0] = 1.0
        assert est.matrices.tobytes() == block.tobytes()
        # kernels are views of the rows, not copies
        assert len(est.kernels) == 3
        for j, k in enumerate(est.kernels):
            assert k.matrix.tobytes() == est.matrices[j].tobytes()
            assert np.shares_memory(k.matrix, est.matrices[j])

    def test_rejects_non_square_matrices(self):
        with pytest.raises(DimensionError, match=r"must be square, got shape \(2, 3\)"):
            SpectralEstimate(np.array([0.1]), np.zeros((1, 2, 3)), 0.5, "TR", "lag-window")

    def test_rejects_mixed_kernel_sizes(self):
        matrices = (np.eye(2), np.eye(3))
        with pytest.raises(DimensionError, match=r"kernel shapes differ: \[\(2, 2\), \(3, 3\)\]"):
            SpectralEstimate(np.array([0.1, 0.2]), matrices, 0.5, "TR", "lag-window")


class TestSerialization:
    def test_series_csv_roundtrip_bitwise(self, rng, tmp_path):
        s = make_series(rng.standard_normal((12, 5)) * np.pi)
        path = tmp_path / "series.csv"
        series_to_csv(s, path)
        back = series_from_csv(path)
        assert np.array_equal(back.values, s.values)
        assert back.grid.d == 5

    def test_series_csv_header(self, rng, tmp_path):
        s = make_series(rng.standard_normal((3, 4)))
        path = tmp_path / "series.csv"
        series_to_csv(s, path)
        header = path.read_text().splitlines()[0]
        assert header == "tau_0,tau_1,tau_2,tau_3"

    def test_series_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tau_0,tau_1\n1.0,hello\n2.0,3.0\n")
        with pytest.raises(ParseError):
            series_from_csv(path)

    def test_series_json_roundtrip(self, rng):
        s = make_series(rng.standard_normal((6, 3)))
        obj = json.loads(json.dumps({"d": 3, "T": 6, "values": s.values.tolist()}))
        back = series_from_json_dict(obj)
        assert np.array_equal(back.values, s.values)

    @pytest.mark.parametrize("d, T", [(3.7, 5), (3, 5.9), ("3", 5), (True, 5),
                                      (3, "5"), (3, True), (3, None), (3.0, 5)],
                             ids=["d-float", "T-float", "d-string", "d-bool",
                                  "T-string", "T-bool", "T-null", "d-integral-float"])
    def test_series_json_needs_integer_counts(self, rng, d, T):
        # d and T are not truncated: int(3.7) read a 3-column series as d = 3
        obj = {"d": d, "T": T, "values": rng.standard_normal((5, 3)).tolist()}
        with pytest.raises(ParseError, match="must be an integer"):
            series_from_json_dict(obj)

    def test_estimate_json_roundtrip(self, rng):
        freqs = np.array([0.0, 0.5, 1.0])
        block = np.stack([random_hermitian(rng, 3) for _ in freqs])
        est = SpectralEstimate(freqs, block, 0.25, "TR(c=0.5)", "lag-window")
        obj = json.loads(json.dumps(estimate_to_json_dict(est)))
        back = estimate_from_json_dict(obj)
        assert np.array_equal(back.frequencies, est.frequencies)
        for k1, k2 in zip(back.kernels, est.kernels):
            assert np.array_equal(k1.matrix, k2.matrix)
        assert back.bandwidth == 0.25
        assert back.method == "lag-window"
        assert set(obj["kernels"][0]) == {"re", "im"}

    @pytest.mark.parametrize("n_kernels", [1, 3], ids=["too-few", "too-many"])
    def test_estimate_json_kernel_count_must_match(self, rng, n_kernels):
        ms = [random_hermitian(rng, 3) for _ in range(n_kernels)]
        obj = {"frequencies": [0.0, 0.5], "bandwidth": 0.25, "kernel_id": "TR(c=0.5)",
               "method": "lag-window",
               "kernels": [{"re": m.real.tolist(), "im": m.imag.tolist()} for m in ms]}
        with pytest.raises(DimensionError, match=f"{n_kernels} kernels for 2 frequencies"):
            estimate_from_json_dict(obj)

    def test_estimate_json_kernels_share_one_size(self, rng):
        ms = [random_hermitian(rng, d) for d in (2, 3)]
        obj = {"frequencies": [0.0, 0.5], "bandwidth": 0.25, "kernel_id": "TR(c=0.5)",
               "method": "lag-window",
               "kernels": [{"re": m.real.tolist(), "im": m.imag.tolist()} for m in ms]}
        with pytest.raises(DimensionError) as mixed:
            estimate_from_json_dict(obj)
        assert str(mixed.value) == "kernel shapes differ: [(2, 2), (3, 3)]"
        # every kernel is parsed before the sizes are compared
        obj["kernels"].append({"re": [[1.0]]})
        with pytest.raises(ParseError, match="bad complex-matrix JSON"):
            estimate_from_json_dict(obj)
        del obj["kernels"][2]
        m = random_hermitian(rng, 2)
        obj["kernels"][1] = {"re": m.real.tolist(), "im": m.imag.tolist()}
        assert [k.d for k in estimate_from_json_dict(obj).kernels] == [2, 2]

    def test_empty_estimate_json_roundtrip(self):
        obj = {"frequencies": [], "kernels": [], "bandwidth": 0.5, "kernel_id": "TR(c=0.5)",
               "method": "lag-window"}
        est = estimate_from_json_dict(obj)
        assert est.matrices.shape == (0, 0, 0) and est.kernels == ()
        assert estimate_to_json_dict(est) == obj

    def test_estimate_csv_dir_roundtrip(self, rng, tmp_path):
        freqs = np.array([0.1, 0.9])
        block = np.stack([random_hermitian(rng, 4) for _ in freqs])
        est = SpectralEstimate(freqs, block, 0.5, "PR(c=0.75)", "smoothed-periodogram")
        estimate_to_csv_dir(est, tmp_path / "est")
        assert read_json(tmp_path / "est" / "meta.json") == {
            "frequencies": [0.1, 0.9], "bandwidth": 0.5, "kernel_id": "PR(c=0.75)",
            "method": "smoothed-periodogram"}
        for i, k in enumerate(est.kernels):
            real = read_csv(tmp_path / "est" / f"freq_{i:04d}_re.csv", header=False)[1]
            imag = read_csv(tmp_path / "est" / f"freq_{i:04d}_im.csv", header=False)[1]
            assert np.array_equal(real + 1j * imag, k.matrix)

    def test_estimate_csv_dir_missing_part_is_parse_error(self, rng, tmp_path):
        est = SpectralEstimate(np.array([0.1]), random_hermitian(rng, 3)[None], 0.5,
                               "TR(c=0.5)", "lag-window")
        estimate_to_csv_dir(est, tmp_path / "est")
        (tmp_path / "est" / "freq_0000_im.csv").unlink()
        with pytest.raises(ParseError, match="freq_0000_im.csv"):
            read_csv(tmp_path / "est" / "freq_0000_im.csv", header=False)

    def test_csv_floats_round_trip_and_other_cells_verbatim(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [["a", "b", "c"], [np.float64(0.1), 1.0 / 3.0, 7]])
        assert path.read_bytes() == b"a,b,c\r\n0.1,0.3333333333333333,7\r\n"
        header, values = read_csv(path, header=True)
        assert header == ["a", "b", "c"]
        assert values.tolist() == [[0.1, 1.0 / 3.0, 7.0]]

    @pytest.mark.parametrize("text, line", [("1,2\n\n3\n", 3), ("1,2\n3,x\n", 2)],
                             ids=["ragged", "non-numeric"])
    def test_read_csv_names_the_bad_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"bad.csv:{line}:"):
            read_csv(path, header=False)


def _random_float_values():
    # floats over the whole exponent range, subnormals, and values that need
    # all 17 significant digits
    rng = np.random.default_rng(5)
    values = rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-300, 300, (20, 3))
    values[0] = [5e-324, 2.2250738585072014e-308 / 3, -1.7976931348623157e308]
    values[1] = [0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0]
    return values


def _random_float_rows():
    return "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in _random_float_values())


_HEADER = ["omega", "a,b", 'say "hi"']
_FLOATS = np.vstack([_random_float_values(), [[-0.0, np.nan, np.inf], [-np.inf, 0.0, -1.5]]])
WRITE_CSV_CASES = {
    "array-rows": [_HEADER, *_FLOATS],
    "block": _FLOATS,
    "block-real-part": (_FLOATS + 1j).real,
    "np-float64-lists": [_HEADER] + [[np.float64(v) for v in row] for row in _FLOATS],
    "python-and-np-float64": [_HEADER] + [[float(row[0]), *row[1:]] for row in _FLOATS],
    "float32-row": [_HEADER, np.array([0.1, -0.0, np.nan, np.inf, 1e-40], dtype=np.float32)],
    "mixed-cells": [_HEADER, ["EPA", 64, 0.5, np.float32(0.1), True]],
}


@pytest.mark.parametrize("name", list(WRITE_CSV_CASES))
def test_write_csv_same_bytes_as_csv_module(tmp_path, name):
    # write_csv joins all-float64 rows itself; the bytes must be csv.writer's
    # on the repr'd cells, with the header still quoted
    rows = WRITE_CSV_CASES[name]
    write_csv(tmp_path / "fast.csv", rows)
    with open(tmp_path / "csv.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])
    written = (tmp_path / "fast.csv").read_bytes()
    assert written == (tmp_path / "csv.csv").read_bytes()
    if rows[0] is _HEADER:
        assert written.startswith(b'omega,"a,b","say ""hi"""\r\n')


# mirrored pairs whose values match up to the sign but whose bits do not:
# 0.0 / -0.0 in the real part, 0.0 / 0.0 and -0.0 / 0.0 in the imaginary part
# (set part by part: re + 1j * im would turn -0.0 + 0.0 into 0.0)
_SIGNED_ZEROS = np.zeros((3, 3), dtype=complex)
_SIGNED_ZEROS.real = [[1.0, 0.0, 0.5], [-0.0, 2.0, 0.25], [0.5, 0.25, 3.0]]
_SIGNED_ZEROS.imag = [[0.0, 0.0, -0.0], [0.0, 0.0, 1.5], [0.0, -1.5, 0.0]]


def _written_estimate(name) -> SpectralEstimate:
    series = generate_fma1(make_fma1_model(3, d=6), 64)
    if name == "TR":
        return estimate_smoothed(series, trapezoid(), 0.5)
    if name == "EPA":
        return estimate_smoothed(series, epanechnikov(), 0.5)
    if name == "lag-window":
        return estimate_lagwindow(series, flat_top_parzen(), 0.5)
    if name == "definite":
        return clip_estimate(estimate_smoothed(series, trapezoid(), 0.5), "definite",
                             eps=1.0 / 64)
    if name == "near-hermitian":
        # half the entries below the diagonal moved by ~1e-12 relative, so
        # rows mix equal, negated and unrelated mirrors
        est = estimate_smoothed(series, trapezoid(), 0.5)
        rng = np.random.default_rng(11)
        noise = 1.0 + 1e-12 * np.tril(rng.standard_normal(est.matrices.shape)
                                      * (rng.random(est.matrices.shape) < 0.5), -1)
        obj = estimate_to_json_dict(est)
        obj["kernels"] = [{"re": (m.real * n).tolist(), "im": (m.imag * n).tolist()}
                          for m, n in zip(est.matrices, noise)]
        back = estimate_from_json_dict(json.loads(json.dumps(obj)))
        assert not core._exactly_hermitian(back.matrices)
        return back
    matrices = {"signed-zeros": [_SIGNED_ZEROS, _SIGNED_ZEROS.conj()],
                "d=1": [[[2.5]], [[complex(-0.0, -0.0)]]], "no-frequencies": []}[name]
    est = SpectralEstimate(np.linspace(0.0, 1.0, len(matrices)), matrices, 0.5,
                           "TR(c=0.5)", "lag-window")
    assert np.array_equal(np.signbit(est.matrices.view(float)).ravel(),
                          np.signbit(np.asarray(matrices, dtype=complex).view(float)).ravel())
    return est


@pytest.mark.parametrize("name", ["TR", "EPA", "lag-window", "definite", "near-hermitian",
                                  "signed-zeros", "d=1", "no-frequencies"])
def test_estimate_files_same_bytes_as_list_layout(tmp_path, name):
    # the writers format each matrix from float64 arrays, copying the text
    # of a mirrored entry; the files must be those of the nested lists
    est = _written_estimate(name)
    write_json(tmp_path / "arrays.json", core._estimate_fields(est))
    write_json(tmp_path / "lists.json", estimate_to_json_dict(est))
    assert (tmp_path / "arrays.json").read_bytes() == (tmp_path / "lists.json").read_bytes()
    estimate_to_csv_dir(est, tmp_path / "dir")
    meta = estimate_to_json_dict(est)
    del meta["kernels"]
    expected = {"meta.json": meta}
    for i, m in enumerate(est.matrices):
        expected[f"freq_{i:04d}_re.csv"] = m.real.tolist()
        expected[f"freq_{i:04d}_im.csv"] = m.imag.tolist()
    assert sorted(p.name for p in (tmp_path / "dir").iterdir()) == sorted(expected)
    for file, content in expected.items():
        (write_json if file.endswith(".json") else write_csv)(tmp_path / file, content)
        assert (tmp_path / "dir" / file).read_bytes() == (tmp_path / file).read_bytes()


def _nonfinite_square():
    # -inf mirrors inf (the sign bit alone differs); a NaN with the sign bit
    # mirrors a NaN without it, and is still written "nan"
    m = np.array([[1.0, np.inf, np.nan, -0.0],
                  [-np.inf, np.nan, 2.0, 0.1 + 0.2],
                  [np.copysign(np.nan, -1.0), -2.0, 0.0, 1e-300],
                  [0.0, -(0.1 + 0.2), -1e-300, -np.inf]])
    assert np.signbit(m[2, 0]) and not np.signbit(m[0, 2])
    return m


SQUARE_ARRAYS = {
    "signed-zeros-re": _SIGNED_ZEROS.real,
    "signed-zeros-im": _SIGNED_ZEROS.imag,
    "non-finite": _nonfinite_square(),
    "random": _random_float_values()[:3],
    "symmetric-random": _random_float_values()[:3] + _random_float_values()[:3].T,
    "d=1": np.array([[-0.0]]),
    "d=0": np.zeros((0, 0)),
}


@pytest.mark.parametrize("name", list(SQUARE_ARRAYS))
def test_square_array_same_bytes_as_its_list(tmp_path, name):
    a = SQUARE_ARRAYS[name]
    for write, ext in ((write_json, "json"), (write_csv, "csv")):
        array, plain = tmp_path / f"array.{ext}", tmp_path / f"list.{ext}"
        write(array, a)
        write(plain, a.tolist())
        assert array.read_bytes() == plain.read_bytes()
    if name == "non-finite":
        text = (tmp_path / "array.json").read_text()
        assert "[-Infinity, NaN, 2.0, 0.30000000000000004]" in text
        assert "[NaN, -2.0, 0.0, 1e-300]" in text
        assert (tmp_path / "array.csv").read_bytes().startswith(
            b"1.0,inf,nan,-0.0\r\n-inf,nan,2.0,0.30000000000000004\r\nnan,-2.0,")


CSV_CASES = {
    "quoted-field": 'a,b\n"1.5",2\n',
    "spaces-around-number": "a,b\n 1.5 ,\t2\n",
    "underscore": "a,b\n1_0,2\n",
    "empty-field": "a,b\n1,\n",
    "trailing-comma": "a,b\n1,2,\n",
    "hash-row": "a,b\n1,2\n# note\n3,4\n",
    "whitespace-row": "a,b\n1,2\n   \n3,4\n",
    "ragged-row": "a,b\n1,2\n3\n",
    "header-width-mismatch": "a,b,c\n1,2\n3,4\n",
    "header-only": "a,b\n",
    "one-column-header-only": "a\n",
    "empty-file": "",
    "blank-lines-only": "\n\r\n\n",
    "huge-field": "a,b\n1.0," + "9" * 140000 + "\n2.0,3.0\n",
    "nan-inf": "a,b\nnan,inf\n-inf,1\n",
    "cr-only": "a,b\r1,2\r3,4\r",
    "crlf": "a,b\r\n1,2\r\n\r\n3,4\r\n",
    "single-column": "a\n1\n2\n",
    "invalid-utf8": "a,b\n" + "1.5,2.5\n" * 3000 + "1,\udcff\n3,4\n",
    "random-floats": "a,b,c\n" + _random_float_rows(),
}


def _case_file(tmp_path, name):
    # \udcff is written as the byte 0xff, which is not UTF-8
    path = tmp_path / f"{name}.csv"
    path.write_bytes(CSV_CASES[name].encode("utf-8", "surrogateescape"))
    return path


def _outcome(path, header):
    try:
        head, values = read_csv(path, header=header)
    except ParseError as exc:
        return "error", str(exc)
    return head, values


class TestReadCsvMatchesRowLoop:
    """read_csv parses with np.loadtxt; the csv-module row loop it falls back
    to defines the values and errors. With loadtxt made to fail, every file
    goes through the loop, and both ways must agree bit for bit."""

    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    @pytest.mark.parametrize("name", list(CSV_CASES))
    def test_same_values_or_same_error(self, tmp_path, monkeypatch, recwarn, name, header):
        path = _case_file(tmp_path, name)
        fast = _outcome(path, header)
        assert not recwarn.list

        def fail(*args, **kwargs):
            raise ValueError("loadtxt disabled")
        monkeypatch.setattr(core.np, "loadtxt", fail)
        loop = _outcome(path, header)
        assert fast[0] == loop[0]
        if fast[0] == "error":
            assert fast[1] == loop[1]
        else:
            assert fast[1].dtype == loop[1].dtype and np.array_equal(
                fast[1], loop[1], equal_nan=True)

    @pytest.mark.parametrize("name", list(CSV_CASES))
    def test_loop_runs_only_where_loadtxt_cannot_decide(self, tmp_path, monkeypatch, name):
        # the comparison above tests the loadtxt path only for the files
        # whose loadtxt result is kept
        loop = []
        monkeypatch.setattr(core, "_read_csv_rows",
                            lambda *args, f=core._read_csv_rows: loop.append(1) or f(*args))
        _outcome(_case_file(tmp_path, name), header=True)
        plain = name in ("spaces-around-number", "cr-only", "crlf", "single-column",
                         "random-floats")
        assert loop == ([] if plain else [1])


class TestWriteJson:
    OBJ = {
        "nested": {"z": [], "a": {}, "m": [[1.0, -2.5], [], [[3]]]},
        "rows": [{"b": 1, "a": None}, [True, False, None]],
        "none": None, "yes": True, "no": False, "int": -7, "zero": 0,
        "big": 1.7976931348623157e308, "small": 5e-324, "third": 1.0 / 3.0,
        "text": 'quote " backslash \\ newline \n non-ascii \u00e9\u2713',
        "": "empty key",
    }

    def test_round_trip(self, tmp_path):
        write_json(tmp_path / "o.json", self.OBJ)
        with open(tmp_path / "o.json") as fh:
            assert json.load(fh) == self.OBJ

    def test_sorted_keys(self, tmp_path):
        write_json(tmp_path / "o.json", self.OBJ)
        orders = []
        with open(tmp_path / "o.json") as fh:
            json.load(fh, object_pairs_hook=lambda pairs: orders.append(
                [k for k, _ in pairs]))
        assert len(orders) == 4 and all(keys == sorted(keys) for keys in orders)

    def test_layout_one_leaf_list_per_line(self, tmp_path):
        write_json(tmp_path / "o.json", {"m": [[1.0, 2.0], [3.0, 4.0]], "b": [],
                                         "a": {"k": [0.5, "x"]}, "e": {}})
        assert (tmp_path / "o.json").read_text() == (
            '{\n'
            '  "a": {\n'
            '    "k": [0.5, "x"]\n'
            '  },\n'
            '  "b": [],\n'
            '  "e": {},\n'
            '  "m": [\n'
            '    [1.0, 2.0],\n'
            '    [3.0, 4.0]\n'
            '  ]\n'
            '}\n')

    def test_top_level_leaf_ends_with_newline(self, tmp_path):
        write_json(tmp_path / "o.json", [1.5, None])
        assert (tmp_path / "o.json").read_text() == "[1.5, null]\n"
