import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftspectra import (
    DomainError,
    FrequencyKernel,
    clip_estimate,
    clip_to_pd,
    clip_to_psd,
    eigendecompose,
    epanechnikov,
    estimate_lagwindow,
    estimate_smoothed,
    generate_fma1,
    hs_distance,
    imse_from_estimate,
    make_fma1_model,
    min_eigenvalue,
    trapezoid,
    true_spectrum,
)
from ftspectra.core import _hermitian_sum, center
from ftspectra.sim import DEFAULT_KERNELS

from conftest import random_hermitian, random_psd


def charpoly_eigenvalues(m):
    """Independent eigenvalue oracle: characteristic polynomial coefficients
    via trace Newton identities, roots via the companion matrix."""
    d = m.shape[0]
    powers = [np.eye(d, dtype=complex)]
    for _ in range(d):
        powers.append(powers[-1] @ m)
    p = [float(np.trace(powers[k]).real) for k in range(d + 1)]
    coeffs = [1.0]
    for k in range(1, d + 1):
        s = sum(coeffs[i] * p[k - i] for i in range(k))
        coeffs.append(-s / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


class TestEigendecompose:
    def test_diagonal_matrix(self):
        k = FrequencyKernel(np.diag([3.0, -1.0, 2.0]))
        w, v = eigendecompose(k)
        assert np.allclose(w, [3.0, 2.0, -1.0])
        # eigenvectors are signed standard basis vectors
        assert np.allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]])

    def test_rank_one_outer_product(self, rng):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        k = FrequencyKernel(np.outer(v, v.conj()))
        w, _ = eigendecompose(k)
        assert w[0] == pytest.approx(np.sum(np.abs(v) ** 2), rel=1e-12)
        assert np.max(np.abs(w[1:])) < 1e-8 * np.linalg.norm(k.matrix)

    def test_reconstruction_and_orthonormality(self, rng):
        k = FrequencyKernel(random_hermitian(rng, 12))
        w, v = eigendecompose(k)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - k.matrix) < 1e-8 * np.linalg.norm(k.matrix)
        assert np.max(np.abs(v.conj().T @ v - np.eye(12))) < 1e-10

    def test_descending_order(self, rng):
        w, _ = eigendecompose(FrequencyKernel(random_hermitian(rng, 9)))
        assert np.all(np.diff(w) <= 0)

    def test_against_general_solver(self, rng):
        m = random_hermitian(rng, 10)
        w, _ = eigendecompose(FrequencyKernel(m))
        general = np.sort(np.linalg.eigvals(m).real)[::-1]
        assert np.max(np.abs(w - general)) < 1e-8

    def test_against_characteristic_polynomial(self, rng):
        # scaled down so the Newton-identity traces stay well conditioned
        m = random_hermitian(rng, 6)
        m = m / (2 * np.linalg.norm(m, 2))
        w, _ = eigendecompose(FrequencyKernel(m))
        ref = charpoly_eigenvalues(np.asarray(m, dtype=complex))
        assert np.max(np.abs(w - ref)) < 1e-8


class TestClipToPsd:
    def test_diagonal_example(self):
        k = FrequencyKernel(np.diag([1.0, -0.5]))
        out = clip_to_psd(k)
        assert np.allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_fixed_point_on_psd_input(self, rng):
        k = FrequencyKernel(random_psd(rng, 8))
        out = clip_to_psd(k)
        assert np.max(np.abs(out.matrix - k.matrix)) < 1e-10 * np.max(np.abs(k.matrix))

    def test_idempotent(self, rng):
        k = FrequencyKernel(random_hermitian(rng, 10))
        once = clip_to_psd(k)
        twice = clip_to_psd(once)
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-10 * np.max(np.abs(once.matrix))

    def test_result_is_psd(self, rng):
        for _ in range(20):
            k = FrequencyKernel(random_hermitian(rng, 7))
            out = clip_to_psd(k)
            assert min_eigenvalue(out) >= -1e-10 * np.linalg.norm(k.matrix)

    def test_projection_contracts_toward_psd_targets(self, rng):
        # Frobenius projection onto a convex cone never moves away from any
        # point of the cone
        for _ in range(200):
            fhat = FrequencyKernel(random_hermitian(rng, 8))
            target = FrequencyKernel(random_psd(rng, 8))
            clipped = clip_to_psd(fhat)
            assert hs_distance(clipped, target) <= hs_distance(fhat, target) + 1e-12

    def test_two_runs_identical(self, rng):
        k = FrequencyKernel(random_hermitian(rng, 11))
        a, b = clip_to_psd(k), clip_to_psd(k)
        assert np.array_equal(a.matrix, b.matrix)

    @given(d=st.integers(2, 6))
    @settings(deadline=None, max_examples=25)
    def test_contraction_property(self, d):
        rng = np.random.default_rng(d)
        fhat = FrequencyKernel(random_hermitian(rng, d))
        target = FrequencyKernel(random_psd(rng, d))
        assert hs_distance(clip_to_psd(fhat), target) <= hs_distance(fhat, target) + 1e-12


class TestClipToPd:
    def test_diagonal_example(self):
        k = FrequencyKernel(np.diag([1.0, -0.5]))
        out = clip_to_pd(k, 0.01)
        assert np.allclose(out.matrix, np.diag([1.0, 0.01]), atol=1e-14)

    def test_no_change_when_eigenvalues_large(self, rng):
        m = random_psd(rng, 6) + 2.0 * np.eye(6)
        k = FrequencyKernel(m)
        out = clip_to_pd(k, 1e-3)
        assert np.max(np.abs(out.matrix - m)) < 1e-10 * np.max(np.abs(m))

    def test_rate_floor_value(self):
        T = 1000
        k = FrequencyKernel(np.diag([1.0, -0.2]))
        out = clip_to_pd(k, 1.0 / T)
        assert min_eigenvalue(out) == pytest.approx(0.001, rel=1e-10)

    def test_min_eigenvalue_floor(self, rng):
        k = FrequencyKernel(random_hermitian(rng, 9))
        out = clip_to_pd(k, 0.05)
        assert min_eigenvalue(out) >= 0.05 - 1e-12

    def test_distance_to_psd_clip_bounded(self, rng):
        eps = 0.01
        k = FrequencyKernel(random_hermitian(rng, 10))
        psd = clip_to_psd(k)
        pd = clip_to_pd(k, eps)
        # at most eps per clipped eigenvalue: (1/d) * sqrt(d * eps^2)
        assert hs_distance(pd, psd) <= eps / np.sqrt(10) + 1e-12

    def test_rejects_nonpositive_floor(self, rng):
        k = FrequencyKernel(random_hermitian(rng, 3))
        for eps in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(DomainError):
                clip_to_pd(k, eps)


class TestClipEstimate:
    def test_clips_each_frequency(self):
        model = make_fma1_model(5, d=20)
        series = center(generate_fma1(model, 128))
        est = estimate_smoothed(series, trapezoid(), 0.3)
        clipped = clip_estimate(est, "semidefinite")
        for k in clipped.kernels:
            assert min_eigenvalue(k) >= -1e-10 * np.linalg.norm(k.matrix)
        pd = clip_estimate(est, "definite", eps=1e-4)
        for k in pd.kernels:
            assert min_eigenvalue(k) >= 1e-4 - 1e-12
        assert clip_estimate(est, "none") is est
        with pytest.raises(DomainError):
            clip_estimate(est, "definite")
        with pytest.raises(DomainError):
            clip_estimate(est, "banana")
        # the block clip is the single-matrix clip of every row, bit for bit
        T = 128
        for d in (3, 50):
            series = generate_fma1(make_fma1_model(d, d=d), T)
            for spec in (trapezoid(), epanechnikov()):
                est = estimate_smoothed(series, spec, T ** -0.2)
                for block, clip in ((clip_estimate(est, "semidefinite"), clip_to_psd),
                                    (clip_estimate(est, "definite", eps=1 / T),
                                     lambda k: clip_to_pd(k, 1 / T))):
                    for row, k in zip(block.matrices, est.kernels):
                        a, b = row.view(float), clip(k).matrix.view(float)
                        assert np.array_equal(a, b), (d, spec)
                        assert np.array_equal(np.signbit(a), np.signbit(b)), (d, spec)

    @pytest.mark.parametrize("T", [64, 256])
    def test_clip_never_raises_the_imse(self, T):
        # the truth is PSD and the semidefinite clip is the Frobenius
        # projection onto the PSD cone at each frequency, so it cannot move an
        # estimate away from the truth; the definite clip with floor eps moves
        # each matrix at most eps * sqrt(d) in Frobenius norm, and the IMSE
        # frequency weights sum to less than 2*pi
        d, eps = 20, 1 / T
        for seed in range(6):
            model = make_fma1_model(seed, d=d)
            series = generate_fma1(model, T)
            truth = true_spectrum(model)
            for spec in DEFAULT_KERNELS:
                for estimator in (estimate_smoothed, estimate_lagwindow):
                    if estimator is estimate_lagwindow and not spec.is_flat_top:
                        continue
                    est = estimator(series, spec, T ** -0.2)
                    raw = imse_from_estimate(est, truth)
                    psd = imse_from_estimate(clip_estimate(est, "semidefinite"), truth)
                    pd = imse_from_estimate(clip_estimate(est, "definite", eps=eps), truth)
                    case = (seed, spec.identifier, estimator.__name__)
                    assert psd <= raw * (1 + 1e-12), case
                    assert np.sqrt(pd) <= np.sqrt(psd) + eps * np.sqrt(2 * np.pi / d), case

    @pytest.mark.parametrize("mode", ["none", "semidefinite", "definite"])
    @pytest.mark.parametrize("eps", [-1.0, 0.0, np.nan, np.inf])
    def test_given_floor_checked_before_any_clip(self, mode, eps):
        # an estimate without frequencies has no matrix to clip, and a bad
        # floor is refused all the same, whatever the mode
        series = generate_fma1(make_fma1_model(5, d=8), 32)
        empty = estimate_smoothed(series, trapezoid(), 0.5, [])
        with pytest.raises(DomainError, match="eigenvalue floor"):
            clip_estimate(empty, mode, eps=eps)


def batched_clip(block, floor):
    """The clip of every matrix by one batched eigh call over the block."""
    w, v = np.linalg.eigh(block)
    v = v[..., ::-1]
    m = (v * np.maximum(w[..., ::-1], floor)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    m = _hermitian_sum(m.real, m.imag)
    m *= 0.5
    return m


@pytest.mark.parametrize("d", [2, 20, 100])
@pytest.mark.parametrize("spec", [trapezoid(), epanechnikov()], ids=["TR", "EPA"])
def test_clip_is_the_batched_clip_bit_for_bit(d, spec):
    # one matrix at a time gives every matrix the batched call's bytes
    T = 256
    est = estimate_smoothed(generate_fma1(make_fma1_model(d, d=d), T), spec, 0.1)
    for mode, eps, floor in (("semidefinite", None, 0.0), ("definite", 1 / T, 1 / T)):
        got = clip_estimate(est, mode, eps).matrices
        expected = batched_clip(est.matrices, floor)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), mode


@pytest.mark.parametrize("d", [100, 200])
def test_clip_holds_the_output_and_one_matrix(d):
    # the batched clip held about three blocks of (n_f, d, d) matrices
    # (3.1 times the block at d = 100); one frequency at a time, the output
    # block and O(d^2): 1.54 times the block at d = 100 and 1.51 at d = 200
    est = estimate_smoothed(generate_fma1(make_fma1_model(1, d=d), 512), trapezoid(), 0.3)
    clip_estimate(est, "semidefinite")
    tracemalloc.start()
    try:
        clip_estimate(est, "semidefinite")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * est.matrices.nbytes
