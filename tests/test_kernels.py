import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ftspectra import (
    DomainError,
    UnsupportedKernelError,
    baseline_weight,
    capital_lambda_batch,
    effective_flat_top_radius,
    epanechnikov,
    flat_top_parzen,
    infinitely_differentiable,
    kernel_moment,
    lambda_eval,
    parse_kernel,
    support_radius,
    trapezoid,
    weight_function,
)
from ftspectra import kernels
from ftspectra.kernels import KernelFamily, spec_from_json_dict

FLAT_TOPS = [trapezoid(), flat_top_parzen(), infinitely_differentiable()]
IDS = ["TR", "PR", "ID"]

# effective flat-top radius of the smooth family at epsilon = 0.01, frozen
# from a bisection run at 1e-6 precision
C_EF_ID_REGRESSION = 0.302112


def capital_lambda(spec, x):
    """Oracle for Lam(x) = (1/pi) * int_0^S lam(s) cos(s x) ds by adaptive
    quadrature, oscillatory weighting (QAWO) branch by branch between the kinks
    of lam so that large |x| stays accurate."""
    c = spec.c
    if spec.family is KernelFamily.FLAT_TOP_PARZEN:
        pts = [0.0, c, c + 0.5, c + 1.0]
    else:
        pts = [0.0, c, 1.0]
    x = abs(float(x))
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        f = lambda s: lambda_eval(spec, s)
        if x < 1e-12:
            val, _ = quad(f, a, b, limit=200)
        else:
            val, _ = quad(f, a, b, weight="cos", wvar=x, limit=200)
        total += val
    return total / np.pi


def capital_lambda_trapezoid(c: float, x):
    """Closed form of the trapezoid smoothing kernel,
    (cos(c x) - cos(x)) / (pi (1-c) x^2), with its x -> 0 limit (1+c)/(2 pi)."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    out[small] = (1.0 + c) / (2.0 * np.pi)
    xb = x[~small]
    out[~small] = (np.cos(c * xb) - np.cos(xb)) / (np.pi * (1.0 - c) * xb**2)
    return float(out[0]) if scalar else out


def gauss_panels(a, b, n_panels, n_nodes=16):
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * gl_x).ravel(), (half[:, None] * gl_w).ravel()


class TestSpecValidation:
    def test_defaults_match_standard_choices(self):
        assert trapezoid().c == 0.5
        assert flat_top_parzen().c == 0.75
        id_spec = infinitely_differentiable()
        assert (id_spec.b, id_spec.c) == (0.25, 0.05)
        assert infinitely_differentiable(c=0.1).b == 0.25
        assert epanechnikov().c is None

    @pytest.mark.parametrize("make, name", [(trapezoid, "TR"), (flat_top_parzen, "PR"),
                                            (infinitely_differentiable, "ID"),
                                            (epanechnikov, "EPA")],
                             ids=["TR", "PR", "ID", "EPA"])
    def test_constructor_defaults_equal_parsed_name(self, make, name):
        # the default parameters live in FlatTopSpec alone
        assert make() == parse_kernel(name)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.5, 1.5])
    def test_trapezoid_c_range(self, c):
        with pytest.raises(DomainError):
            trapezoid(c)

    def test_parzen_allows_c_above_one(self):
        assert support_radius(flat_top_parzen(1.5)) == 2.5

    def test_id_shape_parameter_positive(self):
        with pytest.raises(DomainError):
            infinitely_differentiable(b=0.0)

    def test_baseline_has_no_taper(self):
        with pytest.raises(UnsupportedKernelError):
            lambda_eval(epanechnikov(), 0.3)
        with pytest.raises(UnsupportedKernelError):
            effective_flat_top_radius(epanechnikov())


class TestLambdaEval:
    def test_trapezoid_linear_segment(self):
        assert lambda_eval(trapezoid(), 0.75) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_unity_at_origin(self, spec):
        assert lambda_eval(spec, 0.0) == 1.0

    def test_parzen_middle_branch(self):
        assert lambda_eval(flat_top_parzen(), 1.0) == pytest.approx(0.71875, abs=1e-15)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_flat_region_exact_and_bounded(self, spec):
        s = np.linspace(-spec.c, spec.c, 33)
        assert np.all(lambda_eval(spec, s) == 1.0)
        s = np.linspace(-3.0, 3.0, 1001)
        v = lambda_eval(spec, s)
        assert np.all(np.abs(v) <= 1.0)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_vanishes_outside_support(self, spec):
        S = support_radius(spec)
        assert lambda_eval(spec, S) == 0.0
        assert np.all(lambda_eval(spec, np.linspace(S, S + 5, 50)) == 0.0)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    @given(s=st.floats(-4.0, 4.0))
    @settings(deadline=None, max_examples=60)
    def test_even(self, spec, s):
        assert lambda_eval(spec, s) == lambda_eval(spec, -s)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_continuity_scan(self, spec):
        h = 1e-4
        s = np.arange(0.0, support_radius(spec) + 10 * h, h)
        v = lambda_eval(spec, s)
        jumps = np.abs(np.diff(v))
        # Lipschitz constants stay modest for all three tails
        assert jumps.max() < 10.0 * h


class TestCapitalLambda:
    def test_trapezoid_at_zero(self):
        assert capital_lambda(trapezoid(), 0.0) == pytest.approx(1.5 / (2 * np.pi), abs=1e-10)

    def test_trapezoid_at_two_pi_closed_form(self):
        expected = -2.0 / (2.0 * np.pi**3)
        assert capital_lambda(trapezoid(), 2 * np.pi) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_quadrature_matches_batch_evaluator(self, spec):
        xs = np.array([0.0, 0.7, 3.0, 12.345, 40.0])
        batch = capital_lambda_batch(spec, xs)
        pointwise = np.array([capital_lambda(spec, x) for x in xs])
        assert np.max(np.abs(batch - pointwise)) < 1e-10

    def test_trapezoid_closed_form_agrees_everywhere(self):
        xs = np.linspace(-80.0, 80.0, 641)
        closed = capital_lambda_trapezoid(0.5, xs)
        batch = capital_lambda_batch(trapezoid(), xs)
        assert np.max(np.abs(closed - batch)) < 1e-12

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_integrates_to_one(self, spec):
        assert kernel_moment(spec, 0, truncation=200.0) == pytest.approx(1.0, abs=1e-3)


class TestWeightFunction:
    def test_hand_summable_value(self):
        expected = 15.0 / (2.0 * np.pi)
        assert weight_function(trapezoid(), 0.1, 0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_even_in_x(self, spec, rng):
        x = rng.uniform(-np.pi, np.pi, size=20)
        assert np.allclose(weight_function(spec, 0.3, x),
                           weight_function(spec, 0.3, -x), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_periodic(self, spec, rng):
        x = rng.uniform(-np.pi, np.pi, size=10)
        assert np.allclose(weight_function(spec, 0.17, x),
                           weight_function(spec, 0.17, x + 2 * np.pi),
                           rtol=1e-12, atol=1e-12)

    def test_integrates_to_one(self):
        nodes, w = gauss_panels(-np.pi, np.pi, 256)
        val = np.sum(w * weight_function(trapezoid(), 0.05, nodes))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_rejects_bad_bandwidth(self):
        for b in (0.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                weight_function(trapezoid(), b, 0.0)
        # S / B is infinite for a subnormal B, and the ceil of inf overflows
        with pytest.raises(DomainError, match="too small to periodize"):
            kernels.lag_weights(trapezoid(), 5e-324)

    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    def test_matches_periodized_kernel(self, spec, rng):
        # cosine-series form against direct periodization of the quadrature
        # kernel, sum over |j| <= 50
        B = 0.1
        x = rng.uniform(-np.pi, np.pi, size=100)
        direct = weight_function(spec, B, x)
        j = np.arange(-50, 51)
        args = (x[:, None] + 2 * np.pi * j[None, :]) / B
        periodized = capital_lambda_batch(spec, args).sum(axis=1) / B
        assert np.max(np.abs(direct - periodized)) < 1e-3


    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    @pytest.mark.parametrize("B", [0.5, 1e-3, 1e-5])
    def test_matches_the_cosine_series(self, spec, B):
        x = np.linspace(-7.0, 7.0, 1001)
        expected = cosine_series_weight(spec, B, x)
        got = weight_function(spec, B, x)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_small_bandwidth_costs_no_cosine_table_memory(self):
        # 10^5 lags at 100 points: a table over every lag would take 80 MB
        tracemalloc.start()
        try:
            weight_function(trapezoid(), 1e-5, np.linspace(0.0, 3.0, 100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


def cosine_series_weight(spec, bandwidth, x):
    """W(x) = (1 + 2 * sum_{u>=1} lam(B u) cos(x u)) / (2 pi), the cosine
    series summed directly over every lag, a few points at a time: the
    oracle for the folded form."""
    lam = kernels.lag_weights(spec, bandwidth)
    u = np.arange(1, lam.size)
    return np.concatenate([(1.0 + 2.0 * (np.cos(np.multiply.outer(part, u)) @ lam[1:]))
                           / (2.0 * np.pi) for part in np.array_split(x, 50)])


def three_image_baseline_weight(bandwidth, x):
    """The periodized Epanechnikov weight summed over the images j0 - 1, j0
    and j0 + 1, j0 the one nearest 0: the oracle for the one-image form."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    j0 = np.round(-x / (2.0 * np.pi))
    for dj in (-1.0, 0.0, 1.0):
        z = (x + 2.0 * np.pi * (j0 + dj)) / bandwidth
        out += np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z**2), 0.0) / bandwidth
    return out


# x anywhere in [-4 pi, 4 pi], and the odd multiples of pi there, where the
# nearest image switches
_ARGUMENTS = st.one_of(
    st.floats(min_value=-4 * np.pi, max_value=4 * np.pi),
    st.sampled_from([k * np.pi for k in (-3, -1, 1, 3)]))


class TestBaselineWeight:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
           st.lists(_ARGUMENTS, min_size=1, max_size=64))
    def test_nearest_image_is_the_periodization_bit_for_bit(self, bandwidth, xs):
        # a subnormal B sends z to inf, where both forms give 0
        with np.errstate(over="ignore"):
            got = baseline_weight(bandwidth, np.array(xs))
            want = three_image_baseline_weight(bandwidth, xs)
        assert got.tobytes() == want.tobytes()

    def test_peak_value(self):
        for b in (0.1, 0.435):
            assert baseline_weight(b, 0.0) == pytest.approx(0.75 / b, rel=1e-14)

    def test_support_edge(self):
        assert baseline_weight(0.3, 0.3) == 0.0
        assert baseline_weight(0.3, -0.3) == 0.0

    def test_integrates_to_one(self):
        for b in (0.5, 0.2, 0.05):
            # adaptive quadrature with the support corners declared
            val, _ = quad(lambda x: baseline_weight(b, x), -np.pi, np.pi,
                          points=[-b, b], limit=200)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_periodic_wraparound(self):
        # at x slightly inside the period boundary, the j = -1 image contributes
        assert baseline_weight(0.5, 2 * np.pi - 0.1) == pytest.approx(
            baseline_weight(0.5, -0.1), rel=1e-14)


class TestEffectiveFlatTopRadius:
    def test_trapezoid_linear_inversion(self):
        # (s - 1)/(c - 1) = 0.99 at s = 1 - 0.99 * 0.5
        assert effective_flat_top_radius(trapezoid()) == pytest.approx(0.505, abs=2e-6)

    def test_tiny_epsilon_collapses_to_c(self, monkeypatch):
        monkeypatch.setattr(kernels, "EPSILON_EF", 1e-9)
        assert effective_flat_top_radius(trapezoid()) == pytest.approx(0.5, abs=1e-5)

    def test_smooth_family_regression_value(self):
        # substantially wider than c = 0.05, pinned by an earlier bisection run
        assert effective_flat_top_radius(infinitely_differentiable()) == pytest.approx(
            C_EF_ID_REGRESSION, abs=1e-4)

    def test_at_least_c(self):
        for spec in FLAT_TOPS:
            assert effective_flat_top_radius(spec) >= spec.c


class TestKernelMoment:
    @pytest.mark.parametrize("spec", FLAT_TOPS, ids=IDS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_odd_moments_exactly_zero(self, spec, k):
        assert kernel_moment(spec, k) == 0.0

    def test_smooth_family_second_moment_vanishes(self):
        m2 = kernel_moment(infinitely_differentiable(), 2, truncation=200.0)
        assert abs(m2) < 1e-2

    def test_zeroth_moment_against_scipy_quad(self):
        # small truncation so plain adaptive quadrature is cheap
        spec = trapezoid()
        ours = kernel_moment(spec, 0, truncation=30.0)
        ref, _ = quad(lambda x: capital_lambda_trapezoid(0.5, x), -30.0, 30.0, limit=400)
        assert ours == pytest.approx(ref, abs=1e-9)

    def test_rejects_bad_arguments(self):
        for k in (-1, True, 2.0, np.nan):
            with pytest.raises(DomainError, match="moment order"):
                kernel_moment(trapezoid(), k)
        for truncation in (0.0, np.inf, np.nan):
            with pytest.raises(DomainError, match="truncation radius must be finite and "
                                                  "positive"):
                kernel_moment(trapezoid(), 0, truncation=truncation)
        with pytest.raises(DomainError, match="truncation radius must be at most 1000, "
                                              "got 1001.0"):
            kernel_moment(trapezoid(), 0, truncation=1001.0)


class TestSerialization:
    def test_json_forms(self):
        assert spec_from_json_dict({"family": "TR", "c": 0.5}) == trapezoid()
        assert spec_from_json_dict({"family": "PR", "c": 0.75}) == flat_top_parzen()
        assert spec_from_json_dict({"family": "ID", "c": 0.05, "b": 0.25}) == \
            infinitely_differentiable()
        assert spec_from_json_dict({"family": "EPA"}) == epanechnikov()

    def test_default_identifiers(self):
        assert [s.identifier for s in (epanechnikov(), trapezoid(), flat_top_parzen(),
                                       infinitely_differentiable())] == \
            ["EPA", "TR(c=0.5)", "PR(c=0.75)", "ID(b=0.25,c=0.05)"]

    def test_identifier_tells_close_parameters_apart(self):
        # six significant digits would give both TR(c=0.5)
        near = parse_kernel('{"family": "TR", "c": 0.5000001}')
        assert near.identifier == "TR(c=0.5000001)"
        assert near.identifier != parse_kernel('{"family": "TR", "c": 0.5}').identifier
        assert infinitely_differentiable(b=0.25 + 1e-12).identifier == \
            f"ID(b={0.25 + 1e-12!r},c=0.05)"

    def test_parse_kernel_bare_and_json(self):
        assert parse_kernel("tr") == trapezoid()
        assert parse_kernel('{"family": "ID", "b": 0.5, "c": 0.1}') == \
            infinitely_differentiable(b=0.5, c=0.1)
        with pytest.raises(DomainError):
            parse_kernel("gauss")
