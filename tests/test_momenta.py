import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gasmoments.core import (
    DegenerateDataError,
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    SingularIntegrandError,
    TailTruncationWarning,
    conserved,
)
from gasmoments.momenta import (
    Power,
    Quadratic,
    ShiftedPower,
    WeightFunction,
    g_phi,
    g_phi_rate,
    lemma1_terms,
    sigma_norm_sq,
    virial_residual,
)

P3 = GasParameters(n=3, gamma=5.0 / 3.0)


def gaussian_snapshot(num=4001, r_max=12.0, a=0.3):
    g = RadialGrid.uniform(r_max, num)
    rho = np.exp(-g.r**2 / 2.0)
    return FlowSnapshot(g, rho=rho, v=a * g.r, p=0.5 * rho ** P3.gamma)


class TestWeightEvaluators:
    @pytest.mark.parametrize(
        "w",
        [Quadratic(), Power(n=3, inner_radius=0.1), ShiftedPower(q=-2.5, inner_radius=0.1)],
        ids=["quadratic", "power", "shifted"],
    )
    def test_derivatives_consistent(self, w):
        r = np.array([0.5, 1.0, 1.7, 2.3])
        h = 1e-5
        fd1 = (w.phi(r + h) - w.phi(r - h)) / (2 * h)
        fd2 = (w.dphi(r + h) - w.dphi(r - h)) / (2 * h)
        np.testing.assert_allclose(fd1, w.dphi(r), rtol=1e-8)
        np.testing.assert_allclose(fd2, w.d2phi(r), rtol=1e-7)
        np.testing.assert_allclose(w.dphi(r) / r, w.dphi_over_r(r), rtol=1e-13)

    def test_power_rejects_low_dimension(self):
        with pytest.raises(ParameterError):
            Power(n=2, inner_radius=0.1)

    def test_singular_weights_demand_inner_radius(self):
        with pytest.raises(TypeError):
            Power(n=3)  # inner_radius has no default on purpose
        for inner_radius in (0.0, None):
            with pytest.raises(ParameterError):
                Power(n=3, inner_radius=inner_radius)
            with pytest.raises(ParameterError):
                ShiftedPower(q=-1, inner_radius=inner_radius)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_power_is_shifted_power_with_the_fundamental_exponent(self, n):
        # Power(n) is ShiftedPower(q = 2 - n); its four evaluators keep the bits of the closed forms in n
        w = Power(n=n, inner_radius=0.05)
        assert w == ShiftedPower(q=2.0 - n, inner_radius=0.05)
        rs = np.array([0.05, 0.1, 0.37, 1.0, 1.7, 2.5, 7.3, 1e3])
        for r in [rs] + [float(x) for x in rs]:
            x = np.asarray(r, dtype=float)
            assert np.array_equal(w.phi(r), x ** (2 - n))
            assert np.array_equal(w.dphi(r), (2 - n) * x ** (1 - n))
            assert np.array_equal(w.d2phi(r), ((2 - n) * (1 - n)) * x ** (-n))
            assert np.array_equal(w.dphi_over_r(r), (2 - n) * x ** (-n))

    def test_shifted_power_exponent_sign(self):
        with pytest.raises(ParameterError):
            ShiftedPower(q=0.5, inner_radius=0.1)


class TestGPhi:
    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_uniform_ball_quadratic(self):
        g = RadialGrid.uniform(1.0, 4001)
        s = FlowSnapshot(g, rho=np.ones(len(g)), v=np.zeros(len(g)), p=np.zeros(len(g)))
        # 1/2 omega_2 int r^4 dr = 2 pi / 5
        assert g_phi(s, Quadratic(), P3) == pytest.approx(2 * math.pi / 5, rel=1e-6)

    def test_vacuum_is_zero_for_every_weight(self):
        g = RadialGrid(np.linspace(0.5, 8.0, 200))
        s = FlowSnapshot(g, rho=np.zeros(200), v=np.zeros(200), p=np.zeros(200))
        for w in (Quadratic(), Power(n=3, inner_radius=0.5), ShiftedPower(q=-1.5, inner_radius=0.5)):
            assert g_phi(s, w, P3) == 0.0

    def test_gaussian_second_moment(self):
        g = RadialGrid.uniform(12.0, 6001)
        s = FlowSnapshot(g, rho=np.exp(-g.r**2 / 2), v=np.zeros(len(g)), p=np.zeros(len(g)))
        expect = 1.5 * (2 * math.pi) ** 1.5  # (1/2) E|x|^2 * (2pi)^{3/2} for the standard Gaussian
        assert g_phi(s, Quadratic(), P3) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_power_weight_closed_form(self):
        # rho = 1 on [a, b], phi = 1/r: omega_2 int_a^b r dr
        a, b = 0.5, 2.0
        g = RadialGrid(np.linspace(a, b, 3001))
        s = FlowSnapshot(g, rho=np.ones(len(g)), v=np.zeros(len(g)), p=np.zeros(len(g)))
        expect = 4 * math.pi * (b**2 - a**2) / 2
        got = g_phi(s, Power(n=3, inner_radius=a), P3)
        assert got == pytest.approx(expect, rel=1e-8)

    def test_grid_inside_inner_radius_rejected(self):
        g = RadialGrid.uniform(1.0, 32)  # starts at r = 0
        s = FlowSnapshot(g, rho=np.ones(32), v=np.zeros(32), p=np.zeros(32))
        with pytest.raises(SingularIntegrandError, match="inner radius"):
            g_phi(s, Power(n=3, inner_radius=0.1), P3)

    def test_overflowing_integrand_names_the_node(self):
        # rho phi = 1e306 * 100^2 / 2 overflows a float at node 1
        g = RadialGrid(np.array([0.0, 100.0, 200.0]))
        s = FlowSnapshot(g, rho=[1.0, 1e306, 0.0], v=np.zeros(3), p=np.zeros(3))
        with pytest.raises(InvalidInputError, match=r"^radial integrand is not finite at node 1 \(r=100\.0\)$"):
            g_phi(s, Quadratic(), P3)


class TestGPhiRate:
    def test_zero_velocity(self):
        s = gaussian_snapshot(a=0.0)
        assert g_phi_rate(s, Quadratic(), P3) == 0.0

    def test_linear_velocity_identity(self):
        # v = a r with the quadratic weight: rate = 2 a G
        s = gaussian_snapshot(a=0.37)
        rate = g_phi_rate(s, Quadratic(), P3)
        expect = 2 * 0.37 * g_phi(s, Quadratic(), P3)
        assert rate == pytest.approx(expect, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_unit_ball_closed_form(self):
        g = RadialGrid.uniform(1.0, 4001)
        ones = np.ones(len(g))
        s = FlowSnapshot(g, rho=ones, v=ones, p=np.zeros(len(g)))
        assert g_phi_rate(s, Quadratic(), P3) == pytest.approx(math.pi, rel=1e-6)


class TestLemmaOneTerms:
    def test_quadratic_all_space_matches_energies(self):
        s = gaussian_snapshot()
        rep = conserved(s, P3)
        terms = lemma1_terms(s, Quadratic(), "all-space", P3)
        assert terms.I1 == pytest.approx(2 * rep.e_kinetic, rel=1e-12)
        assert terms.I2 == 0.0
        assert terms.I3 == pytest.approx(P3.n * (P3.gamma - 1) * rep.e_internal, rel=1e-12)
        assert terms.I4 == 0.0

    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_constant_pressure_ball_cancellation(self):
        # I3 = n p0 |B_R| and I4 = -n p0 |B_R| cancel by the divergence theorem
        g = RadialGrid.uniform(2.0, 2001)
        p0 = 0.7
        s = FlowSnapshot(g, rho=np.zeros(len(g)), v=np.zeros(len(g)), p=p0 * np.ones(len(g)))
        terms = lemma1_terms(s, Quadratic(), "ball", P3)
        ball = 4 * math.pi / 3 * 2.0**3
        assert terms.I3 == pytest.approx(3 * p0 * ball, rel=1e-6)
        assert terms.I4 == pytest.approx(-3 * p0 * ball, rel=1e-12)
        assert abs(terms.I3 + terms.I4) < 1e-5 * abs(terms.I3)

    def test_zero_fields(self):
        g = RadialGrid.uniform(1.0, 16)
        z = np.zeros(16)
        s = FlowSnapshot(g, rho=z, v=z, p=z)
        terms = lemma1_terms(s, Quadratic(), "all-space", P3)
        assert (terms.I1, terms.I2, terms.I3, terms.I4, terms.G_rate) == (0, 0, 0, 0, 0)

    @pytest.mark.filterwarnings("ignore::gasmoments.core.TailTruncationWarning")
    def test_power_weight_pressure_term_vanishes(self):
        # phi = r^(2-n) is harmonic away from 0: the I3 coefficient cancels nodewise
        g = RadialGrid(np.linspace(0.3, 6.0, 500))
        rho = np.exp(-g.r)
        s = FlowSnapshot(g, rho=rho, v=0.1 * g.r, p=0.4 * rho)
        terms = lemma1_terms(s, Power(n=3, inner_radius=0.3), "all-space", P3)
        assert terms.I3 == 0.0

    def test_region_validated(self):
        s = gaussian_snapshot()
        with pytest.raises(ParameterError):
            lemma1_terms(s, Quadratic(), "half-space", P3)


class TestSigma:
    def test_orthogonal_unit_vectors(self):
        assert sigma_norm_sq([1, 0, 0], [0, 1, 0]) == 1.0

    def test_parallel_vectors_vanish(self):
        assert sigma_norm_sq([2.0, -4.0, 6.0], [1.0, -2.0, 3.0]) == 0.0

    def test_component_enumeration(self):
        # |v|^2 |x|^2 - (v,x)^2 = 5 * 25 - 9 = 116
        assert sigma_norm_sq([1, 2, 0], [3, 0, 4]) == pytest.approx(116.0, rel=1e-14)

    def test_lagrange_identity_random(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 7):
            v = rng.standard_normal(n)
            x = rng.standard_normal(n)
            direct = sigma_norm_sq(v, x)
            identity = np.dot(v, v) * np.dot(x, x) - np.dot(v, x) ** 2
            assert direct == pytest.approx(identity, rel=1e-12, abs=1e-12)
            assert direct >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            sigma_norm_sq([1, 2, 3], [1, 2])


class TestVirialResidual:
    def test_smooth_snapshot_consistent(self):
        assert virial_residual(gaussian_snapshot(), P3) < 1e-8

    def test_monatomic_right_side_is_twice_total(self):
        # n (gamma - 1) = 2 at gamma = 5/3, n = 3: both identity sides collapse to 2 E_total
        s = gaussian_snapshot()
        rep = conserved(s, P3)
        terms = lemma1_terms(s, Quadratic(), "all-space", P3)
        assert terms.I1 + terms.I2 + terms.I3 == pytest.approx(2 * rep.e_total, rel=1e-12)

    def test_zero_fields_zero_residual(self):
        g = RadialGrid.uniform(1.0, 16)
        z = np.zeros(16)
        assert virial_residual(FlowSnapshot(g, rho=z, v=z, p=z), P3) == 0.0

    def test_degenerate_normalization(self):
        g = RadialGrid.uniform(1.0, 16)
        z = np.zeros(16)
        s = FlowSnapshot(g, rho=z, v=np.ones(16), p=z)  # motion with no mass: E_total = 0
        with pytest.raises(DegenerateDataError):
            virial_residual(s, P3)

    def test_two_sided_bound_subcritical_gamma(self):
        # gamma <= 1 + 2/n: n(gamma-1) E <= I1+I2+I3 <= 2E on any snapshot
        params = GasParameters(n=3, gamma=1.4)
        s = gaussian_snapshot()
        rep = conserved(s, params)
        terms = lemma1_terms(s, Quadratic(), "all-space", params)
        total = terms.I1 + terms.I2 + terms.I3
        lo = params.n * (params.gamma - 1) * rep.e_total
        hi = 2 * rep.e_total
        assert lo <= total * (1 + 1e-12) and total <= hi * (1 + 1e-12)


class CachingQuadratic(WeightFunction):
    """r^2/2 on one grid, handing back the same writeable arrays on every call, as a caching weight may."""

    inner_radius = 0.0

    def __init__(self, r):
        q = Quadratic()
        self.cache = {name: np.array(getattr(q, name)(r)) for name in ("phi", "dphi", "d2phi", "dphi_over_r")}

    def phi(self, r):
        return self.cache["phi"]

    def dphi(self, r):
        return self.cache["dphi"] if np.ndim(r) else Quadratic().dphi(r)  # lemma1_terms reads dphi(R) too

    def d2phi(self, r):
        return self.cache["d2phi"]

    def dphi_over_r(self, r):
        return self.cache["dphi_over_r"]


def weighted_integrals(s, w):
    return [g_phi(s, w, P3), g_phi_rate(s, w, P3),
            lemma1_terms(s, w, "all-space", P3), lemma1_terms(s, w, "ball", P3)]


class TestWeightedIntegralArrays:
    # numpy reuses a temporary's buffer for a product only from 256 KiB (32768 nodes) on
    @pytest.mark.parametrize("num", [4001, 40_001])
    def test_weight_arrays_are_never_written(self, num):
        s = gaussian_snapshot(num=num, a=0.37)
        w = CachingQuadratic(s.grid.r)
        kept = {name: a.copy() for name, a in w.cache.items()}
        first = weighted_integrals(s, w)
        for name, a in w.cache.items():
            assert a.tobytes() == kept[name].tobytes(), name
        assert weighted_integrals(s, w) == first
        assert weighted_integrals(s, Quadratic()) == first

    # node-length arrays each call may hold at its peak, at 1e5 nodes
    @pytest.mark.parametrize("name, arrays", [("g_phi", 2), ("g_phi_rate", 2), ("lemma1_terms", 3),
                                              ("virial_residual", 3)])
    def test_peak_node_arrays(self, traced_peak, name, arrays):
        s = gaussian_snapshot(num=100_000)
        q = Quadratic()
        g_phi(s, q, P3)  # the grid's weights and r^(n-1) are built once and kept; not counted
        conserved(FlowSnapshot(s.grid, s.rho, s.v, s.p), P3)  # nor is the thread's work row
        fresh = FlowSnapshot(s.grid, s.rho, s.v, s.p)  # not yet measured: virial_residual runs conserved too
        calls = {
            "g_phi": lambda: g_phi(s, q, P3),
            "g_phi_rate": lambda: g_phi_rate(s, q, P3),
            "lemma1_terms": lambda: lemma1_terms(s, q, "all-space", P3),
            "virial_residual": lambda: virial_residual(fresh, P3),
        }
        assert traced_peak(calls[name]) <= arrays * s.grid.r.nbytes


# magnitudes from 0 to 1e308, with the decades where r^(n-1), v^2 and p / (gamma - 1) start to overflow drawn often
MAGNITUDE = st.sampled_from([0.0, 1.0, 1e100, 1e154, 1e200, 1e300, 1e306, 1e308]) | st.floats(0.0, 1e308)
# radii of a few units, as most snapshots have, or as large as a float allows
RADIUS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 100.0, 1e100, 1e154]) | st.floats(0.0, 1e308)


@st.composite
def extreme_snapshots(draw):
    r = sorted(draw(st.lists(RADIUS, min_size=3, max_size=12, unique=True)))
    rho, p, speed, negative = zip(*draw(st.lists(st.tuples(MAGNITUDE, MAGNITUDE, MAGNITUDE, st.booleans()),
                                                 min_size=len(r), max_size=len(r))))
    v = [-x if sign else x for x, sign in zip(speed, negative)]
    gamma = draw(st.floats(1.0, 3.0, exclude_min=True) | st.just(1.0 + 1e-15))
    return FlowSnapshot(RadialGrid(np.array(r)), rho, v, p), GasParameters(n=draw(st.integers(1, 5)), gamma=gamma)


class TestExtremeMagnitudes:
    """Every radial integral is judged once, after its sum: a finite result, or a typed error naming a real node."""

    CALLS = {
        "conserved": lambda s, params: vars(conserved(s, params)).values(),
        "g_phi": lambda s, params: [g_phi(s, Quadratic(), params)],
        "g_phi_rate": lambda s, params: [g_phi_rate(s, Quadratic(), params)],
        "lemma1_all_space": lambda s, params: vars(lemma1_terms(s, Quadratic(), "all-space", params)).values(),
        "lemma1_ball": lambda s, params: vars(lemma1_terms(s, Quadratic(), "ball", params)).values(),
        "virial_residual": lambda s, params: [virial_residual(s, params)],
    }

    # E_k and E_i are each 1e308, so only their sum overflows
    @example(case=(FlowSnapshot(RadialGrid(np.array([0.0, 1.0, 2.0])), [0.0, 1.0, 0.0], [0.0, 1e154, 0.0],
                                [0.0, 1e308, 0.0]), GasParameters(n=1, gamma=3.0)))
    # every quadrature is finite, but the ball's surface term -R p(R) omega R^2 is not
    @example(case=(FlowSnapshot(RadialGrid(np.array([0.0, 9.999999999999999e99, 1e100])), [1.0, 0.0, 0.0],
                                np.zeros(3), [0.0, 0.0, 1e10]), GasParameters(n=3, gamma=5.0 / 3.0)))
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(case=extreme_snapshots())
    def test_finite_or_a_typed_error_without_a_numpy_warning(self, case):
        s, params = case
        r = s.grid.r
        for name, call in self.CALLS.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                warnings.simplefilter("ignore", TailTruncationWarning)  # a few nodes never decay
                try:
                    values = list(call(s, params))
                except DegenerateDataError:
                    continue
                except InvalidInputError as exc:
                    message = str(exc)
                    node = re.search(r"node (\d+) \(r=(.+)\)$", message)
                    if node:  # the named node exists and has that radius
                        assert int(node[1]) < r.size and node[2] == str(r[int(node[1])]), (name, message)
                    else:  # else a sum overflowed, or the surface term at the last node
                        assert "overflows a float" in message or message.endswith(f" at R={r[-1]}"), (name, message)
                    continue
            assert all(math.isfinite(x) for x in values), (name, values)
