import dataclasses
import functools
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasmoments import exact
from gasmoments.core import (
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    TailTruncationWarning,
    conserved,
)
from gasmoments.exact import (
    MODE_BALANCED,
    MODE_EXCLUDING,
    MODE_MOMENTUM,
    DeformationODE,
    DeformationSolution,
    GaussianShape,
    InvalidShapeError,
    ProfilePair,
    StiffnessError,
    TabulatedShape,
    build_balanced_profiles,
    build_compatible_profiles,
    check_compatibility,
    deformation_constant,
    excluding_pressure_constant,
    integrate_deformation,
    reconstruct_fields,
)
from gasmoments.momenta import Quadratic, g_phi

P3 = GasParameters(n=3, gamma=5.0 / 3.0)

# frozen scale for the Gaussian template at n = 3: s = sqrt(pi/2)/4
GAUSSIAN_SCALE = 0.31332853432887536


@pytest.fixture(scope="module")
def gaussian_pair():
    return build_compatible_profiles(GaussianShape(), P3, mass_scale=1.0)


@pytest.fixture(scope="module")
def gaussian_ode(gaussian_pair):
    return deformation_constant(gaussian_pair, P3)


class TestBuildCompatibleProfiles:
    def test_gaussian_scale(self, gaussian_pair):
        assert gaussian_pair.scale == pytest.approx(GAUSSIAN_SCALE, rel=1e-12)
        assert gaussian_pair.scale == pytest.approx(math.sqrt(math.pi / 2.0) / 4.0, rel=1e-12)

    def test_compatibility_residual(self, gaussian_pair):
        assert check_compatibility(gaussian_pair, P3) < 1e-8

    def test_density_vanishes_at_origin(self, gaussian_pair):
        # smooth even shape: p0'(0) = 0 forces rho0(0) = 0
        assert gaussian_pair.rho0[0] == 0.0

    def test_mass_normalization(self):
        pair = build_compatible_profiles(GaussianShape(), P3, mass_scale=2.5)
        rep_mass = conserved_mass(pair)
        assert rep_mass == pytest.approx(2.5, rel=1e-9)

    def test_residual_invariant_under_density_scaling(self, gaussian_pair):
        doubled = dataclasses.replace(gaussian_pair, rho0=2.0 * gaussian_pair.rho0)
        r_base = check_compatibility(gaussian_pair, P3)
        r_doubled = check_compatibility(doubled, P3)
        assert r_doubled == pytest.approx(r_base, rel=1e-9, abs=1e-15)

    def test_rejects_increasing_shape(self):
        class Bump:
            def __call__(self, u):
                u = np.asarray(u, dtype=float)
                return u**2 * np.exp(-(u**2))

            def derivative(self, u):
                u = np.asarray(u, dtype=float)
                return (2 * u - 2 * u**3) * np.exp(-(u**2))

        with pytest.raises(InvalidShapeError):
            build_compatible_profiles(Bump(), P3)

    def test_rejects_slow_decay(self):
        class Lorentz:
            def __call__(self, u):
                return 1.0 / (1.0 + np.asarray(u, dtype=float) ** 2)

            def derivative(self, u):
                u = np.asarray(u, dtype=float)
                return -2.0 * u / (1.0 + u**2) ** 2

        with pytest.raises(InvalidShapeError):
            build_compatible_profiles(Lorentz(), P3)

    @pytest.mark.parametrize("build", [build_compatible_profiles, build_balanced_profiles])
    def test_shape_without_derivative_rejected(self, build):
        def gaussian(u):
            return np.exp(-np.asarray(u, dtype=float) ** 2 / 2.0)

        with pytest.raises(InvalidShapeError, match="derivative"):
            build(gaussian, P3)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_non_finite_or_negative_shape_rejected(self, bad):
        # the message names the first probe point that fails, u = 0.075, and the value there
        class Spoiled:
            def __call__(self, u):
                vals = np.exp(-np.asarray(u, dtype=float) ** 2 / 2.0)
                vals[3] = bad
                return vals

            def derivative(self, u):
                return GaussianShape().derivative(u)

        message = f"^shape must be finite and nonnegative, got {bad:g} at u = 0.075$"
        with pytest.raises(InvalidShapeError, match=message):
            build_compatible_profiles(Spoiled(), P3)

    def test_all_zero_shape_rejected(self):
        class Zero:
            def __call__(self, u):
                return np.zeros_like(np.asarray(u, dtype=float))

            derivative = __call__

        message = r"^shape moment int f\(u\) u\^2 du must be positive and finite, got 0\.0$"
        with pytest.raises(InvalidShapeError, match=message):
            build_compatible_profiles(Zero(), P3)

    def test_tabulated_shape_roundtrip(self):
        u = np.linspace(0.0, 10.0, 400)
        shape = TabulatedShape(u, np.exp(-(u**2) / 2.0))
        pair = build_compatible_profiles(shape, P3)
        assert pair.scale == pytest.approx(GAUSSIAN_SCALE, rel=1e-5)
        assert check_compatibility(pair, P3) < 1e-5


TABLE_U = np.linspace(0.0, 10.0, 400)
PROBE_SHAPES = {"gaussian": GaussianShape(), "table": TabulatedShape(TABLE_U, np.exp(-(TABLE_U**2) / 2.0))}
BUILDERS = {"compatible": build_compatible_profiles, "balanced": build_balanced_profiles}
PROBE_TABLE = [(s, n, b) for s in PROBE_SHAPES for n in range(1, 6) for b in BUILDERS]

# sha256 of the rho0, p0 and p0_prime bytes and float.hex(scale) of the
# pairs that reach the benchmark and the CLI artifacts: how the builders
# judge a moment's convergence must not move these bits
PINNED_PAIRS = {
    ("gaussian", 3, "compatible"): "6a763c720d77cf01",
    ("gaussian", 3, "balanced"): "726002ec868d221e",
    ("gaussian", 4, "compatible"): "a7f052330a3451f5",
    ("gaussian", 4, "balanced"): "e589a26b03182d41",
    ("gaussian", 5, "balanced"): "bcbd0c2a278d37af",
    ("table", 3, "compatible"): "275d5b14001f7847",
    ("table", 4, "compatible"): "ba1d56e4bf7780ff",
}


@functools.lru_cache(maxsize=None)
def probe_pair(shape: str, n: int, builder: str) -> ProfilePair:
    return BUILDERS[builder](PROBE_SHAPES[shape], GasParameters(n=n, gamma=5.0 / 3.0))


class PowerTail:
    """shape(u) = (1 + u^2)^(-p), which decays like u^(-2p)."""

    def __init__(self, p):
        self.p = p

    def __call__(self, u):
        return (1.0 + np.asarray(u, dtype=float) ** 2) ** -self.p

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        return -2.0 * self.p * u * (1.0 + u**2) ** (-self.p - 1.0)


class TestBuilderTable:
    @pytest.mark.parametrize("shape, n, builder", PROBE_TABLE)
    def test_every_dimension_builds(self, shape, n, builder):
        # residuals are <= 3.7e-10 except n = 2 (7.5e-7): the trapezoid rule
        # meets the r^(n-1) = r factor at the origin there
        params = GasParameters(n=n, gamma=5.0 / 3.0)
        assert check_compatibility(probe_pair(shape, n, builder), params) < 1e-6

    @pytest.mark.parametrize("shape, n, builder", list(PINNED_PAIRS))
    def test_pair_bits_pinned(self, shape, n, builder):
        pair = probe_pair(shape, n, builder)
        h = hashlib.sha256()
        for a in (pair.rho0, pair.p0, pair.p0_prime):
            h.update(a.tobytes())
        h.update(pair.scale.hex().encode())
        assert h.hexdigest()[:16] == PINNED_PAIRS[shape, n, builder]

    @pytest.mark.parametrize("shape, n, builder", [key for key in PROBE_TABLE if key[1] >= 3])
    def test_mass_meets_mass_scale(self, shape, n, builder):
        # n = 1, 2 wait on the trapezoid rule's origin term, which is 7.5e-7 there
        pair = probe_pair(shape, n, builder)
        snap = FlowSnapshot(pair.grid, rho=pair.rho0, v=np.zeros(len(pair.grid)), p=pair.p0)
        assert conserved(snap, GasParameters(n=n, gamma=5.0 / 3.0)).mass == pytest.approx(1.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_late_table_counts_its_extension_to_the_origin(self, n):
        # below u0 the spline extends its first cubic; leaving [0, u0] out of the moments
        # misses the mass by 1e-2 to 1e-1, the trapezoid rule's own error is a few 1e-12
        u = np.linspace(1.0, 10.0, 400)
        params = GasParameters(n=n, gamma=5.0 / 3.0)
        pair = build_compatible_profiles(TabulatedShape(u, np.exp(-(u**2) / 2.0)), params)
        snap = FlowSnapshot(pair.grid, rho=pair.rho0, v=np.zeros(len(pair.grid)), p=pair.p0)
        assert conserved(snap, params).mass == pytest.approx(1.0, rel=0, abs=1e-10)

    @pytest.mark.parametrize("k", range(-1, 6))
    def test_gaussian_moments_match_closed_form(self, k):
        # int_0^inf u^j exp(-u^2/2) du = 2^((j-1)/2) Gamma((j+1)/2); -shape'(u) = u shape(u),
        # so the moment of -shape' with power k is that form at j = k + 1. The builders take
        # shape moments at k = 0..5 and moments of -shape' at k = -1..4
        shape = GaussianShape()
        rule = exact._moment_rule(shape)

        def closed(j):
            return 2.0 ** ((j - 1) / 2) * math.gamma((j + 1) / 2)

        slope = exact._moment(lambda u: -shape.derivative(u), rule, -shape.derivative(exact._PROBE), k)
        assert slope == pytest.approx(closed(k + 1), rel=1e-15, abs=0)
        if k >= 0:
            value = exact._moment(shape, rule, shape(exact._PROBE), k)
            assert value == pytest.approx(closed(k), rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("tail", ["lorentz", "critical"])
    @pytest.mark.parametrize("build", [build_compatible_profiles, build_balanced_profiles],
                             ids=["compatible", "balanced"])
    def test_slow_template_rejected(self, n, tail, build):
        # 1/(1 + u^2), and (1 + u^2)^(-(n+1)/2) whose u^n moment diverges
        shape = PowerTail(1.0 if tail == "lorentz" else (n + 1) / 2)
        with pytest.raises(InvalidShapeError, match="decay within the grid"):
            build(shape, GasParameters(n=n, gamma=5.0 / 3.0))


def scipy_spline(u, values):
    """The spline TabulatedShape reproduces: clamped flat at u = 0, else not-a-knot; not-a-knot at u_max."""
    from scipy.interpolate import CubicSpline

    return CubicSpline(u, values, bc_type=((1, 0.0), "not-a-knot") if u[0] == 0.0 else "not-a-knot")


def spline_error(u, values, points):
    """max |difference| from scipy of the value and of the derivative, relative to max |values|."""
    shape, reference = TabulatedShape(u, values), scipy_spline(u, values)
    scale = np.max(np.abs(values))
    return (np.max(np.abs(shape(points) - reference(points))) / scale,
            np.max(np.abs(shape.derivative(points) - reference(points, 1))) / scale)


@st.composite
def spline_tables(draw):
    """Strictly increasing u with gaps in [0.02, 1], starting at 0 or later; nonincreasing values."""
    m = draw(st.integers(4, 40))
    gaps = draw(st.lists(st.floats(0.02, 1.0), min_size=m - 1, max_size=m - 1))
    drops = draw(st.lists(st.floats(0.0, 1.0), min_size=m - 1, max_size=m - 1))
    start = draw(st.just(0.0) | st.floats(0.1, 5.0))
    top = draw(st.floats(0.5, 10.0))
    return (start + np.concatenate(([0.0], np.cumsum(gaps))), top - np.concatenate(([0.0], np.cumsum(drops))))


class TestTabulatedSpline:
    TABLES = {
        "400 points": np.linspace(0.0, 10.0, 400),
        "50 points": np.linspace(0.0, 10.0, 50),
        "from u = 1": np.linspace(1.0, 10.0, 400),
    }

    @pytest.mark.parametrize("u", TABLES.values(), ids=TABLES.keys())
    def test_matches_scipy_on_the_table(self, u):
        points = np.concatenate((np.linspace(u[0], u[-1], 20011), u))
        value, slope = spline_error(u, np.exp(-(u**2) / 2.0), points)
        assert value < 1e-14 and slope < 1e-14

    def test_matches_scipy_below_a_late_table(self):
        # on [0, 1) the first cubic runs out to t = -44 local units, which multiplies the
        # coefficients' roundoff by |t|^3: numpy and scipy each sit 1e-13 from the exact
        # cubic of the same knot slopes, and 1.6e-14 from each other
        u = self.TABLES["from u = 1"]
        value, slope = spline_error(u, np.exp(-(u**2) / 2.0), np.linspace(0.0, 1.0, 1001))
        assert value < 1e-13 and slope < 1e-13

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(table=spline_tables())
    def test_matches_scipy_on_random_tables(self, table):
        # the local coordinate t comes from np.interp, which rounds it to the ulp of the
        # interval index; a short gap next to a long one makes the cubic steep in t, so over
        # 5000 seeded tables the value differed by up to 7e-14 with gaps in [0.02, 1] (1.2e-13
        # with gaps in [0.01, 1]). The derivative is measured against its own scale
        u, values = table
        shape, reference = TabulatedShape(u, values), scipy_spline(u, values)
        points = np.concatenate((np.linspace(u[0], u[-1], 997), u))
        assert np.max(np.abs(shape(points) - reference(points))) <= 1e-13 * np.max(np.abs(values))
        slopes = reference(points, 1)
        assert np.max(np.abs(shape.derivative(points) - slopes)) <= 1e-13 * np.max(np.abs(slopes))

    def test_edges(self):
        shape = PROBE_SHAPES["table"]
        reference = scipy_spline(TABLE_U, np.exp(-(TABLE_U**2) / 2.0))
        u_max = TABLE_U[-1]
        with np.errstate(invalid="raise"):
            values = shape(np.array([np.nan, np.inf, u_max, np.nextafter(u_max, np.inf), 11.0, 1e300]))
            slopes = shape.derivative(np.array([np.nan, np.inf, np.nextafter(u_max, np.inf), 11.0]))
        assert values.tolist() == [0.0, 0.0, math.exp(-50.0), 0.0, 0.0, 0.0]
        assert slopes.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert float(shape(u_max)) == float(np.exp(-(TABLE_U[-1:] ** 2) / 2.0)[0]) == pytest.approx(1.93e-22, rel=1e-3)
        # at u_max the derivative is the last cubic's slope, continuous from the left
        assert float(shape.derivative(u_max)) == pytest.approx(float(reference(u_max, 1)), rel=1e-12)
        assert float(shape.derivative(u_max)) == pytest.approx(float(shape.derivative(np.nextafter(u_max, 0.0))),
                                                               rel=1e-9)

    @pytest.mark.parametrize("u", [TABLE_U, TABLES["from u = 1"]], ids=["from 0", "from 1"])
    def test_first_cubic_extends_below_the_table(self, u):
        # a location by np.interp alone would clamp to the first knot: shape(-1) = 1.0
        shape, reference = TabulatedShape(u, np.exp(-(u**2) / 2.0)), scipy_spline(u, np.exp(-(u**2) / 2.0))
        start = np.array([-1.0, 0.0, 0.5 * u[1]]) if u[0] == 0.0 else np.array([-1.0, 0.0, 0.5])
        assert shape(start) == pytest.approx(reference(start), rel=1e-12, abs=0)
        assert shape.derivative(start) == pytest.approx(reference(start, 1), rel=1e-11, abs=1e-15)
        if u[0] == 0.0:
            assert float(shape(-1.0)) == pytest.approx(0.4937, abs=1e-4)

    @pytest.mark.parametrize("method", ["__call__", "derivative"])
    def test_blocks_do_not_change_the_bits(self, method):
        evaluate = getattr(PROBE_SHAPES["table"], method)
        block = exact._SPLINE_BLOCK
        u = np.linspace(-0.5, 10.5, 3 * block + 123)
        whole = evaluate(u)
        for k in (1, block - 1, block + 4321, 2 * block + 7):
            assert np.concatenate((evaluate(u[:k]), evaluate(u[k:]))).tobytes() == whole.tobytes()
        grid = u[: 2 * block].reshape(4, -1)
        assert evaluate(grid).tobytes() == evaluate(grid.ravel()).tobytes()
        assert evaluate(grid).shape == grid.shape
        assert evaluate(np.array(0.5)).shape == ()

    def test_edge_points_read_the_plain_gather_bit_for_bit(self):
        # below the first knot of a table that starts after 0, NaN, +inf, exactly the last knot and
        # beyond it: the gathers' index clipping moves no row, so a fancy-indexed Horner sum agrees
        u = self.TABLES["from u = 1"]
        shape = TabulatedShape(u, np.exp(-(u**2) / 2.0))
        x = np.array([0.0, 0.25, np.nextafter(u[0], 0.0), u[0], 5.5, np.nan, np.inf, u[-1],
                      np.nextafter(u[-1], np.inf), 11.0, 1e300])
        t = np.interp(np.where(np.isnan(x), np.inf, x), u, np.arange(u.size, dtype=float), right=u.size)
        row = np.floor(t).astype(np.intp)
        t -= row
        below = x < u[0]
        t[below] = (x[below] - u[0]) / (u[1] - u[0])
        for coefs, got in ((shape._value, shape(x)), (shape._slope, shape.derivative(x))):
            expect = coefs[0][row]
            for c in coefs[1:]:
                expect = expect * t + c[row]
            assert got.tobytes() == expect.tobytes()
        assert row[below].tolist() == [0, 0, 0] and row[5:7].tolist() == [u.size, u.size]

    def test_rejects_non_finite_samples(self):
        u = np.linspace(0.0, 10.0, 10)
        for bad_u, bad_values in ((np.where(u == u[3], np.nan, u), np.exp(-u)), (u, np.where(u == u[3], np.inf, u))):
            with pytest.raises(InvalidInputError, match="finite"):
                TabulatedShape(bad_u, bad_values)

    def test_rejects_a_table_that_starts_below_zero(self):
        # the template is a function of u = r/s >= 0; the moment rule's first panel, from u = 0 to the first
        # knot, would run backwards across the spline's pieces below 0
        u = np.linspace(-1.0, 10.0, 111)
        with pytest.raises(InvalidInputError, match=r"^tabulated shape knots must be nonnegative, got -1\.0 at index 0$"):
            TabulatedShape(u, np.where(u < 0.0, 1.0, np.exp(-(u**2) / 2.0)))


def conserved_mass(pair):
    snap = FlowSnapshot(pair.grid, rho=pair.rho0, v=np.zeros(len(pair.grid)), p=pair.p0)
    return conserved(snap, P3).mass


class TestCheckCompatibility:
    def test_constant_pressure_flagged(self):
        g = RadialGrid.uniform(1.0, 64)
        pair = ProfilePair(
            grid=g,
            rho0=np.exp(-g.r),
            p0=np.ones(64),
            p0_prime=np.zeros(64),
        )
        with pytest.raises(InvalidInputError, match=r"^constant pressure profile: compatibility undefined"):
            check_compatibility(pair, P3)

    def test_excluding_mode_exact_pair(self):
        # build a pair satisfying the fundamental-solution coupling by direct
        # integration: p0(r) = p0(0) - C int_0^r rho0 u du with the matched C
        n, omega = 3, 4.0 * math.pi
        g = RadialGrid.uniform(8.0, 4001)
        rho0 = np.exp(-g.r**2 / 2.0)
        w = np.empty_like(g.r)
        dr = np.diff(g.r)
        w[0] = 0.5 * dr[0]
        w[-1] = 0.5 * dr[-1]
        w[1:-1] = 0.5 * (dr[:-1] + dr[1:])
        gph0 = omega * float(np.sum(w * rho0 * g.r))
        coeff = 1.0 / (omega * (2 - n) ** 2 * gph0)  # p0(0) = 1
        integrand = rho0 * g.r
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * dr)]
        )
        p0 = 1.0 - coeff * cumulative
        pair = ProfilePair(
            grid=g,
            rho0=rho0,
            p0=p0,
            p0_prime=-coeff * integrand,
            mode=MODE_EXCLUDING,
        )
        assert check_compatibility(pair, P3) < 1e-10
        # the same pair fails the mass-momentum coupling badly (its pressure
        # does not even decay, hence the expected truncation warning)
        with pytest.warns(TailTruncationWarning):
            assert check_compatibility(dataclasses.replace(pair, mode=MODE_MOMENTUM), P3) > 1e-2

    def test_excluding_mode_needs_three_dimensions(self):
        g = RadialGrid.uniform(1.0, 8)
        pair = ProfilePair(grid=g, rho0=np.ones(8), p0=1.0 - g.r, p0_prime=-np.ones(8), mode=MODE_EXCLUDING)
        with pytest.raises(ParameterError, match="^the power weight's dimension n must be an integer >= 3, got 2$"):
            check_compatibility(pair, GasParameters(n=2, gamma=1.4))

    def test_excluding_mode_zero_weighted_momentum(self):
        g = RadialGrid.uniform(1.0, 8)
        pair = ProfilePair(grid=g, rho0=np.zeros(8), p0=1.0 - g.r, p0_prime=-np.ones(8), mode=MODE_EXCLUDING)
        with pytest.raises(InvalidInputError, match="^zero weighted momentum: compatibility undefined$"):
            check_compatibility(pair, P3)

    def test_unknown_mode(self, gaussian_pair):
        with pytest.raises(ParameterError, match="unknown compatibility mode 'nonsense'"):
            dataclasses.replace(gaussian_pair, mode="nonsense")

    def test_nonfinite_samples_rejected(self):
        # a NaN sample used to be stored, and the residual then read nan
        g = RadialGrid.uniform(1.0, 4)
        with pytest.raises(InvalidInputError, match="^rho0 must be finite, got nan at index 1$"):
            ProfilePair(grid=g, rho0=[1.0, np.nan, 1.0, 1.0], p0=np.ones(4), p0_prime=-g.r)
        with pytest.raises(InvalidInputError, match=r"^p0_prime has shape \(3,\), grid has \(4,\)$"):
            ProfilePair(grid=g, rho0=np.ones(4), p0=np.ones(4), p0_prime=np.zeros(3))


class TestProfilePair:
    def test_negative_samples_rejected(self):
        g = RadialGrid.uniform(1.0, 4)
        for rho0, p0, message in (
            ([1.0, -1e-300, 1.0, 1.0], np.ones(4), "rho0 must be nonnegative, got -1e-300 at index 1"),
            (np.ones(4), [1.0, 1.0, -1.0, 0.0], "p0 must be nonnegative, got -1.0 at index 2"),
        ):
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                ProfilePair(grid=g, rho0=rho0, p0=p0, p0_prime=-g.r)

    def test_sampled_fallback_interpolates_and_is_zero_beyond_the_grid(self):
        # a pair made by hand evaluates its samples piecewise linearly
        g = RadialGrid.uniform(1.0, 3)
        pair = ProfilePair(grid=g, rho0=[3.0, 2.0, 1.0], p0=[4.0, 1.0, 0.5], p0_prime=[0.0, -1.0, -1.0])
        radii = np.array([0.0, 0.25, 1.0, 1.5])
        np.testing.assert_array_equal(pair.eval_rho0(radii), [3.0, 2.5, 1.0, 0.0])
        np.testing.assert_array_equal(pair.eval_p0(radii), [4.0, 2.5, 0.5, 0.0])


class TestDeformationConstants:
    def test_gaussian_constant_closed_form(self, gaussian_ode):
        # for the Gaussian pair at n = 3, gamma = 5/3 the constant is 3 pi^2 / 8
        assert gaussian_ode.K == pytest.approx(3.0 * math.pi**2 / 8.0, rel=1e-9)
        assert gaussian_ode.m_exp == 4.0

    def test_pressureless_is_zero(self):
        g = RadialGrid.uniform(6.0, 2001)
        rho0 = np.exp(-g.r**2)
        pair = ProfilePair(grid=g, rho0=rho0, p0=np.zeros(len(g)), p0_prime=np.zeros(len(g)))
        ode = deformation_constant(pair, P3)
        assert ode.K == 0.0

    def test_zero_momentum_rejected(self):
        g = RadialGrid.uniform(1.0, 32)
        z = np.zeros(32)
        pair = ProfilePair(grid=g, rho0=z, p0=z, p0_prime=z)
        with pytest.raises(InvalidInputError, match="^momentum of mass must be positive, got 0.0$"):
            deformation_constant(pair, P3)

    def test_overflowing_energy_density_names_its_node(self):
        # p0 / (gamma - 1) overflows at every node, unwarned; r^2 = 0 makes node 0's term NaN
        g = RadialGrid.uniform(1.0, 4)
        pair = ProfilePair(grid=g, rho0=np.ones(4), p0=np.full(4, 1e300), p0_prime=-g.r)
        with pytest.raises(InvalidInputError, match=r"^radial integrand is not finite at node 0 \(r=0\.0\)$"):
            deformation_constant(pair, GasParameters(n=3, gamma=1.000000000000001))

    def test_excluding_constant_plugin(self):
        ode = excluding_pressure_constant(1.0, 1.0, P3)
        assert ode.K == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
        assert excluding_pressure_constant(0.0, 1.0, P3).K == 0.0
        doubled = excluding_pressure_constant(1.0, 2.0, P3)
        assert doubled.K == pytest.approx(2.0 * ode.K, rel=1e-14)

    def test_excluding_constant_dimension_guard(self):
        with pytest.raises(ParameterError):
            excluding_pressure_constant(1.0, 1.0, GasParameters(n=2, gamma=1.4))

    def test_excluding_constant_value_guards(self):
        with pytest.raises(ParameterError, match=r"^origin pressure must be nonnegative, got -1\.0$"):
            excluding_pressure_constant(-1.0, 1.0, P3)
        for g_phi0 in (0.0, -2.0):
            with pytest.raises(InvalidInputError, match=f"^weighted momentum must be positive, got {g_phi0}$"):
                excluding_pressure_constant(1.0, g_phi0, P3)

    def test_exponents_bitwise_equal_between_routes(self, gaussian_pair):
        ode1 = deformation_constant(gaussian_pair, P3)
        ode2 = excluding_pressure_constant(1.0, 1.0, P3)
        assert ode1.m_exp == ode2.m_exp


class TestDeformationODEValidation:
    def test_negative_forcing_rejected(self):
        with pytest.raises(ParameterError):
            DeformationODE(K=-0.1, m_exp=4.0)

    def test_low_exponent_rejected(self):
        with pytest.raises(ParameterError):
            DeformationODE(K=1.0, m_exp=2.0)

    def test_nonfinite_initial_value_rejected(self):
        with pytest.raises(ParameterError, match="^initial value a0 must be finite, got nan$"):
            DeformationODE(K=1.0, m_exp=4.0, a0=math.nan)

    def test_gamma_too_close_to_one_for_the_dimension(self):
        # a valid gas whose exponent (gamma - 1) n + 2 rounds to 2: the message names gamma and n
        params = GasParameters(n=1, gamma=1.0000000000000002)
        pair = build_compatible_profiles(GaussianShape(), params)
        with pytest.raises(ParameterError, match=r"^gamma=1\.0000000000000002 is too close to 1 for dimension n=1: "
                                                 r"the exponent \(gamma - 1\) n \+ 2 rounds to 2\.0$"):
            deformation_constant(pair, params)
        # from n = 2 on, the smallest gamma above 1 already lifts the exponent above 2
        assert deformation_constant(pair, GasParameters(n=2, gamma=params.gamma)).m_exp > 2.0


class TestIntegrateDeformation:
    def test_pressureless_riccati(self):
        # K = 0, a0 = 1: a(t) = 1/(1+t) exactly
        sol = integrate_deformation(DeformationODE(K=0.0, m_exp=4.0, a0=1.0), 10.0, 1e-10)
        tq = np.linspace(0.0, 10.0, 2001)
        gap = np.max(np.abs(sol.a_at(tq) - 1.0 / (1.0 + tq)))
        assert gap < 1e-8, f"analytic deviation {gap}"

    def test_unit_forcing_closed_form(self):
        # K = 1, m = 4, a0 = 0: a(t) = t/(1+t^2), b(t) = ln(1+t^2)/2
        sol = integrate_deformation(DeformationODE(K=1.0, m_exp=4.0), 10.0, 1e-11)
        tq = np.linspace(0.0, 10.0, 1001)
        np.testing.assert_allclose(sol.a_at(tq), tq / (1 + tq**2), atol=2e-9)
        np.testing.assert_allclose(sol.b_at(tq), 0.5 * np.log1p(tq**2), atol=2e-9)

    def test_long_horizon_decay(self):
        sol = integrate_deformation(DeformationODE(K=1.0, m_exp=4.0), 1.0e4, 1e-9)
        for t in np.geomspace(1e3, 1e4, 25):
            assert 0.9 <= t * sol.a_at(t) <= 1.1

    def test_b_is_integral_of_a(self, gaussian_ode):
        sol = integrate_deformation(gaussian_ode, 5.0, 1e-10)
        tq = np.linspace(0.1, 4.9, 401)
        d = 1e-4
        fd = (sol.b_at(tq + d) - sol.b_at(tq - d)) / (2 * d)
        np.testing.assert_allclose(fd, sol.a_at(tq), rtol=0, atol=5e-8)

    def test_bounded_for_positive_forcing(self, gaussian_ode):
        sol = integrate_deformation(gaussian_ode, 50.0, 1e-9)
        assert np.all(np.isfinite(sol.a_samples))
        assert np.max(np.abs(sol.a_samples)) < 10.0

    def test_step_budget(self, gaussian_ode, monkeypatch):
        monkeypatch.setattr(exact, "_MAX_STEPS", 5)
        with pytest.raises(StiffnessError) as excinfo:
            integrate_deformation(gaussian_ode, 10.0, 1e-12)
        e = excinfo.value
        assert str(e) == f"step budget 5 exhausted at t={e.t}"
        assert 0.0 < e.t < 10.0
        assert 0.0 < e.h < 10.0

    def test_float_range_overflow_names_t_end(self, gaussian_ode):
        # a stage's exp(-m b) leaves the float range long before t_end
        message = r"^t_end=1e\+308: the deformation leaves the float range at t=(\S+) \(h=(\S+)\)$"
        with pytest.raises(ParameterError, match=message) as excinfo:
            integrate_deformation(gaussian_ode, 1e308, 1e-9)
        t, h = map(float, re.match(message, str(excinfo.value)).groups())
        assert 0.0 < t < 1e308 and 0.0 < h < 1e308

    def test_collapse_ends_in_underflow_at_the_blow_up_time(self):
        # K = 0 gives a = a0 / (1 + a0 t), which blows up at t = -1/a0
        with pytest.raises(StiffnessError, match="step underflow") as excinfo:
            integrate_deformation(DeformationODE(K=0.0, m_exp=4.0, a0=-1.0), 3.0, 1e-9)
        assert abs(excinfo.value.t - 1.0) < 1e-6

    def test_horizon_validation(self, gaussian_ode):
        with pytest.raises(ParameterError):
            integrate_deformation(gaussian_ode, -1.0, 1e-8)
        with pytest.raises(ParameterError):
            integrate_deformation(gaussian_ode, 1.0, 0.0)

    def test_query_outside_horizon(self, gaussian_ode):
        sol = integrate_deformation(gaussian_ode, 1.0, 1e-8)
        with pytest.raises(ParameterError):
            sol.a_at(1.5)


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:24]


# (K, m_exp, a0, t_end, tol): a = a0 / (1 + a0 t) with no forcing; a
# contracting start at n = 1, gamma = 1.4; and a T = 1e4 horizon whose late
# steps are thousands of time units wide
AGREEMENT_ODES = {
    "unforced": (0.0, 3.0, 0.5, 40.0, 1e-9),
    "contracting": (2.7, 2.4, -0.3, 10.0, 1e-8),
    "wide": (0.8, 4.0, 0.1, 1e4, 1e-6),
}


class TestDenseOutput:
    @pytest.fixture(scope="class")
    def dense(self):
        return integrate_deformation(DeformationODE(K=1.3, m_exp=5.0, a0=0.2), 50.0, 1e-10)

    @pytest.fixture(scope="class")
    def times(self, dense):
        """Nodes, one random time inside every step, and t_end."""
        tg = dense.t_grid
        inner = tg[:-1] + np.random.default_rng(17).random(tg.size - 1) * np.diff(tg)
        return [*tg[::7].tolist(), *inner.tolist(), tg[-1]]

    def test_scalar_queries_pinned(self, dense, times):
        # the bits of the Horner-form quintic Hermite on floats
        assert _digest([dense.a_at(t) for t in times]) == "cca3d10849101cedddb0015c"
        assert _digest([dense.b_at(t) for t in times]) == "74cec2d92b6ff1752c855790"

    @pytest.fixture(scope="class")
    def solutions(self, dense, times):
        """`dense` with its times, and each AGREEMENT_ODES solution with seeded random times."""
        out = {"dense": (dense, times, 1)}
        for seed, (name, (K, m_exp, a0, t_end, tol)) in enumerate(AGREEMENT_ODES.items()):
            sol = integrate_deformation(DeformationODE(K=K, m_exp=m_exp, a0=a0), t_end, tol)
            random = np.random.default_rng(seed).uniform(0.0, t_end, 3000)
            out[name] = (sol, [*random.tolist(), t_end], 100)
        return out

    @pytest.mark.parametrize(
        "case,kind",
        [
            # the `dense` cases keep their plain ids
            pytest.param(case, kind, id=kind.__name__ if case == "dense" else f"{case}-{kind.__name__}")
            for case in ("dense", *AGREEMENT_ODES)
            for kind in (float, np.float64)
        ],
    )
    def test_scalar_and_array_queries_agree(self, solutions, case, kind):
        sol, times, every = solutions[case]
        for query in (sol.a_at, sol.b_at):
            batch = query(np.array(times))
            for k, (t, from_batch) in enumerate(zip(times, batch)):
                value = query(kind(t))
                assert type(value) is float
                assert value.hex() == from_batch.hex()
                # one-element arrays at every time of `dense`, a sample elsewhere
                if k % every == 0:
                    assert value.hex() == query(np.array([t]))[0].hex()

    @pytest.mark.parametrize(
        "t",
        [math.nan, math.inf, -math.inf, np.float64("nan"), np.array(math.nan), np.array([1.0, math.nan])],
    )
    def test_non_finite_time_rejected(self, dense, t):
        for query in (dense.a_at, dense.b_at):
            with pytest.raises(ParameterError, match="outside computed horizon"):
                query(t)

    def test_arrays_read_only(self, dense):
        for name in ("t_grid", "a_samples", "b_samples", "a_rate", "a_rate2"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(dense, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            dense.t_grid = np.zeros(3)

    def test_construction_copies_caller_arrays(self, dense):
        arrays = [np.array(getattr(dense, k)) for k in ("t_grid", "a_samples", "b_samples")]
        rates = [np.array(dense.a_rate), np.array(dense.a_rate2)]
        copy = DeformationSolution(*arrays, *rates)
        t = 0.5 * (dense.t_grid[1] + dense.t_grid[2])
        before = copy.a_at(t)
        for a in arrays + rates:
            a[:] = 0.0
        assert copy.a_at(t) == before == copy.a_at(np.array([t]))[0]


# DOPRI5 tableau (Hairer, Norsett & Wanner, Table II.5.2) for a plain
# reference loop that evaluates every stage afresh, first stage included
_REF_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_REF_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


def _reference_accepted_steps(ode, t_end, tol):
    """Accepted steps of the library's controller around a loop with no FSAL reuse."""

    def rhs(y):
        return (-y[0] * y[0] + ode.K * math.exp(-ode.m_exp * y[1]), y[0])

    t, y = 0.0, (ode.a0, 0.0)
    f = rhs(y)
    h = min(t_end, 0.01 * (1.0 + abs(y[0])) / (1.0 + abs(f[0])))
    err_prev, expo, accepted = 1e-4, 0.2 - 0.75 * 0.04, 0
    while t < t_end:
        h = min(h, t_end - t)
        ks = [rhs(y)]
        for row in _REF_A[1:]:
            yi = tuple(y[c] + h * sum(w * k[c] for w, k in zip(row, ks)) for c in (0, 1))
            ks.append(rhs(yi))
        err = max(
            abs(h * sum(e * k[c] for e, k in zip(_REF_E, ks))) / (1.0 + max(abs(y[c]), abs(yi[c])))
            for c in (0, 1)
        ) / (tol * h)
        if err <= 1.0:
            t, y, accepted = t + h, yi, accepted + 1
            factor = 0.9 * (err**-expo if err > 0 else 10.0) * err_prev**0.04
            err_prev = max(err, 1e-4)
        else:
            factor = 0.9 * err**-0.2
        h *= min(10.0, max(0.2, factor))
    return accepted


def test_retry_after_rejection_restarts_from_accepted_slope():
    # a steep early transient forces a dozen rejections after accepted steps;
    # a retry that reused the rejected trial's last stage as its first would
    # take 259 steps here instead of 252
    ode = DeformationODE(K=0.1, m_exp=40.0, a0=-2.75)
    steps = integrate_deformation(ode, 580.0, 1e-7).t_grid.size - 1
    assert abs(steps - _reference_accepted_steps(ode, 580.0, 1e-7)) <= 1


# (K, m, a0, T, tol, accepted steps, a at T/7, T/2, T, b at the same times),
# recorded from the array-based integrator this scalar loop replaced
PINNED_DEFORMATIONS = [
    (0.0, 3.542, 1.867, 5.0, 1e-12, 654,
     [0.8000612182430362, 0.32942214380238316, 0.18064828253507675],
     [0.8473998959977193, 1.7347481033995436, 2.3355361931337226]),
    (0.568, 3.117, 0.375, 50.0, 1e-11, 386,
     [0.1374854340879402, 0.04052872191889432, 0.020218712358515446],
     [2.0085106904599557, 3.267380670514344, 3.9690934432303586]),
    (0.692, 6.039, -0.212, 10000.0, 1e-10, 397,
     [0.0006996748340042588, 0.0001999734651804075, 9.999338142128363e-05],
     [6.791008137763693, 8.04343925544976, 8.736520103758206]),
    (2.689, 7.156, -0.493, 5.0, 1e-09, 188,
     [0.767249661945177, 0.34003555249108286, 0.1838872393487253],
     [0.29096098845479956, 1.2036959917029764, 1.819207690615694]),
    (1.624, 2.686, 0.145, 50.0, 1e-12, 900,
     [0.15380223095788284, 0.042267880760249836, 0.020752867968526472],
     [2.5572271378175984, 3.9080856413082103, 4.633573547992621]),
    (1.251, 4.749, 0.67, 10000.0, 1e-11, 606,
     [0.0006996860737173259, 0.0001999743663651623, 9.999359226308073e-05],
     [7.418271438670849, 8.670714022633096, 9.363797115620397]),
    (2.783, 3.59, -0.03, 5.0, 1e-10, 237,
     [0.8545408827738906, 0.39538284507024374, 0.20325077170888972],
     [0.44251424907178233, 1.506750147106599, 2.2046714762556907]),
    (2.012, 7.682, 1.807, 50.0, 1e-09, 185,
     [0.13098714373997172, 0.03922879378039031, 0.0198053217696137],
     [2.7224734929793244, 3.9281616773548, 4.611622013441056]),
    (2.641, 2.433, 1.842, 10000.0, 1e-12, 1199,
     [0.0007052113226333768, 0.00020085364086776472, 0.00010031406350871995],
     [8.620930829376997, 9.880846115951627, 10.576540852976596]),
    (1.948, 7.236, 0.52, 5.0, 1e-11, 336,
     [0.6075675828474335, 0.2966417910054122, 0.17039359070264662],
     [0.47381399198905383, 1.2218064555141535, 1.776798672380758]),
    (0.658, 6.768, 1.154, 50.0, 1e-10, 265,
     [0.12638315602212005, 0.038805451174852734, 0.019696836053371202],
     [2.305844979959239, 3.4866038992467154, 4.164706618814364]),
    (2.337, 3.248, -0.164, 10000.0, 1e-09, 253,
     [0.0007004225725228617, 0.000200036771392719, 0.0001000096440281876],
     [7.927616465386217, 9.18082108072715, 9.874061522839064]),
]


@pytest.mark.parametrize("K, m, a0, T, tol, steps, a_ref, b_ref", PINNED_DEFORMATIONS)
def test_integrator_matches_recorded_runs(K, m, a0, T, tol, steps, a_ref, b_ref):
    sol = integrate_deformation(DeformationODE(K=K, m_exp=m, a0=a0), T, tol)
    assert sol.t_grid.size - 1 == steps
    tq = np.array([T / 7, T / 2, T])
    # the PI controller moves the nodes at roundoff level, so compare dense
    # output at fixed times, not samples by index
    np.testing.assert_allclose(sol.a_at(tq), a_ref, rtol=0, atol=1e-2 * tol * T)
    np.testing.assert_allclose(sol.b_at(tq), b_ref, rtol=0, atol=1e-2 * tol * T)


@pytest.fixture(scope="module")
def sol(gaussian_ode):
    return integrate_deformation(gaussian_ode, 10.0, 1e-10)


class TestReconstruction:
    def test_time_zero_echoes_profiles(self, sol, gaussian_pair):
        snap = reconstruct_fields(sol, gaussian_pair, 0.0, P3)
        np.testing.assert_array_equal(snap.rho, gaussian_pair.rho0)
        np.testing.assert_array_equal(snap.p, gaussian_pair.p0)
        assert np.all(snap.v == 0.0)

    @pytest.mark.parametrize("a0", [0.5, -0.3], ids=["expanding", "contracting"])
    @pytest.mark.parametrize("shape, n, builder", PROBE_TABLE)
    def test_snapshots_without_grid_keep_the_mass(self, shape, n, builder, a0):
        # without grid= a snapshot is the pair carried by x -> x e^b, so its
        # trapezoid mass is the t = 0 mass up to roundoff, at any expansion
        params = GasParameters(n=n, gamma=5.0 / 3.0)
        pair = probe_pair(shape, n, builder)
        sol = integrate_deformation(deformation_constant(pair, params, a0=a0), 2.0, 1e-10)
        m0 = conserved(reconstruct_fields(sol, pair, 0.0, params), params).mass
        times = [*np.random.default_rng(2007).uniform(0.0, 2.0, 3).tolist(), 2.0]
        for t in times:
            mass = conserved(reconstruct_fields(sol, pair, t, params), params).mass
            assert mass == pytest.approx(m0, rel=1e-14, abs=0), f"t = {t}"

    @pytest.mark.parametrize("builder", list(BUILDERS))
    @pytest.mark.parametrize("shape", ["gaussian", "table"])
    def test_replaced_pair_reads_its_samples_on_either_grid(self, sol, shape, builder):
        # replace() keeps none of the builder's evaluators, so grid= reads the
        # doubled samples, as the comoving grid does, not the builder's shape
        pair = probe_pair(shape, 3, builder)
        doubled = dataclasses.replace(pair, rho0=2.0 * pair.rho0)
        on_grid = reconstruct_fields(sol, doubled, 0.0, P3, grid=doubled.grid)
        carried = reconstruct_fields(sol, doubled, 0.0, P3)
        assert on_grid.rho.tobytes() == carried.rho.tobytes() == doubled.rho0.tobytes()
        assert on_grid.p.tobytes() == carried.p.tobytes()

    def test_mass_conserved_along_flow(self, sol, gaussian_pair):
        # the mass integrand behaves like r^3 near the origin, whose odd
        # derivatives keep the trapezoid error at O(h^4): resolve accordingly
        grid = RadialGrid.uniform(80.0, 64001)
        m0 = conserved(reconstruct_fields(sol, gaussian_pair, 0.0, P3, grid=grid), P3).mass
        for t in (0.5, 2.0, 5.0, 10.0):
            m = conserved(reconstruct_fields(sol, gaussian_pair, t, P3, grid=grid), P3).mass
            assert abs(m - m0) / m0 < 1e-8, f"mass drift at t={t}"

    def test_internal_energy_decay_law(self, sol, gaussian_pair):
        grid = RadialGrid.uniform(80.0, 6001)
        e0 = conserved(reconstruct_fields(sol, gaussian_pair, 0.0, P3, grid=grid), P3).e_internal
        for t in (1.0, 3.0):
            snap = reconstruct_fields(sol, gaussian_pair, t, P3, grid=grid)
            expect = e0 * math.exp(-P3.n * (P3.gamma - 1.0) * sol.b_at(t))
            assert conserved(snap, P3).e_internal == pytest.approx(expect, rel=1e-6)

    def test_momentum_growth_law(self, sol, gaussian_pair):
        grid = RadialGrid.uniform(80.0, 6001)
        g0 = g_phi(reconstruct_fields(sol, gaussian_pair, 0.0, P3, grid=grid), Quadratic(), P3)
        for t in (1.0, 4.0):
            snap = reconstruct_fields(sol, gaussian_pair, t, P3, grid=grid)
            expect = g0 * math.exp(2.0 * sol.b_at(t))
            assert g_phi(snap, Quadratic(), P3) == pytest.approx(expect, rel=1e-6)


LATE_U = np.linspace(1.0, 10.0, 400)
FUSED_SHAPES = {**PROBE_SHAPES, "late table": TabulatedShape(LATE_U, np.exp(-(LATE_U**2) / 2.0))}
# the balanced builder rejects the late table: its spline extension has a slope at the origin
FUSED_TABLE = [(s, n, b) for s in FUSED_SHAPES for n in range(1, 6) for b in BUILDERS
               if (s, b) != ("late table", "balanced")]


@functools.lru_cache(maxsize=None)
def fused_pair(shape: str, n: int, builder: str) -> ProfilePair:
    return BUILDERS[builder](FUSED_SHAPES[shape], GasParameters(n=n, gamma=5.0 / 3.0))


def fused_points(shape) -> np.ndarray:
    """Shape arguments u: a sweep past u = 12, NaN, inf, a huge value, and a table's knots, the
    neighbours of its first and last knot, and points below it."""
    u = np.concatenate((np.linspace(0.0, 12.5, 3001), [np.nan, np.inf, 1e300, 1e-9]))
    if isinstance(shape, TabulatedShape):
        ends = np.nextafter(shape.knots[[0, -1]], [[-np.inf], [np.inf]]).ravel()
        u = np.concatenate((u, shape.knots, ends, [0.5 * shape.knots[0], -1.0]))
    return u


class KeepingShape:
    """The Gaussian template without _value_and_slope; each call refills and returns an array it keeps.

    One array per kind and size: a caller that writes into a result changes
    what the shape holds. last_u is the argument of the latest call.
    """

    def __init__(self):
        self.kept = {}

    def _keep(self, kind, f, u):
        self.last_u = u = np.array(u, dtype=float)
        kept = self.kept.setdefault((kind, u.shape), np.empty(u.shape))
        np.copyto(kept, f(u))
        return kept

    def __call__(self, u):
        return self._keep("value", GaussianShape(), u)

    def derivative(self, u):
        return self._keep("slope", GaussianShape().derivative, u)


class TestFusedEvaluation:
    """One shape evaluation per reconstruction gives the bits of eval_rho0 and eval_p0."""

    @pytest.mark.parametrize("name", FUSED_SHAPES)
    def test_shape_value_and_slope_match_each_alone(self, name):
        shape = FUSED_SHAPES[name]
        u = fused_points(shape)
        with np.errstate(invalid="ignore", over="ignore"):
            value, slope = shape._value_and_slope(u)
            assert value.tobytes() == shape(u).tobytes()
            assert slope.tobytes() == shape.derivative(u).tobytes()
            if name == "gaussian":
                assert slope.tobytes() == (-u * np.exp(-(u**2) / 2.0)).tobytes()

    @pytest.mark.parametrize("shape, n, builder", FUSED_TABLE)
    def test_profiles_match_eval_bitwise(self, shape, n, builder):
        pair, table = fused_pair(shape, n, builder), FUSED_SHAPES[shape]
        radii = fused_points(table) * pair.scale
        if isinstance(table, TabulatedShape):
            # u_max itself: one of u_max * scale and its neighbours divides back to it
            r = table.knots[-1] * pair.scale
            radii = np.concatenate((radii, [np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)]))
        with np.errstate(invalid="ignore", over="ignore"):
            rho0, p0 = pair._profiles(radii.copy())
            assert rho0.tobytes() == pair.eval_rho0(radii).tobytes()
            assert p0.tobytes() == pair.eval_p0(radii).tobytes()

    def test_shape_without_fused_evaluation_is_copied(self):
        # the builder's pair evaluates both profiles at once with the bits of each
        # alone, and writes into no array the shape hands back
        shape = KeepingShape()
        pair = build_compatible_profiles(shape, P3)
        sol = integrate_deformation(deformation_constant(pair, P3, a0=0.4), 1.0, 1e-10)
        grid = RadialGrid.uniform(15.0 * pair.scale, 3001)
        b = sol.b_at(0.7)
        radii = grid.r * math.exp(-b)
        rho0, p0 = pair.eval_rho0(radii).copy(), pair.eval_p0(radii).copy()
        fused = pair._profiles(radii.copy())
        assert [a.tobytes() for a in fused] == [rho0.tobytes(), p0.tobytes()]
        snap = reconstruct_fields(sol, pair, 0.7, P3, grid=grid)
        assert snap.rho.tobytes() == (math.exp(-P3.n * b) * rho0).tobytes()
        assert snap.p.tobytes() == (math.exp(-P3.n * P3.gamma * b) * p0).tobytes()
        u = shape.last_u
        assert shape.kept["value", u.shape].tobytes() == GaussianShape()(u).tobytes()
        assert shape.kept["slope", u.shape].tobytes() == GaussianShape().derivative(u).tobytes()


class TestCallerArrays:
    """Shape and profile evaluations leave the caller's array alone; scalars keep today's formula."""

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_caller_array_unchanged(self, builder):
        pair, shape = probe_pair("gaussian", 3, builder), GaussianShape()
        u = fused_points(shape)
        kept = u.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            for evaluate in (shape, shape.derivative, pair.eval_rho0, pair.eval_p0):
                evaluate(u)
                assert u.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("u", [0.0, -2.0, 1e300, math.inf, math.nan, np.float64(2.5), np.array(1.5), 3,
                                   np.array([0.0, -2.0, 1e300, math.inf, math.nan])])
    def test_gaussian_keeps_the_formula(self, u):
        shape = GaussianShape()
        with np.errstate(invalid="ignore", over="ignore"):
            x = np.asarray(u, dtype=float)
            value = np.exp(-x**2 / 2.0)
            slope = -x * value
            pairs = [(shape(u), value), (shape.derivative(u), slope), *zip(shape._value_and_slope(u), (value, slope))]
        for got, want in pairs:
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


RECONSTRUCTED_PAIRS = {
    "gaussian compatible": lambda: probe_pair("gaussian", 3, "compatible"),
    "table compatible": lambda: probe_pair("table", 3, "compatible"),
    "gaussian balanced": lambda: probe_pair("gaussian", 3, "balanced"),
    "power-tail compatible": lambda: build_compatible_profiles(PowerTail(20.0), P3),
    "sampled": lambda: dataclasses.replace(probe_pair("gaussian", 3, "compatible")),
}


class TestReconstructionArrays:
    @pytest.mark.parametrize("kind", RECONSTRUCTED_PAIRS)
    @pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "carried"])
    def test_read_only_unshared_and_bitwise(self, kind, on_grid):
        pair = RECONSTRUCTED_PAIRS[kind]()
        sol = integrate_deformation(deformation_constant(pair, P3, a0=0.4), 1.0, 1e-10)
        t, b = 0.7, sol.b_at(0.7)
        grid = RadialGrid.uniform(15.0 * pair.scale, 3001)
        snap = reconstruct_fields(sol, pair, t, P3, grid=grid if on_grid else None)
        arrays = [snap.rho, snap.v, snap.p]
        others = [pair.rho0, pair.p0, pair.p0_prime, pair.grid.r, grid.r, snap.grid.r]
        for i, a in enumerate(arrays):
            assert a.dtype == float and not a.flags.writeable
            for other in arrays[i + 1:] + others:
                assert not np.shares_memory(a, other)
        # the factors applied in place give the bits of the product they replace
        rho0, p0 = ((pair.eval_rho0(grid.r * math.exp(-b)), pair.eval_p0(grid.r * math.exp(-b)))
                    if on_grid else (pair.rho0, pair.p0))
        assert snap.rho.tobytes() == (math.exp(-P3.n * b) * rho0).tobytes()
        assert snap.p.tobytes() == (math.exp(-P3.n * P3.gamma * b) * p0).tobytes()
        assert snap.v.tobytes() == (sol.a_at(t) * snap.grid.r).tobytes()

    @pytest.mark.parametrize("shape", ["gaussian", "table"])
    def test_reconstruction_holds_at_most_five_node_arrays(self, shape, traced_peak):
        # three of them are the returned arrays; the peak reads 4.0 arrays for the
        # Gaussian and 4.3 for the table, whose spline adds block-sized temporaries
        pair = probe_pair(shape, 3, "compatible")
        sol = integrate_deformation(deformation_constant(pair, P3), 1.0, 1e-10)
        grid = RadialGrid.uniform(15.0 * pair.scale, 100_000)
        reconstruct_fields(sol, pair, 0.5, P3, grid=grid)
        snaps = []
        peak = traced_peak(lambda: snaps.append(reconstruct_fields(sol, pair, 0.5, P3, grid=grid)))
        assert snaps[0].rho.size == grid.r.size
        assert peak <= 5 * grid.r.nbytes

    def test_gaussian_reconstruction_holds_at_most_three_and_a_half_node_arrays(self, traced_peak):
        # the peak holds u, formed in the radii array, and the shape's value and slope: 3.1 arrays
        pair = probe_pair("gaussian", 3, "compatible")
        sol = integrate_deformation(deformation_constant(pair, P3), 1.0, 1e-10)
        grid = RadialGrid.uniform(15.0 * pair.scale, 100_000)
        reconstruct_fields(sol, pair, 0.5, P3, grid=grid)
        assert traced_peak(lambda: reconstruct_fields(sol, pair, 0.5, P3, grid=grid)) <= 3.5 * grid.r.nbytes

    @pytest.mark.parametrize("shape", ["gaussian", "table"])
    def test_balanced_reconstruction_forms_u_once(self, shape, traced_peak):
        # u in the radii array, max(u, tiny), and the shape's value and slope at
        # max(u, tiny): 4.1 arrays, where forming u and max(u, tiny) twice held
        # 5.1 for the Gaussian and 4.5 for the table
        pair = probe_pair(shape, 3, "balanced")
        sol = integrate_deformation(deformation_constant(pair, P3), 1.0, 1e-10)
        grid = RadialGrid.uniform(15.0 * pair.scale, 100_000)
        reconstruct_fields(sol, pair, 0.5, P3, grid=grid)
        assert traced_peak(lambda: reconstruct_fields(sol, pair, 0.5, P3, grid=grid)) <= 4.4 * grid.r.nbytes


@pytest.fixture(scope="module")
def balanced_pair():
    return build_balanced_profiles(GaussianShape(), P3, mass_scale=2.5, forcing=1.3, width=0.9)


class TestBalancedProfiles:
    def test_coupling_identity(self, balanced_pair):
        r = balanced_pair.grid.r
        defect = balanced_pair.p0_prime + 1.3 * r * balanced_pair.rho0
        assert np.max(np.abs(defect)) < 1e-13 * np.max(np.abs(balanced_pair.p0_prime))

    def test_self_residual(self, balanced_pair):
        assert check_compatibility(balanced_pair, P3) < 1e-12

    def test_forcing_recovered_by_closed_form(self, balanced_pair):
        # integrate p0 by parts: n (gamma-1) E_i(0) = 2 K G(0) holds exactly
        # for this coupling, so the conserved-data constant is the input one
        ode = deformation_constant(balanced_pair, P3)
        assert ode.K == pytest.approx(1.3, rel=1e-12)

    def test_mass_normalization(self, balanced_pair):
        snap = FlowSnapshot(
            grid=balanced_pair.grid,
            rho=balanced_pair.rho0,
            v=np.zeros_like(balanced_pair.rho0),
            p=balanced_pair.p0,
            t=0.0,
        )
        assert conserved(snap, P3).mass == pytest.approx(2.5, rel=1e-8)

    def test_gaussian_density_shape(self, balanced_pair):
        # for the Gaussian template -shape'(u)/u = shape(u), so the density
        # is the pressure profile rescaled: rho0 = p0 / (K width^2)
        ratio = balanced_pair.rho0 / balanced_pair.p0
        np.testing.assert_allclose(ratio, 1.0 / (1.3 * 0.9**2), rtol=1e-12)

    def test_density_positive_at_origin(self, balanced_pair):
        assert balanced_pair.rho0[0] > 0.0

    def test_couplings_are_distinct(self, balanced_pair, gaussian_pair):
        # each pair fails the other family's residual at order one
        assert check_compatibility(dataclasses.replace(balanced_pair, mode=MODE_MOMENTUM), P3) > 0.1
        assert check_compatibility(dataclasses.replace(gaussian_pair, mode=MODE_BALANCED), P3) > 0.1

    def test_reconstruction_obeys_momentum_balance(self, balanced_pair):
        # p_r + rho r (a' + a^2) = 0 along the flow; a' + a^2 = K e^(-m b)
        ode = deformation_constant(balanced_pair, P3)
        sol = integrate_deformation(ode, 2.0, 1e-10)
        t = 0.7
        grid = RadialGrid.uniform(8.0, 8001)
        snap = reconstruct_fields(sol, balanced_pair, t, P3, grid=grid)
        accel = ode.K * math.exp(-ode.m_exp * sol.b_at(t))
        p_r = np.gradient(snap.p, grid.r)
        defect = p_r + snap.rho * grid.r * accel
        # gradient() falls to first order at the end nodes; judge the interior
        assert np.max(np.abs(defect[1:-1])) < 1e-4 * np.max(np.abs(p_r))

    def test_scaled_coupling_lacks_momentum_balance(self, gaussian_pair):
        # same check on the momentum-of-mass pair fails at order one: its
        # reconstructions transport mass and pressure but are not force
        # balanced, which is why solver cross-checks use the balanced family
        ode = deformation_constant(gaussian_pair, P3)
        sol = integrate_deformation(ode, 2.0, 1e-10)
        t = 0.7
        grid = RadialGrid.uniform(3.0, 8001)
        snap = reconstruct_fields(sol, gaussian_pair, t, P3, grid=grid)
        accel = ode.K * math.exp(-ode.m_exp * sol.b_at(t))
        p_r = np.gradient(snap.p, grid.r)
        defect = p_r + snap.rho * grid.r * accel
        assert np.max(np.abs(defect[1:-1])) > 0.1 * np.max(np.abs(p_r))

    def test_mode_accepted_by_profile_pair(self, balanced_pair):
        clone = dataclasses.replace(balanced_pair, mode=MODE_BALANCED)
        assert clone.mode == MODE_BALANCED

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            build_balanced_profiles(GaussianShape(), P3, forcing=0.0)
        with pytest.raises(ParameterError):
            build_balanced_profiles(GaussianShape(), P3, width=-1.0)
        with pytest.raises(ParameterError):
            build_balanced_profiles(GaussianShape(), P3, mass_scale=0.0)

    def test_rejects_nonzero_origin_slope(self):
        u = np.linspace(0.0, 30.0, 600)
        exponential = TabulatedShape(u, np.exp(-u))
        with pytest.raises(InvalidShapeError):
            build_balanced_profiles(exponential, P3)

    @pytest.mark.parametrize(
        "data, slope", [(lambda u: np.exp(-u - u**2 / 2.0), "-1"), (lambda u: np.exp(-u), "-1")],
        ids=["exp(-u-u^2/2)", "exp(-u)"],
    )
    def test_table_origin_slope_read_from_data(self, data, slope):
        # the table's spline is clamped flat at u = 0, so only its data shows the slope
        shape = TabulatedShape(TABLE_U, data(TABLE_U))
        assert float(shape.derivative(0.0)) == 0.0
        with pytest.raises(InvalidShapeError, match=rf"shape'\(0\) = 0.*origin slope reads {slope}$"):
            build_balanced_profiles(shape, P3)

    def test_tabulated_gaussian_origin_slope(self):
        # second order, one-sided: about -h^3/4 shape''''(0) = -1.2e-5 on the 400-point table
        assert PROBE_SHAPES["table"].origin_slope == pytest.approx(-1.18e-5, rel=0.01)
        u = np.linspace(0.0, 10.0, 50)
        build_balanced_profiles(TabulatedShape(u, np.exp(-(u**2) / 2.0)), P3)  # h = 0.2 still builds

    def test_origin_check_names_the_slope(self):
        class Exponential:
            def __call__(self, u):
                return np.exp(-np.asarray(u, dtype=float))

            def derivative(self, u):
                return -np.exp(-np.asarray(u, dtype=float))

        with pytest.raises(InvalidShapeError, match=r"shape'\(0\) = 0"):
            build_balanced_profiles(Exponential(), P3)
