"""Decay-class membership, growth bounds, and contradiction certificates."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from gasmoments.bounds import (
    ConstEnvelope,
    DecayClassSpec,
    GrowthCertificate,
    LogEnvelope,
    PowerEnvelope,
    TableEnvelope,
    VERDICT_CONTRADICTION,
    VERDICT_NO_CONTRADICTION,
    _tail_gradient,
    classify_snapshot,
    contradiction_time,
    lower_bound_G,
    upper_bound_G,
)
from gasmoments.core import (
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    conserved,
    sphere_area,
)
from gasmoments.exact import (
    GaussianShape,
    build_compatible_profiles,
    deformation_constant,
    integrate_deformation,
)
from gasmoments.momenta import Quadratic, g_phi
from readers import envelope_radius


def make_spec(**kw):
    """K_NS0 spec with unit constant envelopes; fields overridable."""
    n = kw.pop("n", 3)
    eps = kw.pop("epsilon", 0.5)
    base = dict(
        class_tag="K_NS0",
        alpha=(-n, -n - 1, -n - 2 - eps, -n - eps, -n),
        M_v=ConstEnvelope(1.0),
        M_Dv=ConstEnvelope(1.0),
        M_rho=ConstEnvelope(1.0),
        M_p=ConstEnvelope(1.0),
        M_theta=ConstEnvelope(1.0),
        R0=1.0,
        epsilon=eps,
    )
    base.update(kw)
    return DecayClassSpec(**base)


def assert_fieldwise_ratios(envelope, r, R0):
    """classify_snapshot's ratios are each field's max |field| / (M(t) r^alpha) beyond R0, bit for bit.

    Dv is np.gradient(v, r) on the whole grid; theta skips vacuum nodes.
    """
    params = GasParameters(n=3, gamma=1.4)
    rho = np.where((r > 2.0) & (r < 4.0), 0.0, np.exp(-r))
    p = np.where(r > 6.0, 0.0, 0.5 * np.exp(-r))
    v = np.where(r < 5.0, 0.3 * r, 0.0)
    snap = FlowSnapshot(RadialGrid(r), rho, v, p, t=0.4)
    spec = make_spec(M_v=envelope, M_p=envelope, M_theta=envelope, R0=R0)
    report = classify_snapshot(snap, spec, params)
    tail = r > spec.R0
    fields = {"v": v, "Dv": np.gradient(v, r), "rho": rho, "p": p, "theta": snap.temperature()}
    envelopes = dict(zip(fields, (spec.M_v, spec.M_Dv, spec.M_rho, spec.M_p, spec.M_theta)))
    for (name, field), alpha in zip(fields.items(), spec.alpha):
        keep = tail & (rho > 0.0) if name == "theta" else tail
        vals, bound = np.abs(field[keep]), envelopes[name](snap.t) * r[keep] ** alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            expect = float(np.max(np.where(vals > 0.0, vals / bound, 0.0)))
        assert report.ratios[name] == expect, name
    assert report.nodes_checked == np.count_nonzero(tail)


class TestEnvelopes:
    def test_const_integral(self):
        m = ConstEnvelope(2.5)
        assert m(7.0) == 2.5
        assert m.integral(4.0) == 10.0

    @pytest.mark.parametrize("p", [-2.0, -1.0, 0.0, 1.5, 3.1])
    def test_power_integral_matches_quadrature(self, p):
        m = PowerEnvelope(0.7, p)
        ref, err = quad(m, 0.0, 6.0)
        assert abs(m.integral(6.0) - ref) <= 1e-10 * abs(ref) + 1e-12
        assert err < 1e-8

    def test_log_integral_matches_quadrature(self):
        m = LogEnvelope(1.3)
        ref, _ = quad(m, 0.0, 9.0)
        assert abs(m.integral(9.0) - ref) <= 1e-10 * ref
        assert m.integral(0.0) == 0.0

    def test_table_flat(self):
        m = TableEnvelope([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert m(0.5) == 1.0
        assert m.integral(1.5) == pytest.approx(1.5, rel=1e-15)

    def test_table_partial_cell_is_exact(self):
        # integral of the piecewise-linear interpolant, not a sampled sum
        t = np.array([0.0, 1.0, 3.0])
        v = np.array([0.0, 2.0, 0.0])
        m = TableEnvelope(t, v)
        # on [0,1] M = 2tau, exact integral tau^2
        assert m.integral(0.5) == pytest.approx(0.25, rel=1e-14)
        # full table: two triangles
        assert m.integral(3.0) == pytest.approx(3.0, rel=1e-14)

    def test_table_constant_extension(self):
        m = TableEnvelope([1.0, 2.0], [3.0, 5.0])
        assert m(0.0) == 3.0
        assert m(10.0) == 5.0
        # head 3*1, cell 4, then flat 5
        assert m.integral(4.0) == pytest.approx(3.0 + 4.0 + 10.0, rel=1e-14)

    def test_envelope_validation(self):
        with pytest.raises(ParameterError):
            ConstEnvelope(-1.0)
        with pytest.raises(ValueError):
            TableEnvelope([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            TableEnvelope([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            TableEnvelope([-1.0, 1.0], [1.0, 1.0])
        # mismatched, too short, not 1-D
        short = "table envelope times must be 1-D with at least 2 values, got shape "
        for t, m, message in (([0.0, 1.0, 2.0], [1.0, 1.0], "table envelope values has shape (2,), grid has (3,)"),
                              ([0.0], [1.0], short + "(1,)"), ([[0.0, 1.0]], [[1.0, 1.0]], short + "(1, 2)")):
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                TableEnvelope(t, m)

    def test_table_keeps_frozen_copies_of_its_samples(self):
        # it used to keep the caller's arrays: after m[:] = 5, e(1.5) read 5.0 and e.integral(2.0) a stale 2.0
        t, m = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0])
        e = TableEnvelope(t, m)
        t[:], m[:] = [0.0, 0.5, 1.0], 5.0
        assert e(1.5) == 1.0
        assert e.integral(2.0) == 2.0
        for samples in (e._t, e._m):
            with pytest.raises(ValueError, match="read-only"):
                samples[0] = 0.0


class TestDecayClassSpec:
    def test_tags_and_invariants(self):
        with pytest.raises(ParameterError, match="class tag"):
            make_spec(class_tag="K_XX")
        with pytest.raises(ParameterError, match="five"):
            make_spec(alpha=(1.0, 2.0, 3.0))
        with pytest.raises(ParameterError, match="R0"):
            make_spec(R0=0.0)
        with pytest.raises(ParameterError, match="epsilon"):
            make_spec(epsilon=-0.5)

    def test_ns_exponents_checked(self):
        params = GasParameters(n=3, gamma=1.4)
        spec = make_spec(alpha=(-2.0, -4.0, -5.5, -3.5, -3.0))
        with pytest.raises(ParameterError, match="alpha_v"):
            spec.validate(params)

    def test_ns_theta_exponent_only_for_full_class(self):
        params = GasParameters(n=3, gamma=1.4)
        alpha = (-3.0, -4.0, -5.5, -3.5, 0.0)
        make_spec(class_tag="K_NS0", alpha=alpha).validate(params)
        with pytest.raises(ParameterError, match="alpha_theta"):
            make_spec(class_tag="K_NS", alpha=alpha).validate(params)

    def test_gd_velocity_cap(self):
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        make_spec(class_tag="K_GD", alpha=(1.0, 7.0, -1.0, 2.0, 3.0)).validate(params)
        # K_GD's velocity cap is the reach's own check, which names alpha_v alone
        with pytest.raises(ParameterError, match=r"^alpha_v must be <= 1 for a finite reach, got 1\.2$"):
            make_spec(class_tag="K_GD", alpha=(1.2, 0.0, -1.0, 0.0, 0.0)).validate(params)

    def test_reach_power_overflow_rejected_by_validate(self):
        # alpha_v = -3 gives R0**4, which overflows at R0 = 1e308; R0 = 1e77 still fits
        params = GasParameters(n=3, gamma=1.4)
        make_spec(R0=1e77).validate(params)
        with pytest.raises(ParameterError, match=r"^R0=1e\+308 is too large: R0\*\*\(1 - alpha_v\) = R0\*\*4.0"):
            make_spec(R0=1e308).validate(params)

    @pytest.mark.parametrize("R0", [1e-100, 1e-78])
    def test_reach_power_underflow_rejected_by_validate(self, R0):
        # R0**4 underflows to 0 at R0 = 1e-100, and to a subnormal short of R0's digits at 1e-78;
        # R0 = 1e-76 still gives a normal float, and R(0) reads R0 back
        params = GasParameters(n=3, gamma=1.4)
        make_spec(R0=1e-76).validate(params)
        assert envelope_radius(make_spec(R0=1e-76), 0.0) == pytest.approx(1e-76, rel=1e-15)
        with pytest.raises(ParameterError, match=rf"^R0={R0} is too small: R0\*\*\(1 - alpha_v\) = R0\*\*4.0 "
                                                 "underflows a float$"):
            make_spec(R0=R0).validate(params)

    def test_scan_past_the_float_range_reads_inf_unwarned(self):
        # the suite turns warnings into errors, so an overflow warning would fail here
        cert = contradiction_time(make_spec(), 1.0, 1.0, 0.0, 1.0, 1e308, GasParameters(n=3, gamma=5.0 / 3.0))
        assert cert.lower[-1] == np.inf
        assert np.isfinite(cert.lower[0])


class TestEnvelopeRadius:
    def test_reciprocal_velocity_gives_linear_radius(self):
        # M_v = 1/(1+t) with alpha_v = 1: R = R0 exp(log(1+t)) = R0 (1+t)
        spec = make_spec(
            class_tag="K_GD",
            alpha=(1.0, 0.0, -5.5, -3.5, 0.0),
            M_v=PowerEnvelope(1.0, -1.0),
            R0=2.0,
        )
        for t in [0.0, 0.5, 3.0, 40.0]:
            assert envelope_radius(spec, t) == pytest.approx(2.0 * (1.0 + t), rel=1e-13)

    def test_constant_velocity_exponent_zero(self):
        spec = make_spec(
            class_tag="K_GD",
            alpha=(0.0, 0.0, -5.5, -3.5, 0.0),
            M_v=ConstEnvelope(0.7),
            R0=1.5,
        )
        assert envelope_radius(spec, 4.0) == pytest.approx(1.5 + 0.7 * 4.0, rel=1e-14)

    def test_initial_radius(self):
        spec = make_spec(R0=1.7)
        assert envelope_radius(spec, 0.0) == pytest.approx(1.7, rel=1e-14)

    def test_monotone_in_time(self):
        spec = make_spec()
        radii = [envelope_radius(spec, t) for t in np.linspace(0.0, 20.0, 50)]
        assert np.all(np.diff(radii) > 0)

    def test_exponential_reach_past_the_float_range_reads_inf(self):
        # alpha_v = 1 gives R0 exp(t) under a unit envelope: math.exp's bits below the float range, inf past it
        spec = make_spec(class_tag="K_GD", alpha=(1.0, 0.0, -5.5, -3.5, -3.0))
        assert envelope_radius(spec, 700.0) == math.exp(700.0)
        assert envelope_radius(spec, 710.0) == math.inf
        assert envelope_radius(spec, np.float64(1e30)) == math.inf
        # as the power law's reach, the cap reads inf without a warning; its caller judges it
        cert = contradiction_time(spec, 1.0, 1.0, 0.0, 1.0, 1000.0, GasParameters(n=3, gamma=5.0 / 3.0))
        assert cert.upper[-1] == np.inf and np.isfinite(cert.upper[1])

    def test_supercritical_exponent_rejected(self):
        spec = make_spec(class_tag="K_GD", alpha=(1.5, 0.0, -5.5, -3.5, 0.0))
        with pytest.raises(ParameterError, match="alpha_v"):
            envelope_radius(spec, 1.0)


class TestLowerBound:
    def test_monatomic_oracle(self):
        # ((gamma-1) n E / 2) t^2 + G0 = 1*4 + 1 = 5
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        assert lower_bound_G(2.0, 1.0, 1.0, 0.0, params) == pytest.approx(5.0, rel=1e-15)

    def test_initial_value_and_slope(self):
        params = GasParameters(n=3, gamma=1.4)
        assert lower_bound_G(0.0, 2.0, 3.5, 7.0, params) == 3.5
        # E = 0 degenerates to the linear part
        assert lower_bound_G(4.0, 0.0, 1.0, 0.25, params) == pytest.approx(2.0)

    def test_negative_energy_rejected(self):
        params = GasParameters(n=3, gamma=1.4)
        with pytest.raises(ParameterError, match="energy"):
            lower_bound_G(1.0, -1.0, 0.0, 0.0, params)


class TestUpperBound:
    def test_pure_tail_oracle(self):
        # frozen radius 2, eps = 1, unit density envelope, zero mass:
        # (1/2) * 1 * 4 pi * 2^(-1) / 1 = pi
        spec = make_spec(
            epsilon=1.0,
            alpha=(0.0, 0.0, -6.0, -4.0, -3.0),
            M_v=ConstEnvelope(0.0),
            R0=2.0,
        )
        params = GasParameters(n=3, gamma=1.4)
        assert upper_bound_G(spec, 7.0, 0.0, params) == pytest.approx(math.pi, rel=1e-14)

    def test_mass_term(self):
        spec = make_spec(
            epsilon=1.0,
            alpha=(0.0, 0.0, -6.0, -4.0, -3.0),
            M_v=ConstEnvelope(0.0),
            M_rho=ConstEnvelope(0.0),
            R0=3.0,
        )
        params = GasParameters(n=3, gamma=1.4)
        assert upper_bound_G(spec, 1.0, 2.0, params) == pytest.approx(9.0, rel=1e-14)

    def test_density_exponent_must_match_tail(self):
        spec = make_spec(alpha=(-3.0, -4.0, -5.0, -3.5, -3.0))
        params = GasParameters(n=3, gamma=1.4)
        with pytest.raises(ParameterError, match="alpha_rho"):
            upper_bound_G(spec, 1.0, 1.0, params)

    def test_negative_mass_rejected(self):
        params = GasParameters(n=3, gamma=1.4)
        with pytest.raises(ParameterError, match="mass"):
            upper_bound_G(make_spec(), 1.0, -1.0, params)


@pytest.fixture(scope="module")
def gaussian_setup():
    params = GasParameters(n=3, gamma=5.0 / 3.0)
    pair = build_compatible_profiles(GaussianShape(), params)
    return params, pair


class TestClassifySnapshot:
    def test_uniform_deformation_field_sits_on_the_velocity_bound(self, gaussian_setup):
        params, pair = gaussian_setup
        a0 = 0.3
        snap = FlowSnapshot(pair.grid, pair.rho0, a0 * pair.grid.r, pair.p0, t=0.0)
        spec = make_spec(
            class_tag="K_GD",
            alpha=(1.0, 0.0, -5.5, -3.5, 1.0),
            M_v=ConstEnvelope(a0),
            M_Dv=ConstEnvelope(0.31),  # headroom for gradient rounding
            M_rho=ConstEnvelope(1.0),
            M_p=ConstEnvelope(1.0),
            M_theta=ConstEnvelope(1.0),
            R0=1.0,
        )
        report = classify_snapshot(snap, spec, params)
        assert report.member
        # v = a r meets M_v(t) r^1 with no slack at all
        assert report.ratios["v"] == pytest.approx(1.0, abs=1e-12)
        assert report.ratios["rho"] < 0.1
        assert report.nodes_checked > 100

    def test_fat_tail_breaks_membership(self):
        params = GasParameters(n=3, gamma=1.4)
        grid = RadialGrid.uniform(10.0, 401)
        r = grid.r
        rho = np.zeros_like(r)
        rho[1:] = r[1:] ** -3.0  # far fatter than r^(-5.5)
        rho[0] = rho[1]
        snap = FlowSnapshot(grid, rho, np.zeros_like(r), np.zeros_like(r))
        report = classify_snapshot(snap, make_spec(), params)
        assert not report.member
        assert report.ratios["rho"] > 1.0
        assert report.ratios["v"] == 0.0

    def test_vacuum_is_member(self):
        params = GasParameters(n=3, gamma=1.4)
        grid = RadialGrid.uniform(5.0, 64)
        z = np.zeros(64)
        report = classify_snapshot(FlowSnapshot(grid, z, z, z), make_spec(), params)
        assert report.member
        assert all(v == 0.0 for v in report.ratios.values())

    ENVELOPES = {"zero": ConstEnvelope(0.0), "unit": ConstEnvelope(1.0), "power": PowerEnvelope(0.8, -0.5)}

    @pytest.mark.parametrize("envelope", ENVELOPES.values(), ids=ENVELOPES.keys())
    def test_ratios_are_the_fieldwise_formula_bit_for_bit(self, envelope):
        # a nonuniform grid with vacuum nodes, pressure over vacuum and zeros in every field
        assert_fieldwise_ratios(envelope, np.cumsum(np.random.default_rng(5).uniform(0.01, 0.05, 300)), 1.0)

    # (radii, R0): spacings exactly equal, which numpy's gradient rounds by its own formula; R0 below
    # r[0], so the first node's one-sided difference is read; R0 between the last two nodes
    GRIDS = {
        "equal": (np.arange(300) * 0.75, 1.0),
        "equal-from-r0": (1.5 + np.arange(300) * 0.75, 1.0),
        "unequal-from-r0": (1.5 + np.cumsum(np.random.default_rng(6).uniform(0.01, 0.05, 300)), 1.0),
        "last-node": (np.cumsum(np.random.default_rng(7).uniform(0.01, 0.02, 300)), None),
    }

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("envelope", ENVELOPES.values(), ids=ENVELOPES.keys())
    def test_ratios_are_the_fieldwise_formula_on_every_tail(self, envelope, grid):
        r, R0 = grid
        assert_fieldwise_ratios(envelope, r, 0.5 * (r[-2] + r[-1]) if R0 is None else R0)

    # a ratio is a maximum, so it reads one node of Dv: here every node of every tail is compared
    @pytest.mark.parametrize("r", [np.arange(40) * 0.75, np.linspace(0.0, 3.0, 40), np.array([0.5, 0.75]),
                                   np.cumsum(np.random.default_rng(9).uniform(0.01, 0.05, 40))],
                             ids=["equal", "linspace", "two-nodes", "unequal"])
    def test_tail_derivative_is_numpys_gradient_bit_for_bit(self, r):
        v = np.random.default_rng(10).normal(size=r.size)
        whole = np.gradient(v, r)
        for start in range(r.size):
            dv, s1, s2 = np.empty(r.size - start), np.empty(r.size - start), np.empty(r.size - start)
            _tail_gradient(v, r, start, dv, s1, s2)
            assert dv.tobytes() == whole[start:].tobytes(), start

    def test_holds_at_most_four_and_a_half_node_arrays(self, traced_peak):
        # the derivative and two rows for its formula, then for the ratios, plus theta and a mask:
        # 4.3 arrays, where np.gradient on the whole grid and p / rho held 7.0
        params = GasParameters(n=3, gamma=1.4)
        r = np.cumsum(np.random.default_rng(8).uniform(0.5, 1.5, 100_000)) * 2e-4
        snap = FlowSnapshot(RadialGrid(r), np.exp(-r), 0.3 * r, 0.5 * np.exp(-r))
        spec = make_spec(R0=1e-9)
        classify_snapshot(snap, spec, params)
        assert traced_peak(lambda: classify_snapshot(snap, spec, params)) <= 4.5 * r.nbytes

    def test_grid_must_reach_past_R0(self):
        params = GasParameters(n=3, gamma=1.4)
        grid = RadialGrid.uniform(0.5, 33)
        z = np.zeros(33)
        with pytest.raises(InvalidInputError, match="R0"):
            classify_snapshot(FlowSnapshot(grid, z, z, z), make_spec(R0=1.0), params)

    def test_class_holds_from_t_zero(self):
        # the certificate's floor and cap both start at t = 0, so a class has no later onset
        params = GasParameters(n=3, gamma=1.4)
        grid = RadialGrid.uniform(5.0, 33)
        z = np.zeros(33)
        with pytest.raises(TypeError):
            make_spec(T=1.0)
        report = classify_snapshot(FlowSnapshot(grid, z, z, z, t=0.5), make_spec(), params)
        assert report.member and report.nodes_checked > 0

    def test_exponents_validated_against_tag(self):
        params = GasParameters(n=3, gamma=1.4)
        grid = RadialGrid.uniform(5.0, 33)
        z = np.zeros(33)
        bad = make_spec(alpha=(-2.0, -4.0, -5.5, -3.5, -3.0))
        with pytest.raises(ParameterError, match="alpha_v"):
            classify_snapshot(FlowSnapshot(grid, z, z, z), bad, params)


class TestContradictionTime:
    def test_constant_envelopes_force_finite_crossing(self):
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        spec = make_spec()
        cert = contradiction_time(spec, 1.0, 1.0, 0.0, 1.0, 100.0, params)
        assert cert.verdict == VERDICT_CONTRADICTION
        assert cert.contradiction
        assert 0.0 < cert.t_star < 100.0
        # the floor strictly beats the cap at the certified time
        lo = lower_bound_G(cert.t_star, 1.0, 1.0, 0.0, params)
        up = upper_bound_G(spec, cert.t_star, 1.0, params)
        assert lo > up

    def test_crossing_time_stable_under_scan_refinement(self):
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        spec = make_spec()
        coarse = contradiction_time(spec, 1.0, 1.0, 0.0, 1.0, 100.0, params, scan_points=200)
        fine = contradiction_time(spec, 1.0, 1.0, 0.0, 1.0, 100.0, params, scan_points=797)
        assert abs(coarse.t_star - fine.t_star) <= 1e-4 * max(coarse.t_star, fine.t_star)

    def test_sampled_trajectories_respect_the_crossing(self):
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        cert = contradiction_time(make_spec(), 1.0, 1.0, 0.0, 1.0, 100.0, params)
        before = cert.times < cert.t_star
        assert np.all(cert.lower[before] <= cert.upper[before])

    def test_fast_envelopes_defeat_the_floor(self):
        # density envelope growing like t^3 and a velocity budget whose
        # integral grows just past the critical rate: the cap outruns the
        # quadratic floor on the whole horizon
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        spec = make_spec(
            M_v=PowerEnvelope(4.1, 3.1),
            M_rho=PowerEnvelope(1.0, 3.0),
        )
        cert = contradiction_time(spec, 1.0, 1.0, 0.0, 1.0, 1e6, params)
        assert cert.verdict == VERDICT_NO_CONTRADICTION
        assert cert.t_star is None
        assert not cert.contradiction
        assert np.all(cert.lower <= cert.upper)

    def test_contradiction_already_at_zero(self):
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        cert = contradiction_time(make_spec(), 1.0, 1000.0, 0.0, 1.0, 10.0, params)
        assert cert.verdict == VERDICT_CONTRADICTION
        assert cert.t_star == 0.0

    def test_exact_solution_survives_its_natural_class(self, gaussian_setup):
        # envelopes read off the uniform-deformation solution itself must
        # never certify a contradiction against it
        params, pair = gaussian_setup
        ode = deformation_constant(pair, params)
        sol = integrate_deformation(ode, 50.0, 1e-8)
        snap0 = FlowSnapshot(pair.grid, pair.rho0, np.zeros_like(pair.grid.r), pair.p0)
        rep = conserved(snap0, params)
        G0 = g_phi(snap0, Quadratic(), params)
        spec = make_spec(
            class_tag="K_GD",
            alpha=(1.0, 0.0, -5.5, -3.5, 1.0),
            M_v=TableEnvelope(sol.t_grid, np.abs(sol.a_samples)),
            M_rho=ConstEnvelope(1.0),
            R0=5.0,
        )
        cert = contradiction_time(spec, rep.e_total, G0, 0.0, rep.mass, 50.0, params)
        assert cert.verdict == VERDICT_NO_CONTRADICTION

    @pytest.mark.parametrize("name", ["E_total", "G0", "G0_rate", "mass"])
    def test_nan_input_raises_instead_of_a_verdict(self, name):
        # with NaN every comparison is false, and the scan used to read NoContradictionOnHorizon
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        args = dict(E_total=1.0, G0=1.0, G0_rate=0.0, mass=1.0)
        assert contradiction_time(make_spec(), **args, horizon=100.0, params=params).contradiction
        message = {
            "E_total": "total energy must be nonnegative, got nan",
            "G0": "G0 must be finite, got nan",
            "G0_rate": "G0_rate must be finite, got nan",
            "mass": "mass must be nonnegative, got nan",
        }[name]
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            contradiction_time(make_spec(), **{**args, name: math.nan}, horizon=100.0, params=params)

    @pytest.mark.parametrize("n, gamma, E_total, G0, G0_rate", [(3, 5.0 / 3.0, 1.0, 1.0, 0.0),
                                                                (1, 3.0, 0.37, -2.5, 1.3), (5, 1.1, 41.0, 7.0, -9.0)])
    def test_scan_floor_has_the_bits_of_scalar_calls(self, n, gamma, E_total, G0, G0_rate):
        # the scan forms its floor over all times in one call; each time keeps its scalar call's bits
        params = GasParameters(n=n, gamma=gamma)
        cert = contradiction_time(make_spec(n=n), E_total, G0, G0_rate, 1.0, 100.0, params)
        scalar = [lower_bound_G(float(t), E_total, G0, G0_rate, params) for t in cert.times]
        assert cert.lower.tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("n, spec_kw", [
        (3, {}),
        (5, {"M_v": PowerEnvelope(0.3, 1.5), "M_rho": LogEnvelope(2.0), "epsilon": 0.25}),
        # alpha_v = 1: the reach takes its exponential form
        (3, {"class_tag": "K_GD", "alpha": (1.0, 0.0, -5.5, -3.5, 1.0), "M_v": PowerEnvelope(0.05, -0.5),
             "M_rho": TableEnvelope([0.0, 2.0, 9.0], [1.0, 3.0, 0.5]), "R0": 2.0}),
    ])
    def test_scan_cap_has_the_bits_of_scalar_calls(self, n, spec_kw):
        # the scan checks the cap's scalars once; each time keeps its upper_bound_G call's bits
        params = GasParameters(n=n, gamma=1.4)
        spec = make_spec(n=n, **spec_kw)
        cert = contradiction_time(spec, 0.7, 2.0, 0.1, 1.3, 100.0, params)
        scalar = [upper_bound_G(spec, float(t), 1.3, params) for t in cert.times]
        assert cert.upper.tobytes() == np.array(scalar).tobytes()

    def test_scan_checks_the_tail_exponent(self):
        # K_GD leaves alpha_rho free, so the cap's own check is the one that fires
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        spec = make_spec(class_tag="K_GD", alpha=(0.0, 0.0, -5.0, 0.0, 0.0))
        message = "closed-form tail needs alpha_rho = -n-2-eps = -5.5, got -5.0"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            contradiction_time(spec, 1.0, 1.0, 0.0, 1.0, 100.0, params)

    def test_one_scan_point_raises_instead_of_a_verdict(self):
        # one point scans only t = 1e-3, short of the horizon, and used to read NoContradictionOnHorizon
        params = GasParameters(n=3, gamma=5.0 / 3.0)
        assert contradiction_time(make_spec(), 1.0, 1.0, 0.0, 1.0, 100.0, params, scan_points=2).contradiction
        with pytest.raises(ParameterError) as caught:
            contradiction_time(make_spec(), 1.0, 1.0, 0.0, 1.0, 100.0, params, scan_points=1)
        assert type(caught.value) is ParameterError
        assert str(caught.value) == "scan_points must be an integer >= 2, got 1"

    def test_bad_horizon(self):
        params = GasParameters(n=3, gamma=1.4)
        with pytest.raises(ParameterError, match="horizon"):
            contradiction_time(make_spec(), 1.0, 1.0, 0.0, 1.0, 0.0, params)

    @pytest.mark.parametrize("horizon", [1e-321, 5e-324])
    def test_a_scan_clock_that_cannot_advance_is_named(self, horizon):
        # subnormal scan times repeat; at 5e-324 the start underflowed to 0 and np.geomspace raised a bare ValueError
        with pytest.raises(InvalidInputError) as caught:
            contradiction_time(make_spec(), 1.0, 1.0, 0.0, 1.0, horizon, GasParameters(n=3, gamma=1.4))
        assert str(caught.value) == "scan times must strictly increase, got 5e-324 after 5e-324 at index 2"


def test_certificate_is_plain_data():
    cert = GrowthCertificate(
        verdict=VERDICT_NO_CONTRADICTION,
        t_star=None,
        times=np.array([0.0, 1.0]),
        lower=np.array([1.0, 2.0]),
        upper=np.array([3.0, 4.0]),
    )
    assert not cert.contradiction
