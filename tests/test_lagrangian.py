"""Boundary advection, pressure-flux quadrature, and volume functionals."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from gasmoments.core import GasParameters, InvalidInputError, ParameterError
from gasmoments.exact import DeformationODE, integrate_deformation
from gasmoments.lagrangian import (
    GeometryError,
    MaterialVolume,
    RegularityReport,
    _TrackWorkspace,
    advect,
    boundary_pressure_flux,
    theorem3_functional,
    track_boundary,
)
from readers import contains, interior_integral, spacing


def unit_pressure(x):
    return np.ones(x.shape[:-1])


@pytest.fixture(scope="module")
def offset_sphere():
    return MaterialVolume.sphere_surface([3.0, 0.0, 0.0], 1.0, 48, 96)


class TestMaterialVolume:
    def test_interval_normals_and_weights(self):
        vol = MaterialVolume.interval(-1.0, 2.0)
        normals, weights = vol.surface_elements()
        assert np.array_equal(normals, [[-1.0], [1.0]])
        assert np.array_equal(weights, [1.0, 1.0])
        assert vol.dim == 1

    def test_interval_requires_order(self):
        with pytest.raises(InvalidInputError, match="a < b"):
            MaterialVolume.interval(2.0, 2.0)

    def test_sphere_area(self, offset_sphere):
        assert np.sum(offset_sphere.surface_elements()[1]) == pytest.approx(4.0 * math.pi, rel=0.01)

    def test_area_stable_under_refinement(self, offset_sphere):
        fine = MaterialVolume.sphere_surface([3.0, 0.0, 0.0], 1.0, 96, 192)
        area = np.sum(offset_sphere.surface_elements()[1])
        assert area == pytest.approx(np.sum(fine.surface_elements()[1]), rel=0.01)

    def test_normals_point_outward(self, offset_sphere):
        normals, _ = offset_sphere.surface_elements()
        outward = offset_sphere.points - np.array([3.0, 0.0, 0.0])
        assert np.all(np.sum(normals * outward, axis=-1) > 0.99)

    def test_too_coarse_rejected(self):
        with pytest.raises(InvalidInputError, match="coarse"):
            MaterialVolume.sphere_surface([0.0, 0.0, 0.0], 1.0, 3, 6)

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ParameterError, match="dimensions 1 and 3"):
            MaterialVolume(np.zeros((5, 2)))

    def test_bad_radius(self):
        with pytest.raises(ParameterError, match="radius"):
            MaterialVolume.sphere_surface([0.0, 0.0, 0.0], 0.0)

    def test_nonfinite_points_rejected(self):
        with pytest.raises(InvalidInputError, match="^boundary particles must be finite, got nan at flat index 1$"):
            MaterialVolume([[0.0], [np.nan]])

    def test_center_must_be_a_3_vector(self):
        with pytest.raises(InvalidInputError, match=r"^sphere center must be a 3-vector, got shape \(2,\)$"):
            MaterialVolume.sphere_surface([0.0, 0.0], 1.0)

    def test_collapsed_sampling_rejected(self):
        collapsed = MaterialVolume(np.zeros((4, 8, 3)))
        with pytest.raises(GeometryError, match="^degenerate surface element: particles have collapsed$"):
            collapsed.surface_elements()

    @staticmethod
    def _probe(call, volume, x0):
        """Each public entry that takes a probe point, called with x0 and otherwise valid arguments."""
        if call == "boundary_pressure_flux":
            boundary_pressure_flux(volume, unit_pressure, x0)
        elif call == "track_boundary":
            track_boundary(volume, lambda t, x: 0.0 * x, lambda t, x: unit_pressure(x), x0, 1.0, 2)
        else:
            theorem3_functional(volume, unit_pressure, lambda x: -x, x0, -7.0, GasParameters(n=3, gamma=5.0 / 3.0))

    ENTRIES = ["track_boundary", "boundary_pressure_flux", "theorem3_functional"]

    @pytest.mark.parametrize("call", ENTRIES)
    def test_probe_point_dimension_checked(self, offset_sphere, call):
        with pytest.raises(InvalidInputError, match=r"^probe point must be a 3-vector, got shape \(2,\)$"):
            self._probe(call, offset_sphere, [3.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call", ENTRIES)
    def test_nonfinite_probe_point_rejected(self, offset_sphere, call, bad):
        # a NaN probe used to give all-NaN fluxes, an infinite one a RuntimeWarning and NaN
        x0 = [bad, 0.0, 0.0]
        message = rf"^probe point must be finite, got {re.escape(str(x0))}$"
        with pytest.raises(InvalidInputError, match=message):
            self._probe(call, offset_sphere, x0)

    def test_contains(self, offset_sphere):
        assert contains(offset_sphere, [3.0, 0.1, -0.2])
        assert not contains(offset_sphere, [0.0, 0.0, 0.0])
        assert not contains(offset_sphere, [3.0, 0.0, 5.0])
        iv = MaterialVolume.interval(0.0, 1.0)
        assert contains(iv, [0.5])
        assert not contains(iv, [-0.5])

    def test_contains_a_particle(self, offset_sphere):
        # the kernel is singular there; a point on the boundary counts as inside
        assert contains(offset_sphere, offset_sphere.points[5, 7])


class TestAdvect:
    def test_zero_field_is_identity(self, offset_sphere):
        moved = advect(offset_sphere, lambda t, x: np.zeros_like(x), 0.1)
        assert np.array_equal(moved.points, offset_sphere.points)
        assert moved.t == pytest.approx(0.1)

    def test_uniform_deformation_matches_exponential_stretch(self):
        # under v = a(t) x every particle follows x(0) e^{b(t)}
        sol = integrate_deformation(DeformationODE(K=1.0, m_exp=4.0), 1.0, 1e-12)
        field = sol.velocity_field()
        vol = MaterialVolume.sphere_surface([0.0, 0.0, 0.0], 1.0, 8, 16)
        x0 = vol.points.copy()
        dt = 1e-3
        for _ in range(1000):
            vol = advect(vol, field, dt)
        target = x0 * math.exp(sol.b_at(1.0))
        assert np.max(np.abs(vol.points - target)) <= 1e-6 * np.max(np.abs(target))

    def test_rigid_rotation_preserves_radii(self):
        def spin(t, x):
            v = np.empty_like(x)
            v[..., 0] = -x[..., 1]
            v[..., 1] = x[..., 0]
            v[..., 2] = 0.0
            return v

        vol = MaterialVolume.sphere_surface([0.0, 0.0, 0.0], 1.0, 16, 32)
        r0 = np.linalg.norm(vol.points, axis=-1)
        steps = 2000
        dt = 2.0 * math.pi / steps
        for _ in range(steps):
            vol = advect(vol, spin, dt)
        r1 = np.linalg.norm(vol.points, axis=-1)
        assert np.max(np.abs(r1 - r0)) < 1e-8

    def test_reversible_to_high_order(self, offset_sphere):
        frozen = lambda t, x: np.sin(x)
        dt = 0.01
        there = advect(offset_sphere, frozen, dt)
        back = advect(there, frozen, -dt)
        assert np.max(np.abs(back.points - offset_sphere.points)) < 1e-9

    def test_nonfinite_velocity_reported(self, offset_sphere):
        def bad(t, x):
            v = np.zeros_like(x)
            v[0, 0, 0] = np.inf
            return v

        with pytest.raises(GeometryError, match="domain"):
            advect(offset_sphere, bad, 0.1)

    def test_nonfinite_position_reported(self, offset_sphere):
        # every stage velocity is finite, but the RK4 combination overflows
        huge = lambda t, x: np.full(x.shape, 1e308)
        message = r"^particle left the velocity field's domain \(non-finite position\)$"
        with np.errstate(over="ignore"):
            with pytest.raises(GeometryError, match=message):
                advect(offset_sphere, huge, 1.0)

    def test_velocity_shape_checked(self, offset_sphere):
        message = r"^velocity field returned shape \(48, 96\), expected \(48, 96, 3\)$"
        with pytest.raises(InvalidInputError, match=message):
            advect(offset_sphere, lambda t, x: np.zeros(x.shape[:-1]), 0.1)

    def test_interval_advection(self):
        vol = MaterialVolume.interval(1.0, 2.0)
        moved = advect(vol, lambda t, x: x, 0.001)
        assert moved.points[:, 0] == pytest.approx(
            [math.exp(0.001), 2.0 * math.exp(0.001)], rel=1e-12
        )


class TestAdoptedPositions:
    """advect and track_boundary keep the positions their RK4 step made, without copying them."""

    @pytest.mark.parametrize("call", ["advect", "track_boundary"])
    def test_the_new_volume_copies_no_particle_array(self, monkeypatch, call):
        vol = MaterialVolume.sphere_surface([3.0, 0.0, 0.0], 1.0, 64, 128)
        v, p = np.full(vol.points.shape, 0.1), np.ones(vol.points.shape[:-1])  # the fields allocate nothing
        check, made = MaterialVolume.__post_init__, []

        def checked(self, *args, **kwargs):
            # by now the step's positions exist; count what building the volume around them adds
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            check(self, *args, **kwargs)
            made.append(tracemalloc.get_traced_memory()[1] - start)

        monkeypatch.setattr(MaterialVolume, "__post_init__", checked)
        tracemalloc.start()
        try:
            if call == "advect":
                advect(vol, lambda t, x: v, 0.01)
            else:
                track_boundary(vol, lambda t, x: v, lambda t, x: p, [0.0, 0.0, 0.0], 0.01, 1)
        finally:
            tracemalloc.stop()
        # the finiteness check's mask is an eighth of a particle array; a copy would be a whole one
        assert made and made[0] < 0.5 * vol.points.nbytes


class TestBoundaryPressureFlux:
    def test_zero_pressure(self, offset_sphere):
        val = boundary_pressure_flux(offset_sphere, lambda x: np.zeros(x.shape[:-1]), [0.0, 0.0, 0.0])
        assert val == 0.0

    def test_interval_constant_pressure_cancels(self):
        vol = MaterialVolume.interval(1.0, 2.0)
        assert boundary_pressure_flux(vol, lambda x: np.full(x.shape[:-1], 7.0), [0.0]) == 0.0

    def test_offset_sphere_oracle(self, offset_sphere):
        # divergence theorem turns the surface integral into
        # (n-1) int_V |x|^(-1) dV; the mean-value property of the harmonic
        # kernel evaluates that at the center: 2 * (4 pi / 3) / 3
        val = boundary_pressure_flux(offset_sphere, unit_pressure, [0.0, 0.0, 0.0])
        assert val == pytest.approx(8.0 * math.pi / 9.0, rel=0.02)

    def test_rotation_invariance(self, offset_sphere):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(A)
        rotated = MaterialVolume(offset_sphere.points @ Q.T)
        ref = boundary_pressure_flux(offset_sphere, unit_pressure, [0.0, 0.0, 0.0])
        rot = boundary_pressure_flux(rotated, unit_pressure, [0.0, 0.0, 0.0])
        assert rot == pytest.approx(ref, rel=1e-3)

    def test_probe_inside_rejected(self, offset_sphere):
        with pytest.raises(GeometryError, match="inside"):
            boundary_pressure_flux(offset_sphere, unit_pressure, [3.0, 0.0, 0.0])

    def test_probe_too_close_rejected(self, offset_sphere):
        # 0.02 outside the surface, well under the ~0.05 particle spacing
        with pytest.raises(GeometryError, match="spacing"):
            boundary_pressure_flux(offset_sphere, unit_pressure, [3.0, 0.0, 1.02])

    def test_pressure_shape_checked(self, offset_sphere):
        message = r"^pressure field returned shape \(3,\), expected \(48, 96\)$"
        with pytest.raises(InvalidInputError, match=message):
            boundary_pressure_flux(offset_sphere, lambda x: np.ones(3), [0.0, 0.0, 0.0])

    def test_interval_probe_checks(self):
        vol = MaterialVolume.interval(1.0, 2.0)
        with pytest.raises(GeometryError, match="inside"):
            boundary_pressure_flux(vol, unit_pressure, [1.5])
        with pytest.raises(GeometryError, match="spacing"):
            boundary_pressure_flux(vol, unit_pressure, [1.0])


class TestInteriorIntegral:
    def test_unit_sphere_volume(self, offset_sphere):
        vol = interior_integral(offset_sphere, lambda x: np.ones(x.shape[:-1]))
        assert vol == pytest.approx(4.0 * math.pi / 3.0, rel=2e-3)

    def test_interval_length(self):
        vol = MaterialVolume.interval(-1.0, 3.0)
        assert interior_integral(vol, lambda x: np.ones(x.shape[:-1])) == pytest.approx(4.0, rel=1e-12)

    def test_interval_polynomial(self):
        vol = MaterialVolume.interval(0.0, 2.0)
        val = interior_integral(vol, lambda x: x[..., 0] ** 3)
        assert val == pytest.approx(4.0, rel=1e-12)


class TestTheorem3Functional:
    PARAMS = GasParameters(n=3, gamma=5.0 / 3.0)
    X0 = np.array([0.0, 0.0, 0.0])

    def test_exponent_gate(self, offset_sphere):
        # admissible range sits below -n - 2/(gamma-1) = -6
        with pytest.raises(ParameterError, match="exponent"):
            theorem3_functional(
                offset_sphere, lambda x: np.ones(x.shape[:-1]), lambda x: x, self.X0, -5.0, self.PARAMS
            )

    def test_zero_velocity(self, offset_sphere):
        val = theorem3_functional(
            offset_sphere,
            lambda x: np.ones(x.shape[:-1]),
            lambda x: np.zeros_like(x),
            self.X0,
            -7.0,
            self.PARAMS,
        )
        assert val == 0.0

    def test_converging_flow_is_negative(self, offset_sphere):
        val = theorem3_functional(
            offset_sphere, lambda x: np.ones(x.shape[:-1]), lambda x: -x, self.X0, -7.0, self.PARAMS
        )
        assert val < 0.0

    def test_diverging_flow_is_positive(self, offset_sphere):
        val = theorem3_functional(
            offset_sphere, lambda x: np.ones(x.shape[:-1]), lambda x: x, self.X0, -7.0, self.PARAMS
        )
        assert val > 0.0

    def test_homogeneous_in_density_and_velocity(self, offset_sphere):
        rho = lambda x: 1.0 + 0.5 * np.cos(x[..., 0])
        vel = lambda x: -x
        base = theorem3_functional(offset_sphere, rho, vel, self.X0, -7.0, self.PARAMS)
        rho2 = lambda x: 2.0 * (1.0 + 0.5 * np.cos(x[..., 0]))
        vel2 = lambda x: -2.0 * x
        assert theorem3_functional(offset_sphere, rho2, vel, self.X0, -7.0, self.PARAMS) == pytest.approx(
            2.0 * base, rel=1e-14
        )
        assert theorem3_functional(offset_sphere, rho, vel2, self.X0, -7.0, self.PARAMS) == pytest.approx(
            2.0 * base, rel=1e-14
        )

    def test_one_dimensional_case(self):
        vol = MaterialVolume.interval(1.0, 2.0)
        params = GasParameters(n=1, gamma=5.0 / 3.0)
        val = theorem3_functional(
            vol, lambda x: np.ones(x.shape[:-1]), lambda x: -x, [0.0], -5.0, params
        )
        assert val < 0.0

    @pytest.mark.parametrize("dim", [3, 1], ids=["surface", "interval"])
    def test_one_geometry_per_call(self, offset_sphere, monkeypatch, dim):
        # the probe check and the cone rule share one workspace, and the value
        # is interior_integral's of the weighted integrand
        vol, x0, params = ((offset_sphere, self.X0, self.PARAMS) if dim == 3
                           else (MaterialVolume.interval(1.0, 2.0), np.zeros(1), GasParameters(n=1, gamma=5.0 / 3.0)))
        rho, vel = (lambda x: 1.0 + 0.5 * np.cos(x[..., 0])), (lambda x: -x)
        geometry, calls = _TrackWorkspace.geometry, []
        monkeypatch.setattr(_TrackWorkspace, "geometry", lambda ws, p: calls.append(1) or geometry(ws, p))
        value = theorem3_functional(vol, rho, vel, x0, -7.0, params)
        assert len(calls) == 1
        d = lambda x: x - x0
        integrand = lambda x: np.linalg.norm(d(x), axis=-1) ** -9.0 * np.sum(vel(x) * d(x), axis=-1) * rho(x)
        assert value == interior_integral(vol, integrand)


class TestTracking:
    def test_report_invariant(self):
        rep = RegularityReport(times=[0.0, 1.0, 2.0], fluxes=[0.5, -3.0, 1.0], min_weight=math.nan, levels=0,
                               particle_steps=0)
        assert rep.M_observed == 3.0
        assert math.isnan(rep.min_weight)
        assert (rep.levels, rep.particle_steps) == (0, 0)

    def test_report_shape_check(self):
        with pytest.raises(InvalidInputError):
            RegularityReport(times=[0.0, 1.0], fluxes=[1.0], min_weight=1.0, levels=2, particle_steps=1)

    def test_track_boundary_series(self, offset_sphere):
        field = lambda t, x: 0.1 * x
        pressure = lambda t, x: np.exp(-t) * np.ones(x.shape[:-1])
        report, dists, final = track_boundary(
            offset_sphere, field, pressure, [0.0, 0.0, 0.0], 0.5, 10
        )
        assert report.times.shape == (11,)
        assert report.times[-1] == pytest.approx(0.5)
        assert report.M_observed == np.max(np.abs(report.fluxes))
        # expanding flow pushes the boundary away from the probe point
        assert dists[-1] > dists[0]
        assert final.t == pytest.approx(0.5)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, 0.25, 0.2])
    def test_horizon_must_be_finite_and_later(self, offset_sphere, t_end):
        # unchecked, nan and inf end in a non-finite velocity error, t_end == t
        # in copies of one level, and t_end < t in tracking backwards
        start = MaterialVolume(offset_sphere.points, t=0.25)
        message = (f"t_end must be greater than the start time 0.25, got {t_end}" if math.isfinite(t_end)
                   else f"t_end must be finite, got {t_end}")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            track_boundary(start, lambda t, x: 0.1 * x, lambda t, x: np.ones(x.shape[:-1]),
                           [0.0, 0.0, 0.0], t_end, 4)

    def test_steps_must_be_positive(self, offset_sphere):
        with pytest.raises(ParameterError, match="^steps must be an integer >= 1, got 0$"):
            track_boundary(offset_sphere, lambda t, x: 0.1 * x, lambda t, x: unit_pressure(x),
                           [0.0, 0.0, 0.0], 0.5, 0)

    def test_a_clock_that_cannot_advance_is_rejected_before_any_step(self):
        # at t = 1e16 a float moves in steps of 2, so a level 0.5 later is the same time: t + dt used
        # to leave all 9 levels, and the final volume, at t = 1e16
        t0, calls = 1e16, []
        start = MaterialVolume(MaterialVolume.sphere_surface([3.0, 0.0, 0.0], 1.0, 8, 16).points, t=t0)
        with pytest.raises(ParameterError) as caught:
            track_boundary(start, lambda t, x: calls.append(t) or 0.0 * x,
                           lambda t, x: calls.append(t) or unit_pressure(x), [0.0, 0.0, 0.0], t0 + 4.0, 8)
        assert str(caught.value) == ("t_end=1.0000000000000004e+16 with steps=8: level times must strictly "
                                     "increase, got 1e+16 after 1e+16 at index 1")
        assert calls == []

    def test_interval_horizon_checked(self):
        with pytest.raises(ParameterError, match="t_end"):
            track_boundary(MaterialVolume.interval(1.0, 2.0), lambda t, x: x,
                           lambda t, x: unit_pressure(x), [0.0], 0.0, 4)

    def test_min_weight_falls_as_the_sphere_is_squeezed(self, offset_sphere):
        center = np.array([3.0, 0.0, 0.0])
        squeeze = lambda t, x: -(x - center)
        min_weights = []
        for t_end in (0.1, 0.2, 0.4):
            report, _, final = track_boundary(
                offset_sphere, squeeze, lambda t, x: np.ones(x.shape[:-1]),
                [0.0, 0.0, 0.0], t_end, 8,
            )
            # the last level is the most squeezed one
            assert report.min_weight == np.min(final.surface_elements()[1])
            min_weights.append(report.min_weight)
        at_rest, _, _ = track_boundary(
            offset_sphere, lambda t, x: np.zeros_like(x), lambda t, x: np.ones(x.shape[:-1]),
            [0.0, 0.0, 0.0], 0.4, 8,
        )
        initial = np.min(offset_sphere.surface_elements()[1])
        assert at_rest.min_weight == initial
        assert initial > min_weights[0] > min_weights[1] > min_weights[2] > 0.0
        # weights are areas: radius e^(-t) scales them by e^(-2t)
        assert min_weights[2] == pytest.approx(initial * math.exp(-0.8), rel=1e-6)

    @pytest.mark.parametrize("volume", [
        MaterialVolume.sphere_surface([3.0, 0.0, 0.0], 1.0, 6, 10), MaterialVolume.interval(1.0, 2.0),
    ], ids=["surface", "interval"])
    def test_counters_match_a_hand_count(self, volume):
        levels, particles_seen = [], []

        def velocity(t, x):
            particles_seen.append(x[..., 0].size)
            return 0.1 * x

        def pressure(t, x):
            levels.append(t)
            return unit_pressure(x)

        report, _, _ = track_boundary(volume, velocity, pressure, [0.0] * volume.dim, 0.5, 7)
        # four velocity calls advance every particle by one RK4 step
        assert report.levels == len(levels) == len(report.times) == 8
        assert report.particle_steps == sum(particles_seen) // 4 == 7 * volume.points[..., 0].size

    def test_interval_min_weight(self):
        report, _, _ = track_boundary(
            MaterialVolume.interval(1.0, 2.0), lambda t, x: x, lambda t, x: unit_pressure(x),
            [0.0], 0.1, 4,
        )
        assert report.min_weight == 1.0


# --- bit pins ------------------------------------------------------------------
# Digests of the results np.cross, np.linalg.norm and np.sum over the
# trailing axis give; any change in the order of a sum or a product shows.


def _digest(a) -> str:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    return hashlib.sha256(a.tobytes()).hexdigest()[:24]


def _pinned_flow():
    """Deformation flow plus a shear, so the tracked surface stops being a sphere."""
    sol = integrate_deformation(DeformationODE(K=1.2, m_exp=5.0, a0=0.3), 1.0, 1e-10)
    stretch = sol.velocity_field()

    def velocity(t, x):
        v = stretch(t, x)
        v[..., 0] += 0.2 * np.sin(x[..., 1])
        v[..., 1] += 0.1 * x[..., 2] * x[..., 0]
        v[..., 2] -= 0.1 * np.cos(x[..., 0])
        return v

    def pressure(t, x):
        return math.exp(-5.0 * sol.b_at(t)) * np.exp(-0.5 * np.sum(x * x, axis=-1))

    return velocity, pressure


PINNED_X0 = [-0.1, 0.05, 0.0]

# (n_lat, n_lon, steps) -> fluxes, distances, final points, final normals,
# final weights, theorem3_functional at t = 0, final spacing
PINNED_TRACKS = {
    (24, 48, 32): (
        "3080c76445be1a767d979fd0", "833069bb2c0c64bcb63c7b46", "c9e06f9d2c0442f461ce31f2",
        "7293e4403ce547f5dd8f482d", "21802121eea9f312c3016991", "0x1.8308c8930ba02p-16",
        "0x1.4e68d88ef7692p-3",
    ),
    (48, 96, 16): (
        "565b0366f53ed795ee51136c", "c012aa4d688515e34ad4adf4", "94d2e47691b6ea1d78dfe7ab",
        "b280b5407f8e7139c440bf3b", "18d3df0ff1cbf8da4faf2b43", "0x1.84b0fe83ca7f5p-16",
        "0x1.4f6d1b9558777p-4",
    ),
    (64, 128, 8): (
        "7e31d7802f31bdcaa4ada323", "fd1bce403498a2a2342b0e57", "5c7a4aa89bd286a64836ca36",
        "41b907c3267468122848745e", "29a8c79e5f27dd59a3049e58", "0x1.84eef9d17c5c0p-16",
        "0x1.f6d8bd3275b3dp-5",
    ),
}

# fluxes, distances, final points, theorem3_functional
PINNED_INTERVAL = (
    "13cae2b283cbe8b7fc422b71", "47f1bb627525bbbb2abc8026", "cc19b2d9de14dc4bd6175036",
    "-0x1.e000000000003p-3",
)


@pytest.mark.parametrize("n_lat,n_lon,steps", list(PINNED_TRACKS))
def test_tracker_bits_pinned(n_lat, n_lon, steps):
    velocity, pressure = _pinned_flow()
    vol = MaterialVolume.sphere_surface([2.5, 0.3, -0.2], 0.9, n_lat, n_lon)
    functional = theorem3_functional(
        vol, lambda x: np.exp(-np.sum(x * x, axis=-1)), lambda x: velocity(0.0, x), PINNED_X0,
        -7.5, GasParameters(n=3, gamma=5.0 / 3.0),
    )
    report, dists, final = track_boundary(vol, velocity, pressure, PINNED_X0, 1.0, steps)
    normals, weights = final.surface_elements()
    got = (
        _digest(report.fluxes), _digest(dists), _digest(final.points), _digest(normals),
        _digest(weights), functional.hex(), spacing(final).hex(),
    )
    assert got == PINNED_TRACKS[(n_lat, n_lon, steps)]
    # probes inside, outside and just off the final surface
    centroid = final.centroid
    probes = [centroid, PINNED_X0, final.points[0, 0] * 1.001, final.points[3, 5] * 0.999]
    assert [contains(final, p) for p in probes] == [True, False, False, True]


def test_interval_tracker_bits_pinned():
    vol = MaterialVolume.interval(1.0, 2.0)
    report, dists, final = track_boundary(
        vol, lambda t, x: 0.3 * x * (1.0 + t), lambda t, x: np.exp(-t) * (1.0 + x[..., 0] ** 2),
        [0.2], 0.7, 40,
    )
    functional = theorem3_functional(
        vol, lambda x: np.ones(x.shape[:-1]), lambda x: -x, [0.0], -5.0,
        GasParameters(n=1, gamma=5.0 / 3.0),
    )
    got = (_digest(report.fluxes), _digest(dists), _digest(final.points), functional.hex())
    assert got == PINNED_INTERVAL


# --- the workspace kernel against the loop it replaced ------------------------
# reference_track copies the tracker as it was before _TrackWorkspace: a
# fresh array for every geometry, probe and RK4 stage, np.median for the
# spacing and dist**3 in the winding test. The kernel must give its bits.


def _ref_dot(a, b):
    total = a[0] * b[0]
    for k in range(1, len(a)):
        total = total + a[k] * b[k]
    return total


def _ref_geometry(points):
    p = np.ascontiguousarray(np.moveaxis(points, -1, 0))
    if len(p) == 1:
        normals, weights = np.ones((1, 2)), np.ones(2)
    else:
        t_th = np.empty_like(p)
        np.subtract(p[:, 2:], p[:, :-2], out=t_th[:, 1:-1])
        t_th[:, 1:-1] *= 0.5
        np.subtract(p[:, 1], p[:, 0], out=t_th[:, 0])
        np.subtract(p[:, -1], p[:, -2], out=t_th[:, -1])
        t_ph = np.empty_like(p)
        np.subtract(p[:, :, 2:], p[:, :, :-2], out=t_ph[:, :, 1:-1])
        np.subtract(p[:, :, 1], p[:, :, -1], out=t_ph[:, :, 0])
        np.subtract(p[:, :, 0], p[:, :, -2], out=t_ph[:, :, -1])
        t_ph *= 0.5
        (ax, ay, az), (bx, by, bz) = t_th, t_ph
        normals = np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])
        weights = np.sqrt(_ref_dot(normals, normals))
        normals /= weights
    c = p.reshape(len(p), -1).mean(axis=1)
    flip = _ref_dot(normals, [pk - ck for pk, ck in zip(p, c)]) < 0.0
    np.negative(normals, out=normals, where=flip)
    return normals, weights


def _ref_level(x, pressure, x0):
    dim = x.shape[-1]
    normals, weights = _ref_geometry(x)
    d = [x[..., k] - x0[k] for k in range(dim)]
    dn, dist = _ref_dot(d, normals), np.sqrt(_ref_dot(d, d))
    if dim == 1:
        inside = x[0, 0] < x0[0] < x[1, 0]
    else:
        inside = float(np.sum(dn / dist**dim * weights)) > 2.0 * math.pi
    spacing = 0.0 if dim == 1 else float(np.sqrt(np.median(weights)))
    assert not inside and float(np.min(dist)) > spacing
    flux = float(np.sum(np.asarray(pressure(x), dtype=float) * (dn / dist) * weights))
    return flux, float(np.min(dist)), float(np.min(weights))


def reference_track(volume, velocity, pressure, x0, t_end, steps):
    """Fluxes, distances, final points, min weight and final t, as the old loop gave them."""
    dt = (t_end - volume.t) / steps
    x, t = volume.points, volume.t
    levels = []
    for level in range(steps + 1):
        levels.append(_ref_level(x, lambda y: pressure(t, y), np.asarray(x0, dtype=float)))
        if level < steps:
            k1 = velocity(t, x)
            k2 = velocity(t + 0.5 * dt, x + 0.5 * dt * k1)
            k3 = velocity(t + 0.5 * dt, x + 0.5 * dt * k2)
            k4 = velocity(t + dt, x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = t + dt
    fluxes, dists, weights = zip(*levels)
    return np.array(fluxes), np.array(dists), x, min(weights), t


def _swirled(velocity):
    """velocity plus a swirl about the z axis that fades with the distance from it."""
    def swirled(t, x):
        v = velocity(t, x)
        fade = 0.7 * np.exp(-np.hypot(x[..., 0], x[..., 1]))
        v[..., 0] -= fade * x[..., 1]
        v[..., 1] += fade * x[..., 0]
        return v

    return swirled


def _radially_out(volume, center, i, j, gap):
    """The point gap beyond particle (i, j), on the ray from center through it."""
    u = volume.points[i, j] - center
    return center + u * (1.0 + gap / np.linalg.norm(u))


class TestWorkspaceKernel:
    CENTER = np.array([2.5, 0.3, -0.2])

    @pytest.mark.parametrize("n_lat,n_lon,steps,swirl,near", [
        (5, 9, 12, False, True),  # odd count: the odd median; the probe sits inside sqrt(max W)
        (12, 20, 10, True, False),  # n_lon != 2 n_lat, swirl on the deformation flow
        (7, 13, 8, True, True),
        (64, 128, 3, False, False),
    ])
    def test_surface_matches_reference_bitwise(self, monkeypatch, n_lat, n_lon, steps, swirl, near):
        velocity, pressure = _pinned_flow()
        if swirl:
            velocity = _swirled(velocity)
        vol = MaterialVolume.sphere_surface(self.CENTER, 0.9, n_lat, n_lon)
        x0 = PINNED_X0
        if near:  # sqrt(median W) < min dist <= sqrt(max W) at t = 0
            weights = vol.surface_elements()[1]
            gap = 0.5 * float(np.sqrt(np.median(weights)) + np.sqrt(np.max(weights)))
            x0 = _radially_out(vol, self.CENTER, n_lat // 2, n_lon // 2, gap)
        spacings = []
        spacing = _TrackWorkspace.spacing
        monkeypatch.setattr(_TrackWorkspace, "spacing", lambda ws: spacings.append(1) or spacing(ws))
        report, dists, final = track_boundary(vol, velocity, pressure, x0, 1.0, steps)
        fluxes, ref_dists, points, min_weight, t = reference_track(vol, velocity, pressure, x0, 1.0, steps)
        assert report.fluxes.tobytes() == fluxes.tobytes()
        assert dists.tobytes() == ref_dists.tobytes()
        assert final.points.tobytes() == np.ascontiguousarray(points).tobytes()
        assert report.min_weight == min_weight and final.t == t
        assert bool(spacings) == near  # the short cut decides every level of a far probe

    def test_interval_matches_reference_bitwise(self):
        vol = MaterialVolume.interval(1.0, 2.0)
        velocity = lambda t, x: 0.3 * x * (1.0 + t)
        pressure = lambda t, x: np.exp(-t) * (1.0 + x[..., 0] ** 2)
        report, dists, final = track_boundary(vol, velocity, pressure, [0.2], 0.7, 40)
        fluxes, ref_dists, points, min_weight, t = reference_track(vol, velocity, pressure, [0.2], 0.7, 40)
        assert report.fluxes.tobytes() == fluxes.tobytes()
        assert dists.tobytes() == ref_dists.tobytes()
        assert final.points.tobytes() == points.tobytes()
        assert report.min_weight == min_weight and final.t == t

    @pytest.mark.parametrize("n_lat,n_lon", [(5, 9), (4, 8), (7, 13), (8, 16)])
    def test_spacing_is_the_numpy_median(self, n_lat, n_lon):
        # jittered, so that no two weights tie and the middle pair differs
        sphere = MaterialVolume.sphere_surface(self.CENTER, 0.9, n_lat, n_lon)
        jitter = 0.01 * np.random.default_rng(n_lat * n_lon).standard_normal(sphere.points.shape)
        vol = MaterialVolume(sphere.points + jitter)
        weights = vol.surface_elements()[1]
        assert len(np.unique(weights)) == weights.size
        assert spacing(vol) == float(np.sqrt(np.median(weights)))

    def test_spacing_short_cut_both_sides(self, monkeypatch):
        # latitude-longitude weights are unequal, so sqrt(median W) < sqrt(max W)
        vol = MaterialVolume.sphere_surface([0.0, 0.0, 0.0], 1.0, 8, 16)
        weights = vol.surface_elements()[1]
        low, high = float(np.sqrt(np.median(weights))), float(np.sqrt(np.max(weights)))
        i, j = np.unravel_index(np.argmax(weights), weights.shape)
        spacings = []
        spacing = _TrackWorkspace.spacing
        monkeypatch.setattr(_TrackWorkspace, "spacing", lambda ws: spacings.append(1) or spacing(ws))
        # between the two: the median decides, and the probe is clear of it
        x0 = _radially_out(vol, np.zeros(3), i, j, 0.5 * (low + high))
        near = float(np.min(np.linalg.norm(vol.points - x0, axis=-1)))
        assert low < near <= high
        assert math.isfinite(boundary_pressure_flux(vol, unit_pressure, x0))
        assert spacings == [1]
        # within one spacing: today's message
        x0 = _radially_out(vol, np.zeros(3), i, j, 0.5 * low)
        message = rf"^probe point {re.escape(str(x0.tolist()))} is within one particle spacing of the boundary$"
        with pytest.raises(GeometryError, match=message):
            boundary_pressure_flux(vol, unit_pressure, x0)
        # beyond sqrt(max W) the median is not needed
        spacings.clear()
        boundary_pressure_flux(vol, unit_pressure, _radially_out(vol, np.zeros(3), i, j, 1.01 * high))
        assert spacings == []

    def test_geometry_holds_less_than_one_component_plane(self, traced_peak):
        # one component plane is 64 KiB; measured with numpy 2.4.6 the geometry holds
        # 1.7 KiB, while a strided 3-D tangent subtraction makes numpy allocate 193.6 KiB
        vol = MaterialVolume.sphere_surface(self.CENTER, 0.9, 64, 128)
        ws = _TrackWorkspace(vol.points.shape)
        assert traced_peak(lambda: ws.geometry(vol.points)) < 64 * 128 * 8

    def test_callables_get_read_only_positions(self, offset_sphere):
        seen = []

        def velocity(t, x):
            seen.append(x.flags.writeable)
            return 0.1 * x

        pressure = lambda t, x: seen.append(x.flags.writeable) or unit_pressure(x)
        track_boundary(offset_sphere, velocity, pressure, [0.0, 0.0, 0.0], 0.5, 3)
        assert len(seen) == 4 * 3 + 4 and not any(seen)

    @pytest.mark.parametrize("writer", ["velocity_stage", "velocity_level", "pressure"])
    def test_writing_positions_raises_and_leaves_the_run_intact(self, offset_sphere, writer):
        calls = []
        field = lambda t, x: 0.1 * x
        pressure = lambda t, x: unit_pressure(x)

        def writing_velocity(t, x):
            calls.append(t)
            # the k2 stage of the first step sees a workspace buffer; the
            # second level's k1 sees the positions of that level
            if len(calls) == (2 if writer == "velocity_stage" else 5):
                x[0, 0, 0] = 0.0
            return field(t, x)

        def writing_pressure(t, x):
            if t > 0.0:
                x[...] = 0.0
            return pressure(t, x)

        before = offset_sphere.points.copy()
        clean = track_boundary(offset_sphere, field, pressure, [0.0, 0.0, 0.0], 0.5, 3)
        if writer == "pressure":
            args = (field, writing_pressure)
        else:
            args = (writing_velocity, pressure)
        with pytest.raises(ValueError, match="read-only"):
            track_boundary(offset_sphere, *args, [0.0, 0.0, 0.0], 0.5, 3)
        assert offset_sphere.points.tobytes() == before.tobytes()
        again = track_boundary(offset_sphere, field, pressure, [0.0, 0.0, 0.0], 0.5, 3)
        assert again[0].fluxes.tobytes() == clean[0].fluxes.tobytes()
        assert again[2].points.tobytes() == clean[2].points.tobytes()

    def test_a_velocity_that_returns_its_argument(self):
        # k_i aliases the stage buffer it was handed; the step must still
        # read every k before it reuses that buffer
        vol = MaterialVolume.sphere_surface([2.0, 0.0, 0.0], 0.5, 6, 10)
        args = (vol, lambda t, x: x, lambda t, x: np.ones(x.shape[:-1]), [0.0, 0.0, 0.0], 0.3, 6)
        report, dists, final = track_boundary(*args)
        fluxes, ref_dists, points, _, _ = reference_track(*args)
        assert report.fluxes.tobytes() == fluxes.tobytes()
        assert final.points.tobytes() == points.tobytes()


# --- memory layout -------------------------------------------------------------
# Particles sit component-major in memory, (3, n_lat, n_lon), and are shown
# as (n_lat, n_lon, 3). A reduction over the component axis then runs over
# three whole planes, in the order it takes over a C-ordered trailing axis.


def _component_major(x) -> bool:
    return np.moveaxis(x, -1, 0).flags.c_contiguous


class TestLayout:
    def test_callables_and_results_are_component_major(self, offset_sphere):
        seen = []

        def velocity(t, x):
            seen.append(x)
            return 0.1 * x

        def pressure(x):
            seen.append(x)
            return unit_pressure(x)

        hand_made = MaterialVolume(np.ascontiguousarray(offset_sphere.points))
        results = [offset_sphere.points, hand_made.points, MaterialVolume.interval(1.0, 2.0).points,
                   offset_sphere.surface_elements()[0], advect(offset_sphere, velocity, 0.1).points]
        _, _, final = track_boundary(offset_sphere, velocity, lambda t, x: pressure(x), [0.0, 0.0, 0.0], 0.3, 2)
        results.append(final.points)
        boundary_pressure_flux(offset_sphere, pressure, [0.0, 0.0, 0.0])
        theorem3_functional(offset_sphere, pressure, lambda x: velocity(0.0, x), [0.0, 0.0, 0.0],
                            -7.0, GasParameters(n=3, gamma=5.0 / 3.0))
        # advect's four stages, two steps and three levels tracked, one flux, and
        # density and velocity at each of the cone rule's 24 nodes
        assert len(seen) == 4 + (4 * 2 + 3) + 1 + 2 * 24
        assert all(x.shape == (48, 96, 3) and _component_major(x) for x in seen)
        assert all(x.shape[-1] in (1, 3) and _component_major(x) for x in results)

    def test_a_c_ordered_volume_gives_the_same_bits(self):
        velocity, pressure = _pinned_flow()
        sphere = MaterialVolume.sphere_surface([2.5, 0.3, -0.2], 0.9, 12, 20)
        c_ordered = np.ascontiguousarray(sphere.points)
        assert not _component_major(c_ordered)

        def outputs(vol):
            report, dists, final = track_boundary(vol, velocity, pressure, PINNED_X0, 0.5, 4)
            functional = theorem3_functional(
                vol, lambda x: np.exp(-np.sum(x * x, axis=-1)), lambda x: velocity(0.0, x), PINNED_X0,
                -7.5, GasParameters(n=3, gamma=5.0 / 3.0),
            )
            normals, weights = vol.surface_elements()
            probes = [vol.centroid, PINNED_X0, vol.points[0, 0] * 1.001]
            return [_digest(a) for a in (report.fluxes, dists, final.points, normals, weights, vol.centroid)] + [
                functional.hex(), spacing(vol).hex(), [contains(vol, p) for p in probes],
            ]

        assert outputs(MaterialVolume(c_ordered)) == outputs(sphere)

    @pytest.mark.parametrize("n_lat,n_lon", [(4, 8), (7, 13), (64, 128)])
    def test_centroid_is_summed_row_by_row(self, n_lat, n_lon):
        # numpy sums a strided view of the particles pairwise, to other bits
        vol = MaterialVolume.sphere_surface([2.5, 0.3, -0.2], 0.9, n_lat, n_lon)
        rows = np.ascontiguousarray(vol.points).reshape(-1, 3)
        assert vol.centroid.tobytes() == (np.cumsum(rows, axis=0)[-1] / len(rows)).tobytes()


def test_component_reductions_keep_their_order_across_layouts():
    """np.einsum on component-major operands adds left to right, as np.linalg.norm and np.sum do.

    The tracker's dot products are np.einsum's over its contiguous
    component-major buffers, and its bit pins rest on that order. numpy's
    reductions over a trailing axis of length 3 add left to right in either
    layout; einsum's order depends on the layout (on the .T of a C-ordered
    array it differs), so the test pins the layout the tracker passes. If
    numpy changes either order, this test names the cause.
    """
    rng = np.random.default_rng(3)
    pool = np.concatenate([
        rng.standard_normal(400) * 10.0 ** rng.integers(-300, 301, 400),
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300, 1e-300, -1e-300],
    ])
    a, b = rng.choice(pool, size=(2, 4000, 3))
    a[:3], b[:3] = -0.0, 0.0  # an all -0 sum, which both spellings turn into +0
    a_cm, b_cm = (np.ascontiguousarray(y.T).reshape(3, 50, 80) for y in (a, b))  # the tracker's layout
    pair = [(a, b), tuple(np.moveaxis(y, 0, -1).reshape(4000, 3) for y in (a_cm, b_cm))]
    assert not _component_major(a) and _component_major(pair[1][0])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        dot = np.einsum("i...,i...->...", a_cm, b_cm, out=np.empty((50, 80))).ravel()
        norm = np.sqrt(np.einsum("i...,i...->...", a_cm, a_cm, out=np.empty((50, 80)))).ravel()
        for x, y in pair:
            assert np.linalg.norm(x, axis=-1).tobytes() == norm.tobytes()
            assert np.sum(x * y, axis=-1).tobytes() == dot.tobytes()
    assert not np.signbit(dot[:3]).any()
