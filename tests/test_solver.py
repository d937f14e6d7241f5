import re

import numpy as np
import pytest

from gasmoments.core import (
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
)
from gasmoments.exact import (
    GaussianShape,
    build_balanced_profiles,
    deformation_constant,
    integrate_deformation,
    reconstruct_fields,
)
from gasmoments.solver import (
    ConservedState,
    PositivityError,
    SolverConfig,
    cell_centered_grid,
    pde_residual,
    run,
    state_from_snapshot,
    state_to_snapshot,
    step,
)

P3 = GasParameters(n=3, gamma=5.0 / 3.0)

# float.hex() of the final logged mass, the final mass_out and the sum of
# the final density, for a 200-cell balanced Gaussian pair marched to
# t = 0.5, keyed by (flux, n, out_every). A refactor of the update must not
# change its arithmetic, so these hold bit for bit.
PINNED_RUNS = {
    ("rusanov", 3, None): ("0x1.0008bcf5f8562p+0", "0x1.57c488d1210d1p-34", "0x1.8bafca0c9b833p+0"),
    ("rusanov", 3, 0.1): ("0x1.0008bcf5f8184p+0", "0x1.58bc7504426bep-34", "0x1.8baf85403855cp+0"),
    ("hll", 3, None): ("0x1.0008bcf5f5389p+0", "0x1.643ae3ccf83c2p-34", "0x1.8e3cf62e1353bp+0"),
    ("hll", 3, 0.1): ("0x1.0008bcf5f4f41p+0", "0x1.654ce945634ecp-34", "0x1.8e3ca5e73d87bp+0"),
    ("rusanov", 4, None): ("0x1.000d1b812e153p+0", "0x1.72c87ecc9e3dep-32", "0x1.1674f5c50b6ebp-1"),
    ("rusanov", 4, 0.1): ("0x1.000d1b812d4adp+0", "0x1.7392d71624e4ap-32", "0x1.1674ed2968973p-1"),
    ("hll", 4, None): ("0x1.000d1b81250a3p+0", "0x1.7bd36e9b7b6bap-32", "0x1.1972cd4d0c63bp-1"),
    ("hll", 4, 0.1): ("0x1.000d1b812434bp+0", "0x1.7ca8f30649f60p-32", "0x1.1972bef0523dfp-1"),
}


@pytest.fixture(scope="module")
def balanced_pair():
    return build_balanced_profiles(GaussianShape(), P3)


@pytest.fixture(scope="module")
def balanced_solution(balanced_pair):
    ode = deformation_constant(balanced_pair, P3)
    return integrate_deformation(ode, 1.0, 1e-10)


def balanced_snapshot(pair, cells, r_max=8.0, a0=0.0):
    grid = cell_centered_grid(r_max, cells)
    r = grid.r
    return FlowSnapshot(grid, pair.eval_rho0(r), a0 * r, pair.eval_p0(r), t=0.0)


def uniform_state(cells=50, rho=1.4, v=0.0, p=2.1):
    grid = cell_centered_grid(5.0, cells)
    ones = np.ones(cells)
    return state_from_snapshot(FlowSnapshot(grid, rho * ones, v * ones, p * ones, t=0.0), P3)


class TestGridHelpers:
    def test_cell_centers(self):
        grid = cell_centered_grid(1.0, 4)
        np.testing.assert_allclose(grid.r, [0.125, 0.375, 0.625, 0.875])

    def test_too_few_cells(self):
        with pytest.raises(ParameterError):
            cell_centered_grid(1.0, 1)

    def test_node_centered_grid_rejected(self):
        # RadialGrid.uniform starts at r = 0; the solver needs centers at (i+1/2)h
        grid = RadialGrid.uniform(1.0, 11)
        snap = FlowSnapshot(grid, np.ones(11), np.zeros(11), np.ones(11), t=0.0)
        with pytest.raises(InvalidInputError):
            state_from_snapshot(snap, P3)


class TestConservedState:
    def test_primitive_roundtrip(self):
        state = uniform_state(v=0.7, p=3.0, rho=2.0)
        np.testing.assert_allclose(state.velocity(), 0.7, rtol=1e-14)
        np.testing.assert_allclose(state.pressure(), 3.0, rtol=1e-14)
        snap = state_to_snapshot(state)
        np.testing.assert_allclose(snap.rho, 2.0)

    def test_zero_pressure_reported_at_construction(self):
        # cold collapsing data has zero internal energy, which the state
        # type itself refuses: the failure is a typed report, not a NaN
        grid = cell_centered_grid(1.0, 16)
        snap = FlowSnapshot(grid, np.ones(16), -grid.r, np.zeros(16), t=0.0)
        with pytest.raises(PositivityError) as exc:
            state_from_snapshot(snap, P3)
        assert exc.value.cell == 0

    def test_negative_density_reported(self):
        grid = cell_centered_grid(1.0, 8)
        rho = np.ones(8)
        rho[5] = -0.1
        with pytest.raises(PositivityError) as exc:
            ConservedState(grid=grid, rho=rho, mom=np.zeros(8), energy=np.ones(8), gamma=P3.gamma)
        assert exc.value.cell == 5

    def test_shape_and_finiteness_checks(self):
        grid = cell_centered_grid(1.0, 8)
        with pytest.raises(InvalidInputError):
            ConservedState(grid=grid, rho=np.ones(7), mom=np.zeros(8), energy=np.ones(8), gamma=P3.gamma)
        bad = np.ones(8)
        bad[3] = np.nan
        with pytest.raises(InvalidInputError):
            ConservedState(grid=grid, rho=bad, mom=np.zeros(8), energy=np.ones(8), gamma=P3.gamma)


class TestSolverConfig:
    def test_cfl_bounds(self):
        with pytest.raises(ParameterError):
            SolverConfig(cfl=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(cfl=1.0)

    def test_flux_names(self):
        assert SolverConfig(flux="hll").flux == "hll"
        with pytest.raises(ParameterError):
            SolverConfig(flux="roe")


class TestStep:
    def test_gamma_mismatch(self):
        state = uniform_state()
        with pytest.raises(ParameterError):
            step(state, SolverConfig(), GasParameters(n=3, gamma=1.4))

    @pytest.mark.parametrize("flux", ["rusanov", "hll"])
    def test_uniform_state_preserved_bitwise(self, flux):
        state = uniform_state()
        config = SolverConfig(flux=flux)
        for _ in range(5):
            new = step(state, config, P3)
            assert np.array_equal(new.rho, state.rho)
            assert np.array_equal(new.mom, state.mom)
            assert np.array_equal(new.energy, state.energy)
            state = new

    def test_dt_max_respected(self):
        state = uniform_state()
        new = step(state, SolverConfig(), P3, dt_max=1e-6)
        assert new.t == pytest.approx(1e-6, rel=1e-12)

    def test_one_step_density_update_first_order(self, balanced_pair):
        # against the exact flux divergence for v = a r: the Gaussian
        # balanced pair has rho' = -r rho, so rho_t = -a (n - r^2) rho.
        # First-order fluxes give an O(h) defect; check it halves with h.
        a0 = 0.3
        errs = {}
        for cells in (400, 800):
            snap = balanced_snapshot(balanced_pair, cells, a0=a0)
            state = state_from_snapshot(snap, P3)
            new = step(state, SolverConfig(), P3, dt_max=1e-7)
            drho = (new.rho - state.rho) / (new.t - state.t)
            r = snap.grid.r
            exact = -a0 * (3.0 - r**2) * snap.rho
            mask = r <= 6.0
            errs[cells] = np.max(np.abs(drho - exact)[mask]) / np.max(np.abs(exact))
        assert errs[800] < 0.03
        assert 1.8 < errs[400] / errs[800] < 2.2


class TestRun:
    def test_zero_horizon_echoes_initial(self, balanced_pair):
        snap = balanced_snapshot(balanced_pair, 64)
        result = run(snap, 0.0, SolverConfig(), P3)
        assert len(result.snapshots) == 1
        assert np.array_equal(result.snapshots[0].rho, snap.rho)
        assert np.array_equal(result.final_state.rho, snap.rho)
        assert len(result.log["t"]) == 1

    def test_horizon_before_start_rejected(self, balanced_pair):
        snap = balanced_snapshot(balanced_pair, 64)
        with pytest.raises(ParameterError):
            run(snap, -0.1, SolverConfig(), P3)
        with pytest.raises(ParameterError):
            run(snap, 0.5, SolverConfig(), P3, out_every=0.0)

    def test_output_times_and_log_columns(self, balanced_pair):
        snap = balanced_snapshot(balanced_pair, 100)
        result = run(snap, 0.3, SolverConfig(), P3, out_every=0.1)
        np.testing.assert_allclose(result.log["t"], [0.0, 0.1, 0.2, 0.3], atol=1e-12)
        for key in ("mass", "e_kinetic", "e_internal", "G", "mass_out"):
            assert len(result.log[key]) == 4
        assert len(result.snapshots) == 4

    def test_mass_audit_to_roundoff(self, balanced_pair):
        snap = balanced_snapshot(balanced_pair, 100)
        result = run(snap, 0.5, SolverConfig(), P3)
        log = result.log
        drift = abs(log["mass"][-1] + log["mass_out"][-1] - log["mass"][0]) / log["mass"][0]
        assert drift < 1e-12

    def test_uniform_state_sheds_no_mass(self):
        state = uniform_state(cells=40)
        result = run(state_to_snapshot(state), 0.2, SolverConfig(), P3, out_every=0.1)
        assert result.log["mass_out"][-1] == 0.0
        np.testing.assert_array_equal(result.final_state.rho, state.rho)

    def test_momentum_identity_along_run(self, balanced_pair):
        # d^2G/dt^2 from the logged trail should track 2 E_k + n (gamma-1) E_i;
        # slack covers the first-order spatial error plus the second difference
        snap = balanced_snapshot(balanced_pair, 400)
        result = run(snap, 0.4, SolverConfig(), P3, out_every=0.05)
        t, G = result.log["t"], result.log["G"]
        ek, ei = result.log["e_kinetic"], result.log["e_internal"]
        dt = t[1] - t[0]
        gpp = (G[2:] - 2.0 * G[1:-1] + G[:-2]) / dt**2
        rhs = 2.0 * ek[1:-1] + P3.n * (P3.gamma - 1.0) * ei[1:-1]
        assert np.max(np.abs(gpp - rhs) / rhs) < 0.05

    def test_vacuum_forming_expansion_reported(self):
        # strong outflow empties the origin cell; the failure must surface
        # as a typed error naming the cell, not as NaNs in the output
        grid = cell_centered_grid(1.0, 100)
        snap = FlowSnapshot(grid, np.ones(100), 20.0 * grid.r, np.full(100, 1e-6), t=0.0)
        with pytest.raises(PositivityError) as exc:
            run(snap, 2.0, SolverConfig(flux="hll"), P3)
        assert exc.value.cell == 0
        match = re.fullmatch(r".* nonpositive in cell (\d+) at t=(\S+)", str(exc.value))
        assert match is not None and int(match.group(1)) == 0
        assert 0.0 < float(match.group(2)) < 2.0

    @pytest.mark.parametrize("flux", ["rusanov", "hll"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_uniform_state_preserved_through_run(self, flux, n):
        state = uniform_state(cells=40)
        params = GasParameters(n=n, gamma=P3.gamma)
        result = run(state_to_snapshot(state), 0.2, SolverConfig(flux=flux), params, out_every=0.1)
        assert np.all(result.log["mass_out"] == 0.0)
        final = result.final_state
        assert final.t == 0.2
        assert np.array_equal(final.rho, state.rho)
        assert np.array_equal(final.mom, state.mom)
        assert np.array_equal(final.energy, state.energy)

    @pytest.mark.parametrize("flux", ["rusanov", "hll"])
    @pytest.mark.parametrize(
        "out_every, targets", [(None, [0.5]), (0.1, [0.1, 0.2, 0.3, 0.4, 0.5])]
    )
    def test_run_matches_hand_loop_of_step(self, balanced_pair, flux, out_every, targets):
        # run marches the kernel directly; the public step must stay in lockstep
        snap = balanced_snapshot(balanced_pair, 200, a0=0.3)
        config = SolverConfig(flux=flux)
        state = state_from_snapshot(snap, P3)
        for target in targets:
            while state.t < target - 1e-13 * max(1.0, target):
                state = step(state, config, P3, dt_max=target - state.t)
        final = run(snap, 0.5, config, P3, out_every=out_every).final_state
        assert final.t == state.t
        assert np.array_equal(final.rho, state.rho)
        assert np.array_equal(final.mom, state.mom)
        assert np.array_equal(final.energy, state.energy)

    @pytest.mark.parametrize("flux, n, out_every", list(PINNED_RUNS))
    def test_output_pinned_bitwise(self, flux, n, out_every):
        params = GasParameters(n=n, gamma=5.0 / 3.0)
        pair = build_balanced_profiles(GaussianShape(), params)
        result = run(balanced_snapshot(pair, 200), 0.5, SolverConfig(flux=flux), params,
                     out_every=out_every)
        got = (
            result.log["mass"][-1].hex(),
            result.log["mass_out"][-1].hex(),
            result.final_state.rho.sum().hex(),
        )
        assert got == PINNED_RUNS[flux, n, out_every]

    def test_error_decreases_under_refinement(self, balanced_pair, balanced_solution):
        t_end = 0.25
        errs = []
        for cells in (100, 200):
            snap = balanced_snapshot(balanced_pair, cells)
            result = run(snap, t_end, SolverConfig(), P3)
            grid = snap.grid
            exact = reconstruct_fields(balanced_solution, balanced_pair, t_end, P3, grid=grid)
            edges = np.arange(cells + 1) * (8.0 / cells)
            vol = (edges[1:] ** 3 - edges[:-1] ** 3) / 3.0
            errs.append(np.sum(vol * np.abs(result.final_state.rho - exact.rho)))
        assert errs[1] < 0.7 * errs[0]


@pytest.fixture(scope="module")
def moving_series(balanced_pair, balanced_solution):
    grid = RadialGrid.uniform(8.0, 801)
    times = [0.48, 0.49, 0.50, 0.51, 0.52]
    return [reconstruct_fields(balanced_solution, balanced_pair, t, P3, grid=grid) for t in times]


class TestPdeResidual:
    def test_reconstruction_series_is_near_solution(self, moving_series):
        report = pde_residual(moving_series, P3)
        assert report.continuity < 1e-4
        assert report.pressure < 1e-4

    def test_static_uniform_series_is_exact(self):
        grid = RadialGrid.uniform(4.0, 101)
        snaps = [
            FlowSnapshot(grid, np.ones(101), np.zeros(101), np.ones(101), t=0.1 * k)
            for k in range(3)
        ]
        report = pde_residual(snaps, P3)
        assert report.continuity == 0.0
        assert report.pressure == 0.0

    def test_pressure_corruption_localized(self, moving_series):
        # bump p at one node at every level; the pressure-transport
        # residual must spike next to that node while continuity, which
        # never reads p, stays bitwise identical
        base = pde_residual(moving_series, P3)
        j = 100
        bad = [
            FlowSnapshot(
                s.grid,
                s.rho,
                s.v,
                np.where(np.arange(len(s.grid.r)) == j, s.p * 1.01, s.p),
                t=s.t,
            )
            for s in moving_series
        ]
        report = pde_residual(bad, P3)
        assert report.continuity == base.continuity
        assert report.pressure > 50.0 * base.pressure
        assert abs(int(np.argmax(report.pressure_profile)) - j) <= 1

    def test_static_series_cannot_see_pressure_corruption(self):
        # with v = 0 every pressure term is multiplied by velocity or by
        # div v, so a static series is blind to p errors by construction
        grid = RadialGrid.uniform(4.0, 101)
        p = np.ones(101)
        p[50] = 1.5
        snaps = [FlowSnapshot(grid, np.ones(101), np.zeros(101), p, t=0.1 * k) for k in range(3)]
        report = pde_residual(snaps, P3)
        assert report.pressure == 0.0

    def test_needs_three_levels(self, moving_series):
        with pytest.raises(InvalidInputError):
            pde_residual(moving_series[:2], P3)

    def test_needs_shared_grid(self, moving_series):
        other = RadialGrid.uniform(8.0, 401)
        alien = FlowSnapshot(other, np.ones(401), np.zeros(401), np.ones(401), t=0.52)
        with pytest.raises(InvalidInputError):
            pde_residual(moving_series[:2] + [alien], P3)

    def test_needs_uniform_times(self, moving_series):
        s = moving_series
        shuffled = [s[0], s[1], FlowSnapshot(s[2].grid, s[2].rho, s[2].v, s[2].p, t=0.507)]
        with pytest.raises(InvalidInputError):
            pde_residual(shuffled, P3)
