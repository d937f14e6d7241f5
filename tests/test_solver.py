import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasmoments.core import (
    FlowSnapshot,
    GasParameters,
    GasmomentsError,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    sphere_area,
)
from gasmoments.exact import (
    GaussianShape,
    TabulatedShape,
    build_balanced_profiles,
    deformation_constant,
    integrate_deformation,
    reconstruct_fields,
)
from gasmoments import solver
from gasmoments.solver import (
    ConservedState,
    PositivityError,
    SolverConfig,
    StepBudgetError,
    cell_centered_grid,
    run,
    state_from_snapshot,
    step,
)
from residuals import pde_residual

P3 = GasParameters(n=3, gamma=5.0 / 3.0)

# float.hex() of the final logged mass, the final mass_out and the sum of
# the final density, for a 200-cell balanced Gaussian pair marched to
# t = 0.5, keyed by (flux, n, out_every). A refactor of the update must not
# change its arithmetic, so these hold bit for bit.
PINNED_RUNS = {
    ("rusanov", 3, None): ("0x1.0008bcf5f8567p+0", "0x1.57c488d1210d6p-34", "0x1.8bafca0c9b83ap+0"),
    ("rusanov", 3, 0.1): ("0x1.0008bcf5f8187p+0", "0x1.58bc7504426bbp-34", "0x1.8baf854038562p+0"),
    ("hll", 3, None): ("0x1.0008bcf5f538dp+0", "0x1.643ae3ccf83c6p-34", "0x1.8e3cf62e13542p+0"),
    ("hll", 3, 0.1): ("0x1.0008bcf5f4f45p+0", "0x1.654ce945634f8p-34", "0x1.8e3ca5e73d881p+0"),
    ("rusanov", 4, None): ("0x1.000d1b812e153p+0", "0x1.72c87ecc9e3ddp-32", "0x1.1674f5c50b6ebp-1"),
    ("rusanov", 4, 0.1): ("0x1.000d1b812d4adp+0", "0x1.7392d71624e4ep-32", "0x1.1674ed2968973p-1"),
    ("hll", 4, None): ("0x1.000d1b81250a4p+0", "0x1.7bd36e9b7b6c0p-32", "0x1.1972cd4d0c63bp-1"),
    ("hll", 4, 0.1): ("0x1.000d1b812434cp+0", "0x1.7ca8f30649f65p-32", "0x1.1972bef0523e0p-1"),
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


def uniform_snapshot(cells=50, rho=1.4, v=0.0, p=2.1):
    grid = cell_centered_grid(5.0, cells)
    ones = np.ones(cells)
    return FlowSnapshot(grid, rho * ones, v * ones, p * ones, t=0.0)


def uniform_state(cells=50, rho=1.4, v=0.0, p=2.1):
    return state_from_snapshot(uniform_snapshot(cells, rho, v, p), P3)


def to_snapshot(state, params=P3):
    """A state's primitives, converted as `run` converts its rows: v = mom / rho, p = (gamma - 1) e_int."""
    return FlowSnapshot(state.grid, state.rho, state.mom / state.rho,
                        (params.gamma - 1.0) * state.e_internal_density(), t=state.t)


def log_row(state, mass_out, params=P3):
    """The log row of a state, each integral summed over the cell volumes."""
    _, _, volumes = reference_geometry(state.grid, params.n)
    omega, rho, mom = sphere_area(params.n), state.rho, state.mom
    return {
        "t": state.t,
        "mass": omega * float(np.sum(volumes * rho)),
        "e_kinetic": omega * float(np.sum(volumes * (0.5 * (mom * (mom / rho))))),
        "e_internal": omega * float(np.sum(volumes * state.e_internal_density())),
        "G": omega * float(np.sum(volumes * rho * 0.5 * state.grid.r**2)),
        "mass_out": mass_out,
    }


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
        # a zero-horizon run emits the initial state, converted back from its conserved rows
        snap = run(uniform_snapshot(v=0.7, p=3.0, rho=2.0), 0.0, SolverConfig(), P3).snapshots[0]
        np.testing.assert_allclose(snap.v, 0.7, rtol=1e-14)
        np.testing.assert_allclose(snap.p, 3.0, rtol=1e-14)
        np.testing.assert_allclose(snap.rho, 2.0)

    def test_zero_pressure_reported_at_construction(self):
        # cold collapsing data has zero internal energy, which the state
        # type itself refuses: the failure is a typed report, not a NaN
        grid = cell_centered_grid(1.0, 16)
        snap = FlowSnapshot(grid, np.ones(16), -grid.r, np.zeros(16), t=0.0)
        with pytest.raises(PositivityError) as exc:
            state_from_snapshot(snap, P3)
        assert exc.value.cell == 0

    def test_momentum_past_the_square_overflow(self):
        # mom^2 overflows once |mom| > 1.3e154, while mom (mom / rho) stays representable
        grid = cell_centered_grid(1.0, 4)
        big = np.full(4, 1e304)
        state = ConservedState(grid=grid, rho=big, mom=big, energy=np.full(4, 1e308))
        np.testing.assert_array_equal(state.e_internal_density(), 1e308 - 5e303)
        moments = solver._cell_moments(state.rho, state.mom, state.e_internal_density(), grid.r,
                                       reference_geometry(grid, P3.n)[2], P3.n)
        assert np.isfinite(moments["e_kinetic"]) and moments["e_internal"] > 0.0
        # the kernel's e_int row
        after = step(ConservedState(grid=grid, rho=big, mom=big, energy=np.full(4, 1e307)),
                     SolverConfig(), P3)
        assert np.all(after.e_internal_density() > 0.0)

    @pytest.mark.parametrize("flux, energy", [("rusanov", 1e308), ("hll", 1e307)])
    def test_dense_state_steps_without_flux_overflow(self, flux, energy):
        # Rusanov adds halved fluxes, so (f + f) is never formed; HLL adds
        # sL / (sR - sL) (sR dU - dF) to fL, so sR fL is never formed
        grid = cell_centered_grid(1.0, 16)
        big = np.full(16, 1e304)
        state = ConservedState(grid=grid, rho=big, mom=big, energy=np.full(16, energy))
        after = step(state, SolverConfig(flux=flux), P3)
        assert np.all(np.isfinite(after.energy)) and np.all(after.e_internal_density() > 0.0)

    def test_negative_density_reported(self):
        grid = cell_centered_grid(1.0, 8)
        rho = np.ones(8)
        rho[5] = -0.1
        with pytest.raises(PositivityError) as exc:
            ConservedState(grid=grid, rho=rho, mom=np.zeros(8), energy=np.ones(8))
        assert exc.value.cell == 5

    def test_shape_and_finiteness_checks(self):
        grid = cell_centered_grid(1.0, 8)
        with pytest.raises(InvalidInputError):
            ConservedState(grid=grid, rho=np.ones(7), mom=np.zeros(8), energy=np.ones(8))
        bad = np.ones(8)
        bad[3] = np.nan
        with pytest.raises(InvalidInputError):
            ConservedState(grid=grid, rho=bad, mom=np.zeros(8), energy=np.ones(8))


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
        result = run(uniform_snapshot(cells=40), 0.2, SolverConfig(), P3, out_every=0.1)
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
        result = run(uniform_snapshot(cells=40), 0.2, SolverConfig(flux=flux), params, out_every=0.1)
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
        # run marches the kernel directly; the public step must stay in lockstep, and every
        # output of run must be the hand loop's state at that time, converted by to_snapshot
        snap = balanced_snapshot(balanced_pair, 200, a0=0.3)
        config = SolverConfig(flux=flux)
        state = state_from_snapshot(snap, P3)
        outer_area = sphere_area(P3.n) * reference_geometry(snap.grid, P3.n)[1][-1]
        mass_out = 0.0
        outputs = [(to_snapshot(state), log_row(state, mass_out))]
        for target in targets:
            while state.t < target - 1e-13 * max(1.0, target):
                new = step(state, config, P3, dt_max=target - state.t)
                # zeroth-order outflow: the outer face carries the last cell's own mass flux rho v
                flux_out = state.rho[-1] * (state.mom[-1] / state.rho[-1])
                mass_out += outer_area * flux_out * (new.t - state.t)
                state = new
            outputs.append((to_snapshot(state), log_row(state, mass_out)))
        result = run(snap, 0.5, config, P3, out_every=out_every)
        assert len(result.snapshots) == len(outputs) == len(result.log["t"])
        for k, (got, (want, row)) in enumerate(zip(result.snapshots, outputs)):
            assert got.t == want.t, k
            for name in ("rho", "v", "p"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (k, name)
            assert {key: result.log[key][k] for key in row} == row, k
        final = result.final_state
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


# The kernel as it was written before it moved onto a preallocated
# workspace: fresh arrays per step, the flux and update once per variable,
# and five array checks. It stays here as the reference, so the workspace
# kernel must give the same bits: same states, same t_new, same outer flux.
def _ref_check_positive(rho, e_int, t):
    for what, a in (("density", rho), ("internal energy", e_int)):
        if not np.all(a > 0.0):
            cell = int(np.flatnonzero(~(a > 0.0))[0])
            raise PositivityError(f"{what} nonpositive in cell {cell} at t={t}", cell)


def _ref_with_ghosts(a, first):
    out = np.empty(a.size + 2)
    out[0] = first
    out[1:-1] = a
    out[-1] = a[-1]
    return out


def reference_geometry(grid, n):
    """Cell width h, interface areas r^(n-1) and cell volumes (r+^n - r-^n) / n of a cell-centered grid."""
    h = float(grid.r[1] - grid.r[0])
    edges = np.arange(len(grid) + 1) * h
    return h, edges ** (n - 1), (edges[1:] ** n - edges[:-1] ** n) / n


def reference_advance(rho, mom, en, e_int, t, dt_max, gamma, cfl, flux, h, areas, volumes):
    rho_e = _ref_with_ghosts(rho, rho[0])
    en_e = _ref_with_ghosts(en, en[0])
    v_e = _ref_with_ghosts(mom, -mom[0]) / rho_e
    p_e = (gamma - 1.0) * _ref_with_ghosts(e_int, e_int[0])
    c_e = np.sqrt(gamma * p_e / rho_e)
    speed_e = np.abs(v_e) + c_e
    dt = cfl * h / float(np.max(speed_e))
    if dt_max is not None:
        dt = min(dt, dt_max)

    f_e = (rho_e * v_e, rho_e * v_e**2 + p_e, (en_e + p_e) * v_e)
    u_e = (rho_e, f_e[0], en_e)
    if flux == "rusanov":
        half_s = 0.5 * np.maximum(speed_e[:-1], speed_e[1:])
        f_mass, f_mom, f_en = (
            0.5 * (f[:-1] + f[1:]) - half_s * (u[1:] - u[:-1]) for f, u in zip(f_e, u_e)
        )
    else:
        slow, fast = v_e - c_e, v_e + c_e
        sL = np.minimum(slow[:-1], slow[1:])
        sR = np.maximum(fast[:-1], fast[1:])
        ratio = sL / (sR - sL)
        left, right = sL >= 0.0, sR <= 0.0
        f_mass, f_mom, f_en = (
            np.where(
                left,
                f[:-1],
                np.where(right, f[1:], f[:-1] + ratio * (sR * (u[1:] - u[:-1]) - (f[1:] - f[:-1]))),
            )
            for f, u in zip(f_e, u_e)
        )

    dt_vol = dt / volumes
    p = p_e[1:-1]
    new_rho = rho - dt_vol * (areas[1:] * f_mass[1:] - areas[:-1] * f_mass[:-1])
    new_mom = mom - dt_vol * (areas[1:] * (f_mom[1:] - p) - areas[:-1] * (f_mom[:-1] - p))
    new_en = en - dt_vol * (areas[1:] * f_en[1:] - areas[:-1] * f_en[:-1])

    t_new = t + dt
    for name, arr in (("rho", new_rho), ("mom", new_mom), ("energy", new_en)):
        if not np.all(np.isfinite(arr)):
            i = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise InvalidInputError(f"{name} must be finite, got {arr[i]} at index {i}")
    new_e_int = new_en - 0.5 * (new_mom * (new_mom / new_rho))
    _ref_check_positive(new_rho, new_e_int, t_new)
    return new_rho, new_mom, new_en, new_e_int, t_new, float(f_mass[-1])


def random_case(seed):
    """A seeded state, gas, flux and dt cap: n in 1..5, gamma in (1, 3], 2-64 cells."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    gamma = 3.0 - 2.0 * float(rng.random())
    cells = int(rng.integers(2, 65))
    grid = cell_centered_grid(float(rng.uniform(0.5, 8.0)), cells)
    rho = rng.uniform(0.2, 2.0, cells)
    v = float(rng.uniform(0.0, 2.0)) * rng.uniform(-1.0, 1.0, cells)
    p = rng.uniform(0.2, 2.0, cells)
    params = GasParameters(n=n, gamma=gamma)
    state = state_from_snapshot(FlowSnapshot(grid, rho, v, p, t=float(rng.uniform(0.0, 1.0))), params)
    dt_max = None if rng.random() < 0.5 else float(rng.uniform(1e-5, 1e-2))
    return state, params, SolverConfig(cfl=float(rng.uniform(0.1, 0.9)), flux=("rusanov", "hll")[seed % 2]), dt_max


def reference_steps(state, params, config, dt_max, count):
    args = [state.rho, state.mom, state.energy, state.e_internal_density(), state.t]
    geometry = reference_geometry(state.grid, params.n)
    for _ in range(count):
        *args, flux = reference_advance(*args, dt_max, params.gamma, config.cfl, config.flux, *geometry)
        yield np.array(args[:4]), args[4], flux


def workspace_steps(state, params, config, dt_max, count):
    ws = solver._Workspace(state, config, params)
    t = state.t
    for _ in range(count):
        t, flux = solver._advance(ws, t, dt_max)
        yield ws.cur[:, 1:-1].copy(), t, flux


def march(steps):
    """Bits of each (state rows, t_new, outer flux) a kernel produced, then its error if it raised."""
    records = []
    try:
        for rows, t, flux in steps:
            records.append(([row.tobytes() for row in rows], float(t).hex(), flux.hex()))
    except (InvalidInputError, PositivityError) as exc:
        records.append((type(exc), str(exc), getattr(exc, "cell", None)))
    return records


def rippled_flow(edge_v, cells=48):
    """Seeded ripples of up to 10% on rho = 1, v = edge_v r, p = 1 (gamma 1.4, c near 1.2), n = 3 on [0, 1].

    The flow is at rest at the origin and reaches edge_v at the outer edge. No
    two cells agree, so at every face HLL's formula and its upwind flux differ.
    """
    rng = np.random.default_rng(11)
    ripple = lambda: 1.0 + 0.1 * rng.random(cells)
    grid = cell_centered_grid(1.0, cells)
    snap = FlowSnapshot(grid, ripple(), edge_v * grid.r * ripple(), ripple(), t=0.0)
    return snap, GasParameters(n=3, gamma=1.4)


class TestWorkspaceKernel:
    @pytest.mark.parametrize("edge_v, left_going, right_going", [(3.0, True, False), (-3.0, False, True),
                                                                 (0.5, False, False)],
                             ids=["supersonic-outflow", "supersonic-inflow", "subsonic"])
    def test_hll_upwind_copies_match_reference_bitwise(self, edge_v, left_going, right_going):
        # the kernel runs each upwind copy only when some face needs it: the left-state flux where
        # sL >= 0, the right-state one where sR <= 0; every case must keep the reference's bits
        snap, params = rippled_flow(edge_v)
        c = np.sqrt(params.gamma * snap.p / snap.rho)
        slow, fast = snap.v - c, snap.v + c
        sL, sR = np.minimum(slow[:-1], slow[1:]), np.maximum(fast[:-1], fast[1:])  # interior faces
        assert bool(np.any(sL >= 0.0)) == left_going and bool(np.any(sR <= 0.0)) == right_going
        state = state_from_snapshot(snap, params)
        config = SolverConfig(flux="hll")
        expected = march(reference_steps(state, params, config, None, 20))
        got = march(workspace_steps(state, params, config, None, 20))
        assert all(isinstance(record[0], list) for record in expected)  # 20 steps, none raised
        for k, (a, b) in enumerate(zip(got, expected, strict=True)):
            assert a == b, k

    @pytest.mark.parametrize("seed", range(32))
    def test_matches_reference_kernel_bitwise(self, seed):
        state, params, config, dt_max = random_case(seed)
        expected = march(reference_steps(state, params, config, dt_max, 20))
        got = march(workspace_steps(state, params, config, dt_max, 20))
        # every step's record, and the error when the reference raised:
        # a mismatch that later heals must fail too
        assert len(got) == len(expected)
        for k, (a, b) in enumerate(zip(got, expected)):
            assert a == b, k

    @pytest.mark.parametrize("flux", solver.FLUX_CHOICES)
    def test_steps_allocate_no_array(self, balanced_pair, traced_peak, flux):
        state = state_from_snapshot(balanced_snapshot(balanced_pair, 1000, a0=0.3), P3)
        ws = solver._Workspace(state, SolverConfig(flux=flux), P3)
        t, _ = solver._advance(ws, 0.0, None)  # warm-up

        def fifty_steps():
            s = t
            for _ in range(50):
                s, _ = solver._advance(ws, s, None)

        assert traced_peak(fifty_steps) < 1000 * 8  # less than one cell-length array

    def test_snapshots_own_their_memory(self, balanced_pair):
        # the kernel reuses its buffers, so every output must be a copy
        snap = balanced_snapshot(balanced_pair, 64, a0=0.3)
        result = run(snap, 0.2, SolverConfig(flux="hll"), P3, out_every=0.1)
        alone = run(snap, 0.1, SolverConfig(flux="hll"), P3).snapshots[-1]
        first = result.snapshots[1]
        assert first.t == alone.t
        for name in ("rho", "v", "p"):
            assert getattr(first, name).tobytes() == getattr(alone, name).tobytes()
        final = result.final_state
        arrays = [a for s in result.snapshots for a in (s.rho, s.v, s.p)]
        arrays += [final.rho, final.mom, final.energy]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


GASES = st.builds(GasParameters, n=st.integers(1, 5), gamma=st.floats(1.0, 3.0, exclude_min=True))
LEVELS = st.floats(1e-3, 1e3)  # a density or pressure scale


@st.composite
def uniform_states(draw):
    """A gas at rest on 2-63 cells of [0, r_max], r_max in [0.1, 10]."""
    params, cells = draw(GASES), draw(st.integers(2, 63))
    ones = np.ones(cells)
    snap = FlowSnapshot(cell_centered_grid(draw(st.floats(0.1, 10.0)), cells),
                        draw(LEVELS) * ones, 0.0 * ones, draw(LEVELS) * ones, t=0.0)
    return state_from_snapshot(snap, params), params


TABLE_U = np.linspace(0.0, 10.0, 400)
SHAPES = st.sampled_from([GaussianShape(), TabulatedShape(TABLE_U, np.exp(-(TABLE_U**2) / 2.0))])


@st.composite
def deforming_pairs(draw):
    """A balanced pair of either shape under v = a0 r, on 2-63 cells of [0, 8 width]."""
    params, cells, width = draw(GASES), draw(st.integers(2, 63)), draw(st.floats(0.1, 10.0))
    pair = build_balanced_profiles(draw(SHAPES), params, draw(LEVELS), width=width)
    grid = cell_centered_grid(8.0 * width, cells)
    r = grid.r
    snap = FlowSnapshot(grid, pair.eval_rho0(r), draw(st.floats(-1.0, 1.0)) * r, pair.eval_p0(r), t=0.0)
    return snap, params, draw(st.floats(0.01, 0.5)), draw(st.sampled_from(solver.FLUX_CHOICES))


class TestRandomizedInvariants:
    # derandomized, with no example database: every run draws the same cases

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=uniform_states())
    def test_step_keeps_a_uniform_state_bitwise(self, case):
        state, params = case
        for flux in solver.FLUX_CHOICES:
            new = step(state, SolverConfig(flux=flux), params)
            for name in ("rho", "mom", "energy"):
                assert getattr(new, name).tobytes() == getattr(state, name).tobytes(), (flux, name)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(case=deforming_pairs())
    def test_run_closes_its_mass_audit(self, case):
        snap, params, t_end, flux = case
        log = run(snap, t_end, SolverConfig(flux=flux), params).log
        drift = abs(log["mass"][-1] + log["mass_out"][-1] - log["mass"][0]) / log["mass"][0]
        assert drift < 1e-14


def overflowing_state():
    grid = cell_centered_grid(1.0, 8)
    energy = np.ones(8)
    energy[4] = 1e308
    return ConservedState(grid=grid, rho=np.ones(8), mom=np.zeros(8), energy=energy)


class TestFailurePaths:
    # a failed kernel proof falls back to the checks that name the array
    # and the cell; these pin what those checks report
    @pytest.mark.parametrize("flux, name", [("rusanov", "energy"), ("hll", "energy")])
    def test_overflow_names_the_array(self, flux, name):
        state = overflowing_state()
        message = f"{name} must be finite, got inf at index 3"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                step(state, SolverConfig(flux=flux), P3)
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                run(to_snapshot(state), 0.1, SolverConfig(flux=flux), P3)

    def test_energy_overflow_alone_is_caught(self):
        # fast inflow through the outer edge piles energy into the last cells
        # until, in the fifth step, the last cell's own energy flux (E + p) v
        # overflows; the energy of the last two cells turns inf and NaN while
        # rho and mom stay finite everywhere
        grid = cell_centered_grid(1.0, 8)
        rho, v, p = np.ones(8), np.zeros(8), np.ones(8)
        rho[7], v[7], p[7] = 2.4e71, -1e79, 1.7e223
        params = GasParameters(n=3, gamma=1.4)
        state = state_from_snapshot(FlowSnapshot(grid, rho, v, p, t=0.0), params)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="^energy must be finite, got inf at index 6$"):
                for steps in range(1, 11):
                    state = step(state, SolverConfig(), params)
        assert steps == 5

    def test_kinetic_overflow_names_the_cell(self):
        # v^2 overflows before the energy is formed: the message names the
        # cell and its velocity, and no numpy RuntimeWarning escapes
        grid = cell_centered_grid(1.0, 8)
        v = np.zeros(8)
        v[2] = 1e200
        snap = FlowSnapshot(grid, np.ones(8), v, np.ones(8), t=0.0)
        message = r"^kinetic energy overflows in cell 2 \(v = 9.9999999999999997e\+199\)$"
        with pytest.raises(InvalidInputError, match=message):
            state_from_snapshot(snap, P3)

    def test_internal_energy_overflow_names_the_cell(self):
        # p / (gamma - 1) overflows although p is finite: the message names the
        # cell and its pressure, and no numpy RuntimeWarning escapes
        grid = cell_centered_grid(1.0, 4)
        p = np.ones(4)
        p[1] = 1e308
        snap = FlowSnapshot(grid, np.ones(4), np.zeros(4), p, t=0.0)
        message = r"^energy overflows in cell 1 \(p = 1e\+308\)$"
        with pytest.raises(InvalidInputError, match=message):
            state_from_snapshot(snap, GasParameters(n=3, gamma=1.4))

    def test_step_budget(self, monkeypatch):
        # a uniform state keeps its CFL step, about 0.5 / 17.5, so the first step projects past 3
        monkeypatch.setattr(solver, "MAX_STEPS", 3)
        with pytest.raises(StepBudgetError) as excinfo:
            run(uniform_snapshot(), 0.5, SolverConfig(), P3)
        e = excinfo.value
        assert isinstance(e, GasmomentsError)  # the CLI's exit 1
        assert e.steps == 1 and 0.0 < e.t < 0.5
        left = (0.5 - e.t) / e.t  # the first step is a whole CFL step
        assert str(e) == (f"step budget 3 cannot reach t_end=0.5: at t={e.t:.6g} "
                          f"the CFL step {e.t:.6g} leaves {left:.6g} steps")

    def test_budget_is_judged_at_the_cfl_step(self, monkeypatch):
        # out_every just past the CFL step makes every other step a clip of about 3e-8; judged at
        # that dt the first clipped step would project 1e7 steps, judged at the CFL dt the run
        # fits a budget of exactly the steps it takes
        dt_cfl = run(uniform_snapshot(), 0.5, SolverConfig(), P3).stats.dt_max
        full = run(uniform_snapshot(), 0.5, SolverConfig(), P3, out_every=dt_cfl * (1.0 + 1e-6))
        assert full.stats.clipped_steps > 10 and full.stats.dt_min < 1e-6 * dt_cfl * 1.01
        monkeypatch.setattr(solver, "MAX_STEPS", full.stats.steps)
        budgeted = run(uniform_snapshot(), 0.5, SolverConfig(), P3, out_every=dt_cfl * (1.0 + 1e-6))
        assert budgeted.stats == full.stats

    @pytest.mark.parametrize("t_end, cfl, gamma", [
        # a numpy t_end: its remaining steps overflow a float without a warning
        (np.float64(1e308), 0.45, 1.4),
        (1.0, 1e-308, 1.4),  # a CFL step of 1e-309, a subnormal
        (1.0, 0.45, 1e307),  # sound speed 3e153
        (1.0, 1e-308, 1e307),  # a CFL step that underflows to 0: the step leaves t where it was
    ])
    def test_run_that_cannot_finish_stops_at_its_first_step(self, t_end, cfl, gamma):
        grid = cell_centered_grid(1.0, 8)
        snap = FlowSnapshot(grid, np.ones(8), np.zeros(8), np.ones(8), t=0.0)
        with pytest.raises(StepBudgetError) as excinfo:
            run(snap, t_end, SolverConfig(cfl=cfl), GasParameters(n=3, gamma=gamma))
        assert str(excinfo.value).startswith(f"step budget 2000000 cannot reach t_end={float(t_end)}: at t=")
        assert excinfo.value.steps == 1

    @pytest.mark.parametrize("t0, t_end", [(1000.0, 1000.0 + 1e-11), (0.0, 1e-11)])
    def test_a_short_run_far_from_t_0_steps_to_t_end(self, t0, t_end):
        # "reached" is judged on the run's length, not on |t_end|: from t = 1000 a run of 1e-11
        # used to take no step and emit the start state twice
        snap = FlowSnapshot(cell_centered_grid(1.0, 16), np.ones(16), np.zeros(16), np.ones(16), t=t0)
        result = run(snap, t_end, SolverConfig(), P3)
        assert result.stats.steps == 1
        assert [s.t for s in result.snapshots] == [t0, t_end]

    def test_a_step_that_leaves_t_unchanged_stops_the_run(self):
        # at t = 1e16 a float moves in steps of 2, so the CFL step 0.0218 leaves t where it was
        t0 = 1e16
        snap = FlowSnapshot(cell_centered_grid(1.0, 16), np.ones(16), np.zeros(16), np.ones(16), t=t0)
        with pytest.raises(StepBudgetError) as excinfo:
            run(snap, t0 + 4.0, SolverConfig(), P3)
        assert (excinfo.value.t, excinfo.value.steps) == (t0, 1)
        assert str(excinfo.value) == (f"step budget 2000000 cannot reach t_end={t0 + 4.0}: at t=1e+16 the CFL "
                                      "step 0.0217855 leaves inf steps")


class TestOutputSchedule:
    def test_no_output_past_t_end(self):
        # the 12-decimal rounding of a target used to land it past t_end
        t_end = 0.1234567890126
        result = run(uniform_snapshot(cells=16), t_end, SolverConfig(), P3,
                     out_every=t_end)
        assert [s.t for s in result.snapshots] == [0.0, t_end]
        assert list(result.log["t"]) == [0.0, t_end]

    def test_no_output_at_t_end_twice(self):
        # 0.1 * 3 rounds to 0.3, which the march counts as reached at
        # t_end = 0.30000000000000004: t_end used to be logged twice
        t_end = 0.30000000000000004
        result = run(uniform_snapshot(cells=16), t_end, SolverConfig(), P3,
                     out_every=0.1)
        assert list(result.log["t"]) == [0.0, 0.1, 0.2, t_end]
        assert len(result.snapshots) == 4

    @pytest.mark.parametrize("out_every", [1e-13, 1e-320])
    def test_output_count_beyond_budget_rejected(self, out_every):
        # used to ask np.arange for terabytes, or overflow int()
        with pytest.raises(ParameterError, match="more than the step budget 2000000$"):
            run(uniform_snapshot(cells=16), 0.5, SolverConfig(), P3,
                out_every=out_every)

    def test_nan_interval_rejected(self):
        with pytest.raises(ParameterError, match="out_every must be positive"):
            run(uniform_snapshot(cells=16), 0.5, SolverConfig(), P3,
                out_every=float("nan"))

    def test_ordinary_targets_pinned(self, balanced_pair):
        result = run(balanced_snapshot(balanced_pair, 100), 0.5, SolverConfig(), P3, out_every=0.1)
        assert [t.hex() for t in result.log["t"]] == [
            "0x0.0p+0", "0x1.999999999999ap-4", "0x1.999999999999ap-3",
            "0x1.3333333333333p-2", "0x1.999999999999ap-2", "0x1.0000000000000p-1",
        ]

    def test_a_fine_interval_keeps_its_multiples(self):
        # rounded to 12 decimals, the multiples of 1.5e-12 used to read 2e-12, 3e-12, 5e-12, 6e-12, 8e-12; the
        # rounding does not depend on t_end, so this horizon (67 times) begins as one of 1e-6 (666,667 times) does
        assert solver._output_times(0.0, 1e-10, 1.5e-12)[:5] == [1.5e-12, 3e-12, 4.5e-12, 6e-12, 7.5e-12]

    @pytest.mark.parametrize("out_every, t_end", [
        (0.1, 0.5), (0.05, 0.4), (0.05, 100.0), (0.01, 100.0), (0.25, 10.0), (1.0 / 30.0, 2.0),
        (0.02846049894151542 * (1.0 + 1e-6), 0.5),  # test_budget_is_judged_at_the_cfl_step's
    ])
    def test_schedules_from_out_every_0_01_up_keep_their_bits(self, out_every, t_end):
        # there the rounding is to the 12 decimals it always was; 12 - floor(log10(out_every)) decimals
        # would move the bits of (0.05, 100) and (0.01, 100)
        times = np.round(np.arange(1, int(t_end / out_every) + 1) * out_every, 12).tolist()
        assert solver._output_times(0.0, t_end, out_every) == [t for t in times if t < t_end - 1e-13] + [t_end]

    def test_an_interval_within_the_reach_tolerance_is_rejected_before_the_march(self, monkeypatch):
        # run counts a target within 1e-13 max(1, t_end - t0) of its clock as reached: at out_every = 6e-14 the
        # first one was reached at t0, the start state was emitted twice, and the log's axis check failed after
        # the whole run; the kernel is never called now
        monkeypatch.setattr(solver, "_advance", None)
        with pytest.raises(ParameterError, match=r"^out_every must be greater than 1e-13, got 6e-14$"):
            run(uniform_snapshot(cells=16), 1e-12, SolverConfig(), P3, out_every=6e-14)

    def test_a_schedule_whose_rounding_would_overflow_keeps_its_multiples(self):
        # np.round(times, 12) forms times * 1e12, which overflows past 1.8e296: it warned and dropped all
        # nine multiples, returning [t_end]
        t0, t_end = 1e300, 1.00001e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times = solver._output_times(t0, t_end, 1e294)
        assert times == [t0 + k * 1e294 for k in range(1, 10)] + [t_end]

    @pytest.mark.parametrize("out_every", [None, 0.1])
    def test_times_are_python_floats(self, balanced_pair, out_every):
        result = run(balanced_snapshot(balanced_pair, 50), 0.3, SolverConfig(), P3, out_every=out_every)
        assert [type(s.t) for s in result.snapshots] == [float] * len(result.snapshots)
        assert type(result.final_state.t) is float


class TestRunStats:
    def test_counters_match_a_hand_loop(self, balanced_pair):
        snap = balanced_snapshot(balanced_pair, 200, a0=0.3)
        stats = run(snap, 0.5, SolverConfig(), P3, out_every=0.1).stats
        state = state_from_snapshot(snap, P3)
        rho_min, e_int_min = state.rho.min(), state.e_internal_density().min()
        steps, dts = 0, []
        for target in (0.1, 0.2, 0.3, 0.4, 0.5):
            while state.t < target - 1e-13 * max(1.0, target):
                new = step(state, SolverConfig(), P3, dt_max=target - state.t)
                dts.append(new.t - state.t)
                rho_min = min(rho_min, new.rho.min())
                e_int_min = min(e_int_min, new.e_internal_density().min())
                state, steps = new, steps + 1
        assert (stats.steps, stats.clipped_steps) == (steps, 5) == (130, 5)
        assert stats.rho_min == rho_min and stats.e_int_min == e_int_min
        assert stats.dt_max >= stats.dt_min > 0.0
        assert stats.dt_min == pytest.approx(min(dts), rel=1e-9)
        assert stats.dt_max == pytest.approx(max(dts), rel=1e-9)

    def test_zero_horizon(self, balanced_pair):
        snap = balanced_snapshot(balanced_pair, 64)
        stats = run(snap, 0.0, SolverConfig(), P3).stats
        assert (stats.steps, stats.clipped_steps) == (0, 0)
        assert np.isnan(stats.dt_min) and np.isnan(stats.dt_max)
        assert stats.rho_min == snap.rho.min()
        assert stats.mass_audit_max == 0.0

    @pytest.mark.parametrize("flux", solver.FLUX_CHOICES)
    def test_mass_audit_max_is_read_off_the_log(self, balanced_pair, flux):
        result = run(balanced_snapshot(balanced_pair, 100, a0=0.3), 0.5, SolverConfig(flux=flux), P3, out_every=0.1)
        log = result.log
        rows = [abs(m + out - log["mass"][0]) / log["mass"][0] for m, out in zip(log["mass"], log["mass_out"])]
        assert len(rows) == 6
        assert result.stats.mass_audit_max == max(rows)
        assert 0.0 < result.stats.mass_audit_max < 1e-13


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

    def test_nonuniform_grid_rejected(self):
        grid = RadialGrid(np.array([0.0, 1.0, 3.0, 4.0]))
        snaps = [FlowSnapshot(grid, np.ones(4), np.zeros(4), np.ones(4), t=0.1 * k) for k in range(3)]
        with pytest.raises(InvalidInputError, match="^pde_residual needs a uniform grid$"):
            pde_residual(snaps, P3)

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
