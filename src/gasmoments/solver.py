"""Radially symmetric finite-volume solver for inviscid compressible flow.

The solver exists to cross-validate the exact-solution machinery, so it
stays deliberately simple: first-order Godunov-type fluxes (Rusanov or
HLL) on a uniform cell-centered grid, with the radial geometry carried
by exact interface areas A = r^(n-1) and cell volumes V = (r+^n - r-^n)/n
per unit solid angle. The momentum source uses the discrete well-balanced
grouping p_i (A+ - A-) / V_i, which is the (n-1) p / r_src form with
r_src = (n-1)(r+^n - r-^n) / (n (r+^(n-1) - r-^(n-1))). Grouped this way,
and with flux forms that return f exactly for two equal states (Rusanov's
f_L/2 + f_R/2, HLL's f_L + s_L/(s_R - s_L) (s_R dU - df)), a uniform state
is preserved bitwise. The boundaries are fixed: reflective at the origin
and zeroth-order outflow at the outer edge.

Interior updates telescope, so total mass changes only by the outer
boundary flux; `run` tracks that flux so conservation can be audited to
roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    _fmt,
    _freeze_samples,
    sphere_area,
)

__all__ = [
    "PositivityError",
    "ConservedState",
    "SolverConfig",
    "RunResult",
    "RunStats",
    "ResidualReport",
    "cell_centered_grid",
    "state_from_snapshot",
    "state_to_snapshot",
    "step",
    "run",
    "pde_residual",
]

FLUX_CHOICES = ("rusanov", "hll")


class PositivityError(RuntimeError):
    """Density or internal energy lost positivity; carries the cell index."""

    def __init__(self, message: str, cell: int):
        super().__init__(message)
        self.cell = cell


def _check_positive(what: str, a: np.ndarray, t: float) -> None:
    if not np.all(a > 0.0):
        cell = int(np.flatnonzero(~(a > 0.0))[0])
        raise PositivityError(f"{what} nonpositive in cell {cell} at t={t}", cell)


def cell_centered_grid(r_max: float, cells: int) -> RadialGrid:
    """Uniform finite-volume grid: centers (i + 1/2) h, interfaces at i h."""
    if cells < 2:
        raise ParameterError(f"need at least 2 cells, got {cells}")
    h = r_max / cells
    return RadialGrid((np.arange(cells) + 0.5) * h, r_max=r_max)


def _require_cell_centered(grid: RadialGrid) -> float:
    r = grid.r
    h = float(r[1] - r[0])
    if np.max(np.abs(np.diff(r) - h)) > 1e-9 * h or abs(r[0] - 0.5 * h) > 1e-9 * h:
        raise InvalidInputError(
            "solver needs a uniform cell-centered grid; build one with cell_centered_grid"
        )
    return h


@dataclass(frozen=True)
class ConservedState:
    """Cell averages of (rho, rho v, E) with E = rho v^2/2 + p/(gamma-1)."""

    grid: RadialGrid
    rho: np.ndarray
    mom: np.ndarray
    energy: np.ndarray
    gamma: float
    t: float = 0.0

    def __post_init__(self):
        _freeze_samples(self, ("rho", "mom", "energy"), self.grid)
        # density first: e_internal_density divides by it
        _check_positive("density", self.rho, self.t)
        _check_positive("internal energy", self.e_internal_density(), self.t)

    def velocity(self) -> np.ndarray:
        return self.mom / self.rho

    def e_internal_density(self) -> np.ndarray:
        return self.energy - 0.5 * (self.mom * (self.mom / self.rho))

    def pressure(self) -> np.ndarray:
        return (self.gamma - 1.0) * self.e_internal_density()


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.45
    flux: str = "rusanov"

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ParameterError(f"cfl must be in (0, 1), got {self.cfl}")
        if self.flux not in FLUX_CHOICES:
            raise ParameterError(f"flux must be one of {FLUX_CHOICES}, got {self.flux!r}")


def state_from_snapshot(snapshot: FlowSnapshot, params: GasParameters) -> ConservedState:
    _require_cell_centered(snapshot.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = 0.5 * snapshot.rho * snapshot.v**2
        energy = kinetic + snapshot.p / (params.gamma - 1.0)
    if not np.all(np.isfinite(kinetic)):
        cell = int(np.flatnonzero(~np.isfinite(kinetic))[0])
        raise InvalidInputError(f"kinetic energy overflows in cell {cell} (v = {_fmt(snapshot.v[cell])})")
    if not np.all(np.isfinite(energy)):
        cell = int(np.flatnonzero(~np.isfinite(energy))[0])
        raise InvalidInputError(f"energy overflows in cell {cell} (p = {_fmt(snapshot.p[cell])})")
    return ConservedState(
        grid=snapshot.grid,
        rho=snapshot.rho,
        mom=snapshot.rho * snapshot.v,
        energy=energy,
        gamma=params.gamma,
        t=snapshot.t,
    )


def state_to_snapshot(state: ConservedState) -> FlowSnapshot:
    return FlowSnapshot(state.grid, state.rho, state.velocity(), state.pressure(), t=state.t)


def _geometry(grid: RadialGrid, n: int):
    """Cell width, interface areas and cell volumes per unit solid angle."""
    h = _require_cell_centered(grid)
    edges = np.arange(len(grid) + 1) * h
    areas = edges ** (n - 1)
    volumes = (edges[1:] ** n - edges[:-1] ** n) / n
    return h, areas, volumes


class _Workspace:
    """Buffers that one run's kernel reuses on every step, and its counters.

    cur and nxt are ghost-extended (4, N+2) states with rows rho, mom,
    energy and e_int; `_advance` reads cur, writes the interior of nxt and
    swaps the two. cell (with ghosts), face (per interface) and inner (per
    cell) rows are scratch written with out=. The counters feed `RunStats`.
    """

    def __init__(self, state: ConservedState, config: SolverConfig, h, areas, volumes):
        cells, e_int = len(state.grid), state.e_internal_density()
        self.cur = np.empty((4, cells + 2))
        self.nxt = np.empty((4, cells + 2))
        self.cur[:, 1:-1] = (state.rho, state.mom, state.energy, e_int)
        self.cell = np.empty((9, cells + 2))
        self.face = np.empty((7, cells + 1))
        self.inner = np.empty((3, cells))
        self.left, self.right = np.empty((2, cells + 1), dtype=bool)
        self.grid, self.gamma, self.cfl, self.hll = state.grid, state.gamma, config.cfl, config.flux == "hll"
        self.h, self.areas, self.volumes = h, areas, volumes
        self.steps = self.clipped = 0
        self.dt_min, self.dt_max = math.inf, 0.0
        self.rho_min, self.e_int_min = float(state.rho.min()), float(e_int.min())


def _advance(ws: _Workspace, t: float, dt_limit: Optional[float]):
    """One explicit finite-volume update of ws.cur, with CFL-limited dt.

    Returns (t_new, outer_mass_flux), the last being the mass flux the
    update applied at the outer interface; ws.cur holds the new state
    afterwards. A new state that is non-finite or loses positivity is
    handed to ConservedState, whose checks raise. Nothing is allocated: each
    formula writes into the workspace, in the operation order that fixes
    its bits.

    Ghost cells: mirrored state with antisymmetric velocity at the origin
    (the r = 0 interface carries zero area anyway), zeroth-order
    extrapolation at the outer edge. Every per-cell quantity is computed
    once on the ghost-extended rows; interface i reads cells i and i+1.
    """
    cur, nxt = ws.cur, ws.nxt
    cur[:, 0] = cur[:, 1]
    cur[1, 0] = -cur[1, 0]
    cur[:, -1] = cur[:, -2]
    rho_e, mom_e, en_e, e_int_e = cur
    v, p, c, speed, f_mass, f_mom, f_en, slow, fast = ws.cell
    np.divide(mom_e, rho_e, out=v)
    np.multiply(ws.gamma - 1.0, e_int_e, out=p)
    np.sqrt(np.divide(np.multiply(ws.gamma, p, out=c), rho_e, out=c), out=c)
    np.add(np.abs(v, out=speed), c, out=speed)
    # the ghosts repeat cell values, so this is the maximum over the cells
    dt_cfl = ws.cfl * ws.h / float(speed.max())
    dt = dt_cfl if dt_limit is None else min(dt_cfl, dt_limit)

    # physical fluxes; the mass flux rho v is also the momentum density
    np.multiply(rho_e, v, out=f_mass)
    np.add(np.multiply(rho_e, np.multiply(v, v, out=f_mom), out=f_mom), p, out=f_mom)
    np.multiply(np.add(en_e, p, out=f_en), v, out=f_en)
    F_mass, F_mom, F_en, tmp, sL, sR, ratio = ws.face
    terms = ((f_mass, rho_e, F_mass), (f_mom, f_mass, F_mom), (f_en, en_e, F_en))
    if not ws.hll:
        half_s = np.multiply(0.5, np.maximum(speed[:-1], speed[1:], out=sL), out=sL)
        for f, u, F in terms:
            half_f = np.multiply(0.5, f, out=slow)  # f/2 + f/2: the bits of (f + f)/2, and no overflow
            np.add(half_f[:-1], half_f[1:], out=F)
            F -= np.multiply(half_s, np.subtract(u[1:], u[:-1], out=tmp), out=tmp)
    else:
        # HLL with simple two-wave speed estimates: the formula everywhere,
        # then the upwind flux where both waves run the same way
        np.subtract(v, c, out=slow)
        np.add(v, c, out=fast)
        np.minimum(slow[:-1], slow[1:], out=sL)
        np.maximum(fast[:-1], fast[1:], out=sR)
        np.divide(sL, np.subtract(sR, sL, out=ratio), out=ratio)
        np.greater_equal(sL, 0.0, out=ws.left)
        np.less_equal(sR, 0.0, out=ws.right)
        for f, u, F in terms:
            # fL + sL / (sR - sL) (sR dU - dF): exactly fL where the states agree
            np.multiply(sR, np.subtract(u[1:], u[:-1], out=F), out=F)
            F -= np.subtract(f[1:], f[:-1], out=tmp)
            F *= ratio
            F += f[:-1]
            np.copyto(F, f[1:], where=ws.right)
            np.copyto(F, f[:-1], where=ws.left)

    dt_vol, div, div2 = ws.inner
    np.divide(dt, ws.volumes, out=dt_vol)
    areas = ws.areas
    rho, mom, en, e_int = nxt[:, 1:-1]
    # mass and energy: (A F)[1:] - (A F)[:-1] has the bits of A+ F+ - A- F-
    for F, old, new in ((F_mass, rho_e, rho), (F_en, en_e, en)):
        np.multiply(areas, F, out=tmp)
        np.multiply(dt_vol, np.subtract(tmp[1:], tmp[:-1], out=div), out=div)
        np.subtract(old[1:-1], div, out=new)
    # pressure part of the momentum divergence is not geometric; folding
    # p_i into each interface term makes uniform states cancel bitwise
    np.multiply(areas[1:], np.subtract(F_mom[1:], p[1:-1], out=div), out=div)
    div -= np.multiply(areas[:-1], np.subtract(F_mom[:-1], p[1:-1], out=div2), out=div2)
    np.subtract(mom_e[1:-1], np.multiply(dt_vol, div, out=div), out=mom)
    # mom (mom / rho), not mom^2 / rho: mom^2 overflows once |mom| > 1.3e154
    np.multiply(0.5, np.multiply(mom, np.divide(mom, rho, out=e_int), out=e_int), out=e_int)
    np.subtract(en, e_int, out=e_int)

    # one proof for all five checks: e_int = en - mom (mom / rho) / 2 is finite
    # and positive only if mom and en are finite, and NaN fails every
    # comparison; on failure ConservedState's checks name the array and cell,
    # and its e_internal_density has the bits of the e_int row
    t_new = t + dt
    rho_min, e_int_min = rho.min(), e_int.min()
    if not (rho_min > 0.0 and e_int_min > 0.0 and rho.max() < math.inf and e_int.max() < math.inf):
        ConservedState(grid=ws.grid, rho=rho, mom=mom, energy=en, gamma=ws.gamma, t=t_new)

    ws.steps += 1
    if dt < dt_cfl:
        ws.clipped += 1
    ws.dt_min, ws.dt_max = min(ws.dt_min, dt), max(ws.dt_max, dt)
    ws.rho_min, ws.e_int_min = min(ws.rho_min, rho_min), min(ws.e_int_min, e_int_min)
    ws.cur, ws.nxt = nxt, cur
    return t_new, float(F_mass[-1])


def step(
    state: ConservedState,
    config: SolverConfig,
    params: GasParameters,
    *,
    dt_max: Optional[float] = None,
) -> ConservedState:
    """One explicit finite-volume update with CFL-limited dt.

    A thin wrapper over the array kernel that `run` marches with.
    """
    if abs(state.gamma - params.gamma) > 1e-12:
        raise ParameterError("state and params disagree on gamma")
    h, areas, volumes = _geometry(state.grid, params.n)
    ws = _Workspace(state, config, h, areas, volumes)
    t, _ = _advance(ws, state.t, dt_max)
    rho, mom, en, _ = ws.cur[:, 1:-1]
    return ConservedState(grid=state.grid, rho=rho, mom=mom, energy=en, gamma=state.gamma, t=t)


@dataclass(frozen=True)
class RunStats:
    """Counters of one `run`: steps, the dt range (nan without a step), how
    many steps an output time clipped, and the positivity margin, the
    smallest rho and e_int of any state the run passed, the initial one too.
    """

    steps: int
    dt_min: float
    dt_max: float
    clipped_steps: int
    rho_min: float
    e_int_min: float


@dataclass
class RunResult:
    """Snapshot series plus the conservation audit trail.

    log holds per-output-time columns; mass_out is the cumulative mass
    carried through the outer boundary (same normalization as log mass).
    """

    snapshots: list
    log: dict
    final_state: ConservedState
    stats: RunStats


def _cell_moments(state: ConservedState, params: GasParameters, volumes: np.ndarray) -> dict:
    omega = sphere_area(params.n)
    rho, mom, en = state.rho, state.mom, state.energy
    e_k = 0.5 * (mom * (mom / rho))
    r = state.grid.r
    return {
        "mass": omega * float(np.sum(volumes * rho)),
        "e_kinetic": omega * float(np.sum(volumes * e_k)),
        "e_internal": omega * float(np.sum(volumes * (en - e_k))),
        "G": omega * float(np.sum(volumes * rho * 0.5 * r**2)),
    }


def run(
    initial: FlowSnapshot,
    t_end: float,
    config: SolverConfig,
    params: GasParameters,
    *,
    out_every: Optional[float] = None,
    max_steps: int = 2_000_000,
) -> RunResult:
    """March to t_end, emitting snapshots and a conservation log.

    Output falls at the multiples of out_every strictly between the
    initial time and t_end, plus t_end (just t_end when out_every is None);
    a multiple within 1e-13 of t_end counts as t_end. dt is clipped so
    outputs are hit exactly. The initial state is always emitted, and is
    the only output when t_end is the initial time. An out_every that asks
    for more outputs than max_steps is a ParameterError, since each output
    takes at least one step.
    """
    if t_end < initial.t:
        raise ParameterError(f"t_end={t_end} precedes the initial time {initial.t}")
    state = state_from_snapshot(initial, params)
    h, areas, volumes = _geometry(state.grid, params.n)
    omega = sphere_area(params.n)

    targets = [t_end] if t_end > initial.t else []
    if out_every is not None:
        if not out_every > 0.0:
            raise ParameterError(f"out_every must be positive, got {out_every}")
        count = (t_end - initial.t) / out_every
        if count > max_steps:
            raise ParameterError(
                f"out_every={out_every} asks for {count:.6g} outputs, more than max_steps={max_steps}"
            )
        times = np.round(initial.t + np.arange(1, int(count) + 1) * out_every, 12)
        # keep a time only if the loop below still steps from it to t_end
        inside = times[(times > initial.t) & (times < t_end - 1e-13 * max(1.0, t_end))]
        targets = sorted(set(inside.tolist()) | set(targets))

    snapshots = [state_to_snapshot(state)]
    log_rows = []
    mass_out = 0.0

    def emit(s):
        row = {"t": s.t, **_cell_moments(s, params, volumes), "mass_out": mass_out}
        log_rows.append(row)

    emit(state)
    grid, gamma, t = state.grid, state.gamma, state.t
    ws = _Workspace(state, config, h, areas, volumes)
    for target in targets:
        while t < target - 1e-13 * max(1.0, target):
            if ws.steps >= max_steps:
                raise RuntimeError(f"step budget {max_steps} exhausted at t={t}")
            t_old = t
            t, f_outer = _advance(ws, t, target - t)
            # outer-boundary mass flux, for the conservation audit; t - t_old
            # is not always the dt the kernel took
            mass_out += omega * areas[-1] * f_outer * (t - t_old)
        rho, mom, en, _ = ws.cur[:, 1:-1]
        state = ConservedState(grid=grid, rho=rho, mom=mom, energy=en, gamma=gamma, t=t)
        snapshots.append(state_to_snapshot(state))
        emit(state)

    log = {key: np.array([row[key] for row in log_rows]) for key in log_rows[0]}
    dt_min, dt_max = (float(ws.dt_min), float(ws.dt_max)) if ws.steps else (math.nan, math.nan)
    stats = RunStats(ws.steps, dt_min, dt_max, ws.clipped, float(ws.rho_min), float(ws.e_int_min))
    return RunResult(snapshots=snapshots, log=log, final_state=state, stats=stats)


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm interior residuals of the two transport identities."""

    continuity: float
    pressure: float
    continuity_profile: np.ndarray
    pressure_profile: np.ndarray


def pde_residual(series, params: GasParameters) -> ResidualReport:
    """Centered-difference residuals of continuity and pressure transport.

    The series must share one uniform grid and a uniform output dt; the
    report takes max norms over interior nodes and interior time levels.
    Profiles are full grid length with zeros at the excluded boundary
    nodes, so spikes can be located.
    """
    if len(series) < 3:
        raise InvalidInputError(f"need at least 3 time levels, got {len(series)}")
    r = series[0].grid.r
    for s in series[1:]:
        if not np.array_equal(s.grid.r, r):
            raise InvalidInputError("all snapshots must share one grid")
    times = np.array([s.t for s in series])
    dts = np.diff(times)
    dt = dts[0]
    if dt <= 0 or np.max(np.abs(dts - dt)) > 1e-9 * dt:
        raise InvalidInputError("snapshot times must be uniformly spaced and increasing")
    h = r[1] - r[0]
    if np.max(np.abs(np.diff(r) - h)) > 1e-9 * h:
        raise InvalidInputError("pde_residual needs a uniform grid")

    rho = np.stack([s.rho for s in series])
    v = np.stack([s.v for s in series])
    p = np.stack([s.p for s in series])
    n = params.n
    inner = slice(1, -1)

    def ddr(f):
        return (f[:, 2:] - f[:, :-2]) / (2.0 * h)

    def ddt(f):
        return (f[2:, inner] - f[:-2, inner]) / (2.0 * dt)

    mid = slice(1, len(series) - 1)
    rv = rho * v
    cont = ddt(rho) + ddr(rv)[mid] + (n - 1) * rv[mid, inner] / r[inner]
    div_v = ddr(v)[mid] + (n - 1) * v[mid, inner] / r[inner]
    ptrans = ddt(p) + v[mid, inner] * ddr(p)[mid] + params.gamma * p[mid, inner] * div_v

    cont_profile = np.zeros_like(r)
    p_profile = np.zeros_like(r)
    cont_profile[inner] = np.max(np.abs(cont), axis=0)
    p_profile[inner] = np.max(np.abs(ptrans), axis=0)
    return ResidualReport(
        continuity=float(np.max(cont_profile)),
        pressure=float(np.max(p_profile)),
        continuity_profile=cont_profile,
        pressure_profile=p_profile,
    )
