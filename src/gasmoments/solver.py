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
    GasmomentsError,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    _adopt,
    _axis,
    _count,
    _finite,
    _fmt,
    _first_bad,
    _freeze_samples,
    _within,
    sphere_area,
)

__all__ = [
    "PositivityError",
    "StepBudgetError",
    "ConservedState",
    "SolverConfig",
    "RunResult",
    "RunStats",
    "cell_centered_grid",
    "state_from_snapshot",
    "step",
    "run",
]

FLUX_CHOICES = ("rusanov", "hll")
# the step budget of a run: the most steps it may project to t_end, and so the most outputs it can ask for
MAX_STEPS = 2_000_000


class PositivityError(GasmomentsError, RuntimeError):
    """Density or internal energy lost positivity; carries the cell index."""

    def __init__(self, message: str, cell: int):
        super().__init__(message)
        self.cell = cell


class StepBudgetError(GasmomentsError, RuntimeError):
    """run's CFL step projects past MAX_STEPS steps to t_end; carries the time t reached and the steps taken."""

    def __init__(self, message: str, t: float, steps: int):
        super().__init__(message)
        self.t = t
        self.steps = steps


def _check_positive(what: str, a: np.ndarray, t: float) -> None:
    if not a.min() > 0.0:  # NaN fails too
        cell = _first_bad(a, "positive")
        raise PositivityError(f"{what} nonpositive in cell {cell} at t={t}", cell)


def cell_centered_grid(r_max: float, cells: int) -> RadialGrid:
    """Uniform finite-volume grid: centers (i + 1/2) h, interfaces at i h."""
    _count(cells, "cells", 2)
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
    """Cell averages of (rho, rho v, E) with E = rho v^2/2 + p/(gamma-1), gamma the run's GasParameters'."""

    grid: RadialGrid
    rho: np.ndarray
    mom: np.ndarray
    energy: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        _finite(self.t, "state time")
        _freeze_samples(self, ("rho", "mom", "energy"), self.grid)
        # density first: e_internal_density divides by it
        _check_positive("density", self.rho, self.t)
        _check_positive("internal energy", self.e_internal_density(), self.t)

    def e_internal_density(self) -> np.ndarray:
        return self.energy - 0.5 * (self.mom * (self.mom / self.rho))


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.45
    flux: str = "rusanov"

    def __post_init__(self):
        _within(self.cfl, "cfl", 0.0, 1.0)
        if self.flux not in FLUX_CHOICES:
            raise ParameterError(f"flux must be one of {FLUX_CHOICES}, got {self.flux!r}")


def state_from_snapshot(snapshot: FlowSnapshot, params: GasParameters) -> ConservedState:
    _require_cell_centered(snapshot.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = 0.5 * snapshot.rho * snapshot.v**2
        energy = kinetic + snapshot.p / (params.gamma - 1.0)
    for total, what, name, x in ((kinetic, "kinetic energy", "v", snapshot.v), (energy, "energy", "p", snapshot.p)):
        cell = _first_bad(total)
        if cell is not None:
            raise InvalidInputError(f"{what} overflows in cell {cell} ({name} = {_fmt(x[cell])})")
    return ConservedState(
        grid=snapshot.grid,
        rho=snapshot.rho,
        mom=snapshot.rho * snapshot.v,
        energy=energy,
        t=snapshot.t,
    )


class _Workspace:
    """One run's geometry, kernel state, scratch rows, the views over them, and its counters.

    The geometry is the cell width h, and the interface areas and cell
    volumes per unit solid angle in dimension n. cur is the ghost-extended
    (4, N+2) state with rows rho, mom, energy and e_int; `_advance` updates
    its interior in place. cell (with ghosts), face (per interface) and
    inner (per cell) rows are scratch written with out=. Every slice the
    kernel reads is made here, once per run. The counters feed `RunStats`.
    After `_advance` raises, cur holds the rejected state.
    """

    def __init__(self, state: ConservedState, config: SolverConfig, params: GasParameters):
        self.h = h = _require_cell_centered(state.grid)
        cells, e_int, n = len(state.grid), state.e_internal_density(), params.n
        edges = np.arange(cells + 1) * h
        self.areas = areas = edges ** (n - 1)
        self.volumes = (edges[1:] ** n - edges[:-1] ** n) / n
        self.cur = cur = np.empty((4, cells + 2))
        cur[:, 1:-1] = (state.rho, state.mom, state.energy, e_int)
        self.left, self.right = np.empty((2, cells + 1), dtype=bool)
        self.grid, self.gamma, self.cfl, self.hll = state.grid, params.gamma, config.cfl, config.flux == "hll"
        self.steps = self.clipped = 0
        self.dt_min, self.dt_max = math.inf, 0.0
        self.rho_min, self.e_int_min = float(state.rho.min()), float(e_int.min())

        # the views: ghost columns and the cells they copy, then whole rows
        self.ghosts = cur[:, 0], cur[:, 1], cur[:, -1], cur[:, -2]
        self.rows, self.interior = tuple(cur), tuple(cur[:, 1:-1])  # rho, mom, energy, e_int
        self.cell = tuple(np.empty((9, cells + 2)))  # v, p, c, speed, f_mass, f_mom, f_en, slow, fast
        self.face = tuple(np.empty((7, cells + 1)))  # F_mass, F_mom, F_en, tmp, sL, sR, ratio
        self.inner = tuple(np.empty((3, cells)))  # dt_vol, div, div2
        rho_e, _, en_e, _ = self.rows
        _, p, _, speed, f_mass, f_mom, f_en, slow, fast = self.cell
        F_mass, F_mom, F_en, tmp = self.face[:4]
        # lo and hi: a cell row on the two sides of each face, or a face row on the two sides of each cell
        lo, hi = slice(None, -1), slice(1, None)
        self.cells_beside = tuple((a[lo], a[hi]) for a in (speed, slow, fast))
        self.faces_beside = tuple((a[lo], a[hi]) for a in (tmp, areas, F_mom))
        self.p_in = p[1:-1]
        # per conservation law: the cell flux f and the face flux F, with f and the state u beside each face
        self.laws = tuple(
            (f, f[lo], f[hi], u[lo], u[hi], F)
            for f, u, F in ((f_mass, rho_e, F_mass), (f_mom, f_mass, F_mom), (f_en, en_e, F_en))
        )


def _advance(ws: _Workspace, t: float, dt_limit: Optional[float]):
    """One explicit finite-volume update of ws.cur in place, with CFL-limited dt.

    Returns (t_new, outer_mass_flux), the last being the mass flux the
    update applied at the outer interface; ws.cur holds the new state
    afterwards. A new state that is non-finite or loses positivity is
    handed to ConservedState, whose checks raise. Nothing is allocated: each
    formula writes into the workspace's views, in the operation order that
    fixes its bits.

    Every face flux and the cell pressure are formed before any state row
    is written; rho and energy then update from their own old rows, mom
    from its own old row and the pressure, and e_int from the new rows, so
    the one state array serves as both old and new.

    Ghost cells: mirrored state with antisymmetric velocity at the origin
    (the r = 0 interface carries zero area anyway), zeroth-order
    extrapolation at the outer edge. Every per-cell quantity is computed
    once on the ghost-extended rows; interface i reads cells i and i+1.

    Each extreme is read as the element at its arg-reduction, a[a.argmax()]
    or a[a.argmin()]: the same element, so the same bits as a.max() or
    a.min(), at a fraction of the call cost on a few hundred cells. argmax
    and argmin stop at the first NaN, so a NaN is read back and fails every
    comparison, as it does under max and min. HLL's upwind copies run only
    when some face takes them: the left-state copy (where sL >= 0) when not
    max(sL) < 0, the right-state one (where sR <= 0) when not min(sR) > 0.
    A skipped copy would have changed no face; in a subsonic flow both are
    skipped, and a NaN speed still takes both.
    """
    rho_e, mom_e, en_e, e_int_e = ws.rows
    ghost_in, first, ghost_out, last = ws.ghosts
    ghost_in[...] = first
    mom_e[0] = -mom_e[0]
    ghost_out[...] = last
    v, p, c, speed, f_mass, f_mom, f_en, slow, fast = ws.cell
    np.divide(mom_e, rho_e, out=v)
    np.multiply(ws.gamma - 1.0, e_int_e, out=p)
    np.sqrt(np.divide(np.multiply(ws.gamma, p, out=c), rho_e, out=c), out=c)
    np.add(np.abs(v, out=speed), c, out=speed)
    # the ghosts repeat cell values, so this is the maximum over the cells
    ws.dt_cfl = dt_cfl = ws.cfl * ws.h / float(speed[speed.argmax()])
    dt = dt_cfl if dt_limit is None else min(dt_cfl, dt_limit)

    # physical fluxes; the mass flux rho v is also the momentum density
    np.multiply(rho_e, v, out=f_mass)
    np.add(np.multiply(rho_e, np.multiply(v, v, out=f_mom), out=f_mom), p, out=f_mom)
    np.multiply(np.add(en_e, p, out=f_en), v, out=f_en)
    F_mass, F_mom, F_en, tmp, sL, sR, ratio = ws.face
    (speed_lo, speed_hi), (slow_lo, slow_hi), (fast_lo, fast_hi) = ws.cells_beside
    if not ws.hll:
        half_s = np.multiply(0.5, np.maximum(speed_lo, speed_hi, out=sL), out=sL)
        for f, _, _, u_lo, u_hi, F in ws.laws:
            np.multiply(0.5, f, out=slow)  # f/2 + f/2: the bits of (f + f)/2, and no overflow
            np.add(slow_lo, slow_hi, out=F)
            F -= np.multiply(half_s, np.subtract(u_hi, u_lo, out=tmp), out=tmp)
    else:
        # HLL with simple two-wave speed estimates: the formula everywhere,
        # then the upwind flux where both waves run the same way
        np.subtract(v, c, out=slow)
        np.add(v, c, out=fast)
        np.minimum(slow_lo, slow_hi, out=sL)
        np.maximum(fast_lo, fast_hi, out=sR)
        np.divide(sL, np.subtract(sR, sL, out=ratio), out=ratio)
        # written as not-less and not-greater, so a NaN speed takes the copies
        any_left = not sL[sL.argmax()] < 0.0
        any_right = not sR[sR.argmin()] > 0.0
        if any_left:
            np.greater_equal(sL, 0.0, out=ws.left)
        if any_right:
            np.less_equal(sR, 0.0, out=ws.right)
        for _, f_lo, f_hi, u_lo, u_hi, F in ws.laws:
            # fL + sL / (sR - sL) (sR dU - dF): exactly fL where the states agree
            np.multiply(sR, np.subtract(u_hi, u_lo, out=F), out=F)
            F -= np.subtract(f_hi, f_lo, out=tmp)
            F *= ratio
            F += f_lo
            if any_right:
                np.copyto(F, f_hi, where=ws.right)
            if any_left:
                np.copyto(F, f_lo, where=ws.left)

    dt_vol, div, div2 = ws.inner
    np.divide(dt, ws.volumes, out=dt_vol)
    rho, mom, en, e_int = ws.interior
    (tmp_lo, tmp_hi), (areas_lo, areas_hi), (F_mom_lo, F_mom_hi) = ws.faces_beside
    # mass and energy: (A F)[1:] - (A F)[:-1] has the bits of A+ F+ - A- F-
    for F, new in ((F_mass, rho), (F_en, en)):
        np.multiply(ws.areas, F, out=tmp)
        np.multiply(dt_vol, np.subtract(tmp_hi, tmp_lo, out=div), out=div)
        new -= div
    # pressure part of the momentum divergence is not geometric; folding
    # p_i into each interface term makes uniform states cancel bitwise
    p_in = ws.p_in
    np.multiply(areas_hi, np.subtract(F_mom_hi, p_in, out=div), out=div)
    div -= np.multiply(areas_lo, np.subtract(F_mom_lo, p_in, out=div2), out=div2)
    mom -= np.multiply(dt_vol, div, out=div)
    # mom (mom / rho), not mom^2 / rho: mom^2 overflows once |mom| > 1.3e154
    np.multiply(0.5, np.multiply(mom, np.divide(mom, rho, out=e_int), out=e_int), out=e_int)
    np.subtract(en, e_int, out=e_int)

    # one proof for all five checks: e_int = en - mom (mom / rho) / 2 is finite
    # and positive only if mom and en are finite, and NaN fails every
    # comparison; on failure ConservedState's checks name the array and cell,
    # and its e_internal_density has the bits of the e_int row
    t_new = t + dt
    rho_min, e_int_min = rho[rho.argmin()], e_int[e_int.argmin()]
    if not (rho_min > 0.0 and e_int_min > 0.0 and rho[rho.argmax()] < math.inf
            and e_int[e_int.argmax()] < math.inf):
        ConservedState(grid=ws.grid, rho=rho, mom=mom, energy=en, t=t_new)

    ws.steps += 1
    if dt < dt_cfl:
        ws.clipped += 1
    ws.dt_min, ws.dt_max = min(ws.dt_min, dt), max(ws.dt_max, dt)
    ws.rho_min, ws.e_int_min = min(ws.rho_min, rho_min), min(ws.e_int_min, e_int_min)
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
    if dt_max is not None:
        _within(dt_max, "dt_max", 0.0)
    ws = _Workspace(state, config, params)
    t, _ = _advance(ws, state.t, dt_max)
    rho, mom, en, _ = ws.interior
    return ConservedState(grid=state.grid, rho=rho, mom=mom, energy=en, t=t)


@dataclass(frozen=True)
class RunStats:
    """Counters of one `run`: steps, the dt range (nan without a step), how
    many steps an output time clipped, and the positivity margin, the
    smallest rho and e_int of any state the run passed, the initial one too.
    mass_audit_max is the largest |mass + mass_out - mass(0)| / mass(0)
    over the rows of the run's log.
    """

    steps: int
    dt_min: float
    dt_max: float
    clipped_steps: int
    rho_min: float
    e_int_min: float
    mass_audit_max: float


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

    def __post_init__(self):
        self.log = {**self.log, "t": _axis(self.log["t"], "log times", 1)}


def _cell_moments(rho, mom, e_int, r, volumes, n: int) -> dict:
    """The log row's integrals over the cells, from the kernel's rows."""
    omega = sphere_area(n)
    return {
        "mass": omega * float(np.sum(volumes * rho)),
        "e_kinetic": omega * float(np.sum(volumes * (0.5 * (mom * (mom / rho))))),
        "e_internal": omega * float(np.sum(volumes * e_int)),
        "G": omega * float(np.sum(volumes * rho * 0.5 * r**2)),
    }


def _output_times(t0: float, t_end: float, out_every: Optional[float]) -> list:
    """The times after t0 that a run from t0 to t_end emits at, in order; see `run`.

    A t_end before t0 or not finite, or an out_every that is not positive and
    finite, asks for more outputs than MAX_STEPS or lies within the march's
    reach tolerance, is a ParameterError.
    """
    targets = [t_end] if _within(t_end, "t_end", t0, ends="[)") > t0 else []
    if out_every is not None:
        _within(out_every, "out_every", 0.0)
        count = (t_end - t0) / out_every
        if count > MAX_STEPS:
            raise ParameterError(
                f"out_every={out_every} asks for {count:.6g} outputs, more than the step budget {MAX_STEPS}"
            )
        reach = 1e-13 * max(1.0, t_end - t0)  # run's: an output time within it of the clock counts as reached
        _within(out_every, "out_every", reach)
        # 12 decimals, or out_every's 11th significant digit if finer (at most 23, as out_every > 1e-13);
        # np.round forms times * 10**decimals, so the times stay unrounded where that product overflows a float
        decimals = max(12, 10 - math.floor(math.log10(out_every)))
        times = t0 + np.arange(1, int(count) + 1) * out_every
        peak = max(abs(t0), abs(float(times[-1]))) if times.size else 0.0  # the times run from t0 to times[-1]
        if math.isfinite(peak * 10.0**decimals):
            times = np.round(times, decimals)
        # keep a time only if the march still steps from it to t_end
        inside = times[(times > t0) & (times < t_end - reach)]
        targets = sorted(set(inside.tolist()) | set(targets))
    return targets


def run(initial: FlowSnapshot, t_end: float, config: SolverConfig, params: GasParameters, *,
        out_every: Optional[float] = None) -> RunResult:
    """March to t_end, emitting snapshots and a conservation log.

    Output falls at the multiples of out_every strictly between the initial
    time t0 and t_end, plus t_end (just t_end when out_every is None); one
    within 1e-13 max(1, t_end - t0) of t_end counts as t_end. dt is clipped
    so outputs are hit exactly. The initial state is always emitted, and is
    the only output when t_end is t0. An out_every that asks for more
    outputs than MAX_STEPS is a ParameterError, since each output takes at
    least one step. A step that leaves t unchanged, or after which steps +
    (t_end - t) / dt_cfl exceeds MAX_STEPS, dt_cfl its CFL dt, raises
    StepBudgetError, so a run that cannot finish stops at its first step.
    Every output is read off the kernel's rows: v = mom / rho and p = (gamma - 1) e_int.
    """
    targets = _output_times(initial.t, t_end, out_every)
    state = state_from_snapshot(initial, params)
    ws = _Workspace(state, config, params)
    # the outer interface's full area, omega A[-1], for the mass audit
    outer_area = sphere_area(params.n) * float(ws.areas[-1])
    grid, gamma_m1, t = state.grid, params.gamma - 1.0, state.t
    rho, mom, en, e_int = ws.interior
    snapshots, log_rows = [], []
    mass_out = 0.0

    def emit():
        snapshots.append(_adopt(FlowSnapshot, grid=grid, rho=rho.copy(), v=mom / rho, p=gamma_m1 * e_int, t=t))
        moments = _cell_moments(rho, mom, e_int, grid.r, ws.volumes, params.n)
        log_rows.append({"t": t, **moments, "mass_out": mass_out})

    emit()
    for target in targets:
        while t < target - 1e-13 * max(1.0, target - initial.t):  # reached, on the run's scale
            t_old = t
            t, f_outer = _advance(ws, t, target - t)
            # outer-boundary mass flux, for the conservation audit; t - t_old
            # is not always the dt the kernel took
            mass_out += outer_area * f_outer * (t - t_old)
            # at the CFL dt, not one an output time clipped, in python floats, which overflow to inf unwarned;
            # a step that left t as it was (dt_cfl 0, or below half an ulp of t) leaves none that reaches t_end
            left = (float(t_end) - float(t)) / ws.dt_cfl if t != t_old else math.inf
            if ws.steps + left > MAX_STEPS:
                raise StepBudgetError(f"step budget {MAX_STEPS} cannot reach t_end={t_end}: at t={t:.6g} the CFL "
                                      f"step {ws.dt_cfl:.6g} leaves {left:.6g} steps", t, ws.steps)
        emit()

    log = {key: np.array([row[key] for row in log_rows]) for key in log_rows[0]}
    dt_min, dt_max = (float(ws.dt_min), float(ws.dt_max)) if ws.steps else (math.nan, math.nan)
    mass = log["mass"]
    audit = float(np.max(np.abs(mass + log["mass_out"] - mass[0]) / mass[0]))
    stats = RunStats(ws.steps, dt_min, dt_max, ws.clipped, float(ws.rho_min), float(ws.e_int_min), audit)
    final_state = ConservedState(grid=grid, rho=rho, mom=mom, energy=en, t=t)
    return RunResult(snapshots=snapshots, log=log, final_state=final_state, stats=stats)
