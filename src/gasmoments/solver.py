"""Radially symmetric finite-volume solver for inviscid compressible flow.

The solver exists to cross-validate the exact-solution machinery, so it
stays deliberately simple: first-order Godunov-type fluxes (Rusanov or
HLL) on a uniform cell-centered grid, with the radial geometry carried
by exact interface areas A = r^(n-1) and cell volumes V = (r+^n - r-^n)/n
per unit solid angle. The momentum source uses the discrete well-balanced
grouping p_i (A+ - A-) / V_i, which is the (n-1) p / r_src form with
r_src = (n-1)(r+^n - r-^n) / (n (r+^(n-1) - r-^(n-1))); grouped this way
a uniform state is preserved bitwise. The boundaries are fixed: reflective
at the origin and zeroth-order outflow at the outer edge.

Interior updates telescope, so total mass changes only by the outer
boundary flux; `run` tracks that flux so conservation can be audited to
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    _as_readonly,
    sphere_area,
)

__all__ = [
    "PositivityError",
    "ConservedState",
    "SolverConfig",
    "RunResult",
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


def _check_positive(rho: np.ndarray, e_int: np.ndarray, t: float) -> None:
    for what, a in (("density", rho), ("internal energy", e_int)):
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
    h = r[1] - r[0]
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
        n = len(self.grid)
        for name in ("rho", "mom", "energy"):
            arr = _as_readonly(np.asarray(getattr(self, name), dtype=float))
            if arr.shape != (n,):
                raise InvalidInputError(f"{name} must match the grid, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)
        _check_positive(self.rho, self.e_internal_density(), self.t)

    def velocity(self) -> np.ndarray:
        return self.mom / self.rho

    def e_internal_density(self) -> np.ndarray:
        return self.energy - 0.5 * self.mom**2 / self.rho

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
    energy = 0.5 * snapshot.rho * snapshot.v**2 + snapshot.p / (params.gamma - 1.0)
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


def _with_ghosts(a: np.ndarray, first) -> np.ndarray:
    """a between a ghost value `first` and a copy of its last value."""
    out = np.empty(a.size + 2)
    out[0] = first
    out[1:-1] = a
    out[-1] = a[-1]
    return out


def _advance(rho, mom, en, e_int, t, dt_max, gamma, cfl, flux, h, areas, volumes):
    """One explicit finite-volume update on plain arrays, with CFL-limited dt.

    e_int is the internal energy density en - mom^2 / (2 rho) of the input;
    the one of the output comes back with it, so a caller that keeps
    stepping never rebuilds it. Returns (rho, mom, en, e_int, t_new,
    outer_mass_flux), the last being the mass flux the update applied at
    the outer interface. Raises like ConservedState does when the new
    state is non-finite or loses positivity.

    Ghost cells: mirrored state with antisymmetric velocity at the origin
    (the r = 0 interface carries zero area anyway), zeroth-order
    extrapolation at the outer edge. Every per-cell quantity is computed
    once on the ghost-extended arrays; interface i reads cells i and i+1.
    """
    rho_e = _with_ghosts(rho, rho[0])
    en_e = _with_ghosts(en, en[0])
    v_e = _with_ghosts(mom, -mom[0]) / rho_e
    p_e = (gamma - 1.0) * _with_ghosts(e_int, e_int[0])
    c_e = np.sqrt(gamma * p_e / rho_e)
    speed_e = np.abs(v_e) + c_e
    # the ghosts repeat cell values, so this is the maximum over the cells
    dt = cfl * h / float(np.max(speed_e))
    if dt_max is not None:
        dt = min(dt, dt_max)

    # physical fluxes; the mass flux rho v is also the momentum density
    f_e = (rho_e * v_e, rho_e * v_e**2 + p_e, (en_e + p_e) * v_e)
    u_e = (rho_e, f_e[0], en_e)
    if flux == "rusanov":
        half_s = 0.5 * np.maximum(speed_e[:-1], speed_e[1:])
        f_mass, f_mom, f_en = (
            0.5 * (f[:-1] + f[1:]) - half_s * (u[1:] - u[:-1]) for f, u in zip(f_e, u_e)
        )
    else:
        # HLL with simple two-wave speed estimates
        slow, fast = v_e - c_e, v_e + c_e
        sL = np.minimum(slow[:-1], slow[1:])
        sR = np.maximum(fast[:-1], fast[1:])
        width = sR - sL
        sLsR = sL * sR
        left, right = sL >= 0.0, sR <= 0.0
        f_mass, f_mom, f_en = (
            np.where(
                left,
                f[:-1],
                np.where(right, f[1:], (sR * f[:-1] - sL * f[1:] + sLsR * (u[1:] - u[:-1])) / width),
            )
            for f, u in zip(f_e, u_e)
        )

    dt_vol = dt / volumes
    p = p_e[1:-1]
    new_rho = rho - dt_vol * (areas[1:] * f_mass[1:] - areas[:-1] * f_mass[:-1])
    # pressure part of the momentum divergence is not geometric; folding
    # p_i into each interface term makes uniform states cancel bitwise
    new_mom = mom - dt_vol * (areas[1:] * (f_mom[1:] - p) - areas[:-1] * (f_mom[:-1] - p))
    new_en = en - dt_vol * (areas[1:] * f_en[1:] - areas[:-1] * f_en[:-1])

    t_new = t + dt
    for name, arr in (("rho", new_rho), ("mom", new_mom), ("energy", new_en)):
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError(f"{name} contains non-finite values")
    new_e_int = new_en - 0.5 * new_mom**2 / new_rho
    _check_positive(new_rho, new_e_int, t_new)
    return new_rho, new_mom, new_en, new_e_int, t_new, float(f_mass[-1])


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
    rho, mom, en, _, t, _ = _advance(
        state.rho, state.mom, state.energy, state.e_internal_density(), state.t, dt_max,
        state.gamma, config.cfl, config.flux, h, areas, volumes,
    )
    return ConservedState(grid=state.grid, rho=rho, mom=mom, energy=en, gamma=state.gamma, t=t)


@dataclass
class RunResult:
    """Snapshot series plus the conservation audit trail.

    log holds per-output-time columns; mass_out is the cumulative mass
    carried through the outer boundary (same normalization as log mass).
    """

    snapshots: list
    log: dict
    final_state: ConservedState


def _cell_moments(state: ConservedState, params: GasParameters, volumes: np.ndarray) -> dict:
    omega = sphere_area(params.n)
    rho, mom, en = state.rho, state.mom, state.energy
    e_k = 0.5 * mom**2 / rho
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

    Output falls at multiples of out_every plus t_end (just t_end when
    out_every is None); dt is clipped so outputs are hit exactly. The
    initial state is always emitted.
    """
    if t_end < initial.t:
        raise ParameterError(f"t_end={t_end} precedes the initial time {initial.t}")
    state = state_from_snapshot(initial, params)
    h, areas, volumes = _geometry(state.grid, params.n)
    omega = sphere_area(params.n)

    targets = [t_end]
    if out_every is not None:
        if out_every <= 0.0:
            raise ParameterError(f"out_every must be positive, got {out_every}")
        k = np.arange(1, int((t_end - initial.t) / out_every) + 1)
        targets = sorted(set(np.round(initial.t + k * out_every, 12)) | {t_end})

    snapshots = [state_to_snapshot(state)]
    log_rows = []
    mass_out = 0.0

    def emit(s):
        row = {"t": s.t, **_cell_moments(s, params, volumes), "mass_out": mass_out}
        log_rows.append(row)

    emit(state)
    grid, gamma = state.grid, state.gamma
    rho, mom, en, e_int, t = state.rho, state.mom, state.energy, state.e_internal_density(), state.t
    steps = 0
    for target in targets:
        while t < target - 1e-13 * max(1.0, target):
            if steps >= max_steps:
                raise RuntimeError(f"step budget {max_steps} exhausted at t={t}")
            t_old = t
            rho, mom, en, e_int, t, f_outer = _advance(
                rho, mom, en, e_int, t, target - t, gamma, config.cfl, config.flux, h, areas, volumes
            )
            # outer-boundary mass flux, for the conservation audit; t - t_old
            # is not always the dt the kernel took
            mass_out += omega * areas[-1] * f_outer * (t - t_old)
            steps += 1
        state = ConservedState(grid=grid, rho=rho, mom=mom, energy=en, gamma=gamma, t=t)
        snapshots.append(state_to_snapshot(state))
        emit(state)

    if t_end == initial.t:
        snapshots = snapshots[:1]
        log_rows = log_rows[:1]
    log = {key: np.array([row[key] for row in log_rows]) for key in log_rows[0]}
    return RunResult(snapshots=snapshots, log=log, final_state=state)


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm interior residuals of the two transport identities."""

    continuity: float
    pressure: float
    continuity_profile: np.ndarray
    pressure_profile: np.ndarray
    h: float
    dt: float


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
        h=float(h),
        dt=float(dt),
    )
