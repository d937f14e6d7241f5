"""Centered-difference residuals of the transport equations, a test oracle for a series of snapshots."""

from dataclasses import dataclass

import numpy as np

from gasmoments.core import GasParameters, InvalidInputError


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
