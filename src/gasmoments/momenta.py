"""Weight functions and generalized momenta of mass.

The generalized momentum is G_phi = int rho(t,x) phi(|x|) dx. Its second
time derivative decomposes into four curvature integrals (kinetic,
rotational, pressure-Laplacian, boundary). For purely radial flow the
rotational term vanishes identically, and the quadratic weight
phi = r^2/2 recovers the classical momentum of mass together with the
virial identity G'' = 2 E_k + n (gamma - 1) E_i.

The weights are the quadratic r^2/2 and the power law r^q (ShiftedPower;
Power(n) is the q = 2 - n case). The power law is singular at the origin
and refuses to guess a regularization: it demands an explicit inner radius
and a grid that stays outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .core import (
    ConservedReport,
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    _POWER_DIMENSION,
    _count,
    _finite,
    _quadrature,
    _within,
    conserved,
    sphere_area,
)

__all__ = [
    "WeightFunction",
    "Quadratic",
    "Power",
    "ShiftedPower",
    "LemmaOneTerms",
    "g_phi",
    "g_phi_rate",
    "lemma1_terms",
    "sigma_norm_sq",
    "virial_residual",
]

Region = Literal["all-space", "ball"]
REGIONS = get_args(Region)


class WeightFunction:
    """Evaluators phi(r), dphi(r), d2phi(r), dphi_over_r(r); inner_radius > 0 marks an origin singularity."""

    # annotation only: a base-class default here would leak into the dataclass
    # subclasses and silently waive their required inner_radius argument
    inner_radius: float


@dataclass(frozen=True)
class Quadratic(WeightFunction):
    """phi = r^2 / 2; the classical momentum of mass."""

    inner_radius = 0.0  # regular at the origin

    def phi(self, r):
        return 0.5 * np.asarray(r, dtype=float) ** 2

    def dphi(self, r):
        return np.asarray(r, dtype=float)

    def d2phi(self, r):
        return np.ones_like(np.asarray(r, dtype=float))

    def dphi_over_r(self, r):
        return np.ones_like(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class ShiftedPower(WeightFunction):
    """phi = r^q with q < 0, r the distance from the weight's center.

    The radial coordinate fed to this weight must already be the distance
    from the shift point; tracking that point through a flow is the material
    volume machinery's job, not this evaluator's.
    """

    q: float
    inner_radius: float

    def __post_init__(self):
        _within(self.q, "power weight exponent q", hi=0.0)
        if self.inner_radius is None:
            raise ParameterError("power weight needs an explicit inner_radius > 0")
        _within(self.inner_radius, "inner_radius", 0.0)

    def phi(self, r):
        return np.asarray(r, dtype=float) ** self.q

    def dphi(self, r):
        return self.q * np.asarray(r, dtype=float) ** (self.q - 1)

    def d2phi(self, r):
        return (self.q * (self.q - 1)) * np.asarray(r, dtype=float) ** (self.q - 2)

    def dphi_over_r(self, r):
        return self.q * np.asarray(r, dtype=float) ** (self.q - 2)


def Power(n: int, inner_radius: float) -> ShiftedPower:
    """phi = r^(2-n), n >= 3: proportional to the fundamental Laplace solution.

    Harmonic away from the origin, so the pressure-Laplacian curvature term
    vanishes nodewise. n = 2 (logarithmic weight) is deliberately rejected;
    the curvature constant is singular there. Built as ShiftedPower(q = 2 - n).
    """
    return ShiftedPower(q=float(2 - _count(n, _POWER_DIMENSION, 3)), inner_radius=inner_radius)


@dataclass(frozen=True)
class LemmaOneTerms:
    """Curvature decomposition of G_phi'' plus the first-derivative integral."""

    I1: float
    I2: float
    I3: float
    I4: float
    G_rate: float


def _check_grid_against_weight(grid: RadialGrid, w: WeightFunction) -> None:
    if w.inner_radius > 0.0 and grid.r[0] < w.inner_radius:
        raise InvalidInputError(
            f"grid node 0 at r={grid.r[0]} lies inside the weight's "
            f"inner radius {w.inner_radius}; singular integrand"
        )


def _weighted_integral(integrand: np.ndarray, grid: RadialGrid, params: GasParameters) -> float:
    """The quadrature of a weighted integrand the caller made for this call; it is overwritten."""
    return _quadrature(integrand, grid, params.n, out=integrand)


@np.errstate(over="ignore", invalid="ignore")  # an integrand that overflows is the quadrature's to name
def g_phi(snapshot: FlowSnapshot, w: WeightFunction, params: GasParameters) -> float:
    """Generalized momentum int rho phi(|x|) dx by weighted quadrature."""
    _check_grid_against_weight(snapshot.grid, w)
    return _weighted_integral(snapshot.rho * w.phi(snapshot.grid.r), snapshot.grid, params)


@np.errstate(over="ignore", invalid="ignore")
def g_phi_rate(snapshot: FlowSnapshot, w: WeightFunction, params: GasParameters) -> float:
    """First derivative integral int (phi'(|x|)/|x|) (v, x) rho dx = int phi' v rho dx radially."""
    _check_grid_against_weight(snapshot.grid, w)
    return _weighted_integral(snapshot.rho * snapshot.v * w.dphi(snapshot.grid.r), snapshot.grid, params)


def lemma1_terms(snapshot: FlowSnapshot, w: WeightFunction, region: Region, params: GasParameters) -> LemmaOneTerms:
    """The four curvature integrals whose sum is G_phi''.

    I1 kinetic    int phi'' v^2 rho dx          (radial flow: (v,x)^2/r^2 = v^2)
    I2 rotation   int (phi'/r^3) |sigma|^2 rho  (identically zero here: sigma = 0 radially)
    I3 pressure   int (phi'' + (n-1) phi'/r) p dx
    I4 boundary   -oint (phi'/r) (x,nu) p dS over the truncating sphere, 0 for all-space

    For the quadratic weight over all space, I1 + I2 = 2 E_k and
    I3 = n (gamma-1) E_i by the same quadrature.
    """
    if region not in REGIONS:
        raise ParameterError(f"region must be 'all-space' or 'ball', got {region!r}")
    _check_grid_against_weight(snapshot.grid, w)
    return LemmaOneTerms(*_curvature_terms(snapshot, w, region, params), G_rate=g_phi_rate(snapshot, w, params))


@np.errstate(over="ignore", invalid="ignore")
def _curvature_terms(snapshot: FlowSnapshot, w: WeightFunction, region: Region, params: GasParameters):
    """lemma1_terms' I1, I2, I3 and I4, for a checked region and grid."""
    r = snapshot.grid.r
    d2 = w.d2phi(r)
    # operators, not np.multiply: from 256 KiB on, numpy forms each product in a temporary that
    # nothing else references, so each integrand takes one array and a cached factor is never written
    i1 = _weighted_integral(snapshot.rho * snapshot.v**2 * d2, snapshot.grid, params)
    i2 = 0.0
    i3 = _weighted_integral(((params.n - 1) * w.dphi_over_r(r) + d2) * snapshot.p, snapshot.grid, params)
    if region == "ball":
        # surface term on the sphere r = R: (x, nu) = R, area = omega R^(n-1)
        R = float(r[-1])
        i4 = _finite(-float(w.dphi(R)) * float(snapshot.p[-1]) * sphere_area(params.n) * R ** (params.n - 1),
                     f"ball surface term I4 at R={R}")
    else:
        i4 = 0.0
    return i1, i2, i3, i4


def sigma_norm_sq(v_vec, x_vec) -> float:
    """|sigma|^2 = |v|^2 |x|^2 - (v,x)^2; zero iff v is radial through x.

    Sums the squares of the rotation components sigma_k = v_i x_j - v_j x_i
    for i > j, taken lexicographically in (i, j).
    """
    v = np.asarray(v_vec, dtype=float)
    x = np.asarray(x_vec, dtype=float)
    if v.shape != x.shape or v.ndim != 1:
        raise InvalidInputError(f"vector shapes differ: {v.shape} vs {x.shape}")
    comps = np.array([v[i] * x[j] - v[j] * x[i] for i in range(1, v.size) for j in range(i)])
    return float(np.sum(comps**2))


def virial_residual(snapshot: FlowSnapshot, params: GasParameters) -> float:
    """Normalized defect of the identity I1 + I2 + I3 = 2 E_k + n (gamma-1) E_i.

    Quadratic weight, all-space region. Both sides are assembled from the
    same quadrature, so the residual measures internal consistency only;
    the normalization floor 1e-30 keeps the zero-field case defined. The
    energies are the snapshot's conserved report, reused if already made;
    of lemma1_terms only the curvature integrals are formed, not G_rate.
    """
    rep: ConservedReport = conserved(snapshot, params)
    if rep.e_total == 0.0 and (np.any(snapshot.v != 0.0) or np.any(snapshot.p != 0.0)):
        raise InvalidInputError("zero total energy with nonzero fields: residual normalization degenerate")
    i1, i2, i3, _ = _curvature_terms(snapshot, Quadratic(), "all-space", params)
    rhs = 2.0 * rep.e_kinetic + params.n * (params.gamma - 1.0) * rep.e_internal
    return abs((i1 + i2 + i3) - rhs) / max(rep.e_total, 1e-30)
