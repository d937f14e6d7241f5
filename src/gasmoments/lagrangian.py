"""Material-volume tracking: boundary advection and surface diagnostics.

A material volume is represented by its boundary particles. In three
dimensions the boundary is a structured latitude-longitude sampling of a
closed surface; normals and area weights are rebuilt from the current
particle positions after every advection step, so the representation
needs no mesh library. In one dimension the boundary is the two interval
endpoints with counting-measure weights.

The diagnostics are a signed boundary pressure flux against the unit
radial kernel about an external point x0, a weighted volume functional
of the initial data, and the particle distance to x0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import (
    GasParameters,
    InvalidInputError,
    ParameterError,
    _as_readonly,
    sphere_area,
)

__all__ = [
    "GeometryError",
    "MaterialVolume",
    "RegularityReport",
    "advect",
    "boundary_pressure_flux",
    "theorem3_functional",
    "interior_integral",
    "track_boundary",
]

# fixed Gauss-Legendre rule for the radial leg of cone-rule volume quadrature
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(24)
_CONE_S = 0.5 * (_GAUSS_NODES + 1.0)
_CONE_W = 0.5 * _GAUSS_WEIGHTS


class GeometryError(ValueError):
    """Configuration puts a probe point or particle where the formulas break."""


@dataclass(frozen=True)
class MaterialVolume:
    """Boundary-particle sampling of a closed material volume at one time.

    points has shape (2, 1) for an interval or (n_lat, n_lon, 3) for a
    closed surface; the structured layout is what lets normals and area
    weights be reconstructed from neighboring particles.
    """

    points: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        pts = _as_readonly(self.points)
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("boundary particles must be finite")
        if pts.ndim == 2 and pts.shape == (2, 1):
            if not pts[0, 0] < pts[1, 0]:
                raise InvalidInputError("interval endpoints must satisfy a < b")
        elif pts.ndim == 3 and pts.shape[-1] == 3:
            if pts.shape[0] < 4 or pts.shape[1] < 8:
                raise InvalidInputError(
                    f"surface sampling too coarse: need at least 4x8, got {pts.shape[:2]}"
                )
        else:
            raise ParameterError(f"unsupported boundary shape {pts.shape}; dimensions 1 and 3 only")
        object.__setattr__(self, "points", pts)

    @classmethod
    def interval(cls, a: float, b: float) -> "MaterialVolume":
        return cls(np.array([[a], [b]], dtype=float))

    @classmethod
    def sphere_surface(cls, center, radius: float, n_lat: int = 48, n_lon: int = 96) -> "MaterialVolume":
        if radius <= 0.0:
            raise ParameterError(f"radius must be positive, got {radius}")
        center = np.asarray(center, dtype=float)
        if center.shape != (3,):
            raise InvalidInputError("sphere center must be a 3-vector")
        # cell-centered latitudes keep every node away from the poles
        th = (np.arange(n_lat) + 0.5) * np.pi / n_lat
        ph = np.arange(n_lon) * 2.0 * np.pi / n_lon
        T, P = np.meshgrid(th, ph, indexing="ij")
        pts = np.stack(
            [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
        )
        return cls(center + radius * pts)

    @property
    def dim(self) -> int:
        return self.points.shape[-1]

    @property
    def centroid(self) -> np.ndarray:
        return self.points.reshape(-1, self.dim).mean(axis=0)

    def surface_elements(self):
        """Outward unit normals and area weights at every particle."""
        normals, weights = _geometry(self.points)
        return np.stack(normals, axis=-1), weights

    def spacing(self) -> float:
        """Typical inter-particle distance (0 for an interval boundary)."""
        return _spacing(_geometry(self.points)[1], self.dim)

    def contains(self, x0) -> bool:
        """Winding test: flux of the Green kernel is a full solid angle inside."""
        return _inside(self, _probe(self, x0))


def _dot(a, b):
    """sum_k a[k] * b[k] over the leading (component) axis, left to right.

    That is the order of numpy's reduction over a trailing axis of length
    1 or 3, so results equal np.sum(a * b, axis=-1) and np.linalg.norm
    bit for bit.
    """
    total = a[0] * b[0]
    for k in range(1, len(a)):
        total = total + a[k] * b[k]
    return total


def _geometry(points: np.ndarray):
    """Outward unit normal components, shape (dim, ...), and weights of a boundary.

    points is the (2, 1) interval or the (n_lat, n_lon, 3) sampling of a
    closed surface. An interval's endpoints carry unit normals and
    counting-measure weights. A surface works on a contiguous
    (3, n_lat, n_lon) copy: tangents from neighboring particles, centered
    along latitude rows (one-sided at the polar rows) and periodic along
    longitude, then their cross product (np.cross's formula, bit for bit),
    whose length is the weight. Either way the normals are then turned
    away from the centroid.
    """
    p = np.ascontiguousarray(np.moveaxis(points, -1, 0))
    if len(p) == 1:
        normals, weights = np.ones((1, 2)), np.ones(2)
    else:
        # differences land in place: no (3, n_lat, n_lon) temporaries
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
        weights = np.sqrt(_dot(normals, normals))
        if np.any(weights <= 0.0):
            raise GeometryError("degenerate surface element: particles have collapsed")
        normals /= weights
    c = p.reshape(len(p), -1).mean(axis=1)
    flip = _dot(normals, [pk - ck for pk, ck in zip(p, c)]) < 0.0
    np.negative(normals, out=normals, where=flip)
    return normals, weights


def _check_point(x0, dim: int) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (dim,):
        raise InvalidInputError(f"probe point must be a {dim}-vector, got shape {x0.shape}")
    return x0


def _spacing(weights: np.ndarray, dim: int) -> float:
    return 0.0 if dim == 1 else float(np.sqrt(np.median(weights)))


class _Probe(NamedTuple):
    """A checked probe point against one sampling of the boundary."""

    x0: np.ndarray
    weights: np.ndarray
    dn: np.ndarray  # (x - x0) . nu
    dist: np.ndarray  # |x - x0|


def _probe(volume: MaterialVolume, x0) -> _Probe:
    """Build the boundary geometry and the offsets to x0 once.

    The containment and spacing checks, the pressure flux and the probe
    distance all read the one result.
    """
    x0 = _check_point(x0, volume.dim)
    normals, weights = _geometry(volume.points)
    d = [volume.points[..., k] - x0[k] for k in range(volume.dim)]
    return _Probe(x0, weights, _dot(d, normals), np.sqrt(_dot(d, d)))


def _inside(volume: MaterialVolume, probe: _Probe) -> bool:
    if volume.dim == 1:
        return bool(volume.points[0, 0] < probe.x0[0] < volume.points[1, 0])
    if np.any(probe.dist == 0.0):
        return True
    kernel = probe.dn / probe.dist**volume.dim
    return float(np.sum(kernel * probe.weights)) > 0.5 * sphere_area(volume.dim)


def _eval_velocity(field, t: float, x: np.ndarray) -> np.ndarray:
    v = np.asarray(field(t, x), dtype=float)
    if v.shape != x.shape:
        raise InvalidInputError(f"velocity field returned shape {v.shape}, expected {x.shape}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("particle left the velocity field's domain (non-finite velocity)")
    return v


def advect(volume: MaterialVolume, velocity_field, dt: float) -> MaterialVolume:
    """One classical RK4 step of every boundary particle under v(t, x)."""
    x, t = volume.points, volume.t
    k1 = _eval_velocity(velocity_field, t, x)
    k2 = _eval_velocity(velocity_field, t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = _eval_velocity(velocity_field, t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = _eval_velocity(velocity_field, t + dt, x + dt * k3)
    moved = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(moved)):
        raise GeometryError("particle left the velocity field's domain (non-finite position)")
    return MaterialVolume(moved, t=t + dt)


def _require_external(volume: MaterialVolume, x0) -> _Probe:
    """The probe of x0, once x0 is known to lie outside, clear of the boundary."""
    probe = _probe(volume, x0)
    if _inside(volume, probe):
        raise GeometryError(f"probe point {probe.x0.tolist()} lies inside the material volume")
    if float(np.min(probe.dist)) <= _spacing(probe.weights, volume.dim):
        raise GeometryError(
            f"probe point {probe.x0.tolist()} is within one particle spacing of the boundary"
        )
    return probe


def boundary_pressure_flux(volume: MaterialVolume, pressure_field, x0) -> float:
    """Signed surface integral of p (x-x0)/|x-x0| . nu over the boundary.

    pressure_field maps particle positions (..., n) -> pressures (...).
    The probe point must sit strictly outside the volume, at least one
    particle spacing away from the sampled boundary.
    """
    return _level_diagnostics(volume, pressure_field, x0)[0]


def _level_diagnostics(volume: MaterialVolume, pressure_field, x0):
    """boundary_pressure_flux, the probe distance and the smallest weight.

    All three come from one probe of x0.
    """
    probe = _require_external(volume, x0)
    radial = probe.dn / probe.dist
    p = np.asarray(pressure_field(volume.points), dtype=float)
    if p.shape != probe.weights.shape:
        raise InvalidInputError(
            f"pressure field returned shape {p.shape}, expected {probe.weights.shape}"
        )
    flux = float(np.sum(p * radial * probe.weights))
    return flux, float(np.min(probe.dist)), float(np.min(probe.weights))


def interior_integral(volume: MaterialVolume, f) -> float:
    """Volume integral of f over the region bounded by the particles.

    Cone rule from the centroid: int_V f dV equals the surface integral
    of (x-c, nu) int_0^1 s^(n-1) f(c + s(x-c)) ds, evaluated with a fixed
    Gauss-Legendre rule on the radial leg. Star-shaped regions only,
    which advected spheres remain in practice.
    """
    c = volume.centroid
    rel = volume.points - c
    normals, weights = _geometry(volume.points)
    radial = _dot(np.moveaxis(rel, -1, 0), normals)
    n = volume.dim
    total = 0.0
    for s, ws in zip(_CONE_S, _CONE_W):
        x = c + s * rel
        vals = np.asarray(f(x), dtype=float)
        total += ws * s ** (n - 1) * float(np.sum(vals * radial * weights))
    return total


def _require_exponent(q: float, params: GasParameters) -> None:
    """The weight exponent of theorem3_functional must lie below -n - 2/(gamma-1)."""
    q_max = -params.n - 2.0 / (params.gamma - 1.0)
    if not q < q_max:
        raise ParameterError(f"weight exponent must satisfy q < {q_max}, got {q}")


def theorem3_functional(
    volume: MaterialVolume, density, velocity, x0, q: float, params: GasParameters
) -> float:
    """Weighted radial-momentum content of the initial data inside the volume.

    Volume quadrature of |x-x0|^(q-2) (v(x), x-x0) rho(x); density and
    velocity are callables over positions. The weight exponent must lie
    below -n - 2/(gamma-1), where the sign of this functional controls
    whether the boundary can ever reach x0.
    """
    _require_exponent(q, params)
    x0 = _require_external(volume, x0).x0

    def integrand(x):
        d = x - x0
        dist = np.linalg.norm(d, axis=-1)
        vx = np.asarray(velocity(x), dtype=float)
        return dist ** (q - 2.0) * np.sum(vx * d, axis=-1) * np.asarray(density(x), dtype=float)

    return interior_integral(volume, integrand)


@dataclass(frozen=True)
class RegularityReport:
    """Flux history along a tracked boundary and its observed sup.

    M_observed = max |flux| is derived, never passed. min_weight is the
    smallest surface-element weight over the tracked levels (nan unless
    set). It falls toward 0 as particles crowd together, before a
    collapse raises GeometryError.
    """

    times: np.ndarray
    fluxes: np.ndarray
    M_observed: float = field(init=False)
    min_weight: float = math.nan

    def __post_init__(self):
        times = _as_readonly(self.times)
        fluxes = _as_readonly(self.fluxes)
        if times.shape != fluxes.shape or times.ndim != 1:
            raise InvalidInputError("times and fluxes must be matching 1-D arrays")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fluxes", fluxes)
        object.__setattr__(self, "M_observed", float(np.max(np.abs(fluxes))))
        object.__setattr__(self, "min_weight", float(self.min_weight))


def track_boundary(
    volume: MaterialVolume, velocity_field, pressure_field, x0, t_end: float, steps: int
):
    """Advect the boundary to t_end, recording flux and probe distance.

    pressure_field maps (t, positions) -> pressures. t_end must be finite
    and later than volume.t. Returns the flux report, the min-distance
    history, and the final volume.
    """
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if not (math.isfinite(t_end) and t_end > volume.t):
        raise ParameterError(
            f"t_end must be finite and greater than the start time {volume.t}, got {t_end}"
        )
    dt = (t_end - volume.t) / steps
    times, fluxes, dists, weights = [], [], [], []
    current = volume
    for _ in range(steps + 1):
        times.append(current.t)
        flux, dist, weight = _level_diagnostics(current, lambda x: pressure_field(current.t, x), x0)
        fluxes.append(flux)
        dists.append(dist)
        weights.append(weight)
        if len(times) <= steps:
            current = advect(current, velocity_field, dt)
    report = RegularityReport(
        times=np.array(times), fluxes=np.array(fluxes), min_weight=min(weights)
    )
    return report, np.array(dists), current
