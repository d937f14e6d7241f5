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
from dataclasses import dataclass
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
    "min_distance",
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
        pts = _as_readonly(np.asarray(self.points, dtype=float))
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
    def interval(cls, a: float, b: float, t: float = 0.0) -> "MaterialVolume":
        return cls(np.array([[a], [b]], dtype=float), t=t)

    @classmethod
    def sphere_surface(
        cls, center, radius: float, n_lat: int = 48, n_lon: int = 96, t: float = 0.0
    ) -> "MaterialVolume":
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
        return cls(center + radius * pts, t=t)

    @property
    def dim(self) -> int:
        return self.points.shape[-1]

    @property
    def centroid(self) -> np.ndarray:
        return self.points.reshape(-1, self.dim).mean(axis=0)

    def surface_elements(self):
        """Outward unit normals and area weights at every particle."""
        if self.dim == 1:
            normals = np.array([[-1.0], [1.0]])
            weights = np.ones(2)
            return normals, weights
        nx, ny, nz, weights = _surface_geometry(self.points)
        return np.stack([nx, ny, nz], axis=-1), weights

    def surface_area(self) -> float:
        _, weights = self.surface_elements()
        return float(np.sum(weights))

    def spacing(self) -> float:
        """Typical inter-particle distance (0 for an interval boundary)."""
        return 0.0 if self.dim == 1 else _spacing(_surface_geometry(self.points)[3])

    def contains(self, x0) -> bool:
        """Winding test: flux of the Green kernel is a full solid angle inside."""
        return _inside(self, _probe(self, x0))


def _surface_geometry(points: np.ndarray):
    """Outward unit normal components nx, ny, nz and area weights of a surface.

    points is the (n_lat, n_lon, 3) sampling of a closed surface. The work
    runs on a contiguous (3, n_lat, n_lon) copy, one component at a time:
    tangents from neighboring particles, centered along latitude rows
    (one-sided at the polar rows) and periodic along longitude, then their
    cross product, whose length is the weight. Sums of three terms run
    left to right, the order of numpy's reduction over a trailing axis of
    length 3, so the results equal np.cross and np.linalg.norm bit for bit.
    """
    p = np.ascontiguousarray(np.moveaxis(points, -1, 0))
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
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    weights = np.sqrt((cx * cx + cy * cy) + cz * cz)
    if np.any(weights <= 0.0):
        raise GeometryError("degenerate surface element: particles have collapsed")
    nx, ny, nz = cx / weights, cy / weights, cz / weights
    # outward: away from the centroid
    c = points.reshape(-1, 3).mean(axis=0)
    flip = (nx * (p[0] - c[0]) + ny * (p[1] - c[1])) + nz * (p[2] - c[2]) < 0.0
    for comp in (nx, ny, nz):
        np.negative(comp, out=comp, where=flip)
    return nx, ny, nz, weights


def _check_point(x0, dim: int) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (dim,):
        raise InvalidInputError(f"probe point must be a {dim}-vector, got shape {x0.shape}")
    return x0


def _spacing(weights: np.ndarray) -> float:
    return float(np.sqrt(np.median(weights)))


class _Probe(NamedTuple):
    """A checked probe point against one sampling of the boundary."""

    x0: np.ndarray
    weights: np.ndarray
    dn: np.ndarray  # (x - x0) . nu
    dist: np.ndarray  # |x - x0|


def _probe(volume: MaterialVolume, x0) -> _Probe:
    """Build the surface geometry and the offsets to x0 once.

    The containment and spacing checks, the pressure flux and the probe
    distance all read the one result.
    """
    x0 = _check_point(x0, volume.dim)
    pts = volume.points
    if volume.dim == 1:
        d = pts - x0
        normals, weights = volume.surface_elements()
        return _Probe(x0, weights, np.sum(d * normals, axis=-1), np.linalg.norm(d, axis=-1))
    nx, ny, nz, weights = _surface_geometry(pts)
    dx, dy, dz = pts[..., 0] - x0[0], pts[..., 1] - x0[1], pts[..., 2] - x0[2]
    dn = (dx * nx + dy * ny) + dz * nz
    return _Probe(x0, weights, dn, np.sqrt((dx * dx + dy * dy) + dz * dz))


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


def min_distance(volume: MaterialVolume, x0) -> float:
    x0 = _check_point(x0, volume.dim)
    d = volume.points - x0
    return float(np.min(np.linalg.norm(d, axis=-1)))


def _require_external(volume: MaterialVolume, x0) -> _Probe:
    """The probe of x0, once x0 is known to lie outside, clear of the boundary."""
    probe = _probe(volume, x0)
    if _inside(volume, probe):
        raise GeometryError(f"probe point {probe.x0.tolist()} lies inside the material volume")
    if float(np.min(probe.dist)) <= (0.0 if volume.dim == 1 else _spacing(probe.weights)):
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
    if volume.dim == 1:
        normals, weights = volume.surface_elements()
        radial = np.sum(rel * normals, axis=-1)
    else:
        nx, ny, nz, weights = _surface_geometry(volume.points)
        radial = (rel[..., 0] * nx + rel[..., 1] * ny) + rel[..., 2] * nz
    n = volume.dim
    total = 0.0
    for s, ws in zip(_CONE_S, _CONE_W):
        x = c + s * rel
        vals = np.asarray(f(x), dtype=float)
        total += ws * s ** (n - 1) * float(np.sum(vals * radial * weights))
    return total


def theorem3_functional(
    volume: MaterialVolume, density, velocity, x0, q: float, params: GasParameters
) -> float:
    """Weighted radial-momentum content of the initial data inside the volume.

    Volume quadrature of |x-x0|^(q-2) (v(x), x-x0) rho(x); density and
    velocity are callables over positions. The weight exponent must lie
    below -n - 2/(gamma-1), where the sign of this functional controls
    whether the boundary can ever reach x0.
    """
    q_max = -params.n - 2.0 / (params.gamma - 1.0)
    if not q < q_max:
        raise ParameterError(f"weight exponent must satisfy q < {q_max}, got {q}")
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

    min_weight is the smallest surface-element weight over the tracked
    levels (nan unless set). It falls toward 0 as particles crowd
    together, before a collapse raises GeometryError.
    """

    times: np.ndarray
    fluxes: np.ndarray
    M_observed: float = math.nan
    min_weight: float = math.nan

    def __post_init__(self):
        times = _as_readonly(np.asarray(self.times, dtype=float))
        fluxes = _as_readonly(np.asarray(self.fluxes, dtype=float))
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
