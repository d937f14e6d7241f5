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
from itertools import accumulate

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import (
    GasParameters,
    GasmomentsError,
    InvalidInputError,
    ParameterError,
    _adopt,
    _as_readonly,
    _axis,
    _count,
    _finite,
    _first_bad,
    _frozen,
    _samples,
    _within,
    sphere_area,
)

__all__ = [
    "GeometryError",
    "MaterialVolume",
    "RegularityReport",
    "advect",
    "boundary_pressure_flux",
    "theorem3_functional",
    "track_boundary",
]

# fixed Gauss-Legendre rule for the radial leg of cone-rule volume quadrature
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(24)
_CONE_S = 0.5 * (_GAUSS_NODES + 1.0)
_CONE_W = 0.5 * _GAUSS_WEIGHTS


class GeometryError(GasmomentsError, ValueError):
    """Configuration puts a probe point or particle where the formulas break."""


@dataclass(frozen=True)
class MaterialVolume:
    """Boundary-particle sampling of a closed material volume at one time.

    points has shape (2, 1) for an interval or (n_lat, n_lon, 3) for a
    closed surface; the structured layout is what lets normals and area
    weights be reconstructed from neighboring particles. In memory the
    component axis is outermost, whatever the order passed in.
    """

    points: np.ndarray
    t: float = 0.0

    def __post_init__(self, copy=True):
        _finite(self.t, "volume time")
        pts = np.asarray(self.points, dtype=float)
        i = _first_bad(pts)
        if i is not None:
            raise InvalidInputError(f"boundary particles must be finite, got {pts.flat[i]} at flat index {i}")
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
        # own copy, with the component axis outermost in memory; copy=None keeps arrays made for the volume
        pts = np.array(np.moveaxis(pts, -1, 0), order="C", copy=copy)
        object.__setattr__(self, "points", _as_readonly(np.moveaxis(pts, 0, -1), copy=None))

    @classmethod
    def interval(cls, a: float, b: float) -> "MaterialVolume":
        return cls(np.array([[a], [b]], dtype=float))

    @classmethod
    def sphere_surface(cls, center, radius: float, n_lat: int = 48, n_lon: int = 96) -> "MaterialVolume":
        _within(radius, "radius", 0.0)
        _count(n_lat, "n_lat", 1)
        _count(n_lon, "n_lon", 1)
        center = _check_point(center, 3, "sphere center")
        # cell-centered latitudes keep every node away from the poles
        th = (np.arange(n_lat) + 0.5) * np.pi / n_lat
        ph = np.arange(n_lon) * 2.0 * np.pi / n_lon
        T, P = np.meshgrid(th, ph, indexing="ij")
        pts = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)])
        return cls(np.moveaxis(center[:, None, None] + radius * pts, 0, -1))

    @property
    def dim(self) -> int:
        return self.points.shape[-1]

    @property
    def centroid(self) -> np.ndarray:
        # summed row by row, as over C-ordered points: a strided view is summed pairwise
        return np.ascontiguousarray(self.points).reshape(-1, self.dim).mean(axis=0)

    def surface_elements(self):
        """Outward unit normals and area weights at every particle."""
        ws = _TrackWorkspace.of(self.points)
        return np.moveaxis(ws.normals.copy(), 0, -1), ws.weights  # the copy frees the other buffers


def _check_point(x0, dim: int, what: str = "probe point") -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (dim,):
        raise InvalidInputError(f"{what} must be a {dim}-vector, got shape {x0.shape}")
    _finite(x0.tolist(), what)
    return x0


class _TrackWorkspace:
    """The one implementation of the boundary geometry, the probe and the RK4 step.

    Buffers for one boundary shape: points of shape (2, 1) for an interval
    or (n_lat, n_lon, 3) for a surface, component-major in memory.
    track_boundary builds one per run; the other entries build a one-shot
    one, so all of them run this code. Every array operation writes
    through out= in the order of the plain expression it stands for
    (np.cross's formula, the RK4 combination), so the results are the same
    bits. A dot product over the component axis is np.einsum's, which adds
    left to right on these contiguous component-major buffers, to the bits
    of np.sum(a * b, axis=-1) and np.linalg.norm; on other layouts its
    order differs. Reductions call the ufunc's reduce
    directly, to the bits of np.sum, np.min and the rest without their
    dispatch. A broadcast (the normals divided by their length, the
    offsets x - x0, the normals' orientation flip) stays one call: numpy's
    buffered broadcast is cheaper than one call per component.

    The geometry reads the positions as a (dim, ...) view, without a copy.
    A surface takes tangents from neighboring particles, centered along
    latitude rows (one-sided at the polar rows) and periodic along
    longitude; their cross product's length is the weight. An interval's
    endpoints carry unit normals and counting-measure weights. Either way
    the normals are then turned away from the centroid.
    """

    def __init__(self, shape):
        dim, grid = shape[-1], shape[:-1]
        self.dim = dim
        self.half_area = 0.5 * sphere_area(dim)
        self.axes = (len(grid),) + tuple(range(len(grid)))  # component axis first
        self.column = (dim,) + (1,) * len(grid)  # a point, broadcast against the particles
        block = np.empty((3, dim) + grid)
        # normals and the two tangents; the offsets x - x0 reuse the first
        # tangent once the normals are built
        self.normals, self.t_th, self.t_ph = block
        self.d = self.t_th
        self.weights, self.dn, self.dist, self.s = (np.empty(grid) for _ in range(4))
        self.mask = np.empty(grid, dtype=bool)
        # RK4 stage positions, laid out like the particles, handed out
        # read-only. They reuse the geometry's memory: an RK4 step needs none
        # of it, and a level rebuilds all of it.
        self.stages = [np.moveaxis(b, 0, -1) for b in block]
        self.views = [_frozen(x.view()) for x in self.stages]
        self.finite = np.moveaxis(np.empty((dim,) + grid, dtype=bool), 0, -1)

    @classmethod
    def of(cls, points: np.ndarray) -> "_TrackWorkspace":
        """A one-shot workspace holding the geometry of points."""
        ws = cls(points.shape)
        ws.geometry(points)
        return ws

    def geometry(self, points: np.ndarray) -> None:
        """Outward unit normals and weights of the boundary sampled at points."""
        self.p = p = points.transpose(self.axes)
        nrm, w = self.normals, self.weights
        if self.dim == 1:
            nrm.fill(1.0)
            w.fill(1.0)
        else:
            t_th, t_ph = self.t_th, self.t_ph
            np.subtract(p[:, 2:], p[:, :-2], out=t_th[:, 1:-1])
            t_th[:, 1:-1] *= 0.5
            np.subtract(p[:, 1], p[:, 0], out=t_th[:, 0])
            np.subtract(p[:, -1], p[:, -2], out=t_th[:, -1])
            # centered along each component's flattened rows, which needs no
            # temporary; the two entries that straddle two latitude rows are
            # the periodic ends, set next
            flat, t_flat = p.reshape(3, -1), t_ph.reshape(3, -1)
            np.subtract(flat[:, 2:], flat[:, :-2], out=t_flat[:, 1:-1])
            np.subtract(p[:, :, 1], p[:, :, -1], out=t_ph[:, :, 0])
            np.subtract(p[:, :, 0], p[:, :, -2], out=t_ph[:, :, -1])
            t_ph *= 0.5
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # n_i = a_j b_k - a_k b_j
                np.multiply(t_th[j], t_ph[k], out=nrm[i])
                np.multiply(t_th[k], t_ph[j], out=self.s)
                np.subtract(nrm[i], self.s, out=nrm[i])
            # einsum adds left to right on these component-major buffers only (class docstring)
            np.sqrt(np.einsum("i...,i...->...", nrm, nrm, out=w), out=w)
            if np.logical_or.reduce(np.less_equal(w, 0.0, out=self.mask), axis=None):
                raise GeometryError("degenerate surface element: particles have collapsed")
            np.divide(nrm, w, out=nrm)
        centroid = np.add.reduce(p.reshape(self.dim, -1), axis=1) / w.size  # np.mean's sum and divide
        np.less(self.offsets(centroid), 0.0, out=self.mask)
        np.negative(nrm, out=nrm, where=self.mask)

    def offsets(self, point: np.ndarray) -> np.ndarray:
        """d = x - point at every particle, and dn = d . nu, which is returned."""
        np.subtract(self.p, point.reshape(self.column), out=self.d)
        # einsum adds left to right on these component-major buffers only (class docstring)
        return np.einsum("i...,i...->...", self.d, self.normals, out=self.dn)

    def probe(self, x0: np.ndarray) -> None:
        """Sets the offsets to the checked probe point x0 and their lengths."""
        self.offsets(x0)
        # einsum adds left to right on these component-major buffers only (class docstring)
        np.sqrt(np.einsum("i...,i...->...", self.d, self.d, out=self.dist), out=self.dist)

    def inside(self, x0: np.ndarray) -> bool:
        """Winding test of the probed x0: the Green kernel's flux is a full solid angle inside."""
        if self.dim == 1:
            return bool(self.p[0, 0] < x0[0] < self.p[0, 1])
        if np.logical_or.reduce(np.equal(self.dist, 0.0, out=self.mask), axis=None):
            return True
        kernel = self.s
        np.multiply(self.dist, self.dist, out=kernel)
        np.multiply(kernel, self.dist, out=kernel)  # |x - x0|^3 without pow
        np.divide(self.dn, kernel, out=kernel)
        np.multiply(kernel, self.weights, out=kernel)
        return float(np.add.reduce(kernel, axis=None)) > self.half_area

    def spacing(self) -> float:
        """sqrt(median(weights)), the typical particle distance (0 for an interval)."""
        return 0.0 if self.dim == 1 else math.sqrt(np.median(self.weights))

    def require_external(self, x0: np.ndarray) -> float:
        """The nearest particle distance to the checked x0, once x0 lies outside, clear of the boundary."""
        self.probe(x0)
        if self.inside(x0):
            raise GeometryError(f"probe point {x0.tolist()} lies inside the material volume")
        near = float(np.minimum.reduce(self.dist, axis=None))
        # the median weight is at most the largest and sqrt is monotone, so
        # a probe clear of sqrt(max) is clear of the spacing
        if near <= math.sqrt(np.maximum.reduce(self.weights, axis=None)) and near <= self.spacing():
            raise GeometryError(f"probe point {x0.tolist()} is within one particle spacing of the boundary")
        return near

    def level(self, points: np.ndarray, pressure_field, x0: np.ndarray):
        """boundary_pressure_flux, the probe distance and the smallest weight at points, for a checked x0."""
        self.geometry(points)
        near = self.require_external(x0)
        p = np.asarray(pressure_field(points), dtype=float)
        if p.shape != self.weights.shape:
            raise InvalidInputError(f"pressure field returned shape {p.shape}, expected {self.weights.shape}")
        flux = self.s
        np.divide(self.dn, self.dist, out=flux)  # radial
        np.multiply(p, flux, out=flux)
        np.multiply(flux, self.weights, out=flux)
        return float(np.add.reduce(flux, axis=None)), near, float(np.minimum.reduce(self.weights, axis=None))

    def velocity(self, field, t: float, x: np.ndarray) -> np.ndarray:
        v = np.asarray(field(t, x), dtype=float)
        if v.shape != x.shape:
            raise InvalidInputError(f"velocity field returned shape {v.shape}, expected {x.shape}")
        if not np.logical_and.reduce(np.isfinite(v, out=self.finite), axis=None):
            raise GeometryError("particle left the velocity field's domain (non-finite velocity)")
        return v

    def advance(self, field, x: np.ndarray, t: float, dt: float) -> np.ndarray:
        """One classical RK4 step from positions x at time t, as a new array.

        Stage k_i sees its own stage buffer, which it may alias; a buffer is
        reused only after its k has been read. The new positions are a
        fresh array that becomes the next level, so no level's positions
        live in the workspace.
        """
        x2, x3, x4 = self.stages
        v2, v3, v4 = self.views
        h = 0.5 * dt
        k1 = self.velocity(field, t, x)
        np.add(x, np.multiply(k1, h, out=x2), out=x2)
        k2 = self.velocity(field, t + h, v2)
        np.add(x, np.multiply(k2, h, out=x3), out=x3)
        k3 = self.velocity(field, t + h, v3)
        np.add(x, np.multiply(k3, dt, out=x4), out=x4)
        k4 = self.velocity(field, t + dt, v4)
        acc = np.add(k1, np.multiply(k2, 2.0, out=x2), out=x2)  # ((k1 + 2 k2) + 2 k3) + k4
        np.add(acc, np.multiply(k3, 2.0, out=x3), out=acc)
        np.add(acc, k4, out=acc)
        moved = np.add(x, np.multiply(acc, dt / 6.0, out=acc))
        if not np.logical_and.reduce(np.isfinite(moved, out=self.finite), axis=None):
            raise GeometryError("particle left the velocity field's domain (non-finite position)")
        return moved


def advect(volume: MaterialVolume, velocity_field, dt: float) -> MaterialVolume:
    """One classical RK4 step of every boundary particle under v(t, x).

    The positions handed to velocity_field are read-only and valid only
    during the call. Their component axis is outermost in memory, so they
    are not C-contiguous: code that needs C order calls np.ascontiguousarray.
    """
    moved = _TrackWorkspace(volume.points.shape).advance(velocity_field, volume.points, volume.t, dt)
    return _adopt(MaterialVolume, points=moved, t=volume.t + dt)


def boundary_pressure_flux(volume: MaterialVolume, pressure_field, x0) -> float:
    """Signed surface integral of p (x-x0)/|x-x0| . nu over the boundary.

    pressure_field maps particle positions (..., n) -> pressures (...).
    The probe point must sit strictly outside the volume, at least one
    particle spacing away from the sampled boundary.
    """
    x0 = _check_point(x0, volume.dim)
    return _TrackWorkspace(volume.points.shape).level(volume.points, pressure_field, x0)[0]


def _cone_rule(ws: _TrackWorkspace, c: np.ndarray, f) -> float:
    """Volume integral of f over the region that ws's geometry bounds, by the cone rule; overwrites ws's offsets.

    From the centroid c, int_V f dV is the surface integral of (x-c, nu) int_0^1 s^(n-1) f(c + s(x-c)) ds, its
    radial leg a fixed Gauss-Legendre rule. Star-shaped regions only, which advected spheres remain in practice.
    """
    radial = ws.offsets(c)
    rel = np.moveaxis(ws.d, 0, -1)  # x - c, laid out like the particles
    total = 0.0
    for s, w in zip(_CONE_S, _CONE_W):
        vals = np.asarray(f(c + s * rel), dtype=float)
        total += w * s ** (ws.dim - 1) * float(np.sum(vals * radial * ws.weights))
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
    _within(q, "weight exponent q", hi=-params.n - 2.0 / (params.gamma - 1.0))
    x0 = _check_point(x0, volume.dim)
    ws = _TrackWorkspace.of(volume.points)  # one geometry serves the probe and the cone rule
    ws.require_external(x0)

    def integrand(x):
        d = x - x0
        dist = np.linalg.norm(d, axis=-1)
        vx = np.asarray(velocity(x), dtype=float)
        return dist ** (q - 2.0) * np.sum(vx * d, axis=-1) * np.asarray(density(x), dtype=float)

    return _cone_rule(ws, volume.centroid, integrand)


@dataclass(frozen=True)
class RegularityReport:
    """Flux history along a tracked boundary and its observed sup.

    M_observed = max |flux| is derived, never passed. min_weight is the smallest
    surface-element weight over the tracked levels; it falls toward 0 as particles
    crowd together, before a collapse raises GeometryError. levels and
    particle_steps (particles times RK4 steps) count track_boundary's work.
    """

    times: np.ndarray
    fluxes: np.ndarray
    M_observed: float = field(init=False)
    min_weight: float
    levels: int
    particle_steps: int

    def __post_init__(self):
        object.__setattr__(self, "times", _axis(self.times, "report times", 1))
        object.__setattr__(self, "fluxes", _samples(self.fluxes, "fluxes", self.times.shape))
        object.__setattr__(self, "M_observed", float(np.max(np.abs(self.fluxes))))
        object.__setattr__(self, "min_weight", float(self.min_weight))


def _level_times(t0: float, t_end: float, steps: int):
    """The tracker's step dt and clock: t0, then each level dt later as t + dt, the last within ulps of t_end;
    levels that do not strictly increase (dt below half an ulp of t) are a ParameterError naming t_end and steps."""
    _count(steps, "steps", 1)
    _within(t_end, "t_end", t0)
    dt = (t_end - t0) / steps
    try:
        return dt, _axis(list(accumulate([dt] * steps, initial=t0)), "level times", 2).tolist()
    except InvalidInputError as exc:
        raise ParameterError(f"t_end={t_end} with steps={steps}: {exc}") from None


def track_boundary(
    volume: MaterialVolume, velocity_field, pressure_field, x0, t_end: float, steps: int
):
    """Advect the boundary to t_end, recording flux and probe distance.

    pressure_field maps (t, positions) -> pressures. `_level_times` builds and checks the
    levels before the first step. Returns the flux report, the min-distance history, and the
    final volume. One _TrackWorkspace serves the whole run. The positions handed to
    velocity_field and pressure_field are read-only, valid only during the call and laid out
    as advect's. The report counts the levels and the particle-steps.
    """
    dt, times = _level_times(volume.t, t_end, steps)
    x0 = _check_point(x0, volume.dim)
    ws, x, rows = _TrackWorkspace(volume.points.shape), volume.points, []  # rows: flux, distance, least weight
    for level, t in enumerate(times):
        rows.append(ws.level(x, lambda y: pressure_field(t, y), x0))
        if level < steps:
            x = ws.advance(velocity_field, x, t, dt)
            x.flags.writeable = False
    fluxes, dists, weights = zip(*rows)
    report = RegularityReport(times, fluxes, min_weight=min(weights), levels=len(rows),
                              particle_steps=steps * ws.weights.size)
    return report, np.array(dists), _adopt(MaterialVolume, points=x, t=times[-1])
