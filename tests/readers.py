"""Test-side readers of the geometry and envelope code that the library entries run.

Each is a few lines over the private pieces that bounds and lagrangian
callers already go through, so a test reads the same bits.
"""

from gasmoments.bounds import DecayClassSpec, _reach
from gasmoments.lagrangian import MaterialVolume, _check_point, _cone_rule, _TrackWorkspace


def envelope_radius(spec: DecayClassSpec, t: float) -> float:
    """Reach at time t of particles launched from R0 under |v| <= M_v(t) |x|^alpha_v."""
    return _reach(spec)(t)


def interior_integral(volume: MaterialVolume, f) -> float:
    """Volume integral of f over the region the particles bound, by the cone rule from the centroid."""
    return _cone_rule(_TrackWorkspace.of(volume.points), volume.centroid, f)


def contains(volume: MaterialVolume, x0) -> bool:
    """Winding test: the Green kernel's flux is a full solid angle inside."""
    x0 = _check_point(x0, volume.dim)
    ws = _TrackWorkspace.of(volume.points)
    ws.probe(x0)
    return ws.inside(x0)


def spacing(volume: MaterialVolume) -> float:
    """Typical inter-particle distance (0 for an interval boundary)."""
    return _TrackWorkspace.of(volume.points).spacing()
