"""Exact uniform-deformation solutions v = a(t) x.

Pipeline: a pressure shape template is rescaled so that the pair
(rho0, p0) with rho0 proportional to -p0' satisfies the self-consistent
compatibility condition p0' = -c rho0, c = (gamma-1) E_i(0) / G(0).
The deformation factor solves the Riccati-type system

    a' = -a^2 + K exp(-m b),   b' = a,   m = (gamma-1) n + 2,

integrated by an embedded Dormand-Prince 5(4) pair with PI step control
and quintic Hermite dense output. Fields at time t are rescalings of the
initial profiles:

    rho(t,r) = e^(-n b) rho0(r e^(-b)),  p(t,r) = e^(-n gamma b) p0(r e^(-b)).

The same ODE arises from the fundamental-solution weight route with a
different constant K; the two constructions are compared bit-for-bit in
the acceptance suite.

A third profile family, built by build_balanced_profiles, couples the
profiles through p0' = -K r rho0 instead. Reconstructions from such a
pair balance the pressure gradient against the acceleration field and
therefore solve the full gas-dynamics system including the momentum
equation, which makes them the right reference data for finite-volume
cross-validation. Reconstructions from the other two couplings satisfy
the continuity and pressure-transport equations only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    FlowSnapshot,
    GasParameters,
    GasmomentsError,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    _POWER_DIMENSION,
    _adopt,
    _as_readonly,
    _axis,
    _count,
    _finite,
    _first_bad,
    _freeze_samples,
    _samples,
    _tail_excess,
    _within,
    integrate_radial,
    sphere_area,
)

__all__ = [
    "InvalidShapeError",
    "StiffnessError",
    "MODE_MOMENTUM",
    "MODE_EXCLUDING",
    "MODE_BALANCED",
    "GaussianShape",
    "TabulatedShape",
    "ProfilePair",
    "DeformationODE",
    "DeformationSolution",
    "build_balanced_profiles",
    "build_compatible_profiles",
    "check_compatibility",
    "deformation_constant",
    "excluding_pressure_constant",
    "integrate_deformation",
    "reconstruct_fields",
]

MODE_MOMENTUM = "momentum-of-mass"
MODE_EXCLUDING = "excluding-pressure"
MODE_BALANCED = "force-balanced"


class InvalidShapeError(GasmomentsError, ValueError):
    """The shape template cannot yield a pair: a negative density, or a shape moment that diverges or vanishes."""


class StiffnessError(GasmomentsError, RuntimeError):
    """The adaptive integrator underflowed its step or exhausted its step budget.

    Underflow comes from stiffness or from a finite-time collapse of a.
    Carries the time t reached and the step size h that was about to be tried.
    """

    def __init__(self, message: str, t: float, h: float):
        super().__init__(message)
        self.t = t
        self.h = h


@dataclass(frozen=True)
class GaussianShape:
    """shape(u) = exp(-u^2/2), the reference template."""

    def __call__(self, u):
        return np.exp(-np.asarray(u, dtype=float) ** 2 / 2.0)

    def derivative(self, u):
        return self._value_and_slope(u)[1]

    def _value_and_slope(self, u):
        # one exp serves both: shape'(u) = -u shape(u)
        u = np.asarray(u, dtype=float)
        value = self(u)
        return value, -u * value


def _knot_slopes(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The interpolating cubic spline's slopes at the knots u.

    A continuous second derivative at each interior knot gives one row of a
    tridiagonal system (de Boor, A Practical Guide to Splines, ch. IV). The
    left end is clamped to slope 0 when the table starts at u = 0 and is
    not-a-knot otherwise; the right end is not-a-knot. One forward sweep
    and one back-substitution solve it without pivoting, on Python floats:
    on numpy scalars the same loop takes about 1.7 times as long.
    """
    h = np.diff(u)
    secant = np.diff(values) / h
    # interior row i: h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1]
    #                 = 3 (h[i] secant[i-1] + h[i-1] secant[i])
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    rhs = (3.0 * (h[1:] * secant[:-1] + h[:-1] * secant[1:])).tolist()
    upper, lower = h[:-1].tolist(), h[1:].tolist()
    h, secant = h.tolist(), secant.tolist()
    # a radial profile is the trace of an even function: clamp slope 0 at the
    # origin, otherwise the free-end spline invents a small positive slope there
    if u[0] == 0.0:
        diag.insert(0, 1.0)
        upper.insert(0, 0.0)
        rhs.insert(0, 0.0)
    else:
        d = float(u[2] - u[0])
        diag.insert(0, h[1])
        upper.insert(0, d)
        rhs.insert(0, ((h[0] + 2.0 * d) * h[1] * secant[0] + h[0] * h[0] * secant[1]) / d)
    d = float(u[-1] - u[-3])
    diag.append(h[-2])
    lower.append(d)
    rhs.append((h[-1] * h[-1] * secant[-2] + (2.0 * d + h[-1]) * h[-2] * secant[-1]) / d)
    for i in range(1, len(diag)):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    slopes = rhs
    slopes[-1] /= diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        slopes[i] = (rhs[i] - upper[i] * slopes[i + 1]) / diag[i]
    return np.array(slopes)


# points per evaluation block, so that the temporaries stay in cache: unblocked,
# 2e5 points took 6.1 ms against 3.0 ms on a 2-CPU x86-64 host
_SPLINE_BLOCK = 8192


class TabulatedShape:
    """Cubic-spline shape from sampled (u, value) pairs, u >= 0; zero beyond the table.

    knots holds the table's abscissae (read-only): the spline is one cubic
    on each interval between them. Its left end is clamped to slope 0 when
    the table starts at u = 0 and is not-a-knot otherwise; its right end is
    not-a-knot. Below the first knot the first cubic extends.

    Each interval's cubic is stored in its local coordinate t in [0, 1],
    one row per interval, for the value and for the derivative. Two padding
    rows follow: one holds the value (or the last cubic's slope) at exactly
    u_max, one holds zeros for every point beyond it. np.interp then maps a
    point to its row plus t in one pass, and NaN reads the zero row.
    Horner's rule runs over fixed blocks of points so that its temporaries
    stay in cache; the value and the slope can share one locate. Each
    block's coefficients are gathered straight into the output and into
    one block-length row, so a gather allocates nothing.
    """

    def __init__(self, u, values):
        u = self.knots = _axis(u, "tabulated shape knots", 4, nonnegative=True)  # the template's u = r/s >= 0
        values = _samples(values, "tabulated shape values", u.shape)
        self._rows = np.arange(u.size, dtype=float)
        h = np.diff(u)
        self._u0, self._h0 = float(u[0]), float(h[0])
        slopes = _knot_slopes(u, values)
        s0, s1 = slopes[:-1], slopes[1:]
        secant = np.diff(values) / h
        cubic = s0 + s1 - 2.0 * secant
        quadratic = 3.0 * secant - 2.0 * s0 - s1
        self._value = np.zeros((4, u.size + 1))
        self._value[:, :-2] = h * cubic, h * quadratic, h * s0, values[:-1]
        self._value[3, -2] = values[-1]
        self._slope = np.zeros((3, u.size + 1))
        self._slope[:, :-2] = 3.0 * cubic, 2.0 * quadratic, s0
        self._slope[2, -2] = np.sum(self._slope[:, -3])
        # the clamp hides the data's own slope at u = 0: keep its one-sided
        # second-order estimate, (-3 y0 + 4 y1 - y2) / (2h) on a uniform table
        (h1, h2), (dy1, dy2) = h[:2], values[1:3] - values[0]
        slope = (dy1 * (h1 + h2) ** 2 - dy2 * h1**2) / (h1 * h2 * (h1 + h2))
        self.origin_slope = float(slope if u[0] == 0.0 else self.derivative(0.0))

    def _evaluate(self, u, *coefs: np.ndarray) -> list[np.ndarray]:
        """One Horner pass per table of coefs, at the points u, located once."""
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        outs = [np.empty(flat.size) for _ in coefs]
        scratch = np.empty(min(flat.size, _SPLINE_BLOCK))
        for lo in range(0, flat.size, _SPLINE_BLOCK):
            x = flat[lo:lo + _SPLINE_BLOCK]
            odd = not x.min() >= self._u0  # a point below the table, or NaN
            if odd:
                x = np.where(np.isnan(x), np.inf, x)
            # the integer part is the row, the fraction is t
            t = np.interp(x, self.knots, self._rows, right=self._rows.size)
            whole = np.floor(t)
            row = whole.astype(np.intp)
            t -= whole
            if odd:
                below = x < self._u0
                t[below] = (x[below] - self._u0) / self._h0
            # every row is in [0, knots.size], so "clip" moves none; it lets take write into out unbuffered
            c_row = scratch[:x.size]
            for coef, out in zip(coefs, outs):
                y = out[lo:lo + x.size]
                np.take(coef[0], row, out=y, mode="clip")
                for c in coef[1:]:
                    y *= t
                    y += np.take(c, row, out=c_row, mode="clip")
        return [out.reshape(u.shape) for out in outs]

    def __call__(self, u):
        return self._evaluate(u, self._value)[0]

    def derivative(self, u):
        return self._evaluate(u, self._slope)[0]

    def _value_and_slope(self, u):
        return self._evaluate(u, self._value, self._slope)


@dataclass(frozen=True)
class ProfilePair:
    """Initial (rho0, p0) on a grid, plus the sampled pressure gradient.

    p0_prime carries the analytic (or spline) derivative of the shape;
    re-deriving it from grid samples would cost four orders of magnitude
    in the compatibility residual. Off its grid a pair follows one rule: a
    builder's pair evaluates its shape; every other pair, made by hand or
    by dataclasses.replace(), interpolates its samples, zero beyond the grid.
    The methods below are the second rule; _pair gives a builder's pair its
    shape's evaluators as instance attributes, which replace() does not copy.
    """

    grid: RadialGrid
    rho0: np.ndarray
    p0: np.ndarray
    p0_prime: np.ndarray
    mode: str = MODE_MOMENTUM
    scale: float = float("nan")

    def __post_init__(self):
        _freeze_samples(self, ("rho0", "p0", "p0_prime"), self.grid, signed=("rho0", "p0"))
        if self.mode not in (MODE_MOMENTUM, MODE_EXCLUDING, MODE_BALANCED):
            raise ParameterError(f"unknown compatibility mode {self.mode!r}")

    def eval_rho0(self, radii):
        return np.interp(radii, self.grid.r, self.rho0, right=0.0)

    def eval_p0(self, radii):
        return np.interp(radii, self.grid.r, self.p0, right=0.0)

    def _profiles(self, radii):
        # both at radii as new arrays (a builder's from one shape evaluation); radii, a new array, is handed over
        return self.eval_rho0(radii), self.eval_p0(radii)


def _m_exp(params: GasParameters) -> float:
    # shared by both ODE constructors so their exponents agree bitwise
    return (params.gamma - 1.0) * params.n + 2.0


@dataclass(frozen=True)
class DeformationODE:
    """a' = -a^2 + K exp(-m_exp b), b' = a, from a(0) = a0 and b(0) = 0."""

    K: float
    m_exp: float
    a0: float = 0.0

    def __post_init__(self):
        _within(self.K, "forcing constant K", 0.0, ends="[)")  # global existence fails for K < 0
        _within(self.m_exp, "exponent m_exp = (gamma - 1) n + 2", 2.0)
        _finite(self.a0, "initial value a0", ParameterError)


# the builders' default grid: [0, _GRID_SPAN * scale] with _GRID_NUM nodes
_GRID_SPAN = 12.0
_GRID_NUM = 4001
# the template probe; node _PROBE_END sits at u = _GRID_SPAN, the default grid's end
_PROBE = np.linspace(0.0, 50.0, 2001)
_PROBE_END = int(np.searchsorted(_PROBE, _GRID_SPAN))


def _probe_shape(shape, mass_scale: float):
    """The builders' prologue: check the mass, find shape' and probe the template on [0, 50].

    The template must be finite, nonnegative and nonincreasing there; a
    rejection of the first two names the first probe point that fails.
    Returns shape' and the samples of shape and shape' on the probe.
    """
    _within(mass_scale, "mass scale", 0.0)
    dshape = getattr(shape, "derivative", None)
    if not callable(dshape):
        raise InvalidShapeError(f"shape {type(shape).__name__} has no callable derivative(u) method")
    vals = np.asarray(shape(_PROBE), dtype=float)
    i = _first_bad(vals, "nonnegative")
    if i is not None:
        raise InvalidShapeError(f"shape must be finite and nonnegative, got {vals[i]:.3g} at u = {_PROBE[i]:g}")
    dvals = np.asarray(dshape(_PROBE), dtype=float)
    if np.any(dvals > 1e-12 * np.max(np.abs(dvals))):
        raise InvalidShapeError("shape must be nonincreasing (density would go negative)")
    return dshape, vals, dvals


# Gauss-Legendre nodes and weights on [-1, 1]: 8 nodes integrate degree 15 exactly
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _moment_rule(shape) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule for the shape moments.

    A tabulated shape is one cubic on [0, u0] (the spline's extension
    below a table that starts after 0) and on each knot interval, and zero
    beyond its last knot, so its panels are those intervals and the rule is
    exact for every moment u^k, 0 <= k <= 12. Any other shape gets 100
    equal panels on the probe range [0, 50].
    """
    if isinstance(shape, TabulatedShape):
        edges = shape.knots if shape.knots[0] == 0.0 else np.concatenate(([0.0], shape.knots))
    else:
        edges = np.linspace(0.0, _PROBE[-1], 101)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half) + half * _GL_NODES
    return nodes.ravel(), (half * _GL_WEIGHTS).ravel()


def _moment(f, rule, probe_vals: np.ndarray, k: int) -> float:
    """The shape moment int_0^inf f(u) u^k du; raises InvalidShapeError unless it converges and is positive.

    Convergence is judged by decay, with the rule of integrate_radial: f u^k
    at the default grid's end (u = 12) must be below TAIL_FRACTION of its
    peak on the probe, where f's samples are probe_vals. The origin is left
    out, since u^k is singular there for k < 0. The value is the sum of
    f u^k over the (nodes, weights) of rule, from _moment_rule; no node
    sits at the origin.
    """
    excess = _tail_excess(probe_vals[1:] * _PROBE[1:] ** k, _PROBE_END - 1)
    if excess:
        raise InvalidShapeError(
            f"the template must decay within the grid [0, {_GRID_SPAN:g} scale]: the moment "
            f"integrand f(u) u^{k} at u = {_GRID_SPAN:g} is {excess:.1e} of its peak"
        )
    u, w = rule
    value = float(np.sum(w * (np.asarray(f(u), dtype=float) * u**k)))
    return _within(value, f"shape moment int f(u) u^{k} du", 0.0, error=InvalidShapeError)


def _pair(mode: str, scale: float, p0_fn, p0_prime_fn, rho0_fn, profiles) -> ProfilePair:
    """The builders' epilogue: the pair sampled on the default grid [0, 12 scale], 4001 nodes."""
    grid = RadialGrid.uniform(_GRID_SPAN * scale, _GRID_NUM)
    r = grid.r
    pair = ProfilePair(grid=grid, rho0=rho0_fn(r), p0=p0_fn(r), p0_prime=p0_prime_fn(r), mode=mode, scale=scale)
    for name, fn in (("eval_rho0", rho0_fn), ("eval_p0", p0_fn), ("_profiles", profiles)):
        object.__setattr__(pair, name, fn)
    return pair


def build_compatible_profiles(shape, params: GasParameters, mass_scale: float = 1.0) -> ProfilePair:
    """Construct a compatible initial pair (rho0, p0) from a pressure template.

    p0(r) = shape(r/s) where the rescale s solves

        (n+1)/2 * int p0 r^n dr = int p0 r^(n-1) dr.

    With p0 = shape(r/s) both sides scale as powers of s, so the equation
    is linear in s: s = 2 M_(n-1) / ((n+1) M_n) with the shape moments
    M_k = int shape(u) u^k du. rho0 = lam * (-p0') with lam fixed by total
    mass = mass_scale. The output satisfies the compatibility coupling
    p0' = -c rho0 with the self-consistent constant
    c = (gamma-1) E_i(0) / G(0) = 1/lam.

    The grid spans [0, 12 s] with 4001 nodes, so the template must decay
    within u = 12; one that does not raises InvalidShapeError. Any n >= 1 works.
    """
    dshape, vals, dvals = _probe_shape(shape, mass_scale)
    n = params.n
    rule = _moment_rule(shape)
    mom_lo = _moment(shape, rule, vals, n - 1)
    mom_hi = _moment(shape, rule, vals, n)
    s = 2.0 * mom_lo / ((n + 1) * mom_hi)

    # mass = lam * omega * int (-shape'(r/s)/s) r^(n-1) dr = lam * omega * s^(n-1) * J
    J = _moment(lambda u: -dshape(u), rule, -dvals, n - 1)
    lam = mass_scale / (sphere_area(n) * s ** (n - 1) * J)

    def p0_fn(radii):
        return shape(np.asarray(radii, dtype=float) / s)

    def p0_prime_fn(radii):
        return dshape(np.asarray(radii, dtype=float) / s) / s

    def rho0_fn(radii):
        # rho0 = lam * (-p0') with p0' = shape'(r/s) / s
        return lam * (-p0_prime_fn(radii))

    def both(u):
        # another shape's outputs are not known to be new arrays, so they are copied
        return np.array(shape(u), dtype=float), np.array(dshape(u), dtype=float)

    both = getattr(shape, "_value_and_slope", both)

    def profiles(radii):
        # radii is a new float array, handed over: u and rho0 are formed in place
        value, slope = both(np.divide(radii, s, out=radii))
        np.divide(slope, s, out=slope)
        np.negative(slope, out=slope)
        slope *= lam
        return slope, value

    return _pair(MODE_MOMENTUM, s, p0_fn, p0_prime_fn, rho0_fn, profiles)


def build_balanced_profiles(
    shape,
    params: GasParameters,
    mass_scale: float = 1.0,
    *,
    width: float = 1.0,
    forcing: float = 1.0,
) -> ProfilePair:
    """Construct a force-balanced initial pair: p0' = -forcing * r * rho0.

    p0(r) = A shape(r/width) and rho0 is read off from the coupling,
    rho0(r) = -p0'(r) / (forcing r), with A fixed so the total mass equals
    mass_scale. The extra factor r (absent from the other couplings) is
    exactly what the radial momentum balance rho (v_t + v v_r) = -p_r
    demands of a uniform-deformation field, so reconstructions from this
    pair are solutions of the full system and can serve as reference data
    for the finite-volume solver. A bonus identity: integrating p0 by
    parts shows n (gamma-1) E_i(0) / (2 G(0)) = forcing, so the ODE built
    by deformation_constant recovers the requested constant exactly.

    Needs shape'(0) = 0 (otherwise the density blows up at the origin);
    the Gaussian template gives rho0 = mass-normalized Gaussian again.
    Any n >= 1 works: the mass moment's integrand -shape'(u) u^(n-2) stays
    finite at u = 0 even for n = 1, because shape'(0) = 0. The grid spans
    [0, 12 width] with 4001 nodes, so the template must decay within
    u = 12; one that does not raises InvalidShapeError.
    """
    dshape, _, dvals = _probe_shape(shape, mass_scale)
    _within(width, "width", 0.0)
    _within(forcing, "forcing", 0.0)
    n = params.n
    tiny = 1e-8
    origin_ratio = -float(dshape(tiny)) / tiny
    dscale = max(float(np.max(np.abs(dvals))), 1e-300)
    # a table's origin_slope reads its data, not its clamped spline; as a three-point
    # estimate it is off by -h^3/4 shape''''(0) on even data, hence the looser bound
    slope = getattr(shape, "origin_slope", -origin_ratio * tiny)
    if not (math.isfinite(origin_ratio) and 0.0 <= origin_ratio <= 1e6 * dscale and abs(slope) <= 0.1 * dscale):
        raise InvalidShapeError(f"need shape'(0) = 0, else the balanced density diverges at the origin; "
                                f"the origin slope reads {slope:.2g}")

    # mass = omega * A * width^(n-2) / forcing * int (-shape'(u)) u^(n-2) du
    J = _moment(lambda u: -dshape(u), _moment_rule(shape), -dvals, n - 2)
    amp = mass_scale * forcing / (sphere_area(n) * width ** (n - 2) * J)

    def u_of(radii):
        return np.asarray(radii, dtype=float) / width

    def rho0_of(u):
        # the slope is read at max(u, tiny), so it cannot share the value's evaluation
        clipped = np.maximum(u, tiny)
        ratio = np.where(u > 0.0, -np.asarray(dshape(clipped), dtype=float) / clipped, origin_ratio)
        return amp / (forcing * width**2) * ratio

    def p0_fn(radii):
        return amp * shape(u_of(radii))

    def p0_prime_fn(radii):
        return (amp / width) * dshape(u_of(radii))

    def rho0_fn(radii):
        return rho0_of(u_of(radii))

    def profiles(radii):
        # radii is a new float array, handed over: u is formed in it, once for both
        # profiles, and p0 then takes its place
        u = np.divide(radii, width, out=radii)
        rho0 = rho0_of(u)
        return rho0, np.multiply(amp, shape(u), out=u)

    return _pair(MODE_BALANCED, width, p0_fn, p0_prime_fn, rho0_fn, profiles)


def _power_momentum(rho0, grid: RadialGrid, params: GasParameters) -> float:
    # G_phi for phi = r^(2-n): the integrand rho r^(2-n) r^(n-1) = rho r is
    # regular at the origin even though phi itself is singular there
    return sphere_area(params.n) * float(np.sum(grid.weights * rho0 * grid.r))


@np.errstate(over="ignore", invalid="ignore")  # an integrand that overflows is the quadrature's to name
def _energy_and_momentum(pair: ProfilePair, params: GasParameters) -> tuple[float, float]:
    """E_i(0) and G(0) of a pair by radial quadrature; G(0) must be positive."""
    e_i = integrate_radial(pair.p0 / (params.gamma - 1.0), pair.grid, params)
    g0 = integrate_radial(0.5 * pair.rho0 * pair.grid.r**2, pair.grid, params)
    return e_i, _within(g0, "momentum of mass", 0.0, error=InvalidInputError)


def check_compatibility(pair: ProfilePair, params: GasParameters) -> float:
    """Max-norm residual of the pair's compatibility coupling, normalized by max|p0'|.

    momentum-of-mass:    p0' + c rho0 = 0 with c = (gamma-1) E_i(0) / G(0)
    excluding-pressure:  G_phi(0) p0' + (p0(0) / (omega_{n-1} (2-n)^2)) rho0 r = 0
    force-balanced:      p0' + K rho0 r = 0 with K = n (gamma-1) E_i(0) / (2 G(0))

    The constants are recomputed from the pair itself, so the residual
    measures internal consistency rather than agreement with whatever
    constructor produced the samples.
    """
    dp = pair.p0_prime
    norm = float(np.max(np.abs(dp)))
    if norm == 0.0:
        raise InvalidInputError("constant pressure profile: compatibility undefined (p0' = 0)")
    if pair.mode == MODE_MOMENTUM:
        e_i, g0 = _energy_and_momentum(pair, params)
        c = (params.gamma - 1.0) * e_i / g0
        defect = dp + c * pair.rho0
    elif pair.mode == MODE_EXCLUDING:
        _count(params.n, _POWER_DIMENSION, 3)
        gph0 = _power_momentum(pair.rho0, pair.grid, params)
        if gph0 == 0.0:
            raise InvalidInputError("zero weighted momentum: compatibility undefined")
        coeff = float(pair.p0[0]) / (sphere_area(params.n) * (2 - params.n) ** 2)
        defect = gph0 * dp + coeff * pair.rho0 * pair.grid.r
    else:  # MODE_BALANCED; ProfilePair admits no other mode
        ode = deformation_constant(pair, params)
        defect = dp + ode.K * pair.rho0 * pair.grid.r
    return float(np.max(np.abs(defect))) / norm


def deformation_constant(pair: ProfilePair, params: GasParameters, *, a0: float = 0.0) -> DeformationODE:
    """Forcing constant from conserved data: K = n (gamma-1) E_i(0) / (2 G(0)).

    The closed form is what makes the momentum identity G'' = 2 E_k +
    n (gamma-1) E_i hold along reconstructions; the acceptance suite
    cross-checks it against a finite difference of quadrature G values.
    """
    e_i, g0 = _energy_and_momentum(pair, params)
    k1 = params.n * (params.gamma - 1.0) * e_i / (2.0 * g0)
    return DeformationODE(K=k1, m_exp=_m_exp(params), a0=a0)


def excluding_pressure_constant(p_origin: float, G_phi0: float, params: GasParameters) -> DeformationODE:
    """Forcing constant of the fundamental-solution route.

    K = p(0,0) * G_phi(0)^(n-2) / (omega_{n-1} (2-n)^2), n >= 3, with
    G_phi(0) the initial momentum under the weight phi = r^(2-n). The
    resulting ODE has the same form and exponent as the mass-momentum
    route; only the constant differs.
    """
    _count(params.n, _POWER_DIMENSION, 3)
    _within(p_origin, "origin pressure", 0.0, ends="[)")
    _within(G_phi0, "weighted momentum", 0.0, error=InvalidInputError)
    n = params.n
    k2 = p_origin * G_phi0 ** (n - 2) / (sphere_area(n) * (2 - n) ** 2)
    return DeformationODE(K=k2, m_exp=_m_exp(params))


# --- Dormand-Prince 5(4) with PI step control ---------------------------------
# The tableau (Hairer, Norsett & Wanner, Solving ODEs I, Table II.5.2) is
# unrolled into the scalar loop of integrate_deformation.

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_BETA = 0.04  # PI controller damping; exponent pair (0.2 - 0.75*beta, beta)
# tried steps per integration: tests and benchmarks finish in at most 1,410 (T = 1e6 at tol 1e-15
# in 7,793), a K = 0 collapse underflows after 38,647, and a spent budget costs about 0.7 s and 16 MB
_MAX_STEPS = 100_000


def _quintic_hermite(th, h, y0, dy0, d2y0, y1, dy1, d2y1):
    """Two-point quintic Hermite value at fraction th of a step of size h.

    The basis polynomials are in Horner form: only + and *, which round
    the same way on floats and on arrays, so both give the same bits.
    """
    t2 = th * th
    t3 = t2 * th
    hh = h * h
    h0 = 1 + t3 * (-10 + th * (15 - 6 * th))
    h1 = th * (1 + t2 * (-6 + th * (8 - 3 * th)))
    h2 = t2 * (0.5 + th * (-1.5 + th * (1.5 - 0.5 * th)))
    h3 = t3 * (10 + th * (-15 + 6 * th))
    h4 = t3 * (-4 + th * (7 - 3 * th))
    h5 = t3 * (0.5 + th * (-1 + 0.5 * th))
    return h0 * y0 + h1 * h * dy0 + h2 * hh * d2y0 + h3 * y1 + h4 * h * dy1 + h5 * hh * d2y1


@dataclass(frozen=True)
class DeformationSolution:
    """Accepted integration nodes with quintic Hermite dense output.

    The chain a -> a' -> a'' is available analytically at every node
    (a'' = -2 a a' - m a (a' + a^2), recovering the forcing from a' + a^2),
    and b carries (b, b' = a, b'' = a'), so both interpolants are two-point
    quintic Hermite with O(h^6) local error. That keeps dense queries well
    below the integrator's own tolerance even between wide late-time steps.

    The arrays are read-only. A float time is answered from list copies of
    them made here, without numpy; any other time goes through the arrays.
    Both evaluate the one Horner-form formula and give the same bits.
    """

    t_grid: np.ndarray
    a_samples: np.ndarray
    b_samples: np.ndarray
    a_rate: np.ndarray = field(repr=False)
    a_rate2: np.ndarray = field(repr=False)
    _lists: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = ("t_grid", "a_samples", "b_samples", "a_rate", "a_rate2")
        object.__setattr__(self, "t_grid", _axis(self.t_grid, "solution times", 2))
        for name in names[1:]:
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        object.__setattr__(self, "_lists", {name: getattr(self, name).tolist() for name in names})

    def _quintic(self, t, y: str, dy: str, d2y: str):
        if isinstance(t, float):
            t = float(t)  # np.float64 arithmetic would leave numpy scalars
            lists = self._lists
            tg = lists["t_grid"]
            if not tg[0] <= t <= tg[-1] * (1 + 1e-12) + 1e-300:
                raise self._horizon_error()
            i = min(max(bisect_right(tg, t) - 1, 0), len(tg) - 2)
            h = tg[i + 1] - tg[i]
            th = (t - tg[i]) / h
            y, dy, d2y = lists[y], lists[dy], lists[d2y]
            return _quintic_hermite(th, h, y[i], dy[i], d2y[i], y[i + 1], dy[i + 1], d2y[i + 1])
        tq = np.asarray(t, dtype=float)
        tg = self.t_grid
        if not (np.all(tq >= tg[0]) and np.all(tq <= tg[-1] * (1 + 1e-12) + 1e-300)):
            raise self._horizon_error()
        i = np.clip(np.searchsorted(tg, tq, side="right") - 1, 0, len(tg) - 2)
        h = tg[i + 1] - tg[i]
        th = (tq - tg[i]) / h
        y, dy, d2y = getattr(self, y), getattr(self, dy), getattr(self, d2y)
        out = _quintic_hermite(th, h, y[i], dy[i], d2y[i], y[i + 1], dy[i + 1], d2y[i + 1])
        return out if out.ndim else float(out)

    def _horizon_error(self) -> ParameterError:
        return ParameterError(f"time outside computed horizon [{self.t_grid[0]}, {self.t_grid[-1]}]")

    def a_at(self, t):
        return self._quintic(t, "a_samples", "a_rate", "a_rate2")

    def b_at(self, t):
        return self._quintic(t, "b_samples", "a_samples", "a_rate")

    def velocity_field(self) -> Callable:
        """v(t, x) = a(t) x, broadcast over any particle array."""

        def v(t, x):
            return self.a_at(t) * np.asarray(x, dtype=float)

        return v


def integrate_deformation(ode: DeformationODE, t_end: float, tol: float) -> DeformationSolution:
    """Integrate the deformation system with local error <= tol per unit time.

    Embedded 5(4) pair; a step of size h is accepted when the scaled
    fourth-order error estimate stays below tol * h, so the accumulated
    error over a horizon T is O(tol * T). Step sizes follow a PI
    controller; underflow, or a budget of _MAX_STEPS (100,000) tried steps
    spent short of t_end, raises StiffnessError, and a state past the
    float range a ParameterError naming t_end.
    Underflow also marks a finite-time collapse: with K = 0 and a0 < 0,
    a = a0 / (1 + a0 t) blows up at t = -1/a0, and the error's .t is that
    time to within the last step.
    """
    _within(t_end, "horizon", 0.0)
    _within(tol, "tolerance", 0.0)

    K, m = ode.K, ode.m_exp
    exp = math.exp

    # state, time and the FSAL slope a' at (t, a, b); b' = a needs no storage
    t = 0.0
    a, b = float(ode.a0), 0.0
    fa = -a * a + K * exp(-m * b)

    # the accepted nodes; a'' = -2 a a' - m a F with forcing F = a' + a^2
    ts, As, Bs, Fs, F2s = [t], [a], [b], [fa], [-2.0 * a * fa - m * a * (fa + a * a)]

    h = min(t_end, 0.01 * (1.0 + abs(a)) / (1.0 + abs(fa)))
    err_prev = 1e-4
    expo = 0.2 - 0.75 * _PI_BETA

    steps = 0
    try:
        while t < t_end:
            if steps >= _MAX_STEPS:
                raise StiffnessError(f"step budget {_MAX_STEPS} exhausted at t={t}", t, h)
            h = min(h, t_end - t)
            if h < 1e-14 * max(1.0, t):
                raise StiffnessError(f"step underflow at t={t} (h={h})", t, h)

            # stage i evaluates at (a_i, b_i); its b-slope is a_i itself
            a2 = a + h * (1 / 5 * fa)
            b2 = b + h * (1 / 5 * a)
            k2 = -a2 * a2 + K * exp(-m * b2)
            a3 = a + h * (3 / 40 * fa + 9 / 40 * k2)
            b3 = b + h * (3 / 40 * a + 9 / 40 * a2)
            k3 = -a3 * a3 + K * exp(-m * b3)
            a4 = a + h * (44 / 45 * fa - 56 / 15 * k2 + 32 / 9 * k3)
            b4 = b + h * (44 / 45 * a - 56 / 15 * a2 + 32 / 9 * a3)
            k4 = -a4 * a4 + K * exp(-m * b4)
            a5 = a + h * (19372 / 6561 * fa - 25360 / 2187 * k2 + 64448 / 6561 * k3 - 212 / 729 * k4)
            b5 = b + h * (19372 / 6561 * a - 25360 / 2187 * a2 + 64448 / 6561 * a3 - 212 / 729 * a4)
            k5 = -a5 * a5 + K * exp(-m * b5)
            a6 = a + h * (
                9017 / 3168 * fa - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4 - 5103 / 18656 * k5
            )
            b6 = b + h * (
                9017 / 3168 * a - 355 / 33 * a2 + 46732 / 5247 * a3 + 49 / 176 * a4 - 5103 / 18656 * a5
            )
            k6 = -a6 * a6 + K * exp(-m * b6)
            # fifth-order solution; its slope is stage 7 and the next step's first (FSAL)
            a_new = a + h * (35 / 384 * fa + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5 + 11 / 84 * k6)
            b_new = b + h * (35 / 384 * a + 500 / 1113 * a3 + 125 / 192 * a4 - 2187 / 6784 * a5 + 11 / 84 * a6)
            k7 = -a_new * a_new + K * exp(-m * b_new)

            # b5 - b4: the embedded fourth-order error weights
            err_a = h * (
                71 / 57600 * fa - 71 / 16695 * k3 + 71 / 1920 * k4 - 17253 / 339200 * k5
                + 22 / 525 * k6 - 1 / 40 * k7
            )
            err_b = h * (
                71 / 57600 * a - 71 / 16695 * a3 + 71 / 1920 * a4 - 17253 / 339200 * a5
                + 22 / 525 * a6 - 1 / 40 * a_new
            )
            err = max(
                abs(err_a) / (1.0 + max(abs(a), abs(a_new))),
                abs(err_b) / (1.0 + max(abs(b), abs(b_new))),
            ) / (tol * h)

            if err <= 1.0:
                t += h
                a, b, fa = a_new, b_new, k7
                ts.append(t)
                As.append(a)
                Bs.append(b)
                Fs.append(fa)
                F2s.append(-2.0 * a * fa - m * a * (fa + a * a))
                factor = _SAFETY * (err ** (-expo) if err > 0 else _MAX_FACTOR) * err_prev**_PI_BETA
                err_prev = max(err, 1e-4)
            else:
                factor = _SAFETY * err ** (-0.2)
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            steps += 1
    except OverflowError:
        # math.exp and float ** raise past the float range, where no step size helps
        raise ParameterError(f"t_end={t_end}: the deformation leaves the float range at t={t} (h={h})") from None

    return DeformationSolution(ts, As, Bs, Fs, F2s)  # each list becomes its read-only array there


def reconstruct_fields(
    sol: DeformationSolution,
    pair: ProfilePair,
    t: float,
    params: GasParameters,
    *,
    grid: Optional[RadialGrid] = None,
) -> FlowSnapshot:
    """Snapshot of the deformation solution at time t <= sol.t_grid[-1].

    The profiles ride the flow map x -> x e^b: densities compress by
    e^(-n b), pressures by e^(-n gamma b). Without grid= the snapshot
    lives on the pair's grid carried by that map, r e^b, where it is the
    pair's samples rescaled: nothing is evaluated off-grid and the
    support is never cut. With grid= the pair is evaluated at r e^(-b) by
    its one off-grid rule (see ProfilePair), so a builder's pair reads its
    shape and any other pair its samples, on either grid.
    """
    a = float(sol.a_at(t))
    b = float(sol.b_at(t))
    if grid is None:
        stretch = math.exp(b)
        g = RadialGrid(pair.grid.r * stretch, r_max=pair.grid.r_max * stretch)
        rho0, p0 = pair.rho0, pair.p0
    else:
        g = grid
        rho0, p0 = pair._profiles(g.r * math.exp(-b))
    # off the pair's grid rho0 and p0 are new arrays, which the factors overwrite
    rho = np.multiply(math.exp(-params.n * b), rho0, out=None if grid is None else rho0)
    p = np.multiply(math.exp(-params.n * params.gamma * b), p0, out=None if grid is None else p0)
    # every array here was made by this call, so the snapshot takes them without a copy
    return _adopt(FlowSnapshot, grid=g, rho=rho, v=a * g.r, p=p, t=float(t))
