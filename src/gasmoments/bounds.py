"""Decay classes and nonexistence-by-growth certificates.

A decay class constrains fields along trajectories outside a ball of
radius R0: |field(t, x)| <= M(t) |x|^alpha for each of (v, Dv, rho, p,
theta), with envelope functions M(t) and an exponent vector alpha. Class
membership of a snapshot is a pointwise ratio check.

The certificate machinery plays two bounds against each other: energy
conservation forces the momentum of mass to grow at least quadratically,
while the class envelopes cap it through the material radius R(t) and
the density tail. A time t* where the floor exceeds the cap certifies
that no global smooth solution stays in the class.
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
    _axis,
    _count,
    _finite,
    _samples,
    _within,
    sphere_area,
)

__all__ = [
    "Envelope",
    "ConstEnvelope",
    "PowerEnvelope",
    "LogEnvelope",
    "TableEnvelope",
    "DecayClassSpec",
    "MembershipReport",
    "GrowthCertificate",
    "classify_snapshot",
    "lower_bound_G",
    "upper_bound_G",
    "contradiction_time",
]

CLASS_TAGS = ("K_NS", "K_NS0", "K_GD")

VERDICT_CONTRADICTION = "ContradictionAt"
VERDICT_NO_CONTRADICTION = "NoContradictionOnHorizon"


class Envelope:
    """Nonnegative t -> M(t): `M(t)` gives the value, `M.integral(t)` its exact integral from 0."""

    def __post_init__(self):
        _within(self.c, "envelope", 0.0, ends="[)")


@dataclass(frozen=True)
class ConstEnvelope(Envelope):
    c: float

    def __call__(self, t):
        return self.c

    def integral(self, t):
        return self.c * t


@dataclass(frozen=True)
class PowerEnvelope(Envelope):
    """M(t) = c (1+t)^p."""

    c: float
    p: float

    def __post_init__(self):
        super().__post_init__()
        _finite(self.p, "envelope exponent", ParameterError)

    def __call__(self, t):
        return self.c * (1.0 + t) ** self.p

    def integral(self, t):
        if self.p == -1.0:
            return self.c * math.log1p(t)
        q = self.p + 1.0
        return self.c * ((1.0 + t) ** q - 1.0) / q


@dataclass(frozen=True)
class LogEnvelope(Envelope):
    """M(t) = c ln(e + t)."""

    c: float

    def __call__(self, t):
        return self.c * math.log(math.e + t)

    def integral(self, t):
        # antiderivative (e+t)(ln(e+t) - 1) vanishes at t = 0
        u = math.e + t
        return self.c * (u * (math.log(u) - 1.0))


class TableEnvelope(Envelope):
    """Linear interpolation of sampled (t, M) pairs.

    Constant extension beyond the sampled range on both sides; the
    running integral is exact for the interpolant (trapezoid per cell
    plus the exact partial cell). It keeps read-only copies of the samples.
    """

    def __init__(self, t_samples, m_samples):
        t = self._t = _axis(t_samples, "table envelope times", 2, nonnegative=True)
        m = self._m = _samples(m_samples, "table envelope values", t.shape, nonnegative=True)
        cells = 0.5 * (m[1:] + m[:-1]) * np.diff(t)
        self._cum = np.concatenate([[0.0], np.cumsum(cells)])

    def __call__(self, t):
        return float(np.interp(t, self._t, self._m))

    def integral(self, t):
        t = float(t)
        t0 = self._t[0]
        if t <= t0:
            return self._m[0] * t  # constant extension down to 0
        head = self._m[0] * t0
        if t >= self._t[-1]:
            return head + float(self._cum[-1]) + self._m[-1] * (t - self._t[-1])
        k = int(np.searchsorted(self._t, t, side="right") - 1)
        mt = float(np.interp(t, self._t, self._m))
        partial = 0.5 * (self._m[k] + mt) * (t - self._t[k])
        return head + float(self._cum[k]) + partial


_FIELDS = ("v", "Dv", "rho", "p", "theta")


@dataclass(frozen=True)
class DecayClassSpec:
    """Exponents and envelopes over (v, Dv, rho, p, theta), outside radius R0, from t = 0.

    Note the envelope vector carries five components even though the
    class definitions name only three of them explicitly; the derivative
    and temperature envelopes are used by the same machinery.
    """

    class_tag: str
    alpha: tuple  # (alpha_v, alpha_Dv, alpha_rho, alpha_p, alpha_theta)
    M_v: Envelope
    M_Dv: Envelope
    M_rho: Envelope
    M_p: Envelope
    M_theta: Envelope
    R0: float
    epsilon: float

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ParameterError(f"class tag must be one of {CLASS_TAGS}, got {self.class_tag!r}")
        if len(self.alpha) != 5:
            raise ParameterError("alpha must have five components (v, Dv, rho, p, theta)")
        _within(self.R0, "R0", 0.0)
        _within(self.epsilon, "epsilon", 0.0)
        object.__setattr__(self, "alpha", _finite(tuple(float(a) for a in self.alpha), "alpha", ParameterError))

    def validate(self, params: GasParameters) -> None:
        """Check the exponent vector against the class tag's definition, then build the reach."""
        n, eps = params.n, self.epsilon
        a_v, a_dv, a_rho, a_p, a_th = self.alpha

        def require(cond, what):
            if not cond:
                raise ParameterError(f"{self.class_tag} class requires {what}, got alpha={self.alpha}")

        if self.class_tag in ("K_NS", "K_NS0"):
            require(a_v == -n, f"alpha_v = -n = {-n}")
            require(a_dv == -n - 1, f"alpha_Dv = -n-1 = {-n - 1}")
            require(abs(a_rho - (-n - 2 - eps)) < 1e-12, f"alpha_rho = -n-2-eps = {-n - 2 - eps}")
            require(abs(a_p - (-n - eps)) < 1e-12, f"alpha_p = -n-eps = {-n - eps}")
            if self.class_tag == "K_NS":
                require(a_th == -n, f"alpha_theta = -n = {-n}")
        # K_GD caps only the velocity exponent, at alpha_v <= 1: the reach's own check, with R0's power a float
        _reach(self)


@dataclass(frozen=True)
class MembershipReport:
    ratios: dict
    member: bool
    nodes_checked: int


@dataclass(frozen=True)
class GrowthCertificate:
    """Certificate of (non)existence of a lower/upper bound crossing.

    verdict ContradictionAt carries the refined crossing time t_star; the
    sampled trajectories satisfy lower <= upper strictly before it.
    """

    verdict: str
    t_star: Optional[float]
    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def contradiction(self) -> bool:
        return self.verdict == VERDICT_CONTRADICTION


def _tail_gradient(f, r, start, out, s1, s2) -> None:
    """np.gradient(f, r)[start:] into out, with s1 and s2 as scratch rows of out's length.

    numpy picks its formula by testing the whole grid's spacings for exact
    equality, so the test reads the whole grid here too: a tail of equal
    spacings on an unequal grid takes the non-uniform formula. Equal spacings
    keep np.gradient itself, on the tail and the node before it, since its
    uniform branch rounds differently. Otherwise the tail's interior nodes
    take numpy's three-point formula in its operation order, and the end
    nodes its one-sided differences.
    """
    h = np.diff(r)
    if (h == h[0]).all():
        lo = max(start - 1, 0)
        out[:] = np.gradient(f[lo:], h[0])[start - lo:]
        return
    if start == 0:
        out[0] = (f[1] - f[0]) / h[0]
    out[-1] = (f[-1] - f[-2]) / h[-1]
    lo = max(start, 1)  # the tail's first interior node
    if lo > r.size - 2:
        return
    dx1, dx2 = h[lo - 1:-1], h[lo:]
    acc, s1, s2 = out[lo - start:-1], s1[:dx1.size], s2[:dx1.size]
    # acc = a f0, a = -dx2 / (dx1 (dx1 + dx2))
    np.divide(np.negative(dx2, out=s2), np.multiply(dx1, np.add(dx1, dx2, out=s1), out=s1), out=s1)
    np.multiply(s1, f[lo - 1:-2], out=acc)
    # acc += b f1, b = (dx2 - dx1) / (dx1 dx2)
    np.divide(np.subtract(dx2, dx1, out=s1), np.multiply(dx1, dx2, out=s2), out=s1)
    acc += np.multiply(s1, f[lo:-1], out=s1)
    # acc += c f2, c = dx1 / (dx2 (dx1 + dx2))
    np.divide(dx1, np.multiply(dx2, np.add(dx1, dx2, out=s1), out=s1), out=s1)
    acc += np.multiply(s1, f[lo + 1:], out=s1)


def classify_snapshot(
    snapshot: FlowSnapshot, spec: DecayClassSpec, params: GasParameters
) -> MembershipReport:
    """Ratio check of every enveloped field against M(t) r^alpha beyond R0.

    Only the tail of nodes beyond R0 is read. The velocity derivative is
    np.gradient(v, r) on the whole grid, formed on the tail alone (see
    _tail_gradient); temperature ratios skip vacuum nodes (theta undefined
    there, and temperature() reads 0). A node whose field is 0 has ratio 0.
    Membership requires every ratio <= 1.
    """
    spec.validate(params)
    r = snapshot.grid.r
    # the radii increase, so the nodes beyond R0 are the tail r[start:], read as views
    start = int(np.searchsorted(r, spec.R0, side="right"))
    if start == r.size:
        raise InvalidInputError(
            f"no grid nodes beyond R0={spec.R0} (grid ends at {snapshot.grid.r_max})"
        )
    # vals and ratio are first the derivative's scratch rows; then they and positive serve
    # every field as |field|, the bound turned ratio, and where |field| > 0
    radii = r[start:]
    dv, vals, ratio = np.empty(radii.size), np.empty(radii.size), np.empty(radii.size)
    _tail_gradient(snapshot.v, r, start, dv, vals, ratio)
    samples = (snapshot.v[start:], dv, snapshot.rho[start:], snapshot.p[start:], snapshot.temperature()[start:])
    envelopes = (spec.M_v, spec.M_Dv, spec.M_rho, spec.M_p, spec.M_theta)
    positive = np.empty(radii.size, dtype=bool)
    ratios = {}
    for name, alpha, field, env in zip(_FIELDS, spec.alpha, samples, envelopes):
        np.abs(field, out=vals)
        np.power(radii, alpha, out=ratio)
        ratio *= env(snapshot.t)
        np.greater(vals, 0.0, out=positive)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(vals, ratio, out=ratio, where=positive)
        np.copyto(ratio, 0.0, where=~positive)
        ratios[name] = float(np.max(ratio))
    member = all(v <= 1.0 for v in ratios.values())
    return MembershipReport(ratios=ratios, member=member, nodes_checked=r.size - start)


def lower_bound_G(t, E_total: float, G0: float, G0_rate: float, params: GasParameters):
    """Quadratic growth floor ((gamma-1) n E / 2) t^2 + G'(0) t + G(0); an array t gets each scalar call's bits."""
    _within(E_total, "total energy", 0.0, ends="[)")
    _finite(G0, "G0", ParameterError)
    _finite(G0_rate, "G0_rate", ParameterError)
    return 0.5 * (params.gamma - 1.0) * params.n * E_total * t * t + G0_rate * t + G0


def _reach(spec: DecayClassSpec):
    """The reach R(t) from R0 under |v| <= M_v(t) |x|^alpha_v: its checks, then R as an unchecked function of t.

    R solves R' = M_v R^alpha_v in closed form: a power law for alpha_v < 1, the exponential limit at alpha_v = 1.
    R0^(1 - alpha_v) is formed here, once: an R0 whose power overflows or underflows is a ParameterError.
    """
    a_v = spec.alpha[0]
    _within(a_v, "alpha_v", hi=1.0, ends="(]")
    q = 1.0 - a_v
    try:
        r0_q = spec.R0**q
    except OverflowError:
        raise ParameterError(f"R0={spec.R0} is too large: R0**(1 - alpha_v) = R0**{q} overflows a float") from None
    if r0_q < np.finfo(float).tiny and q != 1.0:  # 0, or a subnormal short of R0's digits; R0**1 is R0 itself
        raise ParameterError(f"R0={spec.R0} is too small: R0**(1 - alpha_v) = R0**{q} underflows a float")

    def radius(t):
        iv = spec.M_v.integral(t)
        if a_v == 1.0:
            try:
                return spec.R0 * math.exp(iv)
            except OverflowError:  # math.exp raises past the float range, where the power law reads inf
                return math.inf
        return ((q * iv) + r0_q) ** (1.0 / q)

    return radius


def _cap(spec: DecayClassSpec, mass: float, params: GasParameters):
    """upper_bound_G's checks, in its order, then its arithmetic as an unchecked function of t."""
    _within(mass, "mass", 0.0, ends="[)")
    a_rho = spec.alpha[2]
    expected = -params.n - 2.0 - spec.epsilon
    if not abs(a_rho - expected) <= 1e-12:
        raise ParameterError(
            f"closed-form tail needs alpha_rho = -n-2-eps = {expected}, got {a_rho}"
        )
    radius, omega = _reach(spec), sphere_area(params.n)

    def cap(t):
        R = radius(t)
        tail = 0.5 * spec.M_rho(t) * omega * R ** (-spec.epsilon) / spec.epsilon
        return 0.5 * R * R * mass + tail

    return cap


def upper_bound_G(spec: DecayClassSpec, t: float, mass: float, params: GasParameters) -> float:
    """Envelope cap (R(t)^2/2) m + (1/2) M_rho(t) omega_{n-1} R(t)^(-eps) / eps.

    The tail integral int_R^inf r^(2+alpha_rho) r^(n-1) dr is evaluated in
    closed form, which pins alpha_rho to -n-2-eps for convergence.
    """
    return _cap(spec, mass, params)(t)


def _scan_times(horizon: float, scan_points: int) -> np.ndarray:
    """contradiction_time's time grid: 0, then scan_points geometric times up to horizon, checked by the axis rule."""
    _within(horizon, "horizon", 0.0)
    _count(scan_points, "scan_points", 2)
    start = min(1e-3, horizon / scan_points) or horizon  # on underflow to 0: repeated times, which _axis names
    return _axis(np.concatenate([[0.0], np.geomspace(start, horizon, scan_points)]), "scan times", 3)


def contradiction_time(
    spec: DecayClassSpec,
    E_total: float,
    G0: float,
    G0_rate: float,
    mass: float,
    horizon: float,
    params: GasParameters,
    *,
    scan_points: int = 400,
) -> GrowthCertificate:
    """First time the growth floor exceeds the envelope cap, if any.

    Scans a geometric time grid over (0, horizon], then refines the first
    sign change of lower - upper by bisection to 1e-6 relative. Absence
    of a crossing on the horizon is a valid verdict, not an error. The
    cap's scalars are checked once per scan; each time then gets the bits
    of an `upper_bound_G` call.
    """
    times = _scan_times(horizon, scan_points)
    spec.validate(params)
    cap = _cap(spec, mass, params)
    # past the float range a bound reads inf without a warning; its caller judges it
    with np.errstate(over="ignore"):
        lower = lower_bound_G(times, E_total, G0, G0_rate, params)
        upper = np.array([cap(t) for t in times])

    def gap(t):
        return lower_bound_G(t, E_total, G0, G0_rate, params) - cap(t)

    crossing = np.flatnonzero(lower > upper)
    t_star = None
    if crossing.size:
        # bracket the first crossing; at k = 0 it is [0, 0] and t_star = 0 without bisecting
        k = int(crossing[0])
        lo, hi = float(times[max(k - 1, 0)]), float(times[k])
        while (hi - lo) > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        t_star = hi  # right end of the bracket: the gap is strictly positive there
    verdict = VERDICT_NO_CONTRADICTION if t_star is None else VERDICT_CONTRADICTION
    return GrowthCertificate(verdict=verdict, t_star=t_star, times=times, lower=lower, upper=upper)
