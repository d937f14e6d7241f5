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
    sphere_area,
)

__all__ = [
    "InsufficientDomainError",
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
    "envelope_radius",
    "upper_bound_G",
    "contradiction_time",
]

CLASS_TAGS = ("K_NS", "K_NS0", "K_GD")

VERDICT_CONTRADICTION = "ContradictionAt"
VERDICT_NO_CONTRADICTION = "NoContradictionOnHorizon"


class InsufficientDomainError(ValueError):
    """The snapshot grid has no nodes in the region the class constrains."""


class Envelope:
    """Nonnegative t -> M(t): `M(t)` gives the value, `M.integral(t)` its exact integral from 0."""

    def __post_init__(self):
        if self.c < 0.0:
            raise ParameterError(f"envelope must be nonnegative, got {self.c}")


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
    plus the exact partial cell).
    """

    def __init__(self, t_samples, m_samples):
        t = np.asarray(t_samples, dtype=float)
        m = np.asarray(m_samples, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != m.shape:
            raise InvalidInputError("table envelope needs matching 1-D samples, length >= 2")
        if np.any(np.diff(t) <= 0):
            raise InvalidInputError("table envelope times must increase")
        if np.any(m < 0):
            raise InvalidInputError("table envelope values must be nonnegative")
        if t[0] < 0:
            raise InvalidInputError("table envelope starts before t = 0")
        self._t = t
        self._m = m
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
    """Exponents and envelopes over (v, Dv, rho, p, theta), outside radius R0, for t >= T.

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
    T: float = 0.0

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ParameterError(f"class tag must be one of {CLASS_TAGS}, got {self.class_tag!r}")
        if len(self.alpha) != 5:
            raise ParameterError("alpha must have five components (v, Dv, rho, p, theta)")
        if not self.R0 > 0.0:
            raise ParameterError(f"R0 must be positive, got {self.R0}")
        if not self.epsilon > 0.0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.T < 0.0:
            raise ParameterError(f"T must be nonnegative, got {self.T}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))

    def validate(self, params: GasParameters) -> None:
        """Check the exponent vector against the class tag's definition."""
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
        else:  # K_GD: velocity exponent capped, derivative/temperature free
            require(a_v <= 1.0, "alpha_v <= 1")


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


def classify_snapshot(
    snapshot: FlowSnapshot, spec: DecayClassSpec, params: GasParameters
) -> MembershipReport:
    """Ratio check of every enveloped field against M(t) r^alpha beyond R0.

    The velocity derivative is taken as the numerical radial derivative;
    temperature ratios skip vacuum nodes (theta undefined there).
    Membership requires every ratio <= 1.
    """
    spec.validate(params)
    if snapshot.t < spec.T:
        raise ParameterError(f"snapshot time {snapshot.t} precedes the class onset T={spec.T}")
    r = snapshot.grid.r
    # the radii increase, so the nodes beyond R0 are the tail r[start:], read as views
    start = int(np.searchsorted(r, spec.R0, side="right"))
    if start == r.size:
        raise InsufficientDomainError(
            f"no grid nodes beyond R0={spec.R0} (grid ends at {snapshot.grid.r_max})"
        )
    samples = (snapshot.v, np.gradient(snapshot.v, r), snapshot.rho, snapshot.p, snapshot.temperature())
    envelopes = (spec.M_v, spec.M_Dv, spec.M_rho, spec.M_p, spec.M_theta)
    ratios = {}
    for name, alpha, field, env in zip(_FIELDS, spec.alpha, samples, envelopes):
        vals, radii = np.abs(field[start:]), r[start:]
        if name == "theta":
            keep = snapshot.rho[start:] > 0.0
            vals, radii = vals[keep], radii[keep]
        bound = env(snapshot.t) * radii**alpha
        if vals.size == 0:
            ratios[name] = 0.0
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(vals > 0.0, vals / bound, 0.0)
        ratios[name] = float(np.max(ratio))
    member = all(v <= 1.0 for v in ratios.values())
    return MembershipReport(ratios=ratios, member=member, nodes_checked=r.size - start)


def lower_bound_G(t: float, E_total: float, G0: float, G0_rate: float, params: GasParameters) -> float:
    """Quadratic growth floor ((gamma-1) n E / 2) t^2 + G'(0) t + G(0)."""
    if E_total < 0.0:
        raise ParameterError(f"total energy must be nonnegative, got {E_total}")
    return 0.5 * (params.gamma - 1.0) * params.n * E_total * t * t + G0_rate * t + G0


def envelope_radius(spec: DecayClassSpec, t: float) -> float:
    """Reach of particles launched from R0 under |v| <= M_v(t) |x|^alpha_v.

    Closed form of the comparison ODE R' = M_v R^alpha_v: a power law for
    alpha_v < 1, the exponential limit form at alpha_v = 1.
    """
    a_v = spec.alpha[0]
    if a_v > 1.0:
        raise ParameterError(f"alpha_v must be <= 1 for a finite reach, got {a_v}")
    iv = spec.M_v.integral(t)
    if a_v == 1.0:
        return spec.R0 * math.exp(iv)
    q = 1.0 - a_v
    return ((q * iv) + spec.R0**q) ** (1.0 / q)


def upper_bound_G(spec: DecayClassSpec, t: float, mass: float, params: GasParameters) -> float:
    """Envelope cap (R(t)^2/2) m + (1/2) M_rho(t) omega_{n-1} R(t)^(-eps) / eps.

    The tail integral int_R^inf r^(2+alpha_rho) r^(n-1) dr is evaluated in
    closed form, which pins alpha_rho to -n-2-eps for convergence.
    """
    if mass < 0.0:
        raise ParameterError(f"mass must be nonnegative, got {mass}")
    a_rho = spec.alpha[2]
    expected = -params.n - 2.0 - spec.epsilon
    if abs(a_rho - expected) > 1e-12:
        raise ParameterError(
            f"closed-form tail needs alpha_rho = -n-2-eps = {expected}, got {a_rho}"
        )
    R = envelope_radius(spec, t)
    tail = 0.5 * spec.M_rho(t) * sphere_area(params.n) * R ** (-spec.epsilon) / spec.epsilon
    return 0.5 * R * R * mass + tail


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
    of a crossing on the horizon is a valid verdict, not an error.
    """
    if not horizon > 0.0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    spec.validate(params)

    def gap(t):
        return lower_bound_G(t, E_total, G0, G0_rate, params) - upper_bound_G(spec, t, mass, params)

    times = np.concatenate([[0.0], np.geomspace(min(1e-3, horizon / scan_points), horizon, scan_points)])
    lower = np.array([lower_bound_G(t, E_total, G0, G0_rate, params) for t in times])
    upper = np.array([upper_bound_G(spec, t, mass, params) for t in times])

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
