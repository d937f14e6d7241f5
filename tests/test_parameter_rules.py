"""Range checks of scalar parameters and sample axes: NaN and infinity fail every one of them.

A parameter with a sign must be a finite number on its side of zero, and a
count must be an integer, not a bool, at least its minimum; anything else
raises ParameterError naming it. A value that must only be finite fails
with "{what} must be finite, got {x}". A sample axis (the radial grid, a
tabulated shape's knots, a table envelope's or a deformation table's
times) must be a 1-D array of at least its minimum count of finite,
strictly increasing values; anything else raises InvalidInputError naming
the first offending index and value. Every other scalar range check is
written so that NaN and +-inf fail it too, with the error type and message
of its wrong-range values.
"""

import math

import numpy as np
import pytest

from gasmoments.bounds import (
    ConstEnvelope,
    DecayClassSpec,
    PowerEnvelope,
    TableEnvelope,
    contradiction_time,
    lower_bound_G,
    upper_bound_G,
)
from gasmoments import cli
from gasmoments.core import (
    DegenerateDataError,
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
)
from gasmoments.exact import (
    DeformationODE,
    GaussianShape,
    TabulatedShape,
    build_balanced_profiles,
    build_compatible_profiles,
    excluding_pressure_constant,
    integrate_deformation,
)
from gasmoments.lagrangian import MaterialVolume, boundary_pressure_flux, theorem3_functional, track_boundary
from gasmoments.momenta import Power, ShiftedPower
from gasmoments.solver import ConservedState, SolverConfig, cell_centered_grid, run, state_from_snapshot, step

P3 = GasParameters(n=3, gamma=5.0 / 3.0)
NAN, INF = math.nan, math.inf


def spec(**kw):
    """K_NS0 spec in n = 3 with unit constant envelopes; fields overridable."""
    base = dict(class_tag="K_NS0", alpha=(-3.0, -4.0, -5.5, -3.5, -3.0), M_v=ConstEnvelope(1.0),
                M_Dv=ConstEnvelope(1.0), M_rho=ConstEnvelope(1.0), M_p=ConstEnvelope(1.0),
                M_theta=ConstEnvelope(1.0), R0=1.0, epsilon=0.5)
    return DecayClassSpec(**{**base, **kw})


def rest_snapshot(t=0.0):
    ones = np.ones(16)
    return FlowSnapshot(cell_centered_grid(5.0, 16), 1.4 * ones, 0.0 * ones, 2.1 * ones, t=t)


def sphere(t):
    return MaterialVolume(MaterialVolume.sphere_surface([0.0, 0.0, 0.0], 1.0, 4, 8).points, t=t)


def state(t):
    s = state_from_snapshot(rest_snapshot(), P3)
    return ConservedState(grid=s.grid, rho=s.rho, mom=s.mom, energy=s.energy, t=t)


# each parameter under the sign rule: a call taking its value, the name in the message, and
# whether zero is allowed
SIGNED = {
    "envelope": (ConstEnvelope, "envelope", True),
    "R0": (lambda x: spec(R0=x), "R0", False),
    "epsilon": (lambda x: spec(epsilon=x), "epsilon", False),
    "E_total": (lambda x: lower_bound_G(1.0, x, 1.0, 0.0, P3), "total energy", True),
    "mass": (lambda x: upper_bound_G(spec(), 1.0, x, P3), "mass", True),
    "horizon": (lambda x: contradiction_time(spec(), 1.0, 1.0, 0.0, 1.0, x, P3), "horizon", False),
    "mass_scale": (lambda x: build_compatible_profiles(GaussianShape(), P3, x), "mass scale", False),
    "width": (lambda x: build_balanced_profiles(GaussianShape(), P3, width=x), "width", False),
    "forcing": (lambda x: build_balanced_profiles(GaussianShape(), P3, forcing=x), "forcing", False),
    "p_origin": (lambda x: excluding_pressure_constant(x, 1.0, P3), "origin pressure", True),
    "t_end": (lambda x: integrate_deformation(DeformationODE(K=1.0, m_exp=4.0), x, 1e-8), "horizon", False),
    "tol": (lambda x: integrate_deformation(DeformationODE(K=1.0, m_exp=4.0), 1.0, x), "tolerance", False),
    "radius": (lambda x: MaterialVolume.sphere_surface([0.0, 0.0, 0.0], x), "radius", False),
    "out_every": (lambda x: run(rest_snapshot(), 0.5, SolverConfig(), P3, out_every=x), "out_every", False),
    "dt_max": (lambda x: step(state(0.0), SolverConfig(), P3, dt_max=x), "dt_max", False),
}


def signed_cases():
    for site, (call, what, zero) in SIGNED.items():
        sign = "nonnegative" if zero else "positive"
        for x in (-INF, -1.0) + (() if zero else (0.0,)) + (NAN,):
            yield pytest.param(call, x, f"{what} must be {sign}, got {x}", id=f"{site}-{x}")
        yield pytest.param(call, INF, f"{what} must be finite, got inf", id=f"{site}-inf")


@pytest.mark.parametrize("call, x, message", list(signed_cases()))
def test_sign_rule(call, x, message):
    with pytest.raises(ParameterError) as caught:
        call(x)
    assert type(caught.value) is ParameterError
    assert str(caught.value) == message


# each parameter under the count rule: a call taking its value, the name in the message, and its minimum
COUNTED = {
    "n": (lambda x: GasParameters(n=x, gamma=5.0 / 3.0), "space dimension", 1),
    "cells": (lambda x: cell_centered_grid(5.0, x), "cells", 2),
    "steps": (lambda x: track_boundary(sphere(0.0), lambda t, y: 0.0 * y, lambda t, y: np.ones(y.shape[:-1]),
                                       [3.0, 0.0, 0.0], 0.5, x), "steps", 1),
    "n_lat": (lambda x: MaterialVolume.sphere_surface([0.0, 0.0, 0.0], 1.0, n_lat=x), "n_lat", 1),
    "n_lon": (lambda x: MaterialVolume.sphere_surface([0.0, 0.0, 0.0], 1.0, n_lon=x), "n_lon", 1),
    "scan_points": (lambda x: contradiction_time(spec(), 1.0, 1.0, 0.0, 1.0, 100.0, P3, scan_points=x),
                    "scan_points", 2),
}


def counted_cases():
    for site, (call, what, minimum) in COUNTED.items():
        for x in (minimum - 1, 2.5, True, NAN):
            yield pytest.param(call, x, f"{what} must be an integer >= {minimum}, got {x!r}", id=f"{site}-{x!r}")


@pytest.mark.parametrize("call, x, message", list(counted_cases()))
def test_count_rule(call, x, message):
    with pytest.raises(ParameterError) as caught:
        call(x)
    assert type(caught.value) is ParameterError
    assert str(caught.value) == message


# each sample axis: a call taking the axis array, the name in the message, and its minimum count
AXIS = {
    "radial-grid": (RadialGrid, "grid radii", 2),
    "tabulated-shape": (lambda u: TabulatedShape(u, np.zeros(np.shape(u))), "tabulated shape knots", 4),
    "table-envelope": (lambda t: TableEnvelope(t, np.zeros(np.shape(t))), "table envelope times", 2),
    "deformation-table": (lambda t: cli._deformation_field(t, t, t), "deformation table times", 2),
}


def axis_cases():
    for site, (call, what, minimum) in AXIS.items():
        for case, x, index, problem in (
            ("decreasing", [0.0, 2.0, 1.0, 3.0, 4.0], 2, "strictly increase, got 1.0 after 2.0"),
            ("repeated", [0.0, 1.0, 1.0, 3.0, 4.0], 2, "strictly increase, got 1.0 after 1.0"),
            ("nan", [0.0, 1.0, NAN, 3.0, 4.0], 2, "be finite, got nan"),
            ("inf", [0.0, 1.0, 2.0, 3.0, INF], 4, "be finite, got inf"),
        ):
            yield pytest.param(call, x, f"{what} must {problem} at index {index}", index, id=f"{site}-{case}")
        short = f"{what} must be 1-D with at least {minimum} values, got shape "
        yield pytest.param(call, np.arange(minimum - 1.0), short + f"({minimum - 1},)", None, id=f"{site}-too-short")
        yield pytest.param(call, [[0.0, 1.0, 2.0, 3.0, 4.0]], short + "(1, 5)", None, id=f"{site}-2-D")


@pytest.mark.parametrize("call, x, message, index", list(axis_cases()))
def test_axis_rule(call, x, message, index):
    with pytest.raises(InvalidInputError) as caught:
        call(x)
    assert type(caught.value) is InvalidInputError
    assert str(caught.value) == message
    # a table reader maps the index to the line the value came from
    assert getattr(caught.value, "index", None) == index


FORCING = "forcing constant must be nonnegative (global existence fails otherwise), got "
# id: (call, error type, full message)
RANGES = {
    "gamma-inf": (lambda: GasParameters(n=3, gamma=INF), ParameterError, "gamma must exceed 1, got inf"),
    "gamma-nan": (lambda: GasParameters(n=3, gamma=NAN), ParameterError, "gamma must exceed 1, got nan"),
    "K-nan": (lambda: DeformationODE(K=NAN, m_exp=4.0), ParameterError, FORCING + "nan"),
    "K-inf": (lambda: DeformationODE(K=INF, m_exp=4.0), ParameterError, FORCING + "inf"),
    "m_exp-inf": (lambda: DeformationODE(K=1.0, m_exp=INF), ParameterError,
                  "exponent must exceed 2 (gamma > 1, n >= 1), got inf"),
    "m_exp-nan": (lambda: DeformationODE(K=1.0, m_exp=NAN), ParameterError,
                  "exponent must exceed 2 (gamma > 1, n >= 1), got nan"),
    # GasParameters rejects the gamma whose exponent would overflow before any route forms it
    "route-exponent-overflows": (
        lambda: excluding_pressure_constant(1.0, 1.0, GasParameters(n=3, gamma=1e308)), ParameterError,
        "gamma=1e+308 is too large for dimension n=3: (gamma - 1) n overflows"),
    "G_phi0-nan": (lambda: excluding_pressure_constant(1.0, NAN, P3), DegenerateDataError,
                   "weighted momentum must be positive, got nan"),
    "G_phi0-inf": (lambda: excluding_pressure_constant(1.0, INF, P3), DegenerateDataError,
                   "weighted momentum must be positive, got inf"),
    "q-neg-inf": (lambda: ShiftedPower(q=-INF, inner_radius=0.1), ParameterError,
                  "shifted power weight requires q < 0, got q=-inf"),
    "q-nan": (lambda: ShiftedPower(q=NAN, inner_radius=0.1), ParameterError,
              "shifted power weight requires q < 0, got q=nan"),
    "shifted-inner-radius-inf": (lambda: ShiftedPower(q=-1.0, inner_radius=INF), ParameterError,
                                 "power weight needs an explicit inner_radius > 0"),
    "shifted-inner-radius-nan": (lambda: ShiftedPower(q=-1.0, inner_radius=NAN), ParameterError,
                                 "power weight needs an explicit inner_radius > 0"),
    "power-inner-radius-inf": (lambda: Power(3, INF), ParameterError,
                               "power weight needs an explicit inner_radius > 0"),
    "power-inner-radius-nan": (lambda: Power(3, NAN), ParameterError,
                               "power weight needs an explicit inner_radius > 0"),
    "power-envelope-c-nan": (lambda: PowerEnvelope(NAN, 1.0), ParameterError,
                             "envelope must be nonnegative, got nan"),
    # a table envelope's times pass the axis rule, its values the sampled-array rule
    "table-envelope-value-nan": (lambda: TableEnvelope([0.0, 1.0], [1.0, NAN]), InvalidInputError,
                                 "table envelope values contains non-finite values"),
    "table-envelope-time-inf": (lambda: TableEnvelope([0.0, INF], [1.0, 1.0]), InvalidInputError,
                                "table envelope times must be finite, got inf at index 1"),
    "run-t_end-neg-inf": (lambda: run(rest_snapshot(), -INF, SolverConfig(), P3), ParameterError,
                          "t_end=-inf precedes the initial time 0.0"),
    "run-t_end-before-start": (lambda: run(rest_snapshot(t=1.0), 0.5, SolverConfig(), P3), ParameterError,
                               "t_end=0.5 precedes the initial time 1.0"),
    "theorem3-q-neg-inf": (
        lambda: theorem3_functional(sphere(0.0), lambda x: np.ones(x.shape[:-1]), lambda x: np.ones(x.shape),
                                    [3.0, 0.0, 0.0], -INF, P3),
        ParameterError, "weight exponent must satisfy q < -6.0, got -inf"),
}

# each value under the finite rule: id: (call, error type, the name and the value its message shows)
FINITE = {
    "power-envelope-p-nan": (lambda: PowerEnvelope(1.0, NAN), ParameterError, "envelope exponent", NAN),
    "power-envelope-p-inf": (lambda: PowerEnvelope(1.0, INF), ParameterError, "envelope exponent", INF),
    "alpha-rho-nan": (lambda: spec(class_tag="K_GD", alpha=(0.0, 0.0, NAN, 0.0, 0.0)), ParameterError,
                      "alpha", (0.0, 0.0, NAN, 0.0, 0.0)),
    "alpha-v-neg-inf": (lambda: spec(alpha=(-INF, -4.0, -5.5, -3.5, -3.0)), ParameterError,
                        "alpha", (-INF, -4.0, -5.5, -3.5, -3.0)),
    "G0-nan": (lambda: lower_bound_G(1.0, 1.0, NAN, 0.0, P3), ParameterError, "G0", NAN),
    "G0-inf": (lambda: lower_bound_G(1.0, 1.0, INF, 0.0, P3), ParameterError, "G0", INF),
    "G0_rate-nan": (lambda: lower_bound_G(1.0, 1.0, 1.0, NAN, P3), ParameterError, "G0_rate", NAN),
    "G0_rate-neg-inf": (lambda: lower_bound_G(1.0, 1.0, 1.0, -INF, P3), ParameterError, "G0_rate", -INF),
    "run-t_end-nan": (lambda: run(rest_snapshot(), NAN, SolverConfig(), P3), ParameterError, "t_end", NAN),
    "run-t_end-inf": (lambda: run(rest_snapshot(), INF, SolverConfig(), P3), ParameterError, "t_end", INF),
    "state-t-nan": (lambda: state(NAN), InvalidInputError, "state time", NAN),
    "state-t-inf": (lambda: state(INF), InvalidInputError, "state time", INF),
    "volume-t-nan": (lambda: sphere(NAN), InvalidInputError, "volume time", NAN),
    "volume-t-neg-inf": (lambda: sphere(-INF), InvalidInputError, "volume time", -INF),
    "snapshot-t-nan": (lambda: rest_snapshot(t=NAN), InvalidInputError, "snapshot time", NAN),
    "r_max-inf": (lambda: RadialGrid(np.array([0.0, 1.0]), r_max=INF), InvalidInputError, "r_max", INF),
    "a0-nan": (lambda: DeformationODE(K=1.0, m_exp=4.0, a0=NAN), ParameterError, "initial value a0", NAN),
    "probe-point-inf": (lambda: boundary_pressure_flux(sphere(0.0), lambda y: np.ones(y.shape[:-1]), [INF, 0.0, 0.0]),
                        InvalidInputError, "probe point", [INF, 0.0, 0.0]),
    # it used to fail on the boundary particles the center moved, naming no center
    "sphere-center-nan": (lambda: MaterialVolume.sphere_surface([NAN, 0.0, 0.0], 1.0), InvalidInputError,
                          "sphere center", [NAN, 0.0, 0.0]),
}


def range_cases():
    yield from (pytest.param(call, error, message, id=site) for site, (call, error, message) in RANGES.items())
    for site, (call, error, what, x) in FINITE.items():
        yield pytest.param(call, error, f"{what} must be finite, got {x}", id=site)


@pytest.mark.parametrize("call, error, message", list(range_cases()))
def test_range_checks_reject_nan_and_infinity(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
