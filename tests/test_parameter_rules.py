"""Range checks of scalar parameters and sample axes: NaN and infinity fail every one of them.

Every scalar range is judged by one rule, core._within: x lies in its
interval, each end open or closed, and NaN fails. A breach raises the
site's error type with "{what} must be {range}, got {x}", where the range
reads "positive" for (0, inf), "nonnegative" for [0, inf), "greater than
lo", "at least lo", "less than hi", "at most hi" or "in (lo, hi)" with its
brackets; +-inf past an unbounded end reads "{what} must be finite, got
{x}" instead. SIGNED holds the (0, inf) and [0, inf) sites and INTERVALS
every other, from which each site's NaN, +-inf, value just past each
bound and the bound itself are generated. A count must be an integer, not
a bool, at least its minimum. A value that must only be finite fails with
"{what} must be finite, got {x}". A sampled array (the fields of a
snapshot, a profile pair or a solver state, a tabulated shape's or a
table envelope's values, a flux report's fluxes) must be finite and, where
its type asks, >= 0; a sample axis (the radial grid, a tabulated shape's
knots, a table envelope's or a deformation table's times, a deformation
solution's, a flux report's or a run log's times) must also be a 1-D
array of at least its minimum count of strictly increasing values. A
breach of either raises InvalidInputError naming the first offending
index and value, and from a table file its line.
"""

import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasmoments.bounds import (
    ConstEnvelope,
    DecayClassSpec,
    PowerEnvelope,
    TableEnvelope,
    contradiction_time,
    lower_bound_G,
    upper_bound_G,
)
from gasmoments import cli, exact
from gasmoments.core import (
    FlowSnapshot,
    GasParameters,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    load_snapshot,
)
from gasmoments.exact import (
    DeformationODE,
    DeformationSolution,
    GaussianShape,
    InvalidShapeError,
    ProfilePair,
    TabulatedShape,
    build_balanced_profiles,
    build_compatible_profiles,
    deformation_constant,
    excluding_pressure_constant,
    integrate_deformation,
)
from gasmoments.lagrangian import (
    MaterialVolume,
    RegularityReport,
    boundary_pressure_flux,
    theorem3_functional,
    track_boundary,
)
from gasmoments.momenta import Power, ShiftedPower
from gasmoments.solver import (
    ConservedState,
    RunResult,
    SolverConfig,
    cell_centered_grid,
    run,
    state_from_snapshot,
    step,
)

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


# each sample axis: a call taking the axis array, the name in the message, its minimum count, and
# whether its values must be >= 0
AXIS = {
    "radial-grid": (RadialGrid, "grid radii", 2, True),
    "tabulated-shape": (lambda u: TabulatedShape(u, np.zeros(np.shape(u))), "tabulated shape knots", 4, True),
    "table-envelope": (lambda t: TableEnvelope(t, np.zeros(np.shape(t))), "table envelope times", 2, True),
    "deformation-table": (lambda t: cli._deformation_field(t, t, t), "deformation table times", 2, False),
    "deformation-solution": (lambda t: DeformationSolution(t, *[np.zeros(np.shape(t))] * 4), "solution times", 2,
                             False),
    "regularity-report": (lambda t: RegularityReport(t, np.zeros(np.shape(t)), min_weight=1.0, levels=0,
                                                     particle_steps=0), "report times", 1, False),
    "run-log": (lambda t: RunResult([], {"t": t}, None, None), "log times", 1, False),
}


def axis_cases():
    for site, (call, what, minimum, signed) in AXIS.items():
        for case, x, index, problem in (
            ("decreasing", [0.0, 2.0, 1.0, 3.0, 4.0], 2, "strictly increase, got 1.0 after 2.0"),
            ("repeated", [0.0, 1.0, 1.0, 3.0, 4.0], 2, "strictly increase, got 1.0 after 1.0"),
            ("nan", [0.0, 1.0, NAN, 3.0, 4.0], 2, "be finite, got nan"),
            ("inf", [0.0, 1.0, 2.0, 3.0, INF], 4, "be finite, got inf"),
            # a sign breach is named before an increase breach, and a finiteness breach before either
            *[("negative", [-1.0, -2.0, 1.0, 3.0, 4.0], 0, "be nonnegative, got -1.0")] * signed,
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
    assert caught.value.index == index


GRID8 = RadialGrid.uniform(1.0, 8)
ONES, ZEROS = np.ones(8), np.zeros(8)
# each type that holds sampled arrays: a call taking {field: samples}, valid samples of 8 values, and the fields
# that must be >= 0
SAMPLED = {
    "FlowSnapshot": (lambda f: FlowSnapshot(GRID8, **f), {"rho": ONES, "v": ZEROS, "p": ONES}, ("rho", "p")),
    "ProfilePair": (lambda f: ProfilePair(grid=GRID8, **f), {"rho0": ONES, "p0": ONES, "p0_prime": ZEROS},
                    ("rho0", "p0")),
    "ConservedState": (lambda f: ConservedState(grid=cell_centered_grid(1.0, 8), **f),
                       {"rho": ONES, "mom": ZEROS, "energy": ONES}, ()),
    "TableEnvelope": (lambda f: TableEnvelope(np.arange(8.0), *f.values()), {"table envelope values": ONES},
                      ("table envelope values",)),
    "TabulatedShape": (lambda f: TabulatedShape(np.arange(8.0), *f.values()),
                       {"tabulated shape values": np.linspace(1.0, 0.0, 8)}, ()),
    "RegularityReport": (lambda f: RegularityReport(np.arange(8.0), **f, min_weight=1.0, levels=8, particle_steps=0),
                         {"fluxes": ZEROS}, ()),
}


@st.composite
def bad_samples(draw):
    """A type of SAMPLED, its samples with one bad value planted in a drawn field at a drawn index, and the
    field, the index, the value and the rule it breaks."""
    call, fields, signed = SAMPLED[draw(st.sampled_from(sorted(SAMPLED)))]
    name = draw(st.sampled_from(sorted(fields)))
    i = draw(st.integers(0, 7))
    negative = st.floats(-1e300, -1e-300) if name in signed else st.nothing()
    value = draw(st.sampled_from([NAN, INF, -INF]) | negative)
    planted = fields[name].copy()
    planted[i] = value
    return call, {**fields, name: planted}, name, i, value, "finite" if not -INF < value < INF else "nonnegative"


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(bad_samples())
def test_one_bad_sample_is_named_with_its_index(case):
    call, fields, name, i, value, rule = case
    with pytest.raises(InvalidInputError) as caught:
        call(fields)
    assert type(caught.value) is InvalidInputError
    assert str(caught.value) == f"{name} must be {rule}, got {np.float64(value)} at index {i}"
    assert caught.value.index == i


# each table file: its header, a data row of (k, the values of its signed columns), those columns' names, and its
# loader, the CLI's
TABLES = {
    "snapshot": ("r,rho,v,p", lambda k, rho, p: f"{k},{rho},0,{p}", ("rho", "p"), load_snapshot),
    "envelope": ("t,m", lambda k, m: f"{k},{m}", ("table envelope values",),
                 lambda path: cli._parse_envelope(f"table:{path}")),
}


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(table=st.sampled_from(sorted(TABLES)), row=st.integers(0, 7), column=st.integers(0, 1),
       gaps=st.lists(st.sampled_from([None, "", "   ", "# a comment"]), min_size=8, max_size=8))
def test_a_negative_sample_in_a_table_names_its_line(tmp_path_factory, table, row, column, gaps):
    # a blank or comment line may precede each data row, so a row's line is the file's, not the row's
    header, data_row, names, load = TABLES[table]
    column %= len(names)
    lines = [header]
    for k, gap in enumerate(gaps):
        lines += [] if gap is None else [gap]
        lines.append(data_row(k, *(-0.5 if (k, c) == (row, column) else 1.0 for c in range(len(names)))))
        if k == row:
            lineno = len(lines)
    path = tmp_path_factory.mktemp("table") / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError) as caught:
        load(path)
    assert str(caught.value) == f"{path}: line {lineno}: {names[column]} must be nonnegative, got -0.5 at index {row}"


def resolve(args):
    """The CLI's resolved config of args: every value it rejects is a ConfigError, before out_dir exists."""
    return cli.resolve_config(cli.build_parser().parse_args(args))


def momentum_of_mass(x):
    """exact's check of G(0), handed x as the quadrature's G(0) of a Gaussian pair."""
    pair = build_compatible_profiles(GaussianShape(), P3)
    with mock.patch.object(exact, "integrate_radial", side_effect=[1.0, x]):  # E_i(0), then G(0)
        return deformation_constant(pair, P3)


def volume_t_end(x):
    """The CLI's volume t_end against a deformation table, in the working directory, that ends at t = 1."""
    pathlib.Path("deformation.csv").write_text("t,a,b\n0,0.2,0\n1,0.19,0.01\n")
    return resolve(["volume", "--radius", "1", "--x0", "3,0,0", "--field", "deformation:deformation.csv",
                    "--steps", "2", f"--t-end={x!r}"])


# each site of the range rule: a call taking its value, its error type, the name in the message, its interval,
# and the words that name the interval in the message
INTERVALS = {
    "gamma": (lambda x: GasParameters(n=3, gamma=x), ParameterError, "gamma", "(1.0, inf)", "greater than 1.0"),
    "r_max": (lambda x: RadialGrid(np.array([0.0, 1.0]), r_max=x), InvalidInputError, "r_max", "[1.0, inf)",
              "at least 1.0"),
    "cfl": (SolverConfig, ParameterError, "cfl", "(0.0, 1.0)", "in (0.0, 1.0)"),
    "run-t_end": (lambda x: run(rest_snapshot(), x, SolverConfig(), P3), ParameterError, "t_end", "[0.0, inf)",
                  "nonnegative"),
    "run-t_end-from-1": (lambda x: run(rest_snapshot(t=1.0), x, SolverConfig(), P3), ParameterError, "t_end",
                         "[1.0, inf)", "at least 1.0"),
    # the march's reach tolerance 1e-13 max(1, t_end - t0)
    "out_every-reach": (lambda x: run(rest_snapshot(), 1e-12, SolverConfig(), P3, out_every=x), ParameterError,
                        "out_every", "(1e-13, inf)", "greater than 1e-13"),
    "K": (lambda x: DeformationODE(K=x, m_exp=4.0), ParameterError, "forcing constant K", "[0.0, inf)",
          "nonnegative"),
    "m_exp": (lambda x: DeformationODE(K=1.0, m_exp=x), ParameterError, "exponent m_exp = (gamma - 1) n + 2",
              "(2.0, inf)", "greater than 2.0"),
    # one Gauss node at u = 1 of weight 1, so the moment of f = x is x
    "shape-moment": (lambda x: exact._moment(lambda u: np.full(np.shape(u), x), (np.ones(1), np.ones(1)),
                                             np.zeros(exact._PROBE.size), 0),
                     InvalidShapeError, "shape moment int f(u) u^0 du", "(0.0, inf)", "positive"),
    "momentum-of-mass": (momentum_of_mass, InvalidInputError, "momentum of mass", "(0.0, inf)", "positive"),
    "G_phi0": (lambda x: excluding_pressure_constant(1.0, x, P3), InvalidInputError, "weighted momentum",
               "(0.0, inf)", "positive"),
    "q": (lambda x: ShiftedPower(q=x, inner_radius=0.1), ParameterError, "power weight exponent q", "(-inf, 0.0)",
          "less than 0.0"),
    "shifted-inner-radius": (lambda x: ShiftedPower(q=-1.0, inner_radius=x), ParameterError, "inner_radius",
                             "(0.0, inf)", "positive"),
    "power-inner-radius": (lambda x: Power(3, x), ParameterError, "inner_radius", "(0.0, inf)", "positive"),
    "power-envelope-c": (lambda x: PowerEnvelope(x, 1.0), ParameterError, "envelope", "[0.0, inf)", "nonnegative"),
    "alpha_v": (lambda x: spec(class_tag="K_GD", alpha=(x, 0.0, 0.0, 0.0, 0.0)).validate(P3), ParameterError,
                "alpha_v", "(-inf, 1.0]", "at most 1.0"),
    "theorem3-q": (lambda x: theorem3_functional(sphere(0.0), lambda y: np.ones(y.shape[:-1]), lambda y: np.ones(y.shape),
                                                 [3.0, 0.0, 0.0], x, P3),
                   ParameterError, "weight exponent q", "(-inf, -6.0)", "less than -6.0"),
    "level-t_end": (lambda x: track_boundary(sphere(0.25), lambda t, y: 0.0 * y, lambda t, y: np.ones(y.shape[:-1]),
                                             [3.0, 0.0, 0.0], x, 1),
                    ParameterError, "t_end", "(0.25, inf)", "greater than 0.25"),
    "deformation-first-t": (lambda x: cli._deformation_field([x, 1.0], [1.0, 1.0], None), InvalidInputError,
                            "the deformation table's first t", "(-inf, 0.0]", "at most 0.0"),
    "snapshot-time": (lambda x: resolve(["exact", "--t-end", "2", f"--snapshot-times={x!r}"]), cli.ConfigError,
                      "snapshot time", "[0.0, 2.0]", "in [0.0, 2.0]"),
    "volume-t_end": (volume_t_end, cli.ConfigError, "deformation.csv: t_end", "(-inf, 1.0]", "at most 1.0"),
}
# the sites whose NaN and +-inf an earlier rule rejects, and where that is tested
JUDGED_FIRST = {
    "out_every-reach": "the sign rule: SIGNED's out_every row",
    "alpha_v": "the finite-number rule on alpha: FINITE's alpha rows",
    "deformation-first-t": "the axis rule: AXIS's deformation-table rows",
    "snapshot-time": "the CLI's number parser: test_cli's t_end_inf row",
    "volume-t_end": "the CLI's number parser",
}


def interval(site):
    """A site's call and error type, its interval's ends and brackets, and its message for x, which names the
    range by the site's words unless given others."""
    call, error, what, text, words = INTERVALS[site]
    lo, hi = (float(end) for end in text[1:-1].split(", "))
    return call, error, lo, hi, text[0] + text[-1], lambda x, form=words: f"{what} must be {form}, got {x}"


def bound_cases():
    """Each finite end of each interval: the value just past it, which fails, and the end itself, which fails an
    open end and passes a closed one (message None)."""
    for site in INTERVALS:
        call, error, lo, hi, ends, message = interval(site)
        for side, end, outward, closed in (("lo", lo, -INF, ends[0] == "["), ("hi", hi, INF, ends[1] == "]")):
            if abs(end) == INF:
                continue
            past = float(np.nextafter(end, outward))
            yield pytest.param(call, error, past, message(past), id=f"{site}-past-{side}")
            yield pytest.param(call, error, end, None if closed else message(end), id=f"{site}-at-{side}")


@pytest.mark.parametrize("call, error, x, message", list(bound_cases()))
def test_range_rule_at_and_past_each_bound(call, error, x, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # volume-t_end writes its table here
    if message is None:
        call(x)
        return
    with pytest.raises(error) as caught:
        call(x)
    assert type(caught.value) is error
    assert str(caught.value) == message


# beside the range rule, checks that NaN and infinity fail too: id: (call, error type, full message)
OTHERS = {
    # GasParameters rejects the gamma whose exponent would overflow before any route forms it
    "route-exponent-overflows": (
        lambda: excluding_pressure_constant(1.0, 1.0, GasParameters(n=3, gamma=1e308)), ParameterError,
        "gamma=1e+308 is too large for dimension n=3: (gamma - 1) n overflows"),
    # a table envelope's times pass the axis rule, its values the sampled-array rule
    "table-envelope-value-nan": (lambda: TableEnvelope([0.0, 1.0], [1.0, NAN]), InvalidInputError,
                                 "table envelope values must be finite, got nan at index 1"),
    "table-envelope-time-inf": (lambda: TableEnvelope([0.0, INF], [1.0, 1.0]), InvalidInputError,
                                "table envelope times must be finite, got inf at index 1"),
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
    "state-t-nan": (lambda: state(NAN), InvalidInputError, "state time", NAN),
    "state-t-inf": (lambda: state(INF), InvalidInputError, "state time", INF),
    "volume-t-nan": (lambda: sphere(NAN), InvalidInputError, "volume time", NAN),
    "volume-t-neg-inf": (lambda: sphere(-INF), InvalidInputError, "volume time", -INF),
    "snapshot-t-nan": (lambda: rest_snapshot(t=NAN), InvalidInputError, "snapshot time", NAN),
    "a0-nan": (lambda: DeformationODE(K=1.0, m_exp=4.0, a0=NAN), ParameterError, "initial value a0", NAN),
    "probe-point-inf": (lambda: boundary_pressure_flux(sphere(0.0), lambda y: np.ones(y.shape[:-1]), [INF, 0.0, 0.0]),
                        InvalidInputError, "probe point", [INF, 0.0, 0.0]),
    # it used to fail on the boundary particles the center moved, naming no center
    "sphere-center-nan": (lambda: MaterialVolume.sphere_surface([NAN, 0.0, 0.0], 1.0), InvalidInputError,
                          "sphere center", [NAN, 0.0, 0.0]),
}


def range_cases():
    """NaN and +-inf at every site of the range rule: +-inf past an unbounded end reads "must be finite", any other
    names the interval; then OTHERS and FINITE."""
    for site in (site for site in INTERVALS if site not in JUDGED_FIRST):
        call, error, lo, hi, _, message = interval(site)
        for case, x, unbounded in (("nan", NAN, False), ("inf", INF, hi == INF), ("neg-inf", -INF, lo == -INF)):
            text = message(x, "finite") if unbounded else message(x)
            yield pytest.param(lambda call=call, x=x: call(x), error, text, id=f"{site}-{case}")
    yield from (pytest.param(call, error, message, id=site) for site, (call, error, message) in OTHERS.items())
    for site, (call, error, what, x) in FINITE.items():
        yield pytest.param(call, error, f"{what} must be finite, got {x}", id=site)


@pytest.mark.parametrize("call, error, message", list(range_cases()))
def test_range_checks_reject_nan_and_infinity(call, error, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
