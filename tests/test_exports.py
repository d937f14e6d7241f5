"""The public surface of every module: an export or a setting is added or removed only on purpose."""

import ast
import builtins
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import re
import sys

import numpy as np
import pytest

from gasmoments import cli, core
from gasmoments.core import FlowSnapshot, GasmomentsError, RadialGrid, snapshot_text

EXPORTS = {
    # the package exports only its version; every other name has one home, its module
    "gasmoments": ["__version__"],
    "gasmoments.core": [
        "ConservedReport", "FlowSnapshot", "GasParameters", "GasmomentsError", "InvalidInputError",
        "ParameterError", "RadialGrid", "TailTruncationWarning", "conserved", "integrate_radial",
        "load_snapshot", "snapshot_text", "sphere_area", "trapezoid_weights",
    ],
    "gasmoments.momenta": [
        "LemmaOneTerms", "Power", "Quadratic", "ShiftedPower", "WeightFunction", "g_phi", "g_phi_rate",
        "lemma1_terms", "sigma_norm_sq", "virial_residual",
    ],
    "gasmoments.exact": [
        "DeformationODE", "DeformationSolution", "GaussianShape", "InvalidShapeError",
        "MODE_BALANCED", "MODE_EXCLUDING", "MODE_MOMENTUM", "ProfilePair", "StiffnessError", "TabulatedShape",
        "build_balanced_profiles", "build_compatible_profiles", "check_compatibility", "deformation_constant",
        "excluding_pressure_constant", "integrate_deformation", "reconstruct_fields",
    ],
    "gasmoments.bounds": [
        "ConstEnvelope", "DecayClassSpec", "Envelope", "GrowthCertificate", "LogEnvelope", "MembershipReport",
        "PowerEnvelope", "TableEnvelope", "classify_snapshot", "contradiction_time", "lower_bound_G",
        "upper_bound_G",
    ],
    "gasmoments.lagrangian": [
        "GeometryError", "MaterialVolume", "RegularityReport", "advect", "boundary_pressure_flux",
        "theorem3_functional", "track_boundary",
    ],
    "gasmoments.solver": [
        "ConservedState", "PositivityError", "RunResult", "RunStats", "SolverConfig", "StepBudgetError",
        "cell_centered_grid", "run", "state_from_snapshot", "step",
    ],
    "gasmoments.cli": ["ConfigError", "ScenarioConfig", "main"],
}

# the keys of each CLI section, sorted: the [common] keys and one schema per subcommand
SETTINGS = {
    "common": ["out_dir", "seed"],
    "exact": ["dim", "gamma", "mass_scale", "shape", "snapshot_times", "t_end", "tol", "variant"],
    "momenta": ["dim", "gamma", "inner_radius", "region", "snapshot", "weight"],
    "bounds": [
        "alpha_dv", "alpha_p", "alpha_rho", "alpha_theta", "alpha_v", "class_tag", "dim", "energy", "epsilon",
        "g0", "g0_rate", "gamma", "horizon", "m_rho", "m_v", "mass", "r0", "scan_points", "snapshot",
    ],
    "volume": ["center", "density", "field", "gamma", "pressure", "q", "radius", "resolution", "steps", "t_end", "x0"],
    "simulate": ["cells", "cfl", "dim", "flux", "gamma", "out_every", "snapshot", "t_end"],
    "verify": ["suite"],
}

# the usage texts of each setting with alternative forms, in the order its error message lists them
FORMS = {
    "exact.shape": ["gaussian", "file:<csv>"],
    "exact.variant": ["mass", "excluding"],
    "momenta.weight": ["quadratic", "power", "shifted:q=<q>"],
    "momenta.region": ["all-space", "ball"],
    "bounds.class_tag": ["K_NS", "K_NS0", "K_GD"],
    "bounds.m_v": ["const:<c>", "power:c=<c>,p=<p>", "log:<c>", "table:<csv>"],
    "bounds.m_rho": ["const:<c>", "power:c=<c>,p=<p>", "log:<c>", "table:<csv>"],
    "volume.field": ["zero", "radial:k=<k>", "deformation:<csv>"],
    "volume.pressure": ["const:<p>"],
    "volume.density": ["const:<rho>"],
    "simulate.flux": ["rusanov", "hll"],
    "verify.suite": ["virial", "derivative", "riccati", "compatibility", "sigma", "all"],
}

# the fields, in order, of every dataclass an __all__ names, by defining module
FIELDS = {
    "gasmoments.core.ConservedReport": ["mass", "e_kinetic", "e_internal", "e_total"],
    "gasmoments.core.FlowSnapshot": ["grid", "rho", "v", "p", "t"],
    "gasmoments.core.GasParameters": ["n", "gamma"],
    "gasmoments.core.RadialGrid": ["r", "r_max"],
    "gasmoments.momenta.LemmaOneTerms": ["I1", "I2", "I3", "I4", "G_rate"],
    "gasmoments.momenta.Quadratic": [],
    "gasmoments.momenta.ShiftedPower": ["q", "inner_radius"],
    "gasmoments.exact.DeformationODE": ["K", "m_exp", "a0"],
    "gasmoments.exact.DeformationSolution": ["t_grid", "a_samples", "b_samples", "a_rate", "a_rate2", "_lists"],
    "gasmoments.exact.GaussianShape": [],
    # no rho0_fn or p0_fn: off its grid a builder's pair evaluates its shape, any other its samples
    "gasmoments.exact.ProfilePair": ["grid", "rho0", "p0", "p0_prime", "mode", "scale"],
    "gasmoments.bounds.ConstEnvelope": ["c"],
    "gasmoments.bounds.DecayClassSpec": [
        "class_tag", "alpha", "M_v", "M_Dv", "M_rho", "M_p", "M_theta", "R0", "epsilon",
    ],
    "gasmoments.bounds.GrowthCertificate": ["verdict", "t_star", "times", "lower", "upper"],
    "gasmoments.bounds.LogEnvelope": ["c"],
    "gasmoments.bounds.MembershipReport": ["ratios", "member", "nodes_checked"],
    "gasmoments.bounds.PowerEnvelope": ["c", "p"],
    "gasmoments.lagrangian.MaterialVolume": ["points", "t"],
    "gasmoments.lagrangian.RegularityReport": [
        "times", "fluxes", "M_observed", "min_weight", "levels", "particle_steps",
    ],
    "gasmoments.solver.ConservedState": ["grid", "rho", "mom", "energy", "t"],
    # the benchmark's solver workload reads final_state
    "gasmoments.solver.RunResult": ["snapshots", "log", "final_state", "stats"],
    "gasmoments.solver.RunStats": [
        "steps", "dt_min", "dt_max", "clipped_steps", "rho_min", "e_int_min", "mass_audit_max",
    ],
    "gasmoments.solver.SolverConfig": ["cfl", "flux"],
    "gasmoments.cli.ScenarioConfig": ["subcommand", "values", "raw", "out_dir", "seed"],
}


@pytest.mark.parametrize("name", list(EXPORTS))
def test_all_is_pinned(name):
    module = importlib.import_module(name)
    assert sorted(module.__all__) == EXPORTS[name]
    assert len(set(module.__all__)) == len(module.__all__)
    for symbol in module.__all__:
        assert hasattr(module, symbol), symbol


# every library error, by home module, and the builtin base a caller's `except` may name
ERRORS = {
    "gasmoments.core.ParameterError": ValueError,
    "gasmoments.core.InvalidInputError": ValueError,
    "gasmoments.exact.InvalidShapeError": ValueError,
    "gasmoments.exact.StiffnessError": RuntimeError,
    "gasmoments.lagrangian.GeometryError": ValueError,
    "gasmoments.solver.PositivityError": RuntimeError,
    "gasmoments.solver.StepBudgetError": RuntimeError,
}


def test_every_library_error_has_the_one_base():
    """The CLI's exit 1 is GasmomentsError; each error keeps its builtin base, and exit 2's ConfigError is apart."""
    found = {f"{name}.{symbol}": getattr(importlib.import_module(name), symbol)
             for name in EXPORTS for symbol in EXPORTS[name] if symbol.endswith("Error")}
    assert found.pop("gasmoments.core.GasmomentsError") is GasmomentsError
    config = found.pop("gasmoments.cli.ConfigError")
    assert issubclass(config, ValueError) and not issubclass(config, GasmomentsError)
    assert {name: cls.__mro__[2] for name, cls in found.items()} == ERRORS
    assert all(cls.__mro__[1] is GasmomentsError for cls in found.values())


# the raises whose exception is not a class of the module: (module, enclosing function, raised expression)
INDIRECT_RAISES = {
    ("core", "_finite", "error"),  # the class its caller passes: every call is checked below
    ("core", "_within", "error"),  # likewise
    ("cli", "_load_ini", "error"),  # a ConfigError naming the INI line
    ("exact", "_quintic", "self._horizon_error"),  # a ParameterError
}
# the one builtin raise: only a CLI bug hands the JSON writer a value it cannot spell
BUILTIN_RAISES = {("cli", "_json_text", "TypeError")}


# core's rules that raise the class their caller passes, by the positional slot it may take (None: keyword only)
ERROR_SLOTS = {"_finite": 2, "_within": None}


def _raises(tree):
    """(enclosing function, raise node) of every raise in a module, and every call of a rule in ERROR_SLOTS."""
    found, rule_calls = [], []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                found.append((function, child.exc))
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in ERROR_SLOTS:
                rule_calls.append(child)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return found, rule_calls


def test_every_raise_is_a_library_error():
    """A raise in src/ names a GasmomentsError subclass or ConfigError, so exit 1 and exit 2 are library verdicts."""
    indirect, builtin = set(), set()
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        module = importlib.import_module("gasmoments" if path.stem == "__init__" else f"gasmoments.{path.stem}")
        raises, rule_calls = _raises(ast.parse(path.read_text(encoding="utf-8")))
        for function, exc in raises:
            target = exc.func if isinstance(exc, ast.Call) else exc
            cls = getattr(module, target.id, vars(builtins).get(target.id)) if isinstance(target, ast.Name) else None
            if not isinstance(cls, type):
                indirect.add((path.stem, function, ast.unparse(target)))
            elif not (issubclass(cls, GasmomentsError) or cls is cli.ConfigError):
                builtin.add((path.stem, function, target.id))
        for call in rule_calls:
            rule, slot = call.func.id, ERROR_SLOTS[call.func.id]
            given = [*(call.args[slot:] if slot else []), *(k.value for k in call.keywords if k.arg == "error")]
            default = inspect.signature(getattr(core, rule)).parameters["error"].default
            cls = getattr(module, given[0].id) if given else default
            assert issubclass(cls, GasmomentsError), ast.unparse(call)
    assert indirect == INDIRECT_RAISES
    assert builtin == BUILTIN_RAISES


# the functions outside core's sampled-array rule and its finder, _first_bad, that may test an array's
# finiteness or sign with a mask, each with its reason
MASKS_ALLOWED = {
    ("core", "_finite"): "the finite-number rule's sequence branch: a tuple or list of numbers, not a sampled array",
    ("core", "_kernel_cells"): "the CSV kernel's fallback mask: each value that is not finite is written by _fmt",
    ("core", "_clean_block"): "loadtxt's whole-block test: a block with a value that is not finite takes the line "
                              "walk, which names its line",
    ("lagrangian", "velocity"): "the tracker's per-stage check, into its preallocated mask: an RK4 step makes five",
    ("lagrangian", "advance"): "the tracker's per-stage check of the new positions, into the same mask",
}
_BOOLEAN = (ast.BitOr, ast.BitAnd, ast.BitXor)


def _read_as_mask(node) -> list:
    """The operands node reads as a mask: of a reduction or search (np.any(m), m.all(), np.flatnonzero(m), ...),
    a boolean array operator (m | n, m &= n) or an inversion (~m)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in (
            "any", "all", "flatnonzero", "nonzero", "argmin", "argmax", "count_nonzero"):
        return [*node.args, node.func.value]
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BOOLEAN):
        return [node.left, node.right]
    if isinstance(node, ast.AugAssign) and isinstance(node.op, _BOOLEAN):
        return [node.value]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        return [node.operand]
    return []


def _is_zero(node) -> bool:
    """node is the literal 0 or 0.0, or its negation."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_zero(node.operand)
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0


def _is_sign(node) -> bool:
    """node compares something with 0 by <, <=, > or >=."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            and (_is_zero(node.left) or _is_zero(node.comparators[0])))


def _masks(tree) -> set:
    """The functions of a module that call np.isfinite or read a sign mask, a comparison with 0, as a mask."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            isfinite = isinstance(child, ast.Call) and ast.unparse(child.func) == "np.isfinite"
            if isfinite or any(map(_is_sign, _read_as_mask(child))):
                found.add(function)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, None)
    return found


def test_the_sampled_array_rule_is_the_only_mask():
    """An array's finiteness and sign are judged by core._samples and found by core._first_bad; any other mask
    is one of MASKS_ALLOWED, so a new hand-written check fails here."""
    found = {(path.stem, function) for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
             for function in _masks(ast.parse(path.read_text(encoding="utf-8")))}
    assert found - {("core", "_first_bad")} == set(MASKS_ALLOWED)


# the functions that may compare a value with +-inf, each with its reason; a range is judged by core._within
INF_COMPARISONS_ALLOWED = {
    ("core", "_finite"): "the finite-number rule",
    ("core", "_within"): "the scalar range rule: +-inf past an unbounded end reads as not finite",
    ("core", "_samples"): "the sampled-array rule, on the array's extremes",
    ("solver", "_advance"): "the kernel's one proof of a new state's finiteness and positivity, per step",
}


def _is_inf(node) -> bool:
    """node is math.inf or np.inf (numpy.inf), or its negation."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_inf(node.operand)
    return ast.unparse(node) in ("math.inf", "np.inf", "numpy.inf")


def _inf_comparisons(tree) -> set:
    """The functions of a module that compare anything with +-inf."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and any(map(_is_inf, [child.left, *child.comparators])):
                found.add(function)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, None)
    return found


def test_the_range_rule_is_the_only_comparison_with_infinity():
    """A scalar range is judged by core._within, so a hand-written bound check, which must reject +-inf itself,
    fails here."""
    found = {(path.stem, function) for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
             for function in _inf_comparisons(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == set(INF_COMPARISONS_ALLOWED)


@pytest.mark.parametrize("check", ["not 0.0 < x < math.inf", "x == -np.inf", "-math.inf < q < q_max", "numpy.inf > x"])
def test_the_infinity_scan_sees_a_hand_written_bound(check):
    assert _inf_comparisons(ast.parse(f"def f(x, q, q_max):\n    {check}\n")) == {"f"}


# the hand-written checks the scan must see: the three sign checks the rule replaced, and the finders' masks
HAND_WRITTEN = {
    "any-negative": "np.any(rho < 0.0)",
    "all-positive": "np.all(a > 0)",
    "method-all": "(a >= -0.0).all()",
    "isfinite": "np.isfinite(a)",
    "finite-or-negative": "~np.isfinite(v) | (v < 0.0)",
    "flatnonzero": "np.flatnonzero(~(a > 0.0))",
    "and-in-place": "ok &= 0 <= a",
}


@pytest.mark.parametrize("check", list(HAND_WRITTEN.values()), ids=list(HAND_WRITTEN))
def test_the_mask_scan_sees_a_hand_written_check(check):
    assert _masks(ast.parse(f"def f(a, rho, v, ok):\n    {check}\n")) == {"f"}


def test_dataclass_fields_are_pinned():
    found = {}
    for name in EXPORTS:
        module = importlib.import_module(name)
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                found[f"{obj.__module__}.{obj.__qualname__}"] = [f.name for f in dataclasses.fields(obj)]
    assert found == FIELDS


def test_cli_settings_are_pinned():
    found = {"common": sorted(cli._COMMON_KEYS), **{name: sorted(keys) for name, keys in cli._SCHEMAS.items()}}
    assert found == SETTINGS


def test_cli_forms_are_pinned():
    sections = {"common": cli._COMMON_KEYS, **cli._SCHEMAS}
    found = {f"{name}.{key}": list(spec.parse.forms) for name, schema in sections.items()
             for key, spec in schema.items() if hasattr(spec.parse, "forms")}
    assert found == FORMS


# the required keys of each section's subcommand; [common] keys ride on verify, which needs none
REQUIRED_FLAGS = {
    "common": ["verify"],
    "exact": ["exact", "--t-end", "1"],
    "momenta": ["momenta", "--snapshot", "{snapshot}"],
    "bounds": [
        "bounds", "--class-tag", "K_NS0", "--alpha-v", "-3", "--alpha-dv", "-4", "--alpha-rho", "-5.5",
        "--alpha-p", "-3.5", "--alpha-theta", "-3", "--m-v", "const:1", "--m-rho", "const:1", "--r0", "1",
        "--epsilon", "0.5", "--horizon", "10", "--energy", "1", "--g0", "1", "--mass", "1",
    ],
    "volume": ["volume", "--radius", "1", "--x0", "3,0,0", "--t-end", "0.1"],
    "simulate": ["simulate", "--snapshot", "{snapshot}", "--cells", "8", "--t-end", "0.01"],
    "verify": ["verify"],
}
SECTIONS = {"common": cli._COMMON_KEYS, **cli._SCHEMAS}
DEFAULTED = [(section, key) for section, schema in SECTIONS.items() for key, spec in schema.items()
             if spec.default is not None]


def _resolved(cfg, section, key):
    value = getattr(cfg, key) if section == "common" else cfg.values[key]
    return value(0.5, np.ones(3)) if key == "field" else value  # the volume field is a closure: compare its values


@pytest.mark.parametrize("section, key", DEFAULTED, ids=[f"{s}-{k}" for s, k in DEFAULTED])
def test_a_default_resolves_as_its_text_given(section, key, tmp_path):
    """A default is the text a user would type: absent and given, it yields the same value and config hash."""
    default = SECTIONS[section][key].default
    assert isinstance(default, str)
    grid = RadialGrid.uniform(2.0, 17)
    snapshot = tmp_path / "snapshot.csv"
    snapshot.write_text(snapshot_text(FlowSnapshot(grid, np.ones(17), np.zeros(17), np.ones(17)), "# snapshot"))
    argv = [arg.format(snapshot=snapshot) for arg in REQUIRED_FLAGS[section]]
    absent, given = (cli.resolve_config(cli.build_parser().parse_args(args))
                     for args in (argv, [*argv, "--" + key.replace("_", "-"), default]))
    np.testing.assert_equal(_resolved(absent, section, key), _resolved(given, section, key))
    assert absent.config_hash() == given.config_hash()


def _perfbench_module(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no __pycache__ in perfbench
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    """The benchmark tracer wraps its targets by (module, attribute) name; a rename must not drop one."""
    tracer = _perfbench_module("tracer", monkeypatch)
    assert tracer.TARGETS
    for module_name, attr, _, _ in tracer.TARGETS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"


def test_benchmark_scenario_loads_under_the_cli_schema(tmp_path, monkeypatch):
    """The benchmark's CLI workload writes one INI for all six subcommands; a removed key must not reject it."""
    scenario = _perfbench_module("workloads", monkeypatch).CliPipeline(str(tmp_path)).warmup()
    # every section's keys are checked, whichever subcommand reads the file
    assert cli._load_ini(scenario["ini"], "bounds")


def test_readme_python_examples_run(capsys):
    """README's fenced python blocks run in order in one namespace: the second reuses the first's params."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    # G(1), the virial residual the comment gives as ~1e-16, and the solver's largest density error
    g, residual, error = (float(line) for line in capsys.readouterr().out.splitlines())
    assert g > 0.0 and residual < 1e-12 and 0.0 <= error < np.inf
