"""The public surface of every module: an export or a setting is added or removed only on purpose."""

import dataclasses
import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from gasmoments import cli
from gasmoments.core import FlowSnapshot, RadialGrid, snapshot_text

EXPORTS = {
    # the package exports only its version; every other name has one home, its module
    "gasmoments": ["__version__"],
    "gasmoments.core": [
        "ConservedReport", "DegenerateDataError", "FlowSnapshot", "GasParameters", "InvalidInputError",
        "ParameterError", "RadialGrid", "SingularIntegrandError", "TailTruncationWarning", "conserved",
        "integrate_radial", "load_snapshot", "snapshot_text", "sphere_area", "trapezoid_weights",
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
        "ConstEnvelope", "DecayClassSpec", "Envelope", "GrowthCertificate", "InsufficientDomainError",
        "LogEnvelope", "MembershipReport", "PowerEnvelope", "TableEnvelope", "classify_snapshot",
        "contradiction_time", "envelope_radius", "lower_bound_G", "upper_bound_G",
    ],
    "gasmoments.lagrangian": [
        "GeometryError", "MaterialVolume", "RegularityReport", "advect", "boundary_pressure_flux",
        "interior_integral", "theorem3_functional", "track_boundary",
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
    "bounds.m_v": ["const:<c>", "power:c=<c>,p=<p>", "log:<c>", "table:<csv>"],
    "bounds.m_rho": ["const:<c>", "power:c=<c>,p=<p>", "log:<c>", "table:<csv>"],
    "volume.field": ["zero", "radial:k=<k>", "deformation:<csv>"],
    "volume.pressure": ["const:<p>"],
    "volume.density": ["const:<rho>"],
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
