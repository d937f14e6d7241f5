"""The public surface of every module: an export or a setting is added or removed only on purpose."""

import dataclasses
import importlib
import importlib.util
import pathlib
import sys

import pytest

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
        "ConservedState", "PositivityError", "RunResult", "RunStats", "SolverConfig", "cell_centered_grid", "run",
        "state_from_snapshot", "step",
    ],
    "gasmoments.cli": ["ConfigError", "ScenarioConfig", "main"],
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
        "class_tag", "alpha", "M_v", "M_Dv", "M_rho", "M_p", "M_theta", "R0", "epsilon", "T",
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


def test_every_tracer_target_resolves(monkeypatch):
    """The benchmark tracer wraps its targets by (module, attribute) name; a rename must not drop one."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no __pycache__ beside the tracer
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr, _, _ in tracer.TARGETS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"
