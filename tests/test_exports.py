"""The public surface of every module: an export is added or removed only on purpose."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

EXPORTS = {
    "gasmoments": [
        "ConservedReport", "FlowSnapshot", "GasParameters", "RadialGrid", "__version__", "conserved",
        "integrate_radial",
    ],
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
        "ConservedState", "PositivityError", "ResidualReport", "RunResult", "RunStats", "SolverConfig",
        "cell_centered_grid", "pde_residual", "run", "state_from_snapshot", "state_to_snapshot", "step",
    ],
    "gasmoments.cli": ["ConfigError", "ScenarioConfig", "main"],
}


@pytest.mark.parametrize("name", list(EXPORTS))
def test_all_is_pinned(name):
    module = importlib.import_module(name)
    assert sorted(module.__all__) == EXPORTS[name]
    assert len(set(module.__all__)) == len(module.__all__)
    for symbol in module.__all__:
        assert hasattr(module, symbol), symbol


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
