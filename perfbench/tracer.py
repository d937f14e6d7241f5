"""In-memory spans around the public functions of gasmoments, for the traced run.

The program itself carries no instrumentation, so the tracer replaces each
listed function with a timing wrapper at every place it is bound: the module
that defines it, every other gasmoments module that imported it under any
name (``run as solver_run`` in the CLI, ``integrate_radial`` in momenta), and
the class attribute for methods. Calls made inside the package therefore
open spans as well.

A span is (id, name, start_ns, end_ns, parent_id, scenario_id). Self time is
the span's duration minus the durations of its direct children; calls are
synchronous and single-threaded, so children nest strictly inside parents.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import time
from collections import defaultdict

import numpy as np

# layers named after the package's modules; the first part of a span name
MODULES = ("core", "momenta", "exact", "bounds", "lagrangian", "solver", "cli")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# work counters, updated after each call from its arguments and result;
# every count is exact (nodes, steps, points, particles), not sampled


def _count_integrate_radial(tr, args, kwargs, result):
    tr.counts["core.integrate_radial.nodes"] += _arg(args, kwargs, 1, "grid").r.size


def _count_trapezoid_weights(tr, args, kwargs, result):
    r = _arg(args, kwargs, 0, "r")
    # uniform grids are identified by size and end points; a cache keyed on
    # the grid would hit exactly when this key repeats
    tr.grids.add((r.size, float(r[0]), float(r[1]), float(r[-1])))


def _count_nodes_of_snapshot(name):
    def count(tr, args, kwargs, result):
        tr.counts[name] += _arg(args, kwargs, 0, "snapshot").grid.r.size

    return count


def _count_integrate_deformation(tr, args, kwargs, result):
    tr.counts["exact.integrate_deformation.accepted_steps"] += result.t_grid.size - 1


def _count_dense_output(tr, args, kwargs, result):
    # args[0] is the DeformationSolution instance
    tr.counts["exact.dense_output.points"] += np.size(_arg(args, kwargs, 1, "t"))


def _count_reconstruct_fields(tr, args, kwargs, result):
    tr.counts["exact.reconstruct_fields.nodes"] += result.grid.r.size


def _count_advect(tr, args, kwargs, result):
    pts = _arg(args, kwargs, 0, "volume").points
    tr.counts["lagrangian.advect.particle_steps"] += pts.size // pts.shape[-1]


def _count_track_boundary(tr, args, kwargs, result):
    tr.counts["lagrangian.levels"] += _arg(args, kwargs, 5, "steps") + 1


def _count_surface_elements(tr, args, kwargs, result):
    # only the rebuilds made while tracking count towards per_level;
    # theorem3_functional and the CLI's volume command call it as well
    if any(frame[2] == "lagrangian.track_boundary" for frame in tr.stack):
        tr.counts["lagrangian.surface_elements.tracking_calls"] += 1


def _count_step(tr, args, kwargs, result):
    tr.counts["solver.step.cell_steps"] += _arg(args, kwargs, 0, "state").rho.size


_CLI_COMMANDS = ("exact", "momenta", "bounds", "volume", "simulate", "verify")


def _count_cli_main(tr, args, kwargs, result, duration_ns):
    argv = _arg(args, kwargs, 0, "argv") or []
    command = next((a for a in argv if a in _CLI_COMMANDS), "unknown")
    tr.counts[f"cli.{command}.ns"] += duration_ns
    if result != 0:
        tr.counts["cli.main.exit_nonzero"] += 1


# (module, attribute, span name, counter); "Class.method" wraps a method
TARGETS = (
    ("gasmoments.core", "integrate_radial", "core.integrate_radial", _count_integrate_radial),
    ("gasmoments.core", "trapezoid_weights", "core.trapezoid_weights", _count_trapezoid_weights),
    ("gasmoments.core", "conserved", "core.conserved", None),
    ("gasmoments.momenta", "g_phi", "momenta.g_phi", None),
    ("gasmoments.momenta", "g_phi_rate", "momenta.g_phi_rate", None),
    ("gasmoments.momenta", "lemma1_terms", "momenta.lemma1_terms", None),
    ("gasmoments.momenta", "virial_residual", "momenta.virial_residual",
     _count_nodes_of_snapshot("momenta.virial_residual.nodes")),
    ("gasmoments.exact", "integrate_deformation", "exact.integrate_deformation",
     _count_integrate_deformation),
    ("gasmoments.exact", "DeformationSolution.a_at", "exact.dense_output", _count_dense_output),
    ("gasmoments.exact", "DeformationSolution.b_at", "exact.dense_output", _count_dense_output),
    ("gasmoments.exact", "reconstruct_fields", "exact.reconstruct_fields", _count_reconstruct_fields),
    ("gasmoments.exact", "build_compatible_profiles", "exact.build_profiles", None),
    ("gasmoments.exact", "build_balanced_profiles", "exact.build_profiles", None),
    ("gasmoments.bounds", "contradiction_time", "bounds.contradiction_time", None),
    ("gasmoments.bounds", "upper_bound_G", "bounds.upper_bound_G", None),
    ("gasmoments.bounds", "classify_snapshot", "bounds.classify_snapshot", None),
    ("gasmoments.lagrangian", "track_boundary", "lagrangian.track_boundary", _count_track_boundary),
    ("gasmoments.lagrangian", "advect", "lagrangian.advect", _count_advect),
    ("gasmoments.lagrangian", "boundary_pressure_flux", "lagrangian.boundary_pressure_flux", None),
    ("gasmoments.lagrangian", "MaterialVolume.surface_elements", "lagrangian.surface_elements",
     _count_surface_elements),
    ("gasmoments.lagrangian", "theorem3_functional", "lagrangian.theorem3_functional", None),
    ("gasmoments.solver", "run", "solver.run", None),
    ("gasmoments.solver", "step", "solver.step", _count_step),
    ("gasmoments.cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans and per-name totals; install() swaps the wrappers in."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.grids = set()
        self.scenario = -1
        self.stack = []
        self._ids = itertools.count()

    def wrap(self, name, fn, counter):
        spans, stack, ids = self.spans, self.stack, self._ids
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        clock = time.perf_counter_ns
        cli = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0, name]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                total_ns[name] += duration
                spans.append((frame[0], name, start, end, parent, self.scenario))
            if cli:
                _count_cli_main(self, args, kwargs, result, duration)
            elif counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every binding of each target in the loaded gasmoments modules."""
        replaced = {}
        for module_name, attr, name, counter in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(name, getattr(owner, method), counter))
            else:
                fn = getattr(module, attr)
                replaced[id(fn)] = (fn, self.wrap(name, fn, counter))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "gasmoments" or module_name.startswith("gasmoments.")):
                continue
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_ns,end_ns,parent,scenario\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    def module_self_ms(self):
        out = dict.fromkeys(MODULES, 0.0)
        for name, ns in self.self_ns.items():
            out[name.partition(".")[0]] += ns / 1e6
        return out

    def layer_metrics(self):
        """Every per-layer metric by name; a ratio whose base is zero reads 0."""
        c, n, s, t = self.counts, self.calls, self.self_ns, self.total_ns

        def ms(name):
            return s[name] / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        levels = c["lagrangian.levels"]
        cli_bytes = c["cli.bytes_written"]
        m = {
            "core.integrate_radial.calls": n["core.integrate_radial"],
            "core.integrate_radial.self_ms": ms("core.integrate_radial"),
            "core.integrate_radial.nodes": c["core.integrate_radial.nodes"],
            "core.integrate_radial.ns_per_node": ratio(s["core.integrate_radial"], c["core.integrate_radial.nodes"]),
            # computed, not measured: six float64 arrays of the grid's length
            # per call (samples, radii, r^(n-1), integrand, weights, product)
            "core.integrate_radial.mb_computed": 6 * 8 * c["core.integrate_radial.nodes"] / 1e6,
            "core.trapezoid_weights.calls": n["core.trapezoid_weights"],
            "core.trapezoid_weights.per_grid": ratio(n["core.trapezoid_weights"], len(self.grids)),
            "core.conserved.calls": n["core.conserved"],
            "core.conserved.self_ms": ms("core.conserved"),
        }
        for fn in ("g_phi", "g_phi_rate", "lemma1_terms", "virial_residual"):
            m[f"momenta.{fn}.calls"] = n[f"momenta.{fn}"]
            m[f"momenta.{fn}.self_ms"] = ms(f"momenta.{fn}")
        # inclusive time: the whole cost a caller pays per node for the check
        m["momenta.virial_residual.ns_per_node"] = ratio(
            t["momenta.virial_residual"], c["momenta.virial_residual.nodes"])
        steps = c["exact.integrate_deformation.accepted_steps"]
        m.update({
            "exact.integrate_deformation.calls": n["exact.integrate_deformation"],
            "exact.integrate_deformation.self_ms": ms("exact.integrate_deformation"),
            "exact.integrate_deformation.accepted_steps": steps,
            "exact.integrate_deformation.us_per_step": ratio(s["exact.integrate_deformation"] / 1e3, steps),
            "exact.dense_output.calls": n["exact.dense_output"],
            "exact.dense_output.self_ms": ms("exact.dense_output"),
            "exact.dense_output.points": c["exact.dense_output.points"],
            "exact.dense_output.ns_per_point": ratio(s["exact.dense_output"], c["exact.dense_output.points"]),
            "exact.reconstruct_fields.calls": n["exact.reconstruct_fields"],
            "exact.reconstruct_fields.self_ms": ms("exact.reconstruct_fields"),
            "exact.reconstruct_fields.nodes": c["exact.reconstruct_fields.nodes"],
            "exact.reconstruct_fields.ns_per_node": ratio(
                s["exact.reconstruct_fields"], c["exact.reconstruct_fields.nodes"]),
            "exact.build_profiles.calls": n["exact.build_profiles"],
            "exact.build_profiles.self_ms": ms("exact.build_profiles"),
            "exact.profile_probe.attempted": c["exact.profile_probe.attempted"],
            "exact.profile_probe.failed": c["exact.profile_probe.failed"],
            "bounds.contradiction_time.calls": n["bounds.contradiction_time"],
            "bounds.contradiction_time.self_ms": ms("bounds.contradiction_time"),
            "bounds.upper_bound_G.calls": n["bounds.upper_bound_G"],
            "bounds.upper_bound_G.per_scan": ratio(n["bounds.upper_bound_G"], n["bounds.contradiction_time"]),
            "bounds.classify_snapshot.calls": n["bounds.classify_snapshot"],
            "bounds.classify_snapshot.self_ms": ms("bounds.classify_snapshot"),
            "lagrangian.track_boundary.calls": n["lagrangian.track_boundary"],
            "lagrangian.track_boundary.self_ms": ms("lagrangian.track_boundary"),
            "lagrangian.advect.calls": n["lagrangian.advect"],
            "lagrangian.advect.self_ms": ms("lagrangian.advect"),
            "lagrangian.advect.particle_steps": c["lagrangian.advect.particle_steps"],
            "lagrangian.advect.ns_per_particle_step": ratio(
                s["lagrangian.advect"], c["lagrangian.advect.particle_steps"]),
            "lagrangian.boundary_pressure_flux.calls": n["lagrangian.boundary_pressure_flux"],
            "lagrangian.boundary_pressure_flux.self_ms": ms("lagrangian.boundary_pressure_flux"),
            "lagrangian.surface_elements.calls": n["lagrangian.surface_elements"],
            "lagrangian.surface_elements.self_ms": ms("lagrangian.surface_elements"),
            "lagrangian.surface_elements.per_level": ratio(
                c["lagrangian.surface_elements.tracking_calls"], levels),
            "lagrangian.theorem3_functional.self_ms": ms("lagrangian.theorem3_functional"),
            "solver.run.calls": n["solver.run"],
            "solver.run.self_ms": ms("solver.run"),
            "solver.step.calls": n["solver.step"],
            "solver.step.self_ms": ms("solver.step"),
            "solver.step.us_per_step": ratio(s["solver.step"] / 1e3, n["solver.step"]),
            "solver.step.cell_steps": c["solver.step.cell_steps"],
            "solver.step.ns_per_cell_step": ratio(s["solver.step"], c["solver.step.cell_steps"]),
            "solver.mass_audit.max_rel": c["solver.mass_audit.max_rel"],
            "cli.main.calls": n["cli.main"],
            "cli.main.self_ms": ms("cli.main"),
            "cli.main.exit_nonzero": c["cli.main.exit_nonzero"],
        })
        for command in _CLI_COMMANDS:
            m[f"cli.{command}.ms"] = c[f"cli.{command}.ns"] / 1e6
        m["cli.bytes_written"] = cli_bytes
        m["cli.ns_per_byte_written"] = ratio(s["cli.main"], cli_bytes)
        for module, value in self.module_self_ms().items():
            m[f"{module}.self_ms"] = value
        m["trace.spans"] = len(self.spans)
        return {k: float(v) for k, v in m.items()}
