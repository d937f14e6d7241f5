"""The four benchmark workloads: seeded scenario lists, execution and checks.

Each workload makes one *pass*, a list of scenarios drawn from the seed. The
pass is a number of blocks; each block holds every combination of the size
levels (horizon, tolerance, cells, resolution, steps) once. Every continuous
input (gamma, forcing, initial rate, geometry, grid sizes) is drawn by
strata_within, stratified within each size level, and the seed sets the
order. The mix, and with it the cost of a pass, is thus the same for every
seed while the inputs differ. In each block one *corner* scenario pins the
inputs that drive its check's error at the ends of their ranges. That
scenario holds the worst error of the pass, so ``err_to_tol_max`` reads the
same for every seed.

``execute`` does the work a user asks of the library and is timed.
``check`` compares its outcome with a reference and is not timed; it
returns (name, error, tolerance) triples and counters for the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

from gasmoments import core
from gasmoments import exact as ex

# error tolerances of the checks; the first four are the acceptance suite's
VIRIAL_TOL = 1e-6
FD_RATE_TOL = 1e-4
RICCATI_TOL = 1e-8
MASS_AUDIT_TOL = 1e-10
ADVECT_RADII_TOL = 1e-6
# relative L1 density error of the first-order solver at t = 0.5 is below
# 9/cells over the drawn inputs (forcing <= 2, gamma <= 3, n = 3, 4); the
# check allows 20/cells
SOLVER_L1_PER_CELL = 20.0

TABLE_U = np.linspace(0.0, 10.0, 400)


def tabulated_gaussian():
    """The 400-point tabulated Gaussian on [0, 10] of the exact-solution tests."""
    return ex.TabulatedShape(TABLE_U, np.exp(-(TABLE_U**2) / 2.0))


def strata_within(rng, keys):
    """One draw in [0, 1) per scenario, stratified within each group of equal keys.

    A group's k scenarios get one uniform draw in each of k equal strata of
    [0, 1), in random order. The keys are a workload's size levels, so every
    level sees the same spread of each continuous input whatever the seed.
    """
    u = np.empty(len(keys))
    for key in sorted(set(keys)):
        idx = [i for i, k in enumerate(keys) if k == key]
        u[idx] = (rng.permutation(len(idx)) + rng.random(len(idx))) / len(idx)
    return u


def excluding_gphi0(pair, params):
    """G_phi(0) under phi = r^(2-n), summed in the same order as the library's excluding-pressure path.

    The integrand rho r^(2-n) r^(n-1) = rho r is regular at the origin.
    """
    r = pair.grid.r
    return core.sphere_area(params.n) * float(np.sum(core.trapezoid_weights(r) * pair.rho0 * r))


def gamma_from(u):
    """gamma in (1, 3] from u in [0, 1)."""
    return 3.0 - 2.0 * float(u)


def profile_probe():
    """Try both profile builders for n = 1..5 and both shapes; (attempted, failed)."""
    attempted = failed = 0
    for shape in (ex.GaussianShape(), tabulated_gaussian()):
        for n in range(1, 6):
            params = core.GasParameters(n=n, gamma=5.0 / 3.0)
            for build in (ex.build_compatible_profiles, ex.build_balanced_profiles):
                attempted += 1
                try:
                    build(shape, params)
                except ValueError:
                    failed += 1
    return attempted, failed


# ------------------------------------------------------------ exact_identities


class ExactIdentities:
    """Profile pair, deformation ODE, dense output, reconstruction, momenta, bounds."""

    block_seconds = 9.9  # one block on a 2-CPU x86-64 host, to size the pass
    modules = ("gasmoments.core", "gasmoments.momenta", "gasmoments.exact", "gasmoments.bounds")
    couplings = (
        ("gaussian", "momentum"), ("gaussian", "excluding"), ("gaussian", "balanced"),
        ("gaussian", "pressureless"),
        ("table", "momentum"), ("table", "excluding"), ("table", "pressureless"),
    )
    horizons = (5.0, 50.0, 1e4)
    tols = (1e-12, 1e-11, 1e-10, 1e-9)
    block_length = len(couplings) * len(horizons) * len(tols)
    times_per_scenario = 3
    dense_points = 1000
    fd_dt = 1e-3

    def __init__(self):
        self.shapes = {"gaussian": ex.GaussianShape(), "table": tabulated_gaussian()}

    def scenarios(self, rng, blocks):
        combos = [(c, h, tol) for c in self.couplings for h in self.horizons for tol in self.tols] * blocks
        groups = [(h, tol) for _, h, tol in combos]
        dims = np.where(strata_within(rng, groups) < 0.5, 3, 4)
        gam, forcing, a0, eps, r0 = (strata_within(rng, groups) for _ in range(5))
        # reconstruction grids: 1e4..2e5 nodes, log-uniform within each group
        per_time = [g for g in groups for _ in range(self.times_per_scenario)]
        nodes = np.round(1e4 * 20.0 ** strata_within(rng, per_time)).astype(int)
        out = []
        for i, ((shape, coupling), horizon, tol) in enumerate(combos):
            u = (np.arange(self.times_per_scenario) + rng.random(self.times_per_scenario)) / self.times_per_scenario
            # corner: the closed-form error grows with a0, horizon and tol,
            # so this scenario holds the pass's worst case for every seed
            corner = (shape, coupling, horizon, tol) == ("gaussian", "pressureless", 1e4, 1e-9)
            out.append({
                "shape": shape, "coupling": coupling, "n": int(dims[i]), "gamma": gamma_from(gam[i]),
                "forcing": 0.5 + 1.5 * forcing[i], "a0": 2.0 if corner else 1.0 + a0[i],
                "horizon": horizon, "tol": tol,
                "times": list(horizon * (0.05 + 0.9 * u)),
                "nodes": [int(x) for x in nodes[i * self.times_per_scenario:(i + 1) * self.times_per_scenario]],
                "epsilon": 0.25 + 0.75 * eps[i], "r0_factor": 0.5 + r0[i],
            })
        return list(rng.permutation(np.array(out, dtype=object)))

    def warmup(self):
        return {"shape": "gaussian", "coupling": "momentum", "n": 3, "gamma": 5.0 / 3.0, "forcing": 1.0,
                "a0": 1.0, "horizon": 5.0, "tol": 1e-9, "times": [1.0], "nodes": [10000],
                "epsilon": 0.5, "r0_factor": 1.0}

    def execute(self, s):
        # imported here, so that the other workloads' set-up does not pay for them
        from gasmoments import bounds as bo
        from gasmoments import momenta as mo

        params = core.GasParameters(n=s["n"], gamma=s["gamma"])
        shape = self.shapes[s["shape"]]
        coupling = s["coupling"]
        if coupling == "balanced":
            pair = ex.build_balanced_profiles(shape, params, forcing=s["forcing"])
        else:
            pair = ex.build_compatible_profiles(shape, params)
        if coupling == "excluding":
            ode = ex.excluding_pressure_constant(float(pair.p0[0]), excluding_gphi0(pair, params), params)
        elif coupling == "pressureless":
            ode = ex.DeformationODE(K=0.0, m_exp=(s["gamma"] - 1.0) * s["n"] + 2.0, a0=s["a0"])
        else:
            ode = ex.deformation_constant(pair, params)
        sol = ex.integrate_deformation(ode, s["horizon"], s["tol"])
        tq = np.linspace(0.0, s["horizon"], self.dense_points)
        a_dense, b_dense = sol.a_at(tq), sol.b_at(tq)

        quad = mo.Quadratic()
        per_time = []
        for t, nodes in zip(s["times"], s["nodes"]):
            dt = self.fd_dt
            # wide enough that the rescaled profile has decayed at r_max
            r_max = 12.0 * pair.scale * math.exp(sol.b_at(t + dt))
            grid = core.RadialGrid.uniform(r_max, nodes)
            snap = ex.reconstruct_fields(sol, pair, t, params, grid=grid)
            rep = core.conserved(snap, params)
            g_plus = mo.g_phi(ex.reconstruct_fields(sol, pair, t + dt, params, grid=grid), quad, params)
            g_minus = mo.g_phi(ex.reconstruct_fields(sol, pair, t - dt, params, grid=grid), quad, params)
            per_time.append({
                "report": rep, "G": mo.g_phi(snap, quad, params), "rate": mo.g_phi_rate(snap, quad, params),
                "fd_rate": (g_plus - g_minus) / (2.0 * dt), "virial": mo.virial_residual(snap, params),
            })
        first = per_time[0]
        n, eps = s["n"], s["epsilon"]
        spec = bo.DecayClassSpec(
            class_tag="K_NS0", alpha=(-n, -n - 1, -n - 2 - eps, -n - eps, -n),
            M_v=bo.ConstEnvelope(1.0), M_Dv=bo.ConstEnvelope(1.0), M_rho=bo.ConstEnvelope(1.0),
            M_p=bo.ConstEnvelope(1.0), M_theta=bo.ConstEnvelope(1.0),
            R0=s["r0_factor"] * pair.scale, epsilon=eps,
        )
        membership = bo.classify_snapshot(snap, spec, params)
        cert = bo.contradiction_time(
            spec, first["report"].e_total, first["G"], first["rate"], first["report"].mass,
            s["horizon"], params)
        return {"tq": tq, "a": a_dense, "b": b_dense, "per_time": per_time,
                "membership": membership, "cert": cert}

    def check(self, s, out):
        checks = []
        for row in out["per_time"]:
            checks.append(("virial", row["virial"], VIRIAL_TOL))
            checks.append(("momentum_rate_fd", abs(row["fd_rate"] - row["rate"]) / abs(row["rate"]), FD_RATE_TOL))
        if s["coupling"] == "pressureless":
            closed = s["a0"] / (1.0 + s["a0"] * out["tq"])
            checks.append(("riccati_closed_form", float(np.max(np.abs(out["a"] - closed))), RICCATI_TOL))
        cert = out["cert"]
        t_star_ok = cert.t_star is None or 0.0 <= cert.t_star <= s["horizon"]
        checks.append(("certificate_in_horizon", 0.0 if t_star_ok else math.inf, 1.0))
        checks.append(("membership_nodes", 0.0 if out["membership"].nodes_checked > 0 else math.inf, 1.0))
        return checks, {}


# ------------------------------------------------------------ solver_crosscheck


class SolverCrosscheck:
    """Finite-volume run from a force-balanced pair against its exact solution."""

    block_seconds = 5.9  # one block on a 2-CPU x86-64 host, to size the pass
    modules = ("gasmoments.core", "gasmoments.exact", "gasmoments.solver")
    # 800 twice, so that the median scenario lies inside a cell level rather
    # than on the boundary between two
    cells = (200, 400, 800, 800, 1600)
    fluxes = ("rusanov", "hll")
    outputs = (None, 0.1)
    block_length = len(cells) * len(fluxes) * len(outputs) * 2
    t_end = 0.5
    r_max = 8.0

    def scenarios(self, rng, blocks):
        combos = [(c, f, o, n) for c in self.cells for f in self.fluxes for o in self.outputs for n in (3, 4)] * blocks
        gam, forcing = (strata_within(rng, [(c, f, n) for c, f, _, n in combos]) for _ in range(2))
        out = []
        for i, (c, f, o, n) in enumerate(combos):
            # corner: the L1 error per cell grows with gamma and forcing and is
            # largest for rusanov at n = 4, so these hold the worst case
            corner = (c, f, n) == (1600, "rusanov", 4)
            out.append({"cells": c, "flux": f, "out_every": o, "n": n,
                        "gamma": 3.0 if corner else gamma_from(gam[i]),
                        "forcing": 2.0 if corner else 0.5 + 1.5 * forcing[i]})
        return list(rng.permutation(np.array(out, dtype=object)))

    def warmup(self):
        return {"cells": 200, "flux": "rusanov", "out_every": None, "n": 3, "gamma": 5.0 / 3.0, "forcing": 1.0}

    def execute(self, s):
        from gasmoments import solver as so

        params = core.GasParameters(n=s["n"], gamma=s["gamma"])
        pair = ex.build_balanced_profiles(ex.GaussianShape(), params, forcing=s["forcing"])
        grid = so.cell_centered_grid(self.r_max, s["cells"])
        r = grid.r
        initial = core.FlowSnapshot(grid, pair.eval_rho0(r), np.zeros(r.size), pair.eval_p0(r), t=0.0)
        result = so.run(initial, self.t_end, so.SolverConfig(flux=s["flux"]), params, out_every=s["out_every"])
        sol = ex.integrate_deformation(ex.deformation_constant(pair, params), self.t_end, 1e-10)
        reference = ex.reconstruct_fields(sol, pair, self.t_end, params, grid=grid)
        return {"result": result, "reference": reference}

    def check(self, s, out):
        n, cells = s["n"], s["cells"]
        edges = np.arange(cells + 1) * (self.r_max / cells)
        vol = (edges[1:] ** n - edges[:-1] ** n) / n
        rho = out["result"].final_state.rho
        ref = out["reference"].rho
        l1 = float(np.sum(vol * np.abs(rho - ref)) / np.sum(vol * ref))
        log = out["result"].log
        audit = abs(log["mass"][-1] + log["mass_out"][-1] - log["mass"][0]) / log["mass"][0]
        expected_outputs = 1 + (round(self.t_end / s["out_every"]) if s["out_every"] else 1)
        outputs_ok = len(out["result"].snapshots) == expected_outputs
        checks = [
            ("l1_density", l1, SOLVER_L1_PER_CELL / cells),
            ("mass_audit", audit, MASS_AUDIT_TOL),
            ("output_count", 0.0 if outputs_ok else math.inf, 1.0),
        ]
        return checks, {"solver.mass_audit.max_rel": audit}


# ------------------------------------------------------------ volume_tracking


class VolumeTracking:
    """Boundary tracking of an offset sphere in the exact deformation flow."""

    block_seconds = 6.6  # one block on a 2-CPU x86-64 host, to size the pass
    modules = ("gasmoments.core", "gasmoments.exact", "gasmoments.lagrangian")
    resolutions = ((24, 48), (48, 96), (64, 128))
    steps = (64, 96, 128, 256)
    block_length = len(resolutions) * len(steps)

    def scenarios(self, rng, blocks):
        combos = [(res, st) for res in self.resolutions for st in self.steps] * blocks
        gam, forcing, a0, t_end, offset, radius = (strata_within(rng, combos) for _ in range(6))
        probe = rng.random((len(combos), 3))
        out = []
        for i, (res, st) in enumerate(combos):
            # corner: the RK4 radius error grows with gamma, forcing, a0, the
            # step size and the center's distance over the radius, so this
            # scenario holds the worst case
            corner = (res, st) == (self.resolutions[0], self.steps[0])
            r = 0.5 if corner else 0.5 + radius[i]
            offset_i = 1.0 if corner else offset[i]
            out.append({
                "n_lat": res[0], "n_lon": res[1], "steps": st,
                "gamma": 3.0 if corner else gamma_from(gam[i]),
                "forcing": 2.0 if corner else 0.5 + 1.5 * forcing[i],
                "a0": 1.0 if corner else a0[i],
                "t_end": 2.0 if corner else 0.5 + 1.5 * t_end[i],
                "radius": r, "center": [r + 1.5 + 1.5 * offset_i, 0.0, 0.0],
                # probe point near the origin, on the far side from the sphere
                "x0": list(np.array([-0.2, -0.1, -0.1]) + 0.2 * probe[i]),
            })
        return list(rng.permutation(np.array(out, dtype=object)))

    def warmup(self):
        return {"n_lat": 24, "n_lon": 48, "steps": 64, "gamma": 5.0 / 3.0, "forcing": 1.0, "a0": 0.5,
                "t_end": 1.0, "radius": 1.0, "center": [3.0, 0.0, 0.0], "x0": [0.0, 0.0, 0.0]}

    def execute(self, s):
        from gasmoments import lagrangian as la

        params = core.GasParameters(n=3, gamma=s["gamma"])
        pair = ex.build_balanced_profiles(ex.GaussianShape(), params, forcing=s["forcing"])
        sol = ex.integrate_deformation(ex.deformation_constant(pair, params, a0=s["a0"]), s["t_end"], 1e-10)
        velocity = sol.velocity_field()
        nu = params.n * params.gamma

        def pressure(t, x):
            b = sol.b_at(t)
            return math.exp(-nu * b) * pair.eval_p0(np.linalg.norm(x, axis=-1) * math.exp(-b))

        def density0(x):
            return pair.eval_rho0(np.linalg.norm(x, axis=-1))

        x0 = np.array(s["x0"])
        volume = la.MaterialVolume.sphere_surface(s["center"], s["radius"], s["n_lat"], s["n_lon"])
        q = -params.n - 2.0 / (params.gamma - 1.0) - 1.0
        functional = la.theorem3_functional(volume, density0, lambda x: velocity(0.0, x), x0, q, params)
        report, dists, final = la.track_boundary(volume, velocity, pressure, x0, s["t_end"], s["steps"])
        return {"final": final, "b_end": sol.b_at(s["t_end"]), "report": report, "dists": dists,
                "functional": functional}

    def check(self, s, out):
        stretch = math.exp(out["b_end"])
        center = np.array(s["center"]) * stretch
        radii = np.linalg.norm(out["final"].points - center, axis=-1)
        target = s["radius"] * stretch
        finite = bool(np.all(np.isfinite(out["report"].fluxes)) and math.isfinite(out["functional"]))
        return [
            ("advected_radii", float(np.max(np.abs(radii - target))) / target, ADVECT_RADII_TOL),
            ("finite_diagnostics", 0.0 if finite else math.inf, 1.0),
        ], {}


# ------------------------------------------------------------ cli_pipeline


def _fmt(x):
    return format(float(x), ".17g")


def write_snapshot_csv(path, snap):
    """A snapshot in the CLI's text layout: '# t', '# r_max', then r,rho,v,p rows."""
    lines = [f"# t {_fmt(snap.t)}", f"# r_max {_fmt(snap.grid.r_max)}", "r,rho,v,p"]
    lines += [",".join(map(_fmt, row)) for row in zip(snap.grid.r, snap.rho, snap.v, snap.p)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class CliPipeline:
    """gasmoments.cli.main in process: exact, momenta, bounds, simulate, volume, verify."""

    block_seconds = 2.2  # one block on a 2-CPU x86-64 host, to size the pass
    modules = ("gasmoments.cli",)
    snapshot_times = 3
    block_length = 8

    def __init__(self, workdir):
        self.workdir = workdir
        self._count = 0

    def _scenario(self, shape, n, variant, gamma, t_end, tol, cells, steps, eps):
        self._count += 1
        root = os.path.join(self.workdir, f"s{self._count:03d}")
        os.makedirs(root, exist_ok=True)
        params = core.GasParameters(n=n, gamma=gamma)
        table = os.path.join(root, "shape.csv")
        with open(table, "w") as fh:
            fh.write("u,value\n" + "".join(f"{_fmt(u)},{_fmt(math.exp(-u * u / 2))}\n" for u in TABLE_U))
        # balanced initial data for simulate, written in the CLI's own layout
        balanced_pair = ex.build_balanced_profiles(ex.GaussianShape(), params)
        grid = core.RadialGrid.uniform(8.0, 401)
        start = core.FlowSnapshot(grid, balanced_pair.eval_rho0(grid.r), np.zeros(401),
                                  balanced_pair.eval_p0(grid.r), t=0.0)
        write_snapshot_csv(os.path.join(root, "balanced.csv"), start)
        times = ",".join(_fmt(t_end * (i + 1) / (self.snapshot_times + 1)) for i in range(self.snapshot_times))
        out = {c: os.path.join(root, c) for c in ("exact", "momenta", "bounds", "simulate", "volume", "verify")}
        ini = os.path.join(root, "scenario.ini")
        with open(ini, "w") as fh:
            fh.write(
                f"[common]\nseed = {self._count}\n\n"
                f"[exact]\nshape = {'gaussian' if shape == 'gaussian' else 'file:' + table}\n"
                f"gamma = {_fmt(gamma)}\ndim = {n}\nt_end = {_fmt(t_end)}\ntol = {_fmt(tol)}\n"
                f"variant = {variant}\nsnapshot_times = {times}\n\n"
                f"[momenta]\nsnapshot = {out['exact']}/snapshot_001.csv\ngamma = {_fmt(gamma)}\ndim = {n}\n\n"
                f"[bounds]\nclass_tag = K_NS0\nalpha_v = {-n}\nalpha_dv = {-n - 1}\n"
                f"alpha_rho = {_fmt(-n - 2 - eps)}\nalpha_p = {_fmt(-n - eps)}\nalpha_theta = {-n}\n"
                f"m_v = const:1\nm_rho = const:1\nr0 = 1\nepsilon = {_fmt(eps)}\nhorizon = 100\n"
                f"snapshot = {out['exact']}/snapshot_000.csv\ngamma = {_fmt(gamma)}\ndim = {n}\n\n"
                f"[simulate]\nsnapshot = {root}/balanced.csv\ncells = {cells}\nt_end = 0.5\n"
                f"out_every = 0.1\ngamma = {_fmt(gamma)}\ndim = {n}\n\n"
                f"[volume]\ncenter = 3,0,0\nradius = 1\nresolution = 24,48\n"
                f"field = deformation:{out['exact']}/deformation.csv\nx0 = 0.1,0,0\n"
                f"q = {_fmt(-4.0 - 2.0 / (gamma - 1.0))}\n"
                f"t_end = {_fmt(min(1.0, t_end))}\nsteps = {steps}\ngamma = {_fmt(gamma)}\n\n"
                f"[verify]\nsuite = all\n"
            )
        # expected step count from a library run of the same ODE
        shape_obj = ex.GaussianShape() if shape == "gaussian" else tabulated_gaussian()
        pair = ex.build_compatible_profiles(shape_obj, params)
        if variant == "mass":
            ode = ex.deformation_constant(pair, params)
        else:
            ode = ex.excluding_pressure_constant(float(pair.p0[0]), excluding_gphi0(pair, params), params)
        steps_expected = int(ex.integrate_deformation(ode, t_end, tol).t_grid.size)
        return {"root": root, "ini": ini, "out": out, "steps_expected": steps_expected}

    def scenarios(self, rng, blocks):
        combos = [(shape, n, variant) for shape in ("gaussian", "table") for n in (3, 4)
                  for variant in ("mass", "excluding")] * blocks
        gam, t_end, tol, cells, steps, eps = (strata_within(rng, combos) for _ in range(6))
        out = [self._scenario(shape, n, variant, gamma_from(gam[i]), 1.0 + 4.0 * t_end[i],
                              10.0 ** (-11.0 + 2.0 * tol[i]), int(160 + 80 * cells[i]),
                              int(8 + 16 * steps[i]), 0.25 + 0.75 * eps[i])
               for i, (shape, n, variant) in enumerate(combos)]
        return list(rng.permutation(np.array(out, dtype=object)))

    def warmup(self):
        return self._scenario("gaussian", 3, "mass", 5.0 / 3.0, 2.0, 1e-9, 200, 8, 0.5)

    def execute(self, s):
        from gasmoments import cli

        codes = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for command in ("exact", "momenta", "bounds", "simulate", "volume", "verify"):
                codes[command] = cli.main(["--config", s["ini"], "--out-dir", s["out"][command], command])
        return {"codes": codes, "log": sink.getvalue()}

    def _check(self, s, out):
        failed_calls = [c for c, code in out["codes"].items() if code != 0]
        expected = {
            "exact": ["deformation.csv", "summary.json"] + [f"snapshot_{i:03d}.csv" for i in range(self.snapshot_times)],
            "momenta": ["momenta.json"], "bounds": ["bounds.csv", "certificate.json"],
            "simulate": ["conservation.csv"] + [f"snapshot_{i:03d}.csv" for i in range(6)],
            "volume": ["volume_series.csv", "volume_final.csv", "volume_summary.json"],
            "verify": [f"verify_{n}.json" for n in ("virial", "derivative", "riccati", "compatibility", "sigma")],
        }
        missing = [f"{c}/{f}" for c, files in expected.items() for f in files
                   if not os.path.isfile(os.path.join(s["out"][c], f))]
        checks = [(f"exit_codes{failed_calls}", 0.0 if not failed_calls else math.inf, 1.0),
                  (f"artifacts{missing[:3]}", 0.0 if not missing else math.inf, 1.0)]
        counters = {}
        if missing:
            return checks, counters
        with open(os.path.join(s["out"]["exact"], "summary.json")) as fh:
            steps = json.load(fh)["steps_accepted"]
        checks.append(("steps_accepted", 0.0 if steps == s["steps_expected"] else math.inf, 1.0))
        log = np.loadtxt(os.path.join(s["out"]["simulate"], "conservation.csv"), delimiter=",",
                         comments="#", skiprows=2, ndmin=2)
        audit = abs(log[-1, 1] + log[-1, 5] - log[0, 1]) / log[0, 1]
        checks.append(("mass_audit", audit, MASS_AUDIT_TOL))
        verify_errors = {"virial": "residual", "derivative": "rel_error", "riccati": "max_error"}
        for suite, key in verify_errors.items():
            with open(os.path.join(s["out"]["verify"], f"verify_{suite}.json")) as fh:
                report = json.load(fh)
            checks.append((f"verify_{suite}", report[key], report["threshold"]))
        counters["solver.mass_audit.max_rel"] = audit
        counters["cli.bytes_written"] = sum(_dir_bytes(p) for p in s["out"].values())
        return checks, counters

    def check(self, s, out):
        try:
            return self._check(s, out)
        finally:
            # the next run of this scenario must write its artifacts anew
            for path in s["out"].values():
                shutil.rmtree(path, ignore_errors=True)


def make(name, workdir):
    if name == "exact_identities":
        return ExactIdentities()
    if name == "solver_crosscheck":
        return SolverCrosscheck()
    if name == "volume_tracking":
        return VolumeTracking()
    if name == "cli_pipeline":
        return CliPipeline(workdir)
    raise KeyError(name)
