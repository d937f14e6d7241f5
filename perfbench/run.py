"""Seeded benchmark of gasmoments: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exact_identities --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing. The benchmark is a closed
loop with one client in one thread: each scenario starts when the previous
one has ended. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run. The last line of standard
output is one JSON object; the lines before it repeat every metric with its
unit, plus the environment. The full record is written to
``.bench_build/perfbench/`` in the checkout.

Set-up time is taken from several fresh interpreters: set-up-only workers
and the worker that then runs the timed loop. It covers importing the
workload's modules and one untimed warm-up scenario, and excludes input
generation. The reported value is their median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from worker import CALIB_REF_S, PREDICTED

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
OUT_DIR = os.path.join(CHECKOUT, ".bench_build", "perfbench")
WORKLOADS = tuple(PREDICTED)
SETUP_ONLY_WORKERS = 4
DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_p50_ms": "ms",
    "scenario_tail_ms": "ms",
    "err_to_tol_max": "ratio",
    "peak_rss_mb": "MiB",
}


def layer_unit(name):
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("ms"):
        return "ms"
    if leaf.startswith("ns_per"):
        return "ns"
    if leaf.startswith("us_per"):
        return "us"
    if leaf == "mb_computed":
        return "MB"
    if leaf == "bytes_written":
        return "bytes"
    if leaf in ("per_grid", "per_scan", "per_level", "max_rel", "overhead_frac"):
        return "ratio"
    if leaf == "predicted_layer_top":
        return "flag"
    return "count"


def environment(seed):
    def getconf(key):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    sha = None
    if os.path.exists(os.path.join(CHECKOUT, ".git")):
        try:
            out = subprocess.run(["git", "-C", CHECKOUT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha or "unavailable (checkout is not a git repository)",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "seed": seed,
        "threads_env": dict(THREAD_ENV),
        "machine": platform.machine(),
    }


def spawn(mode, args, workdir, result_path, deadline):
    """Start one worker; returns (host-scaled set-up seconds, raw seconds) or None, and the exit code."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if result_path:
        cmd += ["--result", result_path]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=CHECKOUT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read().split()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not line.startswith("READY ") or rest[:1] != ["CALIB"]:
        return None, code or 1
    raw = ready - start - float(line.split()[1])
    return (raw * CALIB_REF_S / float(rest[1]), raw), code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    os.environ.update(THREAD_ENV)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    result_path = os.path.join(OUT_DIR, f"worker-{tag}-{os.getpid()}.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setups = []
        for mode in ["setup"] * SETUP_ONLY_WORKERS + ["run"]:
            seconds, code = spawn(mode, args, workdir, result_path if mode == "run" else None, deadline)
            if seconds is None or code != 0:
                print(f"{mode} worker failed with exit code {code}", file=sys.stderr)
                return 1
            setups.append(seconds)
        with open(result_path) as fh:
            worker = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)

    env = environment(args.seed)
    env.update(worker["versions"])
    summary = worker["summary"]
    failures = worker["failures"]
    runs = [summary] + ([worker["traced_summary"]] if args.trace else [])
    attempted = sum(r["samples"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"pass of {worker['pass_length']} scenarios in {worker['blocks']} blocks"
          + (", run untraced, then again traced" if args.trace else "") + "; closed loop, 1 client, 1 thread")
    print(f"profile probe: {worker['probe']['failed']} of {worker['probe']['attempted']} builder calls "
          "failed (n = 1..5, Gaussian and tabulated shapes, both builders)")
    for r in runs:
        if r["cut"]:
            print("note: " + r["cut"])
    for line in failures:
        print("failure: " + line)
    report = {
        "setup_s": statistics.median(x for x, _ in setups),
        "scenarios_per_s": summary["scenarios_per_s"],
        "scenario_p50_ms": summary["scenario_p50_ms"],
        "scenario_tail_ms": summary["scenario_tail_ms"],
        "err_to_tol_max": summary["err_to_tol_max"],
        "peak_rss_mb": worker.get("peak_rss_mb"),
    }
    if args.trace:
        print("untraced half, for reference (end-to-end metrics come from --trace 0):")
    print(f"times are scaled to the reference host speed (host factor {summary['host_factor']:.3f}); "
          "raw wall-clock values follow each in brackets")
    print(f"  setup_s {report['setup_s']:.4f} s [{statistics.median(r for _, r in setups):.4f}] "
          f"(median of {len(setups)} fresh interpreters: " + ", ".join(f"{x:.4f}" for x, _ in setups) + ")")
    raw = summary["raw"]
    print(f"  scenarios_per_s {summary['scenarios_per_s']:.4f} 1/s [{raw['scenarios_per_s']:.4f}] "
          f"({summary['samples']} scenarios in {summary['timed_wall_s']:.3f} s of wall time)")
    print(f"  scenario_p50_ms {summary['scenario_p50_ms']:.4f} ms [{raw['scenario_p50_ms']:.4f}] "
          f"(Harrell-Davis; plain median {summary['order_statistic_p50_ms']:.4f})")
    print(f"  scenario_tail_ms {summary['scenario_tail_ms']:.4f} ms [{raw['scenario_tail_ms']:.4f}] "
          f"(Harrell-Davis p{summary['tail_percentile']:.1f}: {summary['samples']} samples, 10 above "
          f"that percentile; order statistic {summary['order_statistic_tail_ms']:.4f})")
    print(f"  error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} scenarios failed)")
    print(f"  err_to_tol_max {summary['err_to_tol_max']:.6g} ratio (check {summary['worst_check']})")
    if report["peak_rss_mb"] is not None:
        print(f"  peak_rss_mb {report['peak_rss_mb']:.2f} MiB")

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "environment": env,
              "setup_samples_s": setups, "worker": worker}
    if args.trace:
        layers = worker["layers"]
        modules = worker["module_self_ms"]
        ranked = sorted(modules.items(), key=lambda kv: -kv[1])
        holds = worker["top_module"] in worker["predicted"]
        print("self time by module (traced): " + ", ".join(f"{k} {v:.1f} ms" for k, v in ranked))
        print(f"largest self time: {worker['top_module']}; predicted {'/'.join(worker['predicted'])}: "
              + ("holds" if holds else "DOES NOT HOLD"))
        print("work counts are exact (steps, cell-steps, particle-steps, nodes, points); "
              "core.integrate_radial.mb_computed is computed from array sizes, not measured traffic")
        for name in sorted(layers):
            print(f"  {name} {layers[name]:.6g} {layer_unit(name)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": report[k], "unit": u} for k, u in END_TO_END.items()}
    record["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
