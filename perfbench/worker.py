"""One benchmark process: set-up, then (in run mode) the timed closed loop.

Started by run.py in a fresh interpreter. It imports the gasmoments modules
the workload uses, runs one untimed warm-up scenario and prints
``READY <input-generation seconds>``; run.py times set-up from the spawn to
that line and subtracts input generation. It then prints ``CALIB <seconds>``,
the host's current speed (see calibrate). In ``setup`` mode the process then
exits. In ``run`` mode it generates the seeded pass, runs the profile probe
and the timed loop, and writes its result as JSON to the file given.

Host speed. The benchmark runs on shared hosts whose speed drifts by up to
1.7x over seconds to minutes, as other tenants load the same cores; process
CPU time drifts with wall time, so it does not help, and raw wall-clock
figures of ten runs spread by 8-39% (IQR over median). Before every scenario
the worker therefore times calibrate(), a fixed kernel that does not touch
gasmoments and allocates nothing. Each latency is scaled by CALIB_REF_S over
the median of the eleven nearest calibration times, which reports it at a
fixed reference speed. reference_check.py measures that the kernel's time
does not depend on the state a workload leaves behind. Raw latencies are kept
next to the scaled ones and printed. The quantiles are Harrell-Davis
estimates (see harrell_davis).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
sys.path.insert(0, SRC)

# the workloads, and the layers that the traced run names as the ones that
# should hold the largest self time on each
PREDICTED = {
    "exact_identities": ("exact", "core", "momenta"),
    "solver_crosscheck": ("solver",),
    "volume_tracking": ("lagrangian",),
    "cli_pipeline": ("cli",),
}
MIN_SAMPLES = 20  # enough scenarios for a tail percentile with ten beyond it
CAP_SECONDS = 120.0  # keeps a run inside its time limit if the program slows down
CALIB_REF_S = 0.5e-3  # calibrate() on the reference host (2-CPU x86-64) in its fast state
CALIB_WINDOW = 5  # calibration samples on each side of a scenario


def _kernel(multiply, sqrt, x, y):
    acc = 0
    for _ in range(100):
        multiply(x, 1.5, out=y)
        sqrt(y, out=y)
        for k in range(50):
            acc ^= k
    return acc


def calibrate(_args=[]):
    """Seconds for a fixed kernel of interpreter loops and numpy calls that allocates nothing.

    The arrays are made once and the ufuncs write into them, and the loop
    only touches small cached integers. The kernel runs once untimed, so
    that its code and data are back in cache, and is then timed. Its time
    thus follows the host's speed and not the heap or cache state a scenario
    leaves behind.
    """
    if not _args:
        import numpy as np

        _args.extend((np.multiply, np.sqrt, np.linspace(0.0, 1.0, 2000), np.empty(2000)))
    _kernel(*_args)
    start = time.perf_counter()
    _kernel(*_args)
    return time.perf_counter() - start


def host_factors(calib):
    """CALIB_REF_S over the median of the calibration times around each sample."""
    n = len(calib)
    return [CALIB_REF_S / statistics.median(calib[max(0, i - CALIB_WINDOW):i + CALIB_WINDOW + 1])
            for i in range(n)]


def timed_loop(workload, scenarios, tracer=None):
    """Run each scenario once, timing execute() only; stop early past CAP_SECONDS."""
    latencies, calib, ratios, failures, counters = [], [], [], [], {}
    worst = (-1.0, None, None)
    cut = None
    clock = time.perf_counter
    loop_start = clock()
    for i, s in enumerate(scenarios):
        if clock() - loop_start > CAP_SECONDS:
            cut = f"pass cut after {i} of {len(scenarios)} scenarios ({CAP_SECONDS:g} s cap)"
            break
        calib.append(calibrate())
        if tracer is not None:
            tracer.scenario = i
        start = clock()
        try:
            try:
                out = workload.execute(s)
            finally:
                latencies.append(clock() - start)
                if tracer is not None:
                    tracer.scenario = -1
            checks, extra = workload.check(s, out)
        except Exception as exc:  # a scenario that raises, in execute or check, fails
            failures.append(f"scenario {i}: {type(exc).__name__}: {exc}")
            continue
        for key, value in extra.items():
            merge = max if key.endswith("max_rel") else (lambda x, y: x + y)
            counters[key] = merge(counters.get(key, 0.0), value)
        for name, err, tol in checks:
            ratios.append(err / tol)
            if err / tol > worst[0]:
                worst = (err / tol, name, s)
        bad = [name for name, err, tol in checks if not err < tol]
        if bad:
            failures.append(f"scenario {i}: checks failed: {', '.join(bad)}")
    factors = host_factors(calib)
    return {"raw": latencies, "latencies": [t * f for t, f in zip(latencies, factors)],
            "host_factor": statistics.median(factors), "cut": cut, "ratios": ratios,
            "failures": failures, "counters": counters, "worst_check": worst[1], "worst_scenario": worst[2]}


def blocks_for(workload, seconds):
    """Blocks that fill `seconds` on the reference host, and at least MIN_SAMPLES scenarios."""
    return max(math.ceil(MIN_SAMPLES / workload.block_length), round(seconds / workload.block_seconds))


def harrell_davis(sorted_x, q):
    """Harrell-Davis estimate of quantile q: a beta-weighted mean of all order statistics.

    On a noisy host it reads steadier than the single order statistic it
    estimates, because neighbouring samples share the weight.
    """
    from scipy.special import betainc

    n = len(sorted_x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((edges[i + 1] - edges[i]) * x for i, x in enumerate(sorted_x)))


def quantiles(latencies):
    lat = sorted(latencies)
    n = len(lat)
    tail_q = (n - 10) / n  # the highest percentile with ten samples beyond it
    return {
        "scenarios_per_s": n / sum(lat),
        "scenario_p50_ms": harrell_davis(lat, 0.5) * 1e3,
        "scenario_tail_ms": harrell_davis(lat, tail_q) * 1e3,
        "tail_percentile": 100.0 * tail_q,
        "order_statistic_p50_ms": statistics.median(lat) * 1e3,
        "order_statistic_tail_ms": lat[n - 11] * 1e3,
    }


def summarize(loop):
    n = len(loop["latencies"])
    return {
        **quantiles(loop["latencies"]),
        "raw": quantiles(loop["raw"]),
        "host_factor": loop["host_factor"],
        "samples": n,
        "timed_wall_s": sum(loop["raw"]),
        "cut": loop["cut"],
        "failed": len(loop["failures"]),
        "error_rate": len(loop["failures"]) / n,
        "err_to_tol_max": max(loop["ratios"]) if loop["ratios"] else math.inf,
        "worst_check": loop["worst_check"],
        "worst_scenario": loop["worst_scenario"],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=tuple(PREDICTED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    args = ap.parse_args()

    try:
        import gasmoments
    except ImportError as exc:
        print(f"cannot import gasmoments from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(gasmoments.__file__).startswith(SRC + os.sep):
        print(f"gasmoments was imported from {gasmoments.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.make(args.workload, args.workdir)
    for name in workload.modules:
        importlib.import_module(name)

    gen_start = time.perf_counter()
    warm = workload.warmup()
    gen_seconds = time.perf_counter() - gen_start
    out = workload.execute(warm)
    bad = [name for name, err, tol in workload.check(warm, out)[0] if not err < tol]
    if bad:
        print(f"warm-up scenario failed its checks: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"READY {gen_seconds!r}", flush=True)
    print(f"CALIB {statistics.median(calibrate() for _ in range(11))!r}", flush=True)
    if args.mode == "setup":
        return 0

    # the traced run spends half its time on the pass untraced, then repeats
    # it traced
    blocks = blocks_for(workload, args.seconds / 2.0 if args.trace else args.seconds)
    scenarios = workload.scenarios(np.random.default_rng(args.seed), blocks)
    attempted, failed = workloads.profile_probe()

    import scipy

    result = {"pass_length": len(scenarios), "blocks": blocks,
              "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
              "probe": {"attempted": attempted, "failed": failed}}
    if not args.trace:
        loop = timed_loop(workload, scenarios)
        result["summary"] = summarize(loop)
        result["failures"] = loop["failures"][:20]
        result["counters"] = loop["counters"]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracer as tracing

        plain = timed_loop(workload, scenarios)
        tr = tracing.Tracer()
        tr.install()
        traced = timed_loop(workload, scenarios, tracer=tr)
        tr.counts["exact.profile_probe.attempted"] = attempted
        tr.counts["exact.profile_probe.failed"] = failed
        for key, value in traced["counters"].items():
            tr.counts[key] = value
        layers = tr.layer_metrics()
        # host-scaled time of the same pass, traced over untraced
        layers["trace.overhead_frac"] = sum(traced["latencies"]) / sum(plain["latencies"]) - 1.0
        modules = tr.module_self_ms()
        top = max(modules, key=modules.get)
        layers["trace.predicted_layer_top"] = float(top in PREDICTED[args.workload])
        result.update({
            "layers": layers, "module_self_ms": modules, "top_module": top,
            "predicted": list(PREDICTED[args.workload]),
            "summary": summarize(plain), "traced_summary": summarize(traced),
            "failures": (plain["failures"] + traced["failures"])[:20],
        })
        tr.write_spans(os.path.join(os.path.dirname(args.result), f"spans-{args.workload}.csv.gz"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
