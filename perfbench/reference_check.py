"""Does the host-speed kernel depend on the state a workload leaves behind?

    python3 perfbench/reference_check.py --workload volume_tracking --seed 1 --seconds 60

worker.py scales each latency by the time of calibrate(), read right after
the previous scenario and its check. This script reads calibrate() in pairs:
once right after a scenario and its check, and once right after calibrate()
itself has run for about as long (the kernel alone, in the same rhythm). The
two readings of a pair are taken a fraction of a second apart, in random
order, so they share the host's state; only what ran before them differs.
It prints the median over pairs of after-scenario over after-kernel, with
its quartiles. A median of 1 means the scaling reads the host and not the
workload's leftover heap, cache or clock state.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time

import worker
from run import THREAD_ENV


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(worker.PREDICTED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    os.environ.update(THREAD_ENV)

    import numpy as np

    import workloads

    workdir = os.path.join(worker.CHECKOUT, ".bench_build", "perfbench", f"refcheck-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.make(args.workload, workdir)
    rng = np.random.default_rng(args.seed)
    scenarios = workload.scenarios(rng, 1)

    def scenario(s):
        start = time.perf_counter()
        workload.check(s, workload.execute(s))
        return time.perf_counter() - start

    def kernel_alone(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            worker.calibrate()

    scenario(workload.warmup())
    worker.calibrate()
    ratios, after_scenario, after_kernel = [], [], []
    last = 0.1
    stop = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < stop:
        s = scenarios[i % len(scenarios)]
        i += 1
        if rng.random() < 0.5:
            last = scenario(s)
            a = worker.calibrate()
            kernel_alone(last)
            b = worker.calibrate()
        else:
            kernel_alone(last)
            b = worker.calibrate()
            last = scenario(s)
            a = worker.calibrate()
        after_scenario.append(a)
        after_kernel.append(b)
        ratios.append(a / b)
    shutil.rmtree(workdir, ignore_errors=True)
    q = statistics.quantiles(ratios, n=4)
    print(f"{args.workload}: {len(ratios)} pairs; calibrate() after scenario over after kernel alone: "
          f"median {statistics.median(ratios):.4f} (quartiles {q[0]:.4f}, {q[2]:.4f}); "
          f"medians {statistics.median(after_scenario) * 1e3:.4f} ms and "
          f"{statistics.median(after_kernel) * 1e3:.4f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
