#!/usr/bin/env python3
"""Steadiness report: the evidence the benchmark's bounds are set from.

Runs run.py on every workload, interleaved (campaign_sim, campaign_ckpt,
triage_replay, then again), one seed per round (seeds 1 to 10), for
BENCHMARK.json's run_seconds each, and prints for each workload and
end-to-end metric the median, the quartiles, IQR / median, and the shift
between the medians of the first and second half of the rounds. Spreads are
compared with a third of the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py
"""

import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ROUNDS = 10
SEED0 = 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    failed = {w: [] for w in workloads}
    start = time.time()
    for i in range(ROUNDS):
        seed = SEED0 + i
        for w in workloads:
            t = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                sys.stdout.write(proc.stdout + proc.stderr)
                sys.exit("steadiness: %s seed %d failed (exit %d)" %
                         (w, seed, proc.returncode))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            failed[w].append("%d/%d" % (result["failed"], result["attempted"]))
            print("round %d %-14s seed %-3d %5.1f s  %s" % (
                i, w, seed, time.time() - t,
                " ".join("%s=%.4g" % (k, m["value"])
                         for k, m in result["metrics"].items())), flush=True)

    print("\n%d rounds in %.0f s" % (ROUNDS, time.time() - start))
    print("%-14s %-12s %10s %10s %10s %8s %8s %8s  %s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med", "shift",
        "bound/3", "verdict"))
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            half = len(vals) // 2
            shift = (statistics.median(vals[half:]) /
                     statistics.median(vals[:half]) - 1.0) if half else 0.0
            spread = (q3 - q1) / med
            third = bounds[name] / 3
            verdict = "ok" if spread < third else "WIDE"
            if name == "setup_s":
                verdict = "ok" if abs(shift) < third else "DRIFT"
            print("%-14s %-12s %10.4f %10.4f %10.4f %7.1f%% %+7.1f%% %7.1f%%  %s" % (
                w, name, med, q1, q3, 100 * spread, 100 * shift, 100 * third,
                verdict))
        print("%-14s failed operations per run: %s" % (w, " ".join(failed[w])))


if __name__ == "__main__":
    main()
