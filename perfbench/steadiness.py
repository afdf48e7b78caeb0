#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steadiness.py [--workloads flow,explore,serve]

Runs two back-to-back sets of runs of the current checkout; a set is
one untraced run per (workload, seed) for seeds 1..10, as BENCHMARK.json's
command runs them. For every end-to-end metric and workload it prints,
per set, the median and the spread (distance between the first and third
quartile, statistics.quantiles(n=4), as a share of the median), then
checks against the bounds in BENCHMARK.json:

  * each set's spread is within the metric's bound, except setup_s's:
    its set-ups all fall in the first seconds of a run, so one slow
    stretch of a shared machine moves a whole run's value (its spread is
    printed, and the driver's contract exempts it too);
  * the second set's median differs from the first set's by at most the
    bound, in either direction, setup_s included.

Exit status 0 when every check holds and every run was correct, 1
otherwise. Raw values go to <build dir>/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
SETS = 2


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed,
                                                    proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] = [one value per seed]
    values = []
    ok = True
    for s in range(SETS):
        per_set = {}
        for workload in workloads:
            per_metric = {m["name"]: [] for m in metrics}
            for seed in range(1, SEEDS + 1):
                result = run_once(spec, workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    print("set %d %s seed %d: incorrect (%d of %d failed)" %
                          (s + 1, workload, seed, result["failed"],
                           result["attempted"]))
                    ok = False
                for m in metrics:
                    per_metric[m["name"]].append(
                        result["metrics"][m["name"]]["value"])
            per_set[workload] = per_metric
        values.append(per_set)

    print("%-8s %-12s %-6s %14s %8s %8s  %s" %
          ("workload", "metric", "set", "median", "spread", "bound",
           "verdict"))
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            base = statistics.median(values[0][workload][name])
            for s in range(SETS):
                vals = values[s][workload][name]
                med = statistics.median(vals)
                sp = spread(vals)
                fails, notes = [], []
                if sp > bound:
                    (notes if name == "setup_s" else fails).append("SPREAD")
                elif sp > bound / 3:
                    notes.append("spread>bound/3")
                if s > 0:
                    shift = (med - base) / base
                    if abs(shift) > bound:
                        fails.append("SHIFT %+.1f%%" % (100 * shift))
                    else:
                        notes.append("shift %+.1f%%" % (100 * shift))
                ok = ok and not fails
                print("%-8s %-12s %-6d %14.6g %7.1f%% %7.0f%%  %s" %
                      (workload, name, s + 1, med, 100 * sp, 100 * bound,
                       " ".join(fails + notes) or "ok"))

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "steadiness.json")
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "seeds": SEEDS, "values": values},
                  f, indent=1)
    print("steadiness: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
