#!/usr/bin/env python3
"""Steadiness of a workload: two interleaved sets of runs, compared.

    python3 perfbench/steadiness.py --workload <name>[,<name>...] [--runs 5] [--seed-base 1000]

Runs the benchmark command of BENCHMARK.json 2 x --runs times per workload,
alternating set A and set B, each run with its own seed. Several workloads
are interleaved run by run, so that slow phases of a shared machine fall on
all of them alike. For every end-to-end metric it
prints each set's median and quartiles, the spread (interquartile distance
over the median) of each set and of all runs pooled, and flags:

  DISAGREE  the two sets' medians differ by more than the metric's bound
  WIDE      the pooled spread exceeds a third of the bound (setup_s exempt)

It also checks that every run passed and that the failed share of attempted
operations is the same in both sets. Exits 1 if anything is flagged. Run it
from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workload.split(",")
    sets = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for k, name in enumerate("AB"):
                seed = args.seed_base + 2 * i + k
                result = run_once(bench["command"], w, seed,
                                  bench["run_seconds"])
                sets[w][name].append(result)
                print("%s run %d set %s seed %d: %s" % (w, i, name, seed, " ".join(
                    "%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                    for m in metrics)), flush=True)
    flagged = False
    for w in workloads:
        flagged = report(w, sets[w], metrics, args.runs,
                         bench["run_seconds"]) or flagged
    return 1 if flagged else 0


def report(workload, sets, metrics, runs, run_seconds):
    flagged = False
    print("\nworkload %s, %d runs per set, run_seconds %s"
          % (workload, runs, run_seconds))
    print("%-12s %6s | %-34s | %-34s | %7s %7s  %s" % (
        "metric", "bound", "set A median [q1, q3] spread",
        "set B median [q1, q3] spread", "A vs B", "pooled", "flags"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        cells = []
        medians = []
        for s in "AB":
            q1, q2, q3, spread = summary(
                [r["metrics"][name]["value"] for r in sets[s]])
            medians.append(q2)
            cells.append("%.5g [%.5g, %.5g] %.3f" % (q2, q1, q3, spread))
        pooled = summary([r["metrics"][name]["value"]
                          for s in "AB" for r in sets[s]])[3]
        shift = abs(medians[1] - medians[0]) / medians[0]
        flags = []
        if shift > bound:
            flags.append("DISAGREE")
        if name != "setup_s" and pooled > bound / 3:
            flags.append("WIDE")
        flagged = flagged or bool(flags)
        print("%-12s %6.3f | %-34s | %-34s | %7.4f %7.4f  %s" % (
            name, bound, cells[0], cells[1], shift, pooled, " ".join(flags)))

    shares = []
    for s in "AB":
        attempted = sum(r["attempted"] for r in sets[s])
        failed = sum(r["failed"] for r in sets[s])
        shares.append(failed / attempted)
        if not all(r["correct"] for r in sets[s]):
            print("set %s: a run reported incorrect output" % s)
            flagged = True
    print("failed share: set A %.6g, set B %.6g" % tuple(shares))
    if shares[0] != shares[1]:
        print("failed shares differ between the sets")
        flagged = True
    return flagged


if __name__ == "__main__":
    sys.exit(main())
