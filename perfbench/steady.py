#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--workloads server,recovery,crashmc]
        [--runs 10]

Runs each workload --runs times, at seeds 1, 2, ..., through
perfbench/run.py with tracing off and BENCHMARK.json's run_seconds.
For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. A
spread counts as steady when it is below a third of the bound. Then it
re-runs seed 1 once and checks that its sim-identity fingerprint
matches the first run's exactly. A run whose result is not correct
still counts towards the spreads and is reported. Exits 1 if any run
is not correct, any spread is unsteady or a fingerprint differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """One untraced run: (result object, detail object)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    if len(lines) < 2 or not lines[-1].startswith('{"correct"'):
        raise SystemExit(f"{workload} seed {seed}: run printed no result "
                         f"(exit {done.returncode})")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    healthy = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        prints = []
        failed = 0
        for seed in range(1, args.runs + 1):
            result, detail = run_once(workload, seed, seconds)
            failed += not result["correct"]
            prints.append(detail["fingerprint"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.6g}" for n in values) +
                f", fingerprint {detail['fingerprint']}, "
                f"{result['failed']}/{result['attempted']} ops failed",
                flush=True)
        print(f"== {workload}: {args.runs} runs, {failed} not correct")
        healthy &= failed == 0
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            steady = spread < bound / 3
            healthy &= steady
            print(f"   {name:14s} median {med:.6g} {metric['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  "
                  f"bound {bound}  {'ok' if steady else 'UNSTEADY'}")
        _, again = run_once(workload, 1, seconds)
        agree = again["fingerprint"] == prints[0]
        healthy &= agree
        print(f"   fingerprint agreement: {'yes' if agree else 'NO'}",
              flush=True)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
