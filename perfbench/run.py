#!/usr/bin/env python3
"""Build and run the benchmark driver.

    python3 perfbench/run.py --workload server|recovery|crashmc \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the library sources in src/ it compiles) into
.bench_build/perfbench; later calls only re-check the build. Build
output goes to stderr, so the last stdout line is the driver's result
object. The result is checked against BENCHMARK.json: with --trace 0
it must carry exactly the end_to_end metrics, with --trace 1 exactly
the per_layer metrics, each with its declared unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build; False if either step fails."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIO_")}
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    args = sys.argv[1:]
    flag = args.index("--trace") if "--trace" in args else len(args)
    trace = flag + 1 < len(args) and args[flag + 1] != "0"
    expected = expected_metrics(trace)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        return done.returncode or 1
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(expected) - set(got))}, "
              f"extra {sorted(set(got) - set(expected))}, units "
              f"{sorted(k for k in got if k in expected and got[k] != expected[k])}",
              file=sys.stderr)
        return 1
    print(lines[-1])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
