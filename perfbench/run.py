#!/usr/bin/env python3
"""Build and run the cni simulator benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload macro_snoop --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload dsm_mesh --seed 1 --digest
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --steadiness --workload modelcheck

The first call configures and builds an optimised copy of the library and
the perfbench program in .bench_build/ (CMake, Release); later calls
rebuild only what changed. Every other argument goes to that program
(perfbench/src/main.cpp), whose last line of standard output is the run's
JSON result.

--steadiness runs the workload as two interleaved sets of ten runs of
BENCHMARK.json's run_seconds each, with seeds counting up from 1, and prints
for every end-to-end metric each set's median and quartiles, the spread
(quartile distance over median) and whether the two medians agree within
the bound in BENCHMARK.json.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
STEADINESS_RUNS = 10  # per set; quartiles of fewer runs say little


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "machine.hpp")):
        fail("no cni sources under %s/src; run from a full checkout" % ROOT)
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            fail("%s is required to build the benchmark" % tool)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def run_once(workload, seed, seconds, trace):
    """One run of the perfbench program; returns its parsed JSON result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("run %s printed nothing (exit %d)" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(argv):
    if len(argv) != 2 or argv[0] != "--workload":
        fail("usage: run.py --steadiness --workload <name>")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workload = argv[1]
    if workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % workload)
    seconds = spec["run_seconds"]
    seed = 1

    sets = {"A": [], "B": []}
    for i in range(STEADINESS_RUNS):
        # Interleave the sets and alternate which goes first.
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for name in order:
            res = run_once(workload, seed, seconds, 0)
            seed += 1
            if not res["correct"]:
                fail("set %s run with seed %d failed its checks"
                     % (name, seed - 1))
            sets[name].append(res)
            print("run %2d set %s: %s" % (i, name, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())),
                file=sys.stderr)

    ok = True
    print("workload %s: two sets of %d runs, %d s each" % (workload, STEADINESS_RUNS, seconds))
    print("%-12s %-4s %12s %12s %12s %8s %8s %s" % (
        "metric", "set", "q1", "median", "q3", "spread", "bound", "agree"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds = {}
        for s in ("A", "B"):
            vals = [r["metrics"][name]["value"] for r in sets[s]]
            q1, q2, q3 = quartiles(vals)
            meds[s] = q2
            spread = (q3 - q1) / q2 if q2 else float("inf")
            print("%-12s %-4s %12.6g %12.6g %12.6g %8.3f %8.3f" % (
                name, s, q1, q2, q3, spread, bound))
        worse = meds["B"] / meds["A"] - 1 if meds["A"] else float("inf")
        agree = abs(worse) <= bound
        ok &= agree
        print("%-12s %-4s %12s %12s %12s %8s %8s %s (B/A - 1 = %+.3f)" % (
            name, "", "", "", "", "", "", "yes" if agree else "NO", worse))
    shares = {s: {r["failed"] / r["attempted"] for r in sets[s]} for s in sets}
    same_share = len(shares["A"] | shares["B"]) == 1
    ok &= same_share
    print("failed share: %s" % (
        "the same in every run (%s)" % next(iter(shares["A"]))
        if same_share else "DIFFERS: %s" % shares))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    build()
    if argv[:1] == ["--steadiness"]:
        sys.exit(steadiness(argv[1:]))
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + argv)


if __name__ == "__main__":
    main()
