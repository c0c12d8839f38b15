#!/usr/bin/env python3
"""Build and run the ppcsim benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

builds perfbench/ (a Go module of its own that uses the checkout's
ppcsim module through a replace directive) into .bench_build/, runs the
named workload and passes its output through: the last line of standard
output is the JSON result. Every file the build and the run write stays
under .bench_build/ in the checkout.

Steadiness mode runs two sets of runs of the same build and reports, for
every end-to-end metric and workload, each set's median and quartiles,
the spread (interquartile range over median) and whether the two sets
agree within the metric's bound in BENCHMARK.json:

    python3 perfbench/run.py --steadiness --runs 10 [--workloads paper-grid,serve-mix]

The first set uses seeds 1..runs and the second runs+1..2*runs.
setup_s's spread is printed but not gated: set-up takes a few tens of
milliseconds and follows the host's speed more than any other metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
SETS = 2


def go_env():
    """Keep the Go toolchain's caches, temp files and telemetry inside the checkout."""
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=readonly"
    env.pop("GOWORK", None)
    return env


def build(env):
    os.makedirs(BUILD, exist_ok=True)
    try:
        proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("perfbench: build failed: %s\n" % exc)
        return False
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + proc.stdout.decode(errors="replace"))
        return False
    return True


def run_once(env, workload, seed, seconds, trace):
    """Run the binary once; return (exit code, stdout text)."""
    cmd = [BINARY, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-workdir", os.path.join(BUILD, "work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, proc.stdout.decode(errors="replace")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / abs(q2) if q2 else float("inf")


def steadiness(env, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                code, out = run_once(env, workload, seed, seconds, 0)
                if code != 0:
                    sys.stderr.write("perfbench: %s seed %d exited %d\n" % (workload, seed, code))
                    return 1
                runs.append(json.loads(out.strip().splitlines()[-1]))
            sets.append(runs)
        shares = sorted({r["failed"] / r["attempted"] for runs in sets for r in runs})
        print("%s: failed share %s" % (workload, ", ".join("%.6f" % s for s in shares)))
        ok &= len(shares) == 1
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            medians = []
            for s, runs in enumerate(sets):
                q1, q2, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(q2)
                if name == "setup_s":
                    verdict = "  (not gated)"
                elif sp <= bound:
                    verdict = ""
                else:
                    verdict = "  SPREAD TOO WIDE"
                    ok = False
                print("  %-16s set %d  median %.6g  q1 %.6g  q3 %.6g  spread %.3f (bound %.2f)%s"
                      % (name, s + 1, q2, q1, q3, sp, bound, verdict))
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if lower else -change
            agree = abs(change) <= bound
            ok &= agree
            print("  %-16s second set's median %+.3f of the first (%+.3f worse): %s"
                  % (name, change, worse, "agree" if agree else "DISAGREE"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    args = ap.parse_args()
    env = go_env()
    if not build(env):
        return 1
    if args.steadiness:
        return steadiness(env, args)
    if not args.workload or not args.seconds:
        ap.error("--workload and --seconds are required")
    code, out = run_once(env, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
