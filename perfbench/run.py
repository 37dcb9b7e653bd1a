#!/usr/bin/env python3
"""The repo benchmark: builds bb_perfbench from the checkout's sources,
runs one workload, checks its outputs, and prints every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the checkout root.  Workloads, metrics and units are those
of BENCHMARK.json; perfbench/README.md explains them.  Human-readable
lines come first; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1).  The exit code is 0 only when every output was correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfstats  # noqa: E402

BUILD_DIR = ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
BINARY = os.path.join(BUILD_DIR, "bb_perfbench")
RUN_TIMEOUT_S = 170
# Seeds 1-10 tuned the benchmark.  A claimed gain is re-checked on the
# held-out seed, which nothing was tuned against.
TUNING_SEEDS = range(1, 11)
HELD_OUT_SEED = 2718281


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    for needed in ("CMakeLists.txt", "src", "examples"):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a source checkout" % needed)
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=log, stderr=log) != 0:
        fail("build failed")


def binary_command(args):
    return [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def run_binary(args):
    cmd = binary_command(args)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload %s exited with %d" % (args.workload, proc.returncode))
    return json.loads(lines[-1])


def describe(raw, spec, values, trace):
    print("# workload %s seed %d, %s" % (raw["workload"], raw["seed"],
                                         "traced" if trace else "untraced"))
    for k, v in sorted(raw["info"].items()):
        print("# %s: %s" % (k, v))
    print("# passes: %d untraced, %d traced; set-ups: %d"
          % (len(raw["pass_s"]), len(raw["traced_pass_s"]),
             len(raw["setup_s"])))
    for series, xs in sorted(raw["samples"].items()):
        parts = ["n=%d" % len(xs), "p50=%.3f" % perfstats.median(xs)]
        for q in (0.9, 0.99):
            p = perfstats.percentile(xs, q)
            if p:
                parts.append("p%d=%.3f" % (round(q * 100), p[0]))
        print("# %-24s ms  %s" % (series, "  ".join(parts)))
    print("# op_ms (median over ops of each op's median): %.3f ms, %d ops"
          % (perfstats.op_ms(raw), len(raw["ops"])))
    ratio = raw["failed"] / raw["attempted"] if raw["attempted"] else 0.0
    print("# fail_ratio: %.6f (%d of %d)" % (ratio, raw["failed"],
                                            raw["attempted"]))
    for f in raw["failures"]:
        print("# FAILED: " + f)
    for m in spec:
        print("%-32s %14.6f %s" % (m["name"], values[m["name"]], m["unit"]))


def main(argv):
    args = parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)
    spec = bench["per_layer" if args.trace else "end_to_end"]

    build()
    raw = run_binary(args)
    values = (perfstats.per_layer(raw) if args.trace
              else perfstats.end_to_end(raw))
    describe(raw, spec, values, args.trace)
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
