#!/usr/bin/env python3
"""Host-time benchmark of the S2TA simulator.

Runs one workload of the benchmark and prints its metrics:

    python3 perfbench/run.py --workload dense|sparse|sweep|serving \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator library (the repository's default configure) and the
perfbench binary into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset.

Output: one line with the run's host and build fingerprint, then, as
the last line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones and writes the run's
spans as a Chrome trace next to the build.

Outputs are checked three ways: every op must reproduce the first
op's result bitwise; that result must match the scalar engine
(events, and functional outputs by a Freivalds check); and, for the
seeds recorded in perfbench/reference.json, the scalar-engine digests
recorded there. A mismatch counts the ops as failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense", "sparse", "sweep", "serving")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no simulator sources under {ROOT}")
    target = os.environ.get("CARGO_TARGET_DIR") or \
        os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return build_dir, os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    wcfg = config["workloads"][args.workload]

    build_dir, exe = build()
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    out = os.path.join(out_dir, tag + ".json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out]
    if "rate_per_s" in wcfg:
        cmd += ["--rate", repr(wcfg["rate_per_s"])]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, tag + ".trace.json")]
    if os.path.exists(out):
        os.remove(out)
    # The simulator's per-layer warnings go to stderr; keep only the
    # tail for a failing run.
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not os.path.exists(out):
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"perfbench exited with {proc.returncode}")
    with open(out) as f:
        res = json.load(f)

    attempted = int(res["attempted"])
    failed = int(res["failed"])
    errors = list(res["errors"])
    recorded = reference.get(args.workload, {}).get(str(args.seed))
    if recorded is not None and recorded != res["digests"]:
        errors.append("digests differ from perfbench/reference.json")
        failed = attempted
    if attempted < 1:
        errors.append("no op completed")
        attempted = 1
        failed = 1
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)

    if args.trace:
        # A layer the workload bypasses (config.json) reports 0.
        values = {m["name"]: 0.0 for m in bench["per_layer"]}
        values.update(res["layers"])
        values["workload.build_s"] = statistics.median(res["build_s"])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        ops = res["op_s"]
        values = {
            "op_ms": statistics.median(ops) * 1e3,
            "setup_s": statistics.median(res["setup_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    print(json.dumps({
        "fingerprint": res["fingerprint"],
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(res["op_s"]),
        "seed_recorded": recorded is not None,
    }))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
