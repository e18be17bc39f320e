#!/usr/bin/env python3
"""Record the reference digests of perfbench/reference.json.

    python3 perfbench/establish.py [--workloads dense,...] [--seeds 1,2]
                                   [--jobs N]

For each workload and seed, runs the perfbench binary's --reference mode, which
simulates the seed's inputs on the scalar engine (the repository's
oracle: per-element loops, reference GEMM) and prints the digests of
its events and functional outputs. Seeds default to the tuning seeds
and the held-out seed of perfbench/config.json. Existing entries of
other seeds are kept. Run from the repository root; it builds like
run.py does.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import HERE, WORKLOADS, build  # noqa: E402


def reference(exe, workload, seed):
    proc = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                           "--reference"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"establish: {workload} seed {seed} failed")
    return workload, seed, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    default_seeds = config["tuning_seeds"] + [config["held_out_seed"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default=",".join(map(str, default_seeds)))
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    _, exe = build()
    path = os.path.join(HERE, "reference.json")
    with open(path) as f:
        ref = json.load(f)
    jobs = [(w, int(s)) for w in args.workloads.split(",")
            for s in args.seeds.split(",")]
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for workload, seed, digests in pool.map(
                lambda j: reference(exe, *j), jobs):
            ref.setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {digests}", file=sys.stderr)
    with open(path, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
