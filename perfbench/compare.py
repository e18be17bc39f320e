#!/usr/bin/env python3
"""Compare the benchmark on two checkouts (parent and change).

    python3 perfbench/compare.py --parent DIR --change DIR \\
        [--workloads dense,sparse,sweep,serving] [--seeds 1,2,...] \\
        [--save runs.json]
    python3 perfbench/compare.py --load runs.json

Each DIR is a checkout holding BENCHMARK.json and perfbench/. For each
workload and seed the tool runs both sides back to back, alternating
which side goes first, with the parent's run length. It then prints one
row per (end-to-end metric, workload):

  gain          the change wins at least 9/10 of the pairs (ties count
                for neither) and the medians differ by more than the
                parent's interquartile range;
  ok            the change's median is no worse than the parent's by
                more than the metric's bound;
  REGRESSION    it is worse by more than the bound;
  unresolved    the parent's own spread (IQR over median) exceeds the
                bound, and not every change run beats every parent run.

A workload whose change runs fail a larger share of ops than the
parent's is flagged FAILED+. Results whose fingerprints differ (CPU
model, CPU count, probed and dispatched kernel tier, compiler, build
type, S2TA_OBS) are refused. Exits 1 on a regression, FAILED+ or
refusal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys



def run_once(root, bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"compare: run failed in {root}: {' '.join(cmd)}")
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def collect(args):
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    benches = {}
    for side, root in sides.items():
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            benches[side] = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in benches["parent"]["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = benches["parent"]["run_seconds"]
    runs = []
    for workload in workloads:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for side in order:
                rec = run_once(sides[side], benches[side], workload, seed,
                               seconds)
                rec.update(side=side, workload=workload, seed=seed)
                runs.append(rec)
                print(f"  {workload:8s} seed {seed:<4d} {side}",
                      file=sys.stderr)
    return {"bench": benches["parent"], "runs": runs}


def check_fingerprints(runs):
    prints = {}
    for r in runs:
        prints.setdefault(r["side"], set()).add(
            json.dumps(r["info"]["fingerprint"], sort_keys=True))
    for side, fps in prints.items():
        if len(fps) > 1:
            sys.exit(f"compare: {side} runs carry differing fingerprints: "
                     f"{sorted(fps)}")
    p = json.loads(next(iter(prints["parent"])))
    c = json.loads(next(iter(prints["change"])))
    diff = [k for k in sorted(set(p) | set(c)) if p.get(k) != c.get(k)]
    if diff:
        sys.exit("compare: refusing: fingerprints differ in " +
                 ", ".join(f"{k} ({p.get(k)} vs {c.get(k)})" for k in diff))
    print("fingerprint: " + ", ".join(f"{k} {v}" for k, v in p.items()))


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(metric, p, c):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mp, mc = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    spread = (q3 - q1) / mp if mp else 0.0
    better = [(y < x) if lower else (y > x) for x, y in zip(p, c)]
    wins = sum(better)
    worse = ((mc - mp) if lower else (mp - mc)) / mp if mp else 0.0
    dominates = (max(c) < min(p)) if lower else (min(c) > max(p))
    if wins >= 0.9 * len(p) and abs(mc - mp) > (q3 - q1) and worse < 0:
        v = "gain"
    elif spread > bound and not dominates:
        v = "unresolved"
    elif worse > bound:
        v = "REGRESSION"
    else:
        v = "ok"
    return mp, (q1, q3), mc, quartiles(c), wins, len(p), worse, v


def report(data):
    bench, runs = data["bench"], data["runs"]
    check_fingerprints(runs)
    bad = False
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    print(f"\n{'metric':12s} {'workload':9s} {'parent median [q1,q3]':>30s} "
          f"{'change median [q1,q3]':>30s} {'wins':>6s} {'worse':>7s} "
          f"{'bound':>6s}  verdict")
    for metric in bench["end_to_end"]:
        for w in workloads:
            by_seed = {}
            for r in runs:
                if r["workload"] == w:
                    by_seed.setdefault(r["seed"], {})[r["side"]] = \
                        r["result"]["metrics"][metric["name"]]["value"]
            pairs = [(v["parent"], v["change"]) for v in by_seed.values()
                     if "parent" in v and "change" in v]
            p = [x for x, _ in pairs]
            c = [y for _, y in pairs]
            mp, (p1, p3), mc, (c1, c3), wins, n, worse, v = \
                verdict(metric, p, c)
            bad |= v == "REGRESSION"
            print(f"{metric['name']:12s} {w:9s} "
                  f"{mp:12.4g} [{p1:.4g},{p3:.4g}]".ljust(53) +
                  f"{mc:12.4g} [{c1:.4g},{c3:.4g}]".ljust(31) +
                  f"{wins:3d}/{n:<2d} {worse:+7.1%} {metric['bound']:6.2f}"
                  f"  {v}")
    print()
    for w in workloads:
        frac = {}
        for side in ("parent", "change"):
            rs = [r["result"] for r in runs
                  if r["workload"] == w and r["side"] == side]
            att = sum(r["attempted"] for r in rs)
            fl = sum(r["failed"] for r in rs)
            frac[side] = fl / att if att else 1.0
        flag = "FAILED+" if frac["change"] > frac["parent"] else "ok"
        bad |= flag != "ok"
        print(f"failed_frac {w:9s} parent {frac['parent']:.4f} "
              f"change {frac['change']:.4f}  {flag}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description="Compare the benchmark on a parent and a change.")
    ap.add_argument("--parent", help="parent checkout")
    ap.add_argument("--change", help="change checkout")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--save", help="write the raw runs here (JSON)")
    ap.add_argument("--load", help="re-analyse runs saved with --save")
    args = ap.parse_args()
    if args.load:
        with open(args.load) as f:
            data = json.load(f)
    elif args.parent and args.change:
        data = collect(args)
        if args.save:
            with open(args.save, "w") as f:
                json.dump(data, f)
    else:
        ap.error("give --parent and --change, or --load")
    sys.exit(report(data))


if __name__ == "__main__":
    main()
