#!/usr/bin/env python3
"""Steadiness check for the benchmark: two interleaved sets of runs of the
same code, each metric's median and quartiles per set, and the gap between
the sets' medians.

Run from the repository root:

    python3 perfbench/steady.py
    python3 perfbench/steady.py --workloads serve-openloop

Each set has ten runs per workload of BENCHMARK.json's run_seconds. Round i
runs every workload once per set, with seed i+1 in both sets, and
alternates which set goes first, so slow drift of the machine lands on both
sets alike. For each end-to-end metric it prints, per set, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, then the gap: how far set B's median is from set A's,
as a share of A's (positive = B worse). A metric is flagged when its
spread exceeds a third of its bound in BENCHMARK.json or its gap, either
way, exceeds the bound.

The first three rounds also make one traced run per workload. From those it
reports the tracing overhead (traced minus untraced medians of the
end-to-end metrics) and checks that every per-layer count repeated exactly
across the traced runs. The few counts that are measurements of the Go
runtime or sampled means (MEASURED below) are reported with their range
instead, and so are serve-openloop's engine counts (STORE_RACED).
Exit status: 0 when nothing is flagged, 1 otherwise.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RUNS = 10    # rounds (seeds) per set
TRACED = 3   # rounds that also make a traced run
# Per-layer metrics with unit "count" that are measured rather than
# counted, so they need not repeat exactly: allocations and GC cycles vary
# with GC timing, and the queue depth is a mean of timed samples.
MEASURED = {"runtime.mallocs", "runtime.gc_cycles", "nn.allocs_per_backward",
            "serve.queue_depth_mean"}
# On serve-openloop, which engine answers a profile depends on whether a
# concurrent job has already stored it, so these counts may differ by a few
# between runs (one traced run had hls.vm=2739 where two had 2738).
STORE_RACED = {("serve-openloop", "hls.static"), ("serve-openloop", "hls.vm"),
               ("serve-openloop", "hls.interp")}


def run_once(workload, seed, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed with {p.returncode}:\n{p.stdout}\n{p.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: checks failed or operations failed:\n{p.stdout}")
    traced_e2e = {}
    for line in lines:
        if line.startswith("perfbench: traced end-to-end"):
            for name, value in re.findall(r"(\S+)=([-+0-9.e]+)", line):
                traced_e2e[name] = float(value)
    return {k: v["value"] for k, v in res["metrics"].items()}, traced_e2e


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def worse_share(metric, a, b):
    """How much worse b is than a, as a share of a (negative = b better)."""
    if a == 0:
        return 0.0
    d = (b - a) / abs(a)
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]),
                    help="comma-separated subset to re-measure (default: all)")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    sets = {s: {w: [] for w in workloads} for s in "AB"}
    traced = {w: [] for w in workloads}
    for i in range(RUNS):
        order = "AB" if i % 2 == 0 else "BA"
        for s in order:
            for w in workloads:
                m, _ = run_once(w, i + 1, 0)
                sets[s][w].append(m)
                print(f"round {i} set {s} {w}: " +
                      " ".join(f"{k}={m[k]:.5g}" for k in sorted(m)), flush=True)
        if i < TRACED:
            for w in workloads:
                traced[w].append(run_once(w, i + 1, 1))

    flagged = 0
    print()
    print(f"{'workload':15} {'metric':17} {'set A median [q1, q3] spread':>40} "
          f"{'set B median [q1, q3] spread':>40} {'gap':>7} {'bound':>6}")
    for w in workloads:
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            meds = []
            for s in "AB":
                xs = [r[name] for r in sets[s][w]]
                q1, med, q3 = quartiles(xs)
                spread = (q3 - q1) / abs(med) if med else 0.0
                meds.append(med)
                bad = spread > bound / 3
                flagged += bad
                cols.append(f"{med:11.5g} [{q1:.5g}, {q3:.5g}] {spread:6.1%}{'!' if bad else ' '}")
            gap = worse_share(metric, meds[0], meds[1])
            bad = abs(gap) > bound
            flagged += bad
            print(f"{w:15} {name:17} {cols[0]:>40} {cols[1]:>40} {gap:+7.1%}{'!' if bad else ' '} {bound:6.2f}")

    print()
    print("tracing overhead (traced median vs untraced set-A median):")
    for w in workloads:
        for metric in BENCH["end_to_end"]:
            name = metric["name"]
            untraced = statistics.median(r[name] for r in sets["A"][w])
            tr = statistics.median(e2e[name] for _, e2e in traced[w])
            print(f"  {w:15} {name:17} untraced {untraced:11.5g} traced {tr:11.5g} "
                  f"({worse_share(metric, untraced, tr):+.1%} worse)")
    print("per-layer metrics across traced runs (counts must repeat exactly):")
    for w in workloads:
        for metric in BENCH["per_layer"]:
            name = metric["name"]
            xs = [layers[name] for layers, _ in traced[w]]
            inexact = name in MEASURED or (w, name) in STORE_RACED
            if metric["unit"] == "count" and not inexact and len(set(xs)) > 1:
                flagged += 1
                print(f"  {w:15} {name:28} DIFFERS: {xs}")
            if any(xs):
                q1, med, q3 = quartiles(xs)
                note = f" range {min(xs):.8g}..{max(xs):.8g}" if inexact else ""
                print(f"  {w:15} {name:28} median {med:.5g} [{q1:.5g}, {q3:.5g}] {metric['unit']}{note}")

    print()
    print("flagged:", flagged)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
