#!/usr/bin/env python3
"""Compares two sets of dess_bench reports, workload by workload.

Usage:
  python3 bench/e2e/compare.py A/ B/ [--claim metric@workload ...] [--same]

A/ and B/ hold report JSON files as dess_bench --out writes them (run.py
keeps them under <build dir>/runs/); Chrome-trace files are skipped. For each
workload and each metric of BENCHMARK.json the script prints each side's
median and quartiles, the change of B's median against A's, and a verdict:

  regressed   B's median is worse than A's by more than the metric's bound
  unresolved  a side's quartile spread, as a share of its median, is wider
              than the bound, so a change of that size cannot be seen
  unchanged   otherwise

Per-layer metrics (present in traced reports) have no bound and are listed
without a verdict. Comparing untraced runs (A) with traced runs (B) of the
same code gives the tracing overhead of every end-to-end metric.

--claim metric@workload applies the gain rule to B over A: B wins at least 9
of every 10 runs paired by seed (ties count for neither), with at least 10
pairs, and the medians differ by more than A's quartile spread.

--same declares A and B runs of the same code. The script then exits 1 when
any end-to-end median differs between the sides by more than its bound, or
when a side's spread exceeds the bound (setup_s is exempt from the spread
rule, as it is in BENCHMARK.json's acceptance).
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_reports(directory):
    """workload -> list of reports, ordered by seed."""
    reports = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        report = json.loads(path.read_text())
        if "metrics" not in report or "context" not in report:
            continue
        reports[report["context"]["workload"]].append(report)
    for runs in reports.values():
        runs.sort(key=lambda r: int(r["context"]["seed"]))
    return reports


def summary(values):
    """(median, q1, q3, spread as a share of the median)."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    if median:
        spread = (q3 - q1) / abs(median)
    else:
        spread = 0.0 if q3 == q1 else float("inf")
    return median, q1, q3, spread


def context(runs, key):
    return sorted({r["context"].get(key, "?") for r in runs})


def values_of(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def worse_by(metric, a, b):
    """Share by which b is worse than a (negative when better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if metric["better"] == "lower" else -change


def check_claim(claim, a_runs, b_runs, metrics):
    name, _, workload = claim.partition("@")
    metric = metrics.get(name)
    if metric is None or not workload:
        return False, f"claim {claim}: expected <metric>@<workload>"
    a_by_seed = {r["context"]["seed"]: r for r in a_runs.get(workload, [])}
    pairs = [(a_by_seed[r["context"]["seed"]], r)
             for r in b_runs.get(workload, [])
             if r["context"]["seed"] in a_by_seed
             and name in r["metrics"]
             and name in a_by_seed[r["context"]["seed"]]["metrics"]]
    wins = 0
    for a, b in pairs:
        if worse_by(metric, a["metrics"][name]["value"],
                    b["metrics"][name]["value"]) < 0:
            wins += 1
    a_values = [a["metrics"][name]["value"] for a, _ in pairs]
    b_values = [b["metrics"][name]["value"] for _, b in pairs]
    if len(pairs) < 10:
        return False, f"claim {claim}: {len(pairs)} pairs, at least 10 needed"
    a_med, a_q1, a_q3, _ = summary(a_values)
    b_med = statistics.median(b_values)
    held = wins >= 0.9 * len(pairs) and abs(b_med - a_med) > (a_q3 - a_q1)
    return held, (f"claim {claim}: B wins {wins}/{len(pairs)} pairs, "
                  f"medians {a_med:.6g} -> {b_med:.6g}, A spread "
                  f"{a_q3 - a_q1:.6g}: {'MET' if held else 'NOT MET'}")


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of dess_bench reports.")
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--claim", action="append", default=[])
    parser.add_argument("--same", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load_reports(args.a), load_reports(args.b)
    disagreements = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"== {workload}: no runs on {'A' if not a else 'B'}")
            continue
        print(f"== {workload}: A {len(a)} runs, B {len(b)} runs; "
              f"build {context(a + b, 'build_type')}, "
              f"nproc {context(a + b, 'nproc')}")
        print(f"   {'metric':42} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'delta':>8}  verdict")
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            a_values, b_values = values_of(a, name), values_of(b, name)
            if not a_values or not b_values:
                continue
            a_med, a_q1, a_q3, a_spread = summary(a_values)
            b_med, b_q1, b_q3, b_spread = summary(b_values)
            delta = (b_med - a_med) / abs(a_med) if a_med else 0.0
            bound = metric.get("bound")
            spread = max(a_spread, b_spread)
            if bound is None:
                verdict = "-"
            elif spread > bound:
                verdict = "unresolved"
            elif worse_by(metric, a_med, b_med) > bound:
                verdict = "regressed"
            else:
                verdict = "unchanged"
            if args.same and bound is not None:
                if abs(delta) > bound:
                    disagreements.append(f"{workload} {name}: medians differ "
                                         f"by {delta:+.1%} (bound {bound})")
                if name != "setup_s" and spread > bound:
                    disagreements.append(f"{workload} {name}: spread "
                                         f"{spread:.1%} exceeds bound {bound}")
            print(f"   {name:42} "
                  f"{a_med:12.6g} [{a_q1:9.4g}, {a_q3:9.4g}] "
                  f"{b_med:12.6g} [{b_q1:9.4g}, {b_q3:9.4g}] "
                  f"{delta:+8.1%}  {verdict}")
    status = 0
    for claim in args.claim:
        held, line = check_claim(claim, a_runs, b_runs, metrics)
        print(line)
        status |= 0 if held else 1
    if args.same:
        for line in disagreements:
            print("DISAGREE", line)
        print("same-code sets agree within bounds" if not disagreements
              else f"{len(disagreements)} disagreements beyond bounds")
        status |= 1 if disagreements else 0
    sys.exit(status)


if __name__ == "__main__":
    main()
