#!/usr/bin/env python3
"""Summarise or compare sets of benchmark results.

    python3 perfbench/compare.py RUNS            # spread of one set
    python3 perfbench/compare.py PARENT CHANGE   # change against parent

RUNS, PARENT and CHANGE are directories of result files as perfbench/run.py
leaves them in .perfbench/results/ (copy them aside between commits).
Untraced results are read; each row is one workload and one end-to-end
metric of BENCHMARK.json.

The spread of a set is the distance between the first and third quartile
as a share of the median. A comparison pairs the runs of both sides by
seed (in file order when seeds differ) and marks a row

  improved    the change wins at least 9 in 10 pairs and the medians
              differ by more than the parent's quartile distance;
  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's spread is wider than the bound, unless every
              run of the change reads better than every run of the parent;
  same        otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(directory):
    """{workload: [(seed, {metric: value})]} of the untraced runs, by file name."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            rec = json.load(f)
        if rec.get("trace"):
            continue
        values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs.setdefault(rec["workload"], []).append((rec["seed"], values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def better(metric, a, b):
    """Whether value a is better than value b."""
    return a < b if metric["better"] == "lower" else a > b


def summarise(runs, spec):
    print(f"{'workload':<14} {'metric':<13} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6}")
    for workload, rs in sorted(runs.items()):
        for name, metric in spec.items():
            vals = [v[name] for _, v in rs if name in v]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "" if s <= metric["bound"] / 3 else (" wide" if s > metric["bound"] else " >1/3")
            print(f"{workload:<14} {name:<13} {len(vals):>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f}"
                  f" {s:>7.3f} {metric['bound']:>6.2f}{flag}")


def pairs(parent, change):
    by_seed = dict(parent)
    matched = [(by_seed[s], v) for s, v in change if s in by_seed]
    if matched:
        return matched
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def compare(parent_runs, change_runs, spec):
    print(f"{'workload':<14} {'metric':<13} {'parent median [q1, q3]':>34}"
          f" {'change median [q1, q3]':>34} {'won':>5}  verdict")
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for name, metric in spec.items():
            pv = [v[name] for _, v in parent_runs[workload] if name in v]
            cv = [v[name] for _, v in change_runs[workload] if name in v]
            if not pv or not cv:
                continue
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            ps = [(p[name], c[name]) for p, c in pairs(parent_runs[workload], change_runs[workload])]
            decided = [(p, c) for p, c in ps if p != c]
            won = sum(1 for p, c in decided if better(metric, c, p)) / len(ps) if ps else 0.0
            worse_by = (cmed - pmed) / pmed if metric["better"] == "lower" else (pmed - cmed) / pmed
            if worse_by > metric["bound"]:
                verdict = "worse"
            elif won >= 0.9 and abs(cmed - pmed) > (pq3 - pq1) and better(metric, cmed, pmed):
                verdict = "improved"
            elif spread(pv) > metric["bound"] and not all(
                better(metric, c, p) for c in cv for p in pv
            ):
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:<14} {name:<13} {pmed:>12.4f} [{pq1:>9.4f}, {pq3:>9.4f}]"
                  f" {cmed:>12.4f} [{cq1:>9.4f}, {cq3:>9.4f}] {won:>5.2f}  {verdict}")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = load_spec()
    if len(sys.argv) == 2:
        summarise(load_runs(sys.argv[1]), spec)
    else:
        compare(load_runs(sys.argv[1]), load_runs(sys.argv[2]), spec)


if __name__ == "__main__":
    main()
