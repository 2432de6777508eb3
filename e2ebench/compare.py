#!/usr/bin/env python3
"""Compare two sets of benchmark results, or summarise one.

    python3 e2ebench/compare.py BASE [CHANGE]

BASE and CHANGE are result files written by run.py, or directories holding
them. For every workload and end-to-end metric the script prints each
side's run count, median and quartiles, and its spread: the distance
between the quartiles as a share of the median. Given two sides it also
prints the change of the median and a verdict against the metric's bound
in BENCHMARK.json:

  within      the change is no worse than the bound
  worse       the change is worse than the bound
  unresolved  a side's spread exceeds the bound, and not every CHANGE run
              is better than every BASE run

Where a side holds a traced and an untraced run of the same workload and
seed, it also prints the tracing overhead: the median, over such pairs,
of the traced time per operation against the untraced one.
"""

import glob
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{workload: {metric: [values]}} of untraced runs, and
    {(workload, seed, traced): op_ms}."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    metrics, op_ms = {}, {}
    for name in files:
        with open(name) as f:
            record = json.load(f)
        r = record["result"]
        op_ms[(r["workload"], r["seed"], r["trace"])] = r["op_ms"]
        if r["trace"]:
            continue
        per = metrics.setdefault(r["workload"], {})
        for key, e in r["e2e"].items():
            value = statistics.median(record["setup_s_samples"]) if key == "setup_s" else e["value"]
            per.setdefault(key, []).append(value)
    return metrics, op_ms


def summary(values):
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base, change, bound, better):
    sign = 1 if better == "lower" else -1
    mb, _, _, sb = summary(base)
    mc, _, _, sc = summary(change)
    worse = sign * (mc - mb) / mb
    if max(sb, sc) > bound:
        wins = all(sign * (c - b) < 0 for c in change for b in base)
        return worse, "better" if wins else "unresolved"
    return worse, "worse" if worse > bound else "within"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = [load(p) for p in sys.argv[1:]]
    workloads = sorted(set().union(*(m.keys() for m, _ in sides)))
    head = f"{'workload':<10} {'metric':<17} {'bound':>6}"
    for label in ("base", "change")[: len(sides)]:
        head += f" | {label + ' n':>7} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}"
    print(head + (f" | {'change':>7} verdict" if len(sides) == 2 else ""))
    for w in workloads:
        for m in spec["end_to_end"]:
            cols = [side.get(w, {}).get(m["name"], []) for side, _ in sides]
            line = f"{w:<10} {m['name']:<17} {m['bound']:>6.2f}"
            for values in cols:
                if values:
                    med, q1, q3, spread = summary(values)
                    line += f" | {len(values):>7} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>7.1%}"
                else:
                    line += f" | {0:>7} {'-':>10} {'-':>10} {'-':>10} {'-':>7}"
            if len(sides) == 2 and all(cols):
                worse, v = verdict(cols[0], cols[1], m["bound"], m["better"])
                line += f" | {worse:>+7.1%} {v}"
            print(line)
    for label, (_, op_ms) in zip(("base", "change"), sides):
        for w in workloads:
            ratios = [t / op_ms[(w, seed, False)] for (ww, seed, traced), t in op_ms.items()
                      if ww == w and traced and (w, seed, False) in op_ms]
            if ratios:
                print(f"{label} {w}: tracing overhead {statistics.median(ratios) - 1:+.2%} "
                      f"(median over {len(ratios)} seeds run both ways)")


if __name__ == "__main__":
    main()
