#!/usr/bin/env python3
"""Check the benchmark's clock-free counters, from the root of the repository.

    python3 e2ebench/selfcheck.py [seed ...]

For each seed (default: 1 and 2) and each workload, run a fixed number of
operations twice, each time in a fresh process, and require that:

  * every exact count repeats (bytes, proofs, cache hits and evictions,
    Miller loops, final exponentiations, candidates, shared proofs, skips,
    store log bytes, ...);
  * every operation verified and matched ground truth, and every
    self-check held (a tampered stream or update is counted as failed);
  * each workload keeps the property it was chosen for: `explorer` rarely
    hits the proof cache, `dashboard` mostly hits it, and `subscribe`
    overflows it.

Exits nonzero if any check fails.
"""

import sys

from run import build, run_binary

# Operations per check: one round of explorer windows, three of dashboard
# requests (enough for the pool to warm), four blocks.
OPS = {"explorer": 32, "dashboard": 48, "subscribe": 4}


def hit_ratio(counts):
    return counts["cache_hits"] / max(1, counts["cache_hits"] + counts["cache_misses"])


PROPERTIES = {
    "explorer": ("cache hit ratio < 0.1", lambda c: hit_ratio(c) < 0.1),
    "dashboard": ("cache hit ratio > 0.7", lambda c: hit_ratio(c) > 0.7),
    "subscribe": ("cache evictions > 0", lambda c: c["cache_evictions"] > 0),
}


def main():
    seeds = [int(s) for s in sys.argv[1:]] or [1, 2]
    binary = build()
    failures = 0
    for seed in seeds:
        for workload, ops in OPS.items():
            runs = [run_binary(binary, workload, seed, ["--ops", str(ops), "--trace", "0"]) for _ in range(2)]
            (code_a, a), (code_b, b) = runs
            problems = []
            if code_a or code_b or not (a["correct"] and b["correct"]):
                problems.append(f"incorrect run: checks {a['checks']}, failed {a['failed']}/{b['failed']}")
            differing = sorted(k for k in a["counts"] if a["counts"][k] != b["counts"].get(k))
            if differing or a["counts"].keys() != b["counts"].keys():
                problems.append(f"counts differ between identical runs: {differing}")
            what, holds = PROPERTIES[workload]
            if not holds(a["counts"]):
                problems.append(f"property does not hold: {what}")
            failures += bool(problems)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"seed {seed} {workload:<9} {ops} ops, hit ratio {hit_ratio(a['counts']):.3f}, "
                  f"{len(a['counts'])} counts: {status}")
            print(f"    {a['counts']}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
