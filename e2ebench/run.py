#!/usr/bin/env python3
"""Build the benchmark and run one workload, from the root of the repository.

    python3 e2ebench/run.py --workload <explorer|dashboard|subscribe> \
        --seed <n> --seconds <s> --trace <0|1> [--ops <n>]

With --trace 0 the run measures the end-to-end metrics; set-up is repeated
in fresh processes and `setup_s` is the median. With --trace 1 it records
spans and reports the per-layer metrics instead. The full result, with a
host fingerprint, goes to e2ebench/results/; the last line of standard
output is the summary the BENCHMARK.json contract asks for. The exit code
is nonzero if the build fails or any answer fails its correctness check.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")
# Set-up runs per timed run (one of them is the timed run's own set-up).
SETUP_SAMPLES = 3
# Wall-clock budget of all child processes of one run, after the build:
# a run must end within 180 s.
RUN_BUDGET_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the release binary; return its path. Exit on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    if subprocess.run(cmd, env=dict(os.environ, CARGO_TARGET_DIR=target), stdout=sys.stderr).returncode:
        sys.exit("e2ebench: build failed")
    return os.path.join(target, "release", "vchain-e2ebench")


def run_binary(binary, workload, seed, extra, timeout=RUN_BUDGET_S):
    """Run one child process; return (exit code, its result object)."""
    work = os.path.join(RESULTS, f"work-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--work-dir", work] + extra
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: {workload} ran out of its {RUN_BUDGET_S} s budget")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"e2ebench: {workload} exited {p.returncode} without a result")


def fingerprint(seed, seconds):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip() or None
        except OSError:
            return None

    cpu, flags = None, []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu is None:
                    cpu = value.strip()
                if key.strip() == "flags" and not flags:
                    flags = [x for x in ("bmi2", "adx") if x in value.split()]
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_flags": flags,
        "rustc": out(["rustc", "--version"]),
        "git_commit": out(["git", "rev-parse", "HEAD"]),
        "seed": seed,
        "seconds": seconds,
    }


def main():
    b = spec()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in b["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=b["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--ops", type=int, help="run exactly this many operations instead of --seconds")
    a = ap.parse_args()

    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    extra = ["--trace", str(a.trace)]
    extra += ["--ops", str(a.ops)] if a.ops else ["--seconds", str(a.seconds)]
    if a.trace:
        extra += ["--spans-out", os.path.join(RESULTS, tag + ".spans.jsonl")]

    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    for _ in range(0 if a.trace else SETUP_SAMPLES - 1):
        code, r = run_binary(binary, a.workload, a.seed, ["--setup-only"], deadline - time.monotonic())
        if code:
            sys.exit(f"e2ebench: set-up of {a.workload} failed")
        setups.append(r["setup_s"])
    code, r = run_binary(binary, a.workload, a.seed, extra, deadline - time.monotonic())
    setups.append(r["setup_s"])

    record = {"fingerprint": fingerprint(a.seed, a.seconds), "setup_s_samples": setups, "result": r}
    record["fingerprint"]["params"] = r["params"]
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    metrics = {}
    if a.trace:
        unknown = set(r["layers"]) - {m["name"] for m in b["per_layer"]}
        if unknown:
            sys.exit(f"e2ebench: layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer the workload does not use reads 0.
        for m in b["per_layer"]:
            metrics[m["name"]] = {"value": r["layers"].get(m["name"], 0.0), "unit": m["unit"]}
    else:
        for m in b["end_to_end"]:
            value = statistics.median(setups) if m["name"] == "setup_s" else r["e2e"][m["name"]]["value"]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{a.workload} seed {a.seed}: {r['attempted']} attempted, {r['failed']} failed")
        for key, e in r["e2e"].items():
            value = statistics.median(setups) if key == "setup_s" else e["value"]
            print(f"  {e['label']:<22} {value:>12.4f} {e['unit']}")
    for check, ok in r["checks"].items():
        if not ok:
            print(f"  self-check failed: {check}")
    correct = bool(r["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
