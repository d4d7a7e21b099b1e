#!/usr/bin/env python3
"""Self-check of the e2ebench benchmark.

For every workload, runs the traced benchmark twice on one seed and once
on a held-out seed. Fails unless every run passes the answer gate and the
exact work counters of the two same-seed runs are identical.

Run from the repository root:

    CARGO_TARGET_DIR=.bench_build python3 e2ebench/selfcheck.py
"""

import json
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "e2ebench/Cargo.toml", "--"]
WORKLOADS = ["aids_closed", "dense_closed", "aids_open_rw"]
SEED = 1
HELD_OUT_SEED = 20150831
SECONDS = 15
EXACT_PREFIXES = ("filter.candidates.", "verify.vf2_states.", "answers.total",
                  "route.shards_probed", "route.shards_skipped")


def run(workload, seed, seconds):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if out.returncode != 0 or not result.get("correct"):
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if name.startswith(EXACT_PREFIXES)}


def main():
    for workload in WORKLOADS:
        first = run(workload, SEED, SECONDS)
        second = run(workload, SEED, SECONDS)
        differing = sorted(k for k in first if first[k] != second.get(k))
        if differing or first.keys() != second.keys():
            raise SystemExit(f"{workload}: exact counters differ across runs: {differing}")
        run(workload, HELD_OUT_SEED, SECONDS)
        print(f"{workload}: {len(first)} exact counters repeat; held-out seed passes")


if __name__ == "__main__":
    main()
