#!/usr/bin/env python3
"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py --seed 1

Runs each workload twice with the same seed, traced and for one round, and
asserts that the deterministic counts repeat exactly: decisions, iterations
by route, UNDETERMINED count, HermitianOperator constructions, the input
digest and the output digest.  Exits 1 on any difference.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def counts_of(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    with open(HERE / "out" / f"{workload}-seed{seed}-trace1.json") as fh:
        record = json.load(fh)
    return record["counts"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        first, second = counts_of(workload, args.seed), counts_of(workload, args.seed)
        same = first == second
        status |= not same
        print(f"{workload:14s} {'repeats' if same else 'DIFFERS'}  {json.dumps(first, sort_keys=True)}")
        if not same:
            print(f"{'':14s} second run: {json.dumps(second, sort_keys=True)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
