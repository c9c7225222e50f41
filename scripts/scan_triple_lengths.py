#!/usr/bin/env python3
"""Sweep the common Bloch length of an orthogonal unbiased triple and record
where the pairwise and the global verdicts part ways.

For each length l the three observables point along x, y, z with alpha = 1.
Pairwise compatibility fails above 1/sqrt(2); the triple already fails above
1/sqrt(3), so the window between the two is where every pair is fine and the
family is not.
"""

import argparse
import json
import math

import numpy as np

from jointmeas import (
    BlochEffect,
    SimpleQubitObservable,
    pairwise_vs_global,
)

AXES = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)


def triple(l: float):
    return tuple(
        SimpleQubitObservable(BlochEffect(1.0, l * ax)).as_observable() for ax in AXES
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=float, default=0.50)
    ap.add_argument("--hi", type=float, default=0.76)
    ap.add_argument("--steps", type=int, default=14)
    ap.add_argument("--json-out", type=str, default=None)
    args = ap.parse_args()

    rows = []
    print(f"{'l':>8} {'pairwise':>10} {'pair margin':>14} {'global':>12} {'global margin':>14}")
    for l in np.linspace(args.lo, args.hi, args.steps):
        out = pairwise_vs_global(triple(float(l)))
        pair_verdicts = {r.verdict.value for r in out.pairwise.values()}
        pair_margin = max(r.margin for r in out.pairwise.values())
        g = out.global_report
        gm = g.margin if g.margin is not None else float("nan")
        label = "/".join(sorted(pair_verdicts))
        print(f"{l:8.4f} {label:>10} {pair_margin:+14.6f} {g.verdict.value:>12} {gm:+14.6f}")
        rows.append(
            {
                "l": float(l),
                "pairwise": sorted(pair_verdicts),
                "pairwise_margin": pair_margin,
                "global": g.verdict.value,
                "global_margin": gm,
            }
        )

    print()
    print(f"pairwise threshold 1/sqrt(2) = {1.0 / math.sqrt(2.0):.12g}")
    print(f"triple threshold   1/sqrt(3) = {1.0 / math.sqrt(3.0):.12g}")

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
