#!/usr/bin/env python3
"""Walk the one-parameter family of joint observables for the unbiased vs
orthogonal-biased qubit pair and print how the cells trade weight.

Along the family the (1,1) cell grows while the (0,1) cell shrinks, so no
member dominates another: the family has no maximal element.  The sweep also
probes the corner members for trace-improving room above the (1,1) cell.
"""

import argparse

import numpy as np

from jointmeas import (
    BlochEffect,
    SimpleQubitObservable,
    gamma_family_member,
    gamma_interval,
    maximality_probe,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--anorm", type=float, default=0.6)
    ap.add_argument("--beta", type=float, default=0.4)
    ap.add_argument("--steps", type=int, default=7)
    args = ap.parse_args()

    a_vec = args.anorm * EX
    j = gamma_interval(a_vec, args.beta)
    print(f"gamma interval for |a| = {args.anorm}, beta = {args.beta}: "
          f"[{j.lo:.12g}, {j.hi:.12g}]")
    print()
    print(f"{'gamma':>8} {'tr G(1,1)':>12} {'tr G(1,0)':>12} {'tr G(0,1)':>12} {'tr G(0,0)':>12}")
    for gamma in np.linspace(j.lo, j.hi, args.steps):
        g = gamma_family_member(a_vec, args.beta, EY, float(gamma))
        tr = {k: float(np.trace(e.matrix).real) for k, e in g.effects.items()}
        print(
            f"{gamma:8.4f} {tr[('1', '1')]:12.6f} {tr[('1', '0')]:12.6f} "
            f"{tr[('0', '1')]:12.6f} {tr[('0', '0')]:12.6f}"
        )

    fa = SimpleQubitObservable(BlochEffect(1.0, a_vec)).as_observable().effects["1"]
    fb = (
        SimpleQubitObservable(BlochEffect(args.beta, args.beta * EY))
        .as_observable()
        .effects["1"]
    )
    print()
    for gamma in (j.lo, 0.5 * (j.lo + j.hi), j.hi):
        g = gamma_family_member(a_vec, args.beta, EY, float(gamma))
        probe = maximality_probe(g.effects[("1", "1")], fa, fb)
        print(
            f"gamma = {gamma:.4f}: cell (1,1) {probe.verdict}, "
            f"trace gain {probe.trace_gain:.6f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
