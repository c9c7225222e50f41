"""Two-outcome coarse-grainings of finite-outcome observables.

A subset X of outcomes turns an observable A into the simple observable
with effects A(X) and A(not X).  Joint measurability survives this
coarse-graining, and the compatibility matrix below checks the converse
direction pair by pair; it can fail globally even when every pair of
partitionings is compatible, which is the paradox the audit detects.
"""
from __future__ import annotations

from dataclasses import dataclass

from .feasibility import (
    FeasibilityOptions,
    FeasibilityProblem,
    FeasibilityReport,
    Verdict,
    _decide_batch,
    decide,
)
from .observables import (
    MARGINAL_TOL,
    Observable,
    ProductObservable,
    _coarse_grained,
    label_key,
    marginal,
    marginal_deviation,
    subset_key,
)

ENUMERATION_GUARD = 20  # 2^|outcomes| subsets; refuse beyond this


@dataclass(frozen=True, eq=False)
class Partitioning:
    parent: Observable
    subset: frozenset

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(self.subset))
        unknown = [x for x in self.subset if x not in self.parent.outcomes]
        if unknown:
            keys = ", ".join(sorted(label_key(x) for x in unknown))
            raise ValueError(f"labels not in the parent observable: {keys}")

    @property
    def type(self) -> int:
        return len(self.subset)

    @property
    def key(self) -> str:
        return subset_key(self.subset)

    @property
    def is_trivial(self) -> bool:
        return self.type in (0, len(self.parent.outcomes))

    @property
    def observable(self) -> Observable:
        rest = frozenset(self.parent.outcomes) - self.subset
        return _coarse_grained(self.parent, {"0": rest, "1": self.subset})


def enumerate_partitionings(a: Observable) -> list:
    """All 2^|outcomes| partitionings, ordered by type then subset key."""
    n = len(a.outcomes)
    if n > ENUMERATION_GUARD:
        raise ValueError(f"{n} outcomes exceed the enumeration guard of {ENUMERATION_GUARD}")
    parts = []
    for mask in range(1 << n):
        subset = frozenset(x for i, x in enumerate(a.outcomes) if mask >> i & 1)
        parts.append(Partitioning(a, subset))
    parts.sort(key=lambda p: (p.type, p.key))
    return parts


def forward_partition_joint(g: ProductObservable, x, y) -> ProductObservable:
    """Coarse-grain a two-parent joint observable cellwise.

    The (i, j) effect sums G over {in X} x {in Y} and its complements, so the
    result is automatically a joint observable of the two partitionings.
    """
    if len(g.parents) != 2:
        raise ValueError("expected a joint observable of two parents")
    ax, ay = g.parents
    x, y = frozenset(x), frozenset(y)
    for labels, axis in ((x, ax), (y, ay)):
        unknown = [lab for lab in labels if lab not in axis]
        if unknown:
            keys = ", ".join(sorted(label_key(lab) for lab in unknown))
            raise ValueError(f"labels not on the joint observable axis: {keys}")
    groups = {
        (i, j): {z for z in g.outcomes if (z[0] in x) == (i == "1") and (z[1] in y) == (j == "1")}
        for i in ("0", "1")
        for j in ("0", "1")
    }
    return _coarse_grained(g, groups, (("0", "1"), ("0", "1")))


def _nontrivial_half(parts: list) -> list:
    """Nontrivial partitionings with |X| <= |outcomes|/2, complements deduped.

    A^X and its complement partitioning carry the same pair of effects, so
    only one representative per unordered pair is kept.
    """
    n = len(parts[0].parent.outcomes) if parts else 0
    kept = []
    for p in parts:
        if p.is_trivial or 2 * p.type > n:
            continue
        if 2 * p.type == n:
            comp = frozenset(p.parent.outcomes) - p.subset
            if subset_key(comp) < p.key:
                continue
        kept.append(p)
    return kept


@dataclass(frozen=True, eq=False)
class PartitionMatrix:
    rows: list
    cols: list
    cells: dict  # (row key, col key) -> FeasibilityReport

    @property
    def all_feasible(self) -> bool:
        return all(r.verdict is Verdict.FEASIBLE for r in self.cells.values())

    @property
    def undetermined_count(self) -> int:
        return sum(1 for r in self.cells.values() if r.verdict is Verdict.UNDETERMINED)

    def to_json(self) -> dict:
        return {
            "rows": [p.key for p in self.rows],
            "cols": [p.key for p in self.cols],
            "cells": {
                f"{xk};{yk}": report.to_json() for (xk, yk), report in sorted(self.cells.items())
            },
            "all_feasible": self.all_feasible,
            "undetermined": self.undetermined_count,
        }


def partition_compatibility_matrix(
    a: Observable, b: Observable, opts: FeasibilityOptions | None = None
) -> PartitionMatrix:
    """Decide joint measurability for every nontrivial partitioning pair.

    Trivial partitionings are omitted: their observables are scalar, hence
    compatible with everything.  Every cell is ``decide``'s report, from one
    batch of its two phases over observables built and keyed once.
    """
    opts = opts or FeasibilityOptions()
    rows = _nontrivial_half(enumerate_partitionings(a))
    cols = _nontrivial_half(enumerate_partitionings(b))
    row_obs, col_obs = [p.observable for p in rows], [p.observable for p in cols]
    row_keys, col_keys = [p.key for p in rows], [p.key for p in cols]
    reports = _decide_batch([(oa, ob) for oa in row_obs for ob in col_obs], opts)
    keys = [(ka, kb) for ka in row_keys for kb in col_keys]
    return PartitionMatrix(rows, cols, dict(zip(keys, reports)))


@dataclass(frozen=True, eq=False)
class ParadoxReport:
    matrix: PartitionMatrix
    global_report: FeasibilityReport
    paradox: bool

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.to_json(),
            "global": self.global_report.to_json(),
            "paradox": self.paradox,
        }


def partition_paradox_audit(
    g: ProductObservable, f: ProductObservable, opts: FeasibilityOptions | None = None
) -> ParadoxReport:
    """Check whether pairwise-compatible partitionings mask a global failure.

    The matrix decides all nontrivial partitioning pairs of G and F, and
    ``decide`` on (G, F) gives the global verdict, an INFEASIBLE one with its
    dual certificate.
    """
    opts = opts or FeasibilityOptions()
    if len(g.parents) != 2 or len(f.parents) != 2:
        raise ValueError("expected two joint observables of qubit pairs")
    if not any(
        set(gi.outcomes) == set(f.parents[j]) and marginal_deviation(f, j, gi) <= MARGINAL_TOL
        for gi in (marginal(g, 0), marginal(g, 1))
        for j in (0, 1)
    ):
        raise ValueError("the joints share no common parent (no marginals match)")

    matrix = partition_compatibility_matrix(g, f, opts)
    global_report = decide(FeasibilityProblem((g, f), opts))
    paradox = matrix.all_feasible and global_report.verdict is Verdict.INFEASIBLE
    return ParadoxReport(matrix, global_report, paradox)
