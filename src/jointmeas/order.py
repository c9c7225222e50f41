"""Lower-bound sets in the Loewner order: membership, and exact
greatestness and maximality decisions.

lb(A, B) is the set of effects below both A and B, and membership is one
test: X is in lb(A, B) within s when the least eigenvalue of X, I - X,
A - X and B - X, from one stacked ``eigvalsh``, is >= -s.  ``in_lb(c, a, b)``
(s = ``MEMBERSHIP_TOL``), the preconditions of ``refute_greatest`` and
``maximality_probe`` and the audit's cells (s = ``EPS``) use it; both
witness re-checks (s = ``MEMBERSHIP_TOL``) leave out I - X, as A and B may
pass I by ``EPS``.  Each threshold is fixed: no call sets a slack.
Every member has its range in S = ran A cap ran B, and with V a basis of
S the members are the V Y V* with 0 <= Y <= A' and Y <= B', where
A' = (V* A^+ V)^-1 and B' is defined the same way; V A' V* and V B' V*
are the shorts [B]A and [A]B.  So lb(A, B) has a greatest element exactly
when A' and B' are comparable, and it is then V min(A', B') V* (Ando,
Problem of infimum in the positive cone, 1999; Gheondea, Gudder & Jonas,
J. Math. Phys. 46, 062102, 2005).  Greatestness of a candidate is decided
from that comparison, and a refuted candidate comes with a closed-form
member of lb(A, B) not below it.

Maximality is decided exactly.  With P = A - C and Q = B - C, every D >= C
in lb(A, B) has D - C = X with 0 <= X <= P and X <= Q, so the range of X
lies in S = ran P cap ran Q; conversely C + lambda v v* lies in lb(A, B)
for any unit v in S and small lambda > 0.  So C is maximal exactly when
S = {0} (Ando, 1999; Gheondea, Gudder & Jonas, J. Math. Phys. 46, 062102,
2005).  When S is not zero the largest trace gain is a small convex problem
on S, solved in closed form when dim S = 1 and otherwise by the log-det
barrier kernel ``operators.barrier_maximize``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observables import (
    MARGINAL_TOL,
    ProductObservable,
    designation_order,
    joint_from_cell,
    label_key,
    marginal_deviation,
)
from .operators import HermitianOperator, barrier_maximize, hermitian_basis, is_effect


EPS = 1e-6  # strict-violation / trace-gain threshold
MEMBERSHIP_TOL = 1e-9  # range cut-off and lb slack for witnesses
# duality-gap target of the barrier solve: the reported maximality gain is
# within GAIN_TOL of the largest one
GAIN_TOL = 1e-8


def _lb_margin(x: np.ndarray, a: np.ndarray, b: np.ndarray, effect: bool = True) -> float:
    """Least eigenvalue of X, A - X, B - X and (if ``effect``) I - X, from one
    stacked ``eigvalsh``: X is in lb(A, B) within s exactly when it is >= -s."""
    rows = [x, a - x, b - x] + ([np.eye(len(x)) - x] if effect else [])
    return float(np.linalg.eigvalsh(np.stack(rows))[:, 0].min())


def in_lb(c: HermitianOperator, a: HermitianOperator, b: HermitianOperator) -> bool:
    """True iff C is an effect below A and B in the Loewner order, within
    ``MEMBERSHIP_TOL``.  Raises ValueError when the dimensions differ or A,
    B or C is not an effect (``is_effect``)."""
    dims = {a.dim, b.dim, c.dim}
    if len(dims) != 1:
        raise ValueError(f"operators have mixed dimensions {sorted(dims)}")
    for name, op in (("A", a), ("B", b), ("C", c)):
        if not is_effect(op):
            raise ValueError(f"{name} is not an effect")
    return _lb_margin(c.matrix, a.matrix, b.matrix) >= -MEMBERSHIP_TOL


@dataclass(frozen=True, eq=False)
class Refutation:
    """A member of lb(A, B) that is not below the candidate, witnessed by a
    unit vector with a strictly positive quadratic form on D - C."""

    witness: HermitianOperator
    vector: np.ndarray
    violation: float


@dataclass(frozen=True, eq=False)
class MaximalityReport:
    verdict: str  # "NOT_MAXIMAL" | "MAXIMAL_WITHIN"
    witness: HermitianOperator | None
    trace_gain: float
    eps: float
    iterations: int = 0  # Newton steps of the barrier solve

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "trace_gain": self.trace_gain,
            "eps": self.eps,
            "iterations": self.iterations,
        }


def _require_lb(c, a, b, who: str):
    if _lb_margin(c.matrix, a.matrix, b.matrix) < -EPS:
        raise ValueError(f"{who}: candidate is not in lb(A, B)")


def _shared_range(p: np.ndarray, q: np.ndarray):
    """(V, P', Q') for positive P and Q: V an orthonormal basis of
    ran P cap ran Q and P' = (V* P^+ V)^-1, Q' likewise, so that X = V Y V*
    is below P exactly when Y <= P'.  Each range is spanned by the
    eigenvectors with eigenvalues above ``MEMBERSHIP_TOL``; V is where the
    singular values of Vp* Vq reach 1 - ``MEMBERSHIP_TOL``.  P' and Q' are
    None when V is empty."""
    w, u = np.linalg.eigh(np.stack([p, q]))
    keep = w > MEMBERSHIP_TOL
    ranges = [(w[i, keep[i]], u[i][:, keep[i]]) for i in (0, 1)]
    (_, vp), (_, vq) = ranges
    if not (vp.shape[1] and vq.shape[1]):
        return vp[:, :0], None, None
    s, sv, _ = np.linalg.svd(vp.conj().T @ vq)
    v = vp @ s[:, : int(np.count_nonzero(sv >= 1.0 - MEMBERSHIP_TOL))]
    if not v.shape[1]:
        return v, None, None
    bounds = []
    for wk, vk in ranges:
        y = vk.conj().T @ v
        m = np.linalg.inv((y.conj().T / wk) @ y)
        bounds.append(0.5 * (m + m.conj().T))
    return v, *bounds


def _greatest_candidates(ap: np.ndarray, bp: np.ndarray, cp: np.ndarray, tol: float) -> list:
    """Members Y of {0 <= Y <= A', Y <= B'} that may fail to sit below C'.

    Comparable A' and B' (within tol) give the smaller, the greatest member.
    Otherwise the candidates are lambda v v* with lambda = 1 / max(v* A'^-1 v,
    v* B'^-1 v), each not below C' exactly when v* C'^-1 v exceeds that max:
    v spans the kernel of a singular C', or else v = C'^1/2 z for the top
    eigenvectors z1, z2 of I - C'^1/2 A'^-1 C'^1/2 and I - C'^1/2 B'^-1 C'^1/2
    (both >= 0 and nonzero) and for z1 + z2, one of which is positive for both.
    Maximizing this ratio, not the difference of the inverses, keeps a
    near-null direction shared by C' and A' from shrinking the violation.
    """
    gap = np.linalg.eigvalsh(ap - bp)
    if gap[0] >= -tol:
        return [bp]
    if gap[-1] <= tol:
        return [ap]
    ai, bi = np.linalg.inv(ap), np.linalg.inv(bp)
    wc, uc = np.linalg.eigh(cp)
    if wc[0] <= tol:
        vs = [uc[:, 0]]
    else:
        half = (uc * np.sqrt(wc)) @ uc.conj().T
        z1 = np.linalg.eigh(half @ ai @ half)[1][:, 0]
        z2 = np.linalg.eigh(half @ bi @ half)[1][:, 0]
        vs = [half @ z for z in (z1, z2, z1 + z2)]
    return [
        np.outer(x, x.conj()) / max((x.conj() @ ai @ x).real, (x.conj() @ bi @ x).real)
        for x in vs
    ]


def refute_greatest(
    c: HermitianOperator, a: HermitianOperator, b: HermitianOperator
) -> Refutation | None:
    """Decide whether C is the greatest element of lb(A, B), and if it is not,
    return a member D of lb(A, B) not below C.

    S and V come from the ranges of A and B as in ``maximality_probe``, and
    S = {0} means lb(A, B) = {0}.  Comparable A' and B' (module docstring)
    make V min(A', B') V* the witness; incomparable ones leave no greatest
    member, and the witness is a closed-form rank-one member.  A witness is
    returned only after a top eigenvalue of D - C (the violation, with the
    unit vector as its eigenvector) above ``EPS`` and a re-check that D,
    A - D and B - D are >= -``MEMBERSHIP_TOL``.  So None means that C
    is the infimum of A and B up to ``EPS``; a refutation is never invented.
    """
    _require_lb(c, a, b, "refute_greatest")
    am, bm, cm = a.matrix, b.matrix, c.matrix
    v, ap, bp = _shared_range(am, bm)
    if not v.shape[1]:
        return None
    for y in _greatest_candidates(ap, bp, v.conj().T @ cm @ v, MEMBERSHIP_TOL):
        dm = v @ y @ v.conj().T
        w, u = np.linalg.eigh(dm - cm)
        if w[-1] > EPS and _lb_margin(dm, am, bm, effect=False) >= -MEMBERSHIP_TOL:
            return Refutation(HermitianOperator(dm), u[:, -1], float(w[-1]))
    return None


def maximality_probe(
    c: HermitianOperator, a: HermitianOperator, b: HermitianOperator
) -> MaximalityReport:
    """Decide whether C is maximal in lb(A, B), with the largest trace gain.

    With P = A - C and Q = B - C, C is maximal exactly when ran P and ran Q
    share no nonzero vector.  Both ranges come from ``eigh`` (eigenvalues
    above ``MEMBERSHIP_TOL``) and their intersection S from the singular
    values of Vp* Vq that reach 1 - ``MEMBERSHIP_TOL``; S = {0} gives
    MAXIMAL_WITHIN with gain 0 and no iterations.  Otherwise, with V a basis
    of S, the members D = C + V Y V* satisfy Y <= (V* P^+ V)^-1 and
    Y <= (V* Q^+ V)^-1, and the largest tr Y under those bounds and Y >= 0
    is the trace gain.  It is the smaller bound when dim S = 1, and otherwise
    found to ``GAIN_TOL`` by ``barrier_maximize`` on the k^2 real coordinates
    of Y, in cells Y, P' - Y, Q' - Y (weights 1, -1, -1) for the bounds P' and
    Q', from (lambda_min / 2) I and t = 3k / max(tr P', tr Q').  Before
    NOT_MAXIMAL is reported the gain X = D - C is re-checked: X, P - X and
    Q - X must be >= -``MEMBERSHIP_TOL``.  A failed
    check reports MAXIMAL_WITHIN with gain 0, so the probe may miss a gain,
    never invent one.  A gain of at most ``EPS`` is also MAXIMAL_WITHIN.
    """
    _require_lb(c, a, b, "maximality_probe")
    cm, pm, qm = c.matrix, a.matrix - c.matrix, b.matrix - c.matrix
    v, p, q = _shared_range(pm, qm)
    if not v.shape[1]:
        return MaximalityReport("MAXIMAL_WITHIN", None, 0.0, EPS)
    k = p.shape[0]
    if k == 1:
        y, steps = np.minimum(p.real, q.real), 0
    else:
        basis = hermitian_basis(k)
        trace = np.trace(basis, axis1=1, axis2=2).real
        bounds = np.stack([np.zeros_like(p), p, q])
        lam = min(np.linalg.eigvalsh(p)[0], np.linalg.eigvalsh(q)[0])
        t = 3.0 * k / max(float(np.trace(p).real), float(np.trace(q).real))
        free, weights = np.empty((0, *bounds.shape)), np.array([[1.0, -1.0, -1.0]])
        x, steps, _ = barrier_maximize(trace, bounds, free, weights, 0.5 * lam * trace, t, GAIN_TOL)
        y = np.tensordot(x, basis, axes=1)
    xm = v @ y @ v.conj().T
    if _lb_margin(xm, pm, qm, effect=False) < -MEMBERSHIP_TOL:
        return MaximalityReport("MAXIMAL_WITHIN", None, 0.0, EPS, steps)
    gain = float(np.trace(y).real)
    if gain > EPS:
        return MaximalityReport("NOT_MAXIMAL", HermitianOperator(cm + xm), gain, EPS, steps)
    return MaximalityReport("MAXIMAL_WITHIN", None, gain, EPS, steps)


@dataclass(frozen=True, eq=False)
class CellAudit:
    in_lb: bool
    refutation: Refutation | None
    maximality: MaximalityReport | None

    @property
    def greatest_refuted(self) -> bool:
        return self.refutation is not None

    def to_json(self) -> dict:
        return {
            "in_lb": self.in_lb,
            "greatest_refuted": self.greatest_refuted,
            "violation": None if self.refutation is None else self.refutation.violation,
            "maximality": None if self.maximality is None else self.maximality.to_json(),
        }


@dataclass(frozen=True, eq=False)
class OrderAudit:
    cells: dict
    all_greatest: bool  # every cell is the infimum of its marginal effects
    all_maximal: bool
    uniqueness_refuted: bool
    alternative_joint: ProductObservable | None

    def to_json(self) -> dict:
        return {
            "cells": {
                f"{label_key(x)},{label_key(y)}": cell.to_json()
                for (x, y), cell in sorted(self.cells.items(), key=lambda kv: str(kv[0]))
            },
            "all_greatest": self.all_greatest,
            "all_maximal": self.all_maximal,
            "uniqueness_refuted": self.uniqueness_refuted,
        }


def joint_observable_order_audit(g: ProductObservable, a_obs, b_obs) -> OrderAudit:
    """Order-theoretic audit of a joint observable, cell by cell.

    g must be a two-parent ``ProductObservable`` whose marginals reproduce
    a_obs and b_obs within ``MARGINAL_TOL``; anything else raises
    ValueError.  Each cell is tested for membership in the lower-bound set of
    its marginal effects: it must be an effect below both, within ``EPS``.
    A member is put to the exact greatestness decision (``refute_greatest``)
    and the maximality probe; a cell outside is reported with ``in_lb``
    False and neither.  ``all_greatest`` is conclusive: it is True exactly
    when every cell is a member and the infimum of its marginal effects, up
    to ``EPS``.  For two-outcome parents a refuted
    maximality at the designated cell is converted into an explicit second
    joint observable (``joint_from_cell``), refuting uniqueness.
    """
    if not isinstance(g, ProductObservable) or len(g.parents) != 2:
        raise ValueError("audit expects a joint observable of two parents")
    for axis, parent in enumerate((a_obs, b_obs)):
        dev = marginal_deviation(g, axis, parent)
        if dev > MARGINAL_TOL:
            raise ValueError(f"marginal mismatch on axis {axis}: {dev:.3e}")

    cells = {}
    for x in a_obs.outcomes:
        for y in b_obs.outcomes:
            c = g.effects[(x, y)]
            fa, fb = a_obs.effects[x], b_obs.effects[y]
            member = _lb_margin(c.matrix, fa.matrix, fb.matrix) >= -EPS
            if member:
                refutation = refute_greatest(c, fa, fb)
                probe = maximality_probe(c, fa, fb)
            else:
                refutation, probe = None, None
            cells[(x, y)] = CellAudit(member, refutation, probe)

    all_greatest = all(cell.in_lb and not cell.greatest_refuted for cell in cells.values())
    all_maximal = all(
        cell.maximality is not None and cell.maximality.verdict == "MAXIMAL_WITHIN"
        for cell in cells.values()
    )

    uniqueness_refuted = False
    alternative = None
    if len(a_obs.outcomes) == 2 and len(b_obs.outcomes) == 2:
        da, db = designation_order(a_obs)[0], designation_order(b_obs)[0]
        probe = cells[(da, db)].maximality
        if probe is not None and probe.verdict == "NOT_MAXIMAL":
            alternative = joint_from_cell(a_obs, b_obs, probe.witness.matrix, da, db)
            uniqueness_refuted = True
    return OrderAudit(cells, all_greatest, all_maximal, uniqueness_refuted, alternative)
