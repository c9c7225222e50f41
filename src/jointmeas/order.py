"""Lower-bound sets in the Loewner order: membership, greatest-element
refutation, and exact maximality decisions.

lb(A, B) is the set of effects below both A and B.  Greatestness of a
candidate is refuted by exhibiting a member that fails to sit below it;
the search can never prove greatestness, so "no counterexample found" is
reported as exactly that.

Maximality is decided exactly.  With P = A - C and Q = B - C, every D >= C
in lb(A, B) has D - C = X with 0 <= X <= P and X <= Q, so the range of X
lies in S = ran P cap ran Q; conversely C + lambda v v* lies in lb(A, B)
for any unit v in S and small lambda > 0.  So C is maximal exactly when
S = {0} (Ando, 1999; Gheondea, Gudder & Jonas, J. Math. Phys. 46, 062102,
2005).  When S is not zero the largest trace gain is a small convex problem
on S, solved in closed form when dim S = 1 and by a log-det barrier method
otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochEffect, bloch_matrix
from .observables import ProductObservable, designation_order, label_key, marginal
from .operators import (
    HermitianOperator,
    clip_psd,
    identity,
    is_effect,
    loewner_leq,
    opnorm,
)


@dataclass(frozen=True)
class OrderSearchOptions:
    trials: int = 200
    seed: int = 0
    eps: float = 1e-6              # strict-violation / trace-gain threshold
    membership_tol: float = 1e-9   # lb membership slack for search candidates
    # alternating-projection sweeps toward lb; candidates still face an exact
    # membership recheck, so extra sweeps buy accuracy, never false positives
    projection_cycles: int = 4
    # duality-gap target of the barrier solve: the reported maximality gain
    # is within gain_tol of the largest one
    gain_tol: float = 1e-8


@dataclass(frozen=True, eq=False)
class LowerBoundQuery:
    """Membership query for lb(A, B); construction checks that all three
    operators are effects of equal dimension."""

    a: HermitianOperator
    b: HermitianOperator
    c: HermitianOperator
    tol: float | None = None

    def __post_init__(self):
        dims = {self.a.dim, self.b.dim, self.c.dim}
        if len(dims) != 1:
            raise ValueError(f"operators have mixed dimensions {sorted(dims)}")
        for name, op in (("A", self.a), ("B", self.b), ("C", self.c)):
            if not is_effect(op, self.tol):
                raise ValueError(f"{name} is not an effect")


def in_lb(query: LowerBoundQuery) -> bool:
    """True iff C <= A and C <= B in the Loewner order."""
    return loewner_leq(query.c, query.a, query.tol) and loewner_leq(
        query.c, query.b, query.tol
    )


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


def _project_into_lb(batch: np.ndarray, a: np.ndarray, b: np.ndarray, cycles: int) -> np.ndarray:
    for _ in range(cycles):
        batch = clip_psd(batch)
        batch = a - clip_psd(a - batch)
        batch = b - clip_psd(b - batch)
    return batch


def _random_effect_batch(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=1, axis2=2).copy()
    phases = phases / np.abs(phases)
    q = q * phases.conj()[:, None, :]
    w = rng.uniform(0.0, 1.0, (count, dim))
    return (q * w[:, None, :]) @ q.conj().transpose(0, 2, 1)


def _directed_qubit_candidates(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """Candidate effects along the summed Bloch axis of A and B; the family
    that breaks greatestness of boundary joints lives here."""
    axis = BlochEffect.from_operator(a).a + BlochEffect.from_operator(b).a
    mats = []
    for t in (0.1, 0.2, 0.3, 0.4):
        for k in (1, 2, 3):
            gamma = t + k * (0.5 - t) / 4.0
            mats.append(bloch_matrix(gamma, t * axis))
    return np.array(mats)


def _check_in_lb_pre(c, a, b, eps: float, who: str):
    ok = (
        loewner_leq(c, a, eps)
        and loewner_leq(c, b, eps)
        and is_effect(c, eps)
    )
    if not ok:
        raise ValueError(f"{who}: candidate is not in lb(A, B)")


def refute_greatest(
    c: HermitianOperator,
    a: HermitianOperator,
    b: HermitianOperator,
    opts: OrderSearchOptions | None = None,
) -> Refutation | None:
    """Search lb(A, B) for a member D with D not below C.

    Directed qubit candidates (effects along the summed Bloch axis) are tried
    first, then ``opts.trials`` random effects projected into lb(A, B) by
    alternating projections.  Candidates are only accepted after an exact
    membership re-check, so an imperfect projection can not produce a false
    counterexample.  Returns None when the search exhausts; that outcome is
    inconclusive by design.
    """
    opts = opts or OrderSearchOptions()
    _check_in_lb_pre(c, a, b, opts.eps, "refute_greatest")
    dim = c.dim
    rng = np.random.default_rng([opts.seed, 7])

    pools = []
    if dim == 2:
        pools.append(_directed_qubit_candidates(a, b))
    if opts.trials > 0:
        pools.append(_random_effect_batch(dim, opts.trials, rng))
    if not pools:
        return None
    batch = np.concatenate(pools, axis=0)
    batch = _project_into_lb(batch, a.matrix, b.matrix, opts.projection_cycles)

    mtol = opts.membership_tol
    ok_psd = np.linalg.eigvalsh(batch)[:, 0] >= -mtol
    ok_a = np.linalg.eigvalsh(a.matrix - batch)[:, 0] >= -mtol
    ok_b = np.linalg.eigvalsh(b.matrix - batch)[:, 0] >= -mtol
    w, v = np.linalg.eigh(batch - c.matrix)
    violating = ok_psd & ok_a & ok_b & (w[:, -1] > opts.eps)
    if not violating.any():
        return None
    first = int(np.argmax(violating))
    psi = v[first][:, -1]
    return Refutation(
        HermitianOperator(batch[first]),
        psi / np.linalg.norm(psi),
        float(w[first, -1]),
    )


def _range(m: np.ndarray, tol: float):
    """Eigenvalues above tol of a Hermitian matrix, with their eigenvectors:
    an orthonormal basis of its range."""
    w, v = np.linalg.eigh(m)
    keep = w > tol
    return w[keep], v[:, keep]


def _compressed_bound(w: np.ndarray, basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(V* M^+ V)^-1 for M with range eigenpairs (w, basis) and V inside
    ran M: for X = V Y V*, X <= M exactly when Y is below this matrix."""
    y = basis.conj().T @ v
    m = np.linalg.inv((y.conj().T / w) @ y)
    return 0.5 * (m + m.conj().T)


def _hermitian_basis(k: int) -> np.ndarray:
    """Orthonormal basis of the k x k Hermitian matrices (k^2 of them) for
    the trace inner product."""
    out = []
    for i in range(k):
        for j in range(k):
            e = np.zeros((k, k), dtype=complex)
            if i == j:
                e[i, i] = 1.0
            elif i < j:
                e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            else:
                e[i, j], e[j, i] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            out.append(e)
    return np.array(out)


_CENTERING_STEPS = 50  # Newton steps per barrier round; a few suffice


def _max_trace_below(p: np.ndarray, q: np.ndarray, gap_tol: float):
    """Maximize tr X over 0 <= X <= P, X <= Q for positive definite P, Q.

    Returns (X, Newton steps).  One dimension has the answer min(P, Q).
    Otherwise a log-det barrier method: minimize the self-concordant
    -t tr X - log det X - log det(P - X) - log det(Q - X) by Newton steps on
    the k^2 real coordinates of X, from (lambda_min / 2) I, with t growing
    tenfold per round until the duality-gap bound 3k / t is at most gap_tol.
    Steps with Newton decrement lambda above 1/4 are damped to 1 / (1 + lambda),
    which keeps every iterate strictly feasible without a line search.
    """
    k = p.shape[0]
    if k == 1:
        return np.array([[min(p[0, 0].real, q[0, 0].real)]], dtype=complex), 0
    basis = _hermitian_basis(k)
    eye = np.eye(k)
    lam = min(np.linalg.eigvalsh(p)[0], np.linalg.eigvalsh(q)[0])
    x = 0.5 * lam * eye.astype(complex)
    steps = 0
    t = 3.0 * k / max(float(np.trace(p).real), float(np.trace(q).real))
    while True:
        for _ in range(_CENTERING_STEPS):
            invs = [np.linalg.inv(m) for m in (x, p - x, q - x)]
            grad = -t * eye - invs[0] + invs[1] + invs[2]
            g = np.einsum("iba,ab->i", basis, grad).real
            hess = sum(np.einsum("iba,jab->ij", basis, m @ basis @ m).real for m in invs)
            dy = -np.linalg.solve(hess, g)
            decrement = -float(g @ dy)
            if decrement <= 1e-12:
                break
            size = np.sqrt(decrement)
            step = 1.0 if size < 0.25 else 1.0 / (1.0 + size)
            x = x + step * np.einsum("i,iab->ab", dy, basis)
            steps += 1
        if 3.0 * k / t <= gap_tol:
            return 0.5 * (x + x.conj().T), steps
        t *= 10.0


def maximality_probe(
    c: HermitianOperator,
    a: HermitianOperator,
    b: HermitianOperator,
    opts: OrderSearchOptions | None = None,
) -> MaximalityReport:
    """Decide whether C is maximal in lb(A, B), with the largest trace gain.

    With P = A - C and Q = B - C, C is maximal exactly when ran P and ran Q
    share no nonzero vector.  Both ranges come from ``eigh`` (eigenvalues
    above ``membership_tol``) and their intersection S from the singular
    values of Vp* Vq that reach 1 - ``membership_tol``; S = {0} gives
    MAXIMAL_WITHIN with gain 0 and no iterations.  Otherwise, with V a basis
    of S, the members D = C + V Y V* satisfy Y <= (V* P^+ V)^-1 and
    Y <= (V* Q^+ V)^-1, and the largest tr Y under those bounds and Y >= 0
    is the trace gain, found to ``gain_tol`` (``_max_trace_below``).  Before
    NOT_MAXIMAL is reported the witness D is re-checked with ``eigvalsh``:
    D - C, A - D and B - D must each be >= -``membership_tol``.  A failed
    check reports MAXIMAL_WITHIN with gain 0, so the probe may miss a gain,
    never invent one.  A gain of at most ``eps`` is also MAXIMAL_WITHIN.
    """
    opts = opts or OrderSearchOptions()
    _check_in_lb_pre(c, a, b, opts.eps, "maximality_probe")
    cm, am, bm = c.matrix, a.matrix, b.matrix
    mtol = opts.membership_tol
    wp, vp = _range(am - cm, mtol)
    wq, vq = _range(bm - cm, mtol)
    k = 0
    if vp.shape[1] and vq.shape[1]:
        u, sv, _ = np.linalg.svd(vp.conj().T @ vq)
        k = int(np.count_nonzero(sv >= 1.0 - mtol))
    if k == 0:
        return MaximalityReport("MAXIMAL_WITHIN", None, 0.0, opts.eps)
    v = vp @ u[:, :k]
    y, steps = _max_trace_below(
        _compressed_bound(wp, vp, v), _compressed_bound(wq, vq, v), opts.gain_tol
    )
    dm = cm + v @ y @ v.conj().T
    low = min(float(np.linalg.eigvalsh(m)[0]) for m in (dm - cm, am - dm, bm - dm))
    if low < -mtol:
        return MaximalityReport("MAXIMAL_WITHIN", None, 0.0, opts.eps, steps)
    gain = float(np.trace(y).real)
    if gain > opts.eps:
        return MaximalityReport("NOT_MAXIMAL", HermitianOperator(dm), gain, opts.eps, steps)
    return MaximalityReport("MAXIMAL_WITHIN", None, gain, opts.eps, steps)


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
    all_greatest: bool  # meaning: no refutation found in any cell
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


def joint_observable_order_audit(
    g: ProductObservable,
    a_obs,
    b_obs,
    opts: OrderSearchOptions | None = None,
    marginal_tol: float = 1e-8,
) -> OrderAudit:
    """Order-theoretic audit of a joint observable, cell by cell.

    Every cell effect is confirmed to lie in the lower-bound set of its
    marginal effects, then attacked with the greatest-element refutation
    search and the maximality probe.  ``all_greatest`` records only that no
    refutation was found; it is conclusive just for families where the
    greatest element is known analytically (commuting pairs with a sharp
    member).  For two-outcome parents a refuted maximality at the designated
    cell is converted into an explicit second joint observable, refuting
    uniqueness.
    """
    opts = opts or OrderSearchOptions()
    if len(g.parents) != 2:
        raise ValueError("audit expects a joint observable of two parents")
    for axis, parent in enumerate((a_obs, b_obs)):
        if set(g.parents[axis]) != set(parent.outcomes):
            raise ValueError(f"axis {axis} labels do not match the parent observable")
        got = marginal(g, axis)
        for x in parent.outcomes:
            dev = opnorm(got.effects[x].matrix - parent.effects[x].matrix)
            if dev > marginal_tol:
                raise ValueError(
                    f"marginal mismatch on axis {axis} outcome {label_key(x)}: {dev:.3e}"
                )

    cells = {}
    for x in a_obs.outcomes:
        for y in b_obs.outcomes:
            c = g.effects[(x, y)]
            fa, fb = a_obs.effects[x], b_obs.effects[y]
            member = loewner_leq(c, fa, opts.eps) and loewner_leq(c, fb, opts.eps)
            if member:
                refutation = refute_greatest(c, fa, fb, opts)
                probe = maximality_probe(c, fa, fb, opts)
            else:
                refutation, probe = None, None
            cells[(x, y)] = CellAudit(member, refutation, probe)

    all_greatest = all(not cell.greatest_refuted for cell in cells.values())
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
            d = probe.witness
            ca = next(x for x in a_obs.outcomes if x != da)
            cb = next(y for y in b_obs.outcomes if y != db)
            alternative = ProductObservable(
                (tuple(a_obs.outcomes), tuple(b_obs.outcomes)),
                {
                    (da, db): d,
                    (da, cb): a_obs.effects[da] - d,
                    (ca, db): b_obs.effects[db] - d,
                    (ca, cb): identity(g.dim) + d - a_obs.effects[da] - b_obs.effects[db],
                },
            )
            uniqueness_refuted = True
    return OrderAudit(cells, all_greatest, all_maximal, uniqueness_refuted, alternative)
