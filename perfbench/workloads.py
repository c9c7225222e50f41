"""Seeded workloads for the jointmeas benchmark.

Every workload is a closed loop with one caller: one process, one operation
at a time, no worker threads.  Inputs are generated from the workload seed
with this file's own numpy code, before any timing starts, and reach the
program only through public constructors (``BlochEffect``,
``SimpleQubitObservable``, ``Observable``, ``ProductObservable``,
``HermitianOperator``, ``boundary_joint``, ``gamma_family_member``), so a
change to ``jointmeas.sampling`` cannot change them.

A workload is a list of *rounds*.  A round is a fixed multiset of operation
kinds in seeded order, with fresh seeded parameters in every round.  The
number of rounds in a run depends only on the workload and ``--seconds``
(``rounds_for``), never on how fast the build is, so every commit in a
comparison runs the same operations, and every percentile lands on the same
kinds from seed to seed.

Each operation carries a reference check computed here from its generating
parameters.  The check runs outside the timed region and returns the reasons
the operation failed, if any.  An operation fails when it raises or exits
non-zero, when its verdict contradicts the reference, when a FEASIBLE report
has no witness or a witness that fails ``validate`` or the marginal check at
the report's tolerance, or when an order audit contradicts what is known
about the joint it audits.

Which workload should move, per ROADMAP open item (end-to-end metrics as
named in BENCHMARK.json):

* item 2, every two-outcome qubit pair decided in closed form and scipy
  deleted: ``ops_per_s``, ``op_tail_ms`` and ``decided_ratio`` on
  ``qubit-pairs``; ``ops_per_s`` on ``cli-scenarios``; ``setup_s`` on every
  workload.  ``general-joint`` and ``order-audit`` never reach the pair route
  and are its bypass workloads: no change predicted there, apart from
  ``setup_s``.
* item 3, one conic engine with dual certificates: ``ops_per_s``,
  ``op_tail_ms`` and ``decided_ratio`` on ``general-joint``; ``ops_per_s``
  and ``op_p50_ms`` on ``order-audit``.  ``qubit-pairs`` never reaches the
  projection loop or ``order`` and is its bypass workload.
* item 4, a decision trace in every report: nothing should move.  Every
  metric on every workload is an overhead check for it.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

FEASIBLE, INFEASIBLE, UNDETERMINED = "FEASIBLE", "INFEASIBLE", "UNDETERMINED"

# slack for re-checking order certificates (refutations, maximality witnesses)
ORDER_TOL = 1e-7


@dataclass
class Op:
    """One benchmark operation: a zero-argument call plus what to check."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    tally: Callable[[Any], dict]
    summary: Callable[[Any], Any]
    arrays: tuple = ()


@dataclass
class Workload:
    name: str
    rounds: list
    warmup: list
    tail_percentile: float
    op_count_note: str
    in_process: bool = True


# ---------------------------------------------------------------------------
# seeded geometry, independent of jointmeas.sampling
# ---------------------------------------------------------------------------

def rotation(rng) -> np.ndarray:
    """Haar-random rotation in SO(3)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR with phase fixing."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def at_angle(u, theta: float, rng) -> np.ndarray:
    """A unit vector at angle theta from the unit vector u."""
    w = rng.standard_normal(3)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    return math.cos(theta) * u + math.sin(theta) * w


def busch_value(a, b) -> float:
    return float(np.linalg.norm(a + b) + np.linalg.norm(a - b))


def pair_angle(rng) -> float:
    """Angle between Bloch axes, kept away from parallel and orthogonal so
    that only the intended criterion applies."""
    theta = rng.uniform(0.4, 1.2)
    return theta if rng.random() < 0.5 else math.pi - theta


# ---------------------------------------------------------------------------
# references and checks, computed from generating parameters
# ---------------------------------------------------------------------------

def _verdict(jm_ok: bool) -> str:
    return FEASIBLE if jm_ok else INFEASIBLE


def qubit_pair_reference(jm, alpha, a, beta, b):
    """The verdict a two-outcome qubit pair must get, from the Bloch form
    (alpha, a) and (beta, b) of one effect of each observable, or None where
    no rule applies.

    Exact rules: commuting pairs, then eq3, eq4 and eq5 through the public
    bloch criteria.  Sufficient rules: an empty joint cell (A(x) + B(y) <= I
    for some pair of outcomes) proves compatibility; a violated eq3 after
    post-processing both effects to unbiased ones proves incompatibility,
    because post-processing preserves compatibility.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na <= 1e-12 or nb <= 1e-12 or np.linalg.norm(np.cross(a, b)) <= 1e-12 * na * nb:
        return FEASIBLE  # commuting effects
    unb_a, unb_b = abs(alpha - 1.0) <= 1e-9, abs(beta - 1.0) <= 1e-9
    if unb_a and unb_b:
        return _verdict(jm.busch_criterion(a, b).jm)

    def rank_one(al, v):
        n = float(np.linalg.norm(v))
        if abs(al - n) <= 1e-9:
            return v
        if abs(2.0 - al - n) <= 1e-9:
            return -v
        return None

    ra, rb = rank_one(alpha, a), rank_one(beta, b)
    if ra is not None and rb is not None:
        return _verdict(jm.molnar_criterion(ra, rb).jm)
    orthogonal = abs(float(a @ b)) <= 1e-10 * na * nb
    if orthogonal and unb_a:
        return _verdict(jm.liu_criterion(a, beta, b).jm)
    if orthogonal and unb_b:
        return _verdict(jm.liu_criterion(b, alpha, a).jm)
    for al, va in ((alpha, a), (2.0 - alpha, -a)):
        for be, vb in ((beta, b), (2.0 - beta, -b)):
            if np.linalg.norm(va + vb) <= 2.0 - al - be - 1e-6:
                return FEASIBLE  # an empty joint cell
    ua = a / max(alpha, 2.0 - alpha)
    ub = b / max(beta, 2.0 - beta)
    if busch_value(ua, ub) > 2.0 + 1e-6:
        return INFEASIBLE
    return None


def witness_failures(jm, report, parents, tol: float) -> list:
    """Reasons a FEASIBLE report's witness is unacceptable (empty if fine)."""
    w = report.witness
    if w is None:
        return ["FEASIBLE without a witness"]
    out = []
    val = jm.validate(w, tol=tol)
    if not val.passed:
        out.append(f"witness fails validate at tol {tol:g}")
    for axis, parent in enumerate(parents):
        for x in parent.outcomes:
            total = sum(w.effects[z].matrix for z in w.outcomes if z[axis] == x)
            dev = float(np.linalg.norm(total - parent.effects[x].matrix, 2))
            if dev > tol:
                out.append(f"witness marginal {axis}:{x} off by {dev:.3e}")
    return out


def decision_failures(jm, report, parents, expected) -> list:
    """Compare one FeasibilityReport with its reference verdict."""
    verdict = report.verdict.value
    out = []
    if expected is not None and verdict != UNDETERMINED and verdict != expected:
        out.append(f"verdict {verdict} contradicts reference {expected}")
    if verdict == FEASIBLE:
        # decide ran with the default options, so its tolerance is theirs
        out.extend(witness_failures(jm, report, parents, jm.FeasibilityOptions().tol))
    return out


def is_qubit_pair(parents) -> bool:
    return (
        len(parents) == 2
        and all(p.dim == 2 and len(p.outcomes) == 2 for p in parents)
    )


def decision_tally(report, parents) -> dict:
    """Deterministic counts for one decision, with its iterations attributed
    to a route from the public report: zero iterations means an analytic
    route; iterations on a two-outcome qubit pair come from the pair search;
    any other iterations come from the projection engine."""
    verdict = report.verdict.value
    iters = int(report.iterations)
    route = "criterion" if iters == 0 else (
        "pair_search" if is_qubit_pair(parents) else "projection"
    )
    return {
        "decisions": 1,
        "undetermined": int(verdict == UNDETERMINED),
        f"iterations.{route}": iters,
        f"route.{route}": 1,
        "questions": 1,
        "answered": int(verdict != UNDETERMINED),
    }


def decision_summary(report):
    return [report.verdict.value, report.reason, int(report.iterations), report.residual]


def add_tallies(total: dict, part: dict) -> dict:
    for k, v in part.items():
        total[k] = total.get(k, 0) + v
    return total


def digest_arrays(arrays):
    """SHA-256 over the dtype, shape and bytes of every array."""
    h = hashlib.sha256()
    for m in arrays:
        m = np.ascontiguousarray(m)
        h.update(str(m.dtype).encode())
        h.update(str(m.shape).encode())
        h.update(m.tobytes())
    return h


def qubit(jm, alpha, vec):
    return jm.SimpleQubitObservable(jm.BlochEffect(alpha, np.asarray(vec, dtype=float))).as_observable()


def decide_op(jm, kind, parents, expected) -> Op:
    """One ``decide`` call, checked against the reference verdict."""
    parents = tuple(parents)
    arrays = [p.effects[x].matrix for p in parents for x in p.outcomes]
    return Op(
        kind=kind,
        call=lambda: jm.decide(jm.FeasibilityProblem(parents)),
        check=lambda rep: decision_failures(jm, rep, parents, expected),
        tally=lambda rep: decision_tally(rep, parents),
        summary=decision_summary,
        arrays=tuple(arrays),
    )


# ---------------------------------------------------------------------------
# qubit-pairs
# ---------------------------------------------------------------------------

def _scaled_pair(rng, target_lo, target_hi, value, max_len):
    """Rescale a random pair of Bloch vectors so that value(a, b) lands in
    [target_lo, target_hi]; resample until both lengths fit max_len."""
    for _ in range(1000):
        u = unit(rng)
        v = at_angle(u, pair_angle(rng), rng)
        a = rng.uniform(0.3, 1.0) * u
        b = rng.uniform(0.3, 1.0) * v
        s = rng.uniform(target_lo, target_hi) / value(a, b)
        a, b = s * a, s * b
        if max(np.linalg.norm(a), np.linalg.norm(b)) <= max_len:
            return a, b
    raise RuntimeError("pair generator did not converge")


def _molnar_value(a, b) -> float:
    return float(np.linalg.norm(a + b) + np.linalg.norm(a) + np.linalg.norm(b))


def _eq3_pair(jm, rng, inside: bool):
    lo, hi = (1.6, 1.9) if inside else (2.1, 2.5)
    a, b = _scaled_pair(rng, lo, hi, busch_value, 1.0)
    return (qubit(jm, 1.0, a), qubit(jm, 1.0, b)), _verdict(jm.busch_criterion(a, b).jm)


def _eq4_pair(jm, rng, inside: bool):
    lo, hi = (1.5, 1.9) if inside else (2.1, 2.6)
    a, b = _scaled_pair(rng, lo, hi, _molnar_value, 0.95)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    ref = _verdict(jm.molnar_criterion(a, b).jm)
    return (qubit(jm, na, a), qubit(jm, nb, b)), ref


def _eq5_pair(jm, rng, inside: bool):
    for _ in range(1000):
        u = unit(rng)
        w = at_angle(u, math.pi / 2, rng)
        a = rng.uniform(0.3, 0.98) * u
        nb = rng.uniform(0.1, 0.9)
        beta = rng.uniform(nb, 2.0 - nb)
        if abs(beta - 1.0) < 0.05:
            continue
        b = nb * w
        crit = jm.liu_criterion(a, beta, b)
        if crit.jm == inside and abs(crit.margin) >= 0.05:
            return (qubit(jm, 1.0, a), qubit(jm, beta, b)), _verdict(crit.jm)
    raise RuntimeError("eq5 generator did not converge")


def _biased_alpha(rng) -> float:
    off = rng.uniform(0.05, 0.2)
    return 1.0 - off if rng.random() < 0.5 else 1.0 + off


def _generic_compatible(jm, rng):
    """Post-processings A(1) -> p A(1) + q A(0) of a compatible unbiased pair;
    post-processing preserves compatibility, so the pair is FEASIBLE."""
    for _ in range(1000):
        a0, b0 = _scaled_pair(rng, 1.5, 1.85, busch_value, 1.0)
        obs = []
        for v0 in (a0, b0):
            q = rng.uniform(0.05, 0.2)
            p = rng.uniform(max(q, 0.75), 1.0)
            alpha, vec = p + q, (p - q) * v0
            n = float(np.linalg.norm(vec))
            if abs(alpha - 1.0) < 0.03 or abs(alpha - n) < 0.03 or abs(2 - alpha - n) < 0.03:
                break
            obs.append(qubit(jm, alpha, vec))
        else:
            return tuple(obs), FEASIBLE
    raise RuntimeError("generic compatible generator did not converge")


def _generic_incompatible(jm, rng):
    """Biased effects whose unbiased post-processings violate eq3: such a
    pair cannot be compatible, and no analytic route of the program covers
    it."""
    for _ in range(1000):
        ua, ub = _scaled_pair(rng, 2.15, 2.4, busch_value, 0.85)
        obs = []
        for u in (ua, ub):
            alpha = _biased_alpha(rng)
            vec = max(alpha, 2.0 - alpha) * u
            n = float(np.linalg.norm(vec))
            if n > min(alpha, 2.0 - alpha) - 0.02:
                break
            obs.append(qubit(jm, alpha, vec))
        else:
            return tuple(obs), INFEASIBLE
    raise RuntimeError("generic incompatible generator did not converge")


def _joint_cells(a, b) -> dict:
    """Bloch form of the boundary joint's cells, keyed by label key '11' etc."""
    cells = {}
    for i in "01":
        for j in "01":
            si = 1.0 if i == "1" else -1.0
            sj = 1.0 if j == "1" else -1.0
            n = 0.5 * (si * a + sj * b)
            cells[i + j] = (float(np.linalg.norm(n)), n)
    return cells


def _subset_params(cells: dict) -> dict:
    """Bloch form of the '1' effect of every coarse-graining, keyed the way
    partition matrices key their rows and columns."""
    keys = sorted(cells)
    out = {}
    for mask in range(1, 1 << len(keys)):
        chosen = [k for i, k in enumerate(keys) if mask >> i & 1]
        alpha = sum(cells[k][0] for k in chosen)
        vec = sum(cells[k][1] for k in chosen)
        out[",".join(sorted(chosen))] = (alpha, vec)
    return out


def _matrix_op(jm, kind, la, rng) -> Op:
    """Partition compatibility matrix of a randomly rotated pair of boundary
    joints G of (a, b) and F of (b, c), with |a|^2 + |b|^2 = |b|^2 + |c|^2 = 1."""
    r = rotation(rng)
    lb = math.sqrt(1.0 - la * la)
    a, b, c = la * r[:, 0], lb * r[:, 1], la * r[:, 2]
    g = jm.boundary_joint(a, b)
    f = jm.boundary_joint(b, c)
    rows = _subset_params(_joint_cells(a, b))
    cols = _subset_params(_joint_cells(b, c))
    refs = {}

    def check(matrix) -> list:
        out = []
        for pa in matrix.rows:
            for pb in matrix.cols:
                rep = matrix.cells[(pa.key, pb.key)]
                key = (pa.key, pb.key)
                if key not in refs:
                    refs[key] = qubit_pair_reference(jm, *rows[pa.key], *cols[pb.key])
                parents = (pa.observable, pb.observable)
                for why in decision_failures(jm, rep, parents, refs[key]):
                    out.append(f"cell {pa.key};{pb.key}: {why}")
        return out

    def tally(matrix) -> dict:
        total = {}
        for pa in matrix.rows:
            for pb in matrix.cols:
                rep = matrix.cells[(pa.key, pb.key)]
                add_tallies(total, decision_tally(rep, (pa.observable, pb.observable)))
        return total

    def summary(matrix):
        return {f"{xk};{yk}": decision_summary(r) for (xk, yk), r in sorted(matrix.cells.items())}

    arrays = [e.matrix for e in g.effects.values()] + [e.matrix for e in f.effects.values()]
    return Op(
        kind=kind,
        call=lambda: jm.partition_compatibility_matrix(g, f),
        check=check,
        tally=tally,
        summary=summary,
        arrays=tuple(arrays),
    )


QUBIT_PAIR_ROUND = (
    # Criterion-settled INFEASIBLE decisions are three quarters of the ops,
    # so op_p50_ms sits two thirds of the way up that homogeneous group
    # rather than near its edge.  On top sit six UNDETERMINED pair searches,
    # a tenth of the ops, so op_tail_ms (p95) lands in the middle of them.
    #
    # Partition matrices below |a| = 1/sqrt(2) are not in the mix: there
    # the matrix needs Nelder-Mead witnesses for 8-9 eq3/eq4-feasible cells
    # close to the boundary, and about one matrix in ten gets a cell
    # reported FEASIBLE without a witness (the search fails and decide keeps
    # the verdict), which this benchmark counts as a failed operation.
    ("eq3-out", 15), ("eq4-out", 15), ("eq5-out", 15),
    ("eq3-in", 2), ("eq4-in", 2), ("eq5-in", 2),
    ("generic-in", 2), ("generic-out", 6),
    ("matrix-beyond", 1),
)


def qubit_pairs(jm, rng, rounds: int) -> Workload:
    makers = {
        "eq3-out": lambda: decide_op(jm, "eq3-out", *_eq3_pair(jm, rng, False)),
        "eq4-out": lambda: decide_op(jm, "eq4-out", *_eq4_pair(jm, rng, False)),
        "eq5-out": lambda: decide_op(jm, "eq5-out", *_eq5_pair(jm, rng, False)),
        "eq3-in": lambda: decide_op(jm, "eq3-in", *_eq3_pair(jm, rng, True)),
        "eq4-in": lambda: decide_op(jm, "eq4-in", *_eq4_pair(jm, rng, True)),
        "eq5-in": lambda: decide_op(jm, "eq5-in", *_eq5_pair(jm, rng, True)),
        "generic-in": lambda: decide_op(jm, "generic-in", *_generic_compatible(jm, rng)),
        "generic-out": lambda: decide_op(jm, "generic-out", *_generic_incompatible(jm, rng)),
        # above |a| = 1/sqrt(2) eq3/eq4 settle the cells that fail and the
        # rest are cheap
        "matrix-beyond": lambda: _matrix_op(jm, "matrix-beyond", rng.uniform(0.74, 0.8), rng),
    }
    pool = [_round(rng, QUBIT_PAIR_ROUND, makers) for _ in range(rounds)]
    warm = [
        makers["eq3-out"](), makers["eq4-in"](), makers["generic-out"](), makers["matrix-beyond"](),
    ]
    return Workload(
        name="qubit-pairs",
        rounds=pool,
        warmup=warm,
        tail_percentile=95.0,
        op_count_note="60 ops per round: 59 decide calls and 1 partition matrix of 49 cells",
    )


def _round(rng, recipe, makers) -> list:
    ops = [makers[kind]() for kind, count in recipe for _ in range(count)]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# general-joint
# ---------------------------------------------------------------------------

def critical_mub_visibility(d: int) -> float:
    """White-noise visibility below which two Fourier-conjugate MUBs in
    dimension d are jointly measurable."""
    return 0.5 * (1.0 + 1.0 / (1.0 + math.sqrt(d)))


def _mub_op(jm, rng, d: int, inside: bool) -> Op:
    vc = critical_mub_visibility(d)
    v = vc - rng.uniform(0.04, 0.08) if inside else vc + rng.uniform(0.04, 0.08)
    u = unitary(d, rng)
    eye = np.eye(d)
    w = np.exp(2j * math.pi / d)
    fourier = np.array([[w ** (j * k) for k in range(d)] for j in range(d)]) / math.sqrt(d)
    labels = tuple(str(i) for i in range(d))

    def noisy(vecs):
        effects = {}
        for lab, psi in zip(labels, vecs):
            psi = u @ psi
            effects[lab] = jm.HermitianOperator(v * np.outer(psi, psi.conj()) + (1.0 - v) * eye / d)
        return jm.Observable(labels, effects)

    parents = (noisy(eye.T), noisy(fourier.T))
    kind = f"mub{d}-{'in' if inside else 'out'}"
    return decide_op(jm, kind, parents, FEASIBLE if inside else INFEASIBLE)


def _trine_op(jm, rng, inside: bool) -> Op:
    """Noisy trine POVM (visibility v) against an unbiased qubit observable
    of length l along the trine plane's normal.

    v + l <= 1 makes them compatible (measure one or the other at random);
    above, eq5 fails for the trine's coarse-graining {k} vs {not k} and the
    qubit observable, which rules out any joint."""
    r = rotation(rng)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    if inside:
        v = rng.uniform(0.4, 0.7)
        l = rng.uniform(0.15, 0.95 - v)
    else:
        v = rng.uniform(0.9, 1.0)
        l = rng.uniform(0.82, 0.95)
    normal = r[:, 2]
    dirs = [
        math.cos(phase + 2 * math.pi * k / 3) * r[:, 0] + math.sin(phase + 2 * math.pi * k / 3) * r[:, 1]
        for k in range(3)
    ]
    trine = jm.Observable(
        ("0", "1", "2"),
        {str(k): jm.BlochEffect(2.0 / 3.0, (2.0 * v / 3.0) * dirs[k]).to_operator() for k in range(3)},
    )
    qobs = qubit(jm, 1.0, l * normal)
    if inside:
        expected = FEASIBLE
    else:
        crit = jm.liu_criterion(l * normal, 2.0 / 3.0, (2.0 * v / 3.0) * dirs[0])
        expected = None if crit.jm else INFEASIBLE
    parents = (trine, qobs)
    return decide_op(jm, f"trine-{'in' if inside else 'out'}", parents, expected)


def _sign_max(vecs) -> float:
    a, b, c = vecs
    return max(
        float(np.linalg.norm(sa * a + sb * b + sc * c))
        for sa in (1, -1) for sb in (1, -1) for sc in (1, -1)
    )


def triple_reference(vecs):
    """Verdict an unbiased qubit triple must get, where a rule gives one.

    Joint effects (I + (s1 a + s2 b + s3 c).sigma)/8 are valid when every
    signed sum has length <= 1, which proves compatibility; an incompatible
    pair rules the triple out."""
    if _sign_max(vecs) <= 1.0 - 1e-6:
        return FEASIBLE
    for i in range(3):
        for j in range(i + 1, 3):
            if busch_value(vecs[i], vecs[j]) > 2.0 + 1e-6:
                return INFEASIBLE
    return None


def _nonorth_triple_op(jm, rng, inside: bool) -> Op:
    """Unbiased triple at seeded angles (each pair 0.5-1.3 rad apart, so no
    pair is orthogonal) and seeded lengths."""
    r = rotation(rng)
    e1 = r[:, 0]
    t = rng.uniform(0.5, 1.3)
    e2 = math.cos(t) * e1 + math.sin(t) * r[:, 1]
    for _ in range(1000):
        e3 = unit(rng)
        angles = [math.acos(np.clip(e3 @ e, -1, 1)) for e in (e1, e2)]
        if all(0.5 <= x <= 1.3 or 0.5 <= math.pi - x <= 1.3 for x in angles):
            break
    else:
        raise RuntimeError("triple generator did not converge")
    axes = (e1, e2, e3)
    if inside:
        lens = rng.uniform(0.5, 1.0, 3)
        lens *= rng.uniform(0.8, 0.92) / _sign_max([l * e for l, e in zip(lens, axes)])
    else:
        lens = rng.uniform(0.68, 0.78, 3)
    vecs = [l * e for l, e in zip(lens, axes)]
    parents = tuple(qubit(jm, 1.0, v) for v in vecs)
    kind = f"triple-{'in' if inside else 'out'}"
    return decide_op(jm, kind, parents, triple_reference(vecs))


def _orth_triple_op(jm, rng) -> Op:
    """Orthogonal unbiased triple with |a|^2 + |b|^2 + |c|^2 in [0.6, 0.9]:
    eq6-feasible, with the witness left to the projection engine."""
    r = rotation(rng)
    lens = rng.uniform(0.5, 1.0, 3)
    lens *= math.sqrt(rng.uniform(0.6, 0.9) / float(lens @ lens))
    vecs = [l * r[:, k] for k, l in enumerate(lens)]
    parents = tuple(qubit(jm, 1.0, v) for v in vecs)
    expected = _verdict(jm.three_orthogonal_criterion(*vecs).jm)
    return decide_op(jm, "orth-triple", parents, expected)


def _gf_global_op(jm, rng) -> Op:
    """Rotated boundary joints G of (a, b) and F of (b, c), decided as a
    pair with no triple context.  A joint of G and F would be a joint of
    the orthogonal triple (a, b, c), which eq6 rules out."""
    r = rotation(rng)
    la = rng.uniform(0.66, 0.707)
    lb = math.sqrt(1.0 - la * la)
    a, b, c = la * r[:, 0], lb * r[:, 1], la * r[:, 2]
    g, f = jm.boundary_joint(a, b), jm.boundary_joint(b, c)
    expected = _verdict(jm.three_orthogonal_criterion(a, b, c).jm)
    return decide_op(jm, "gf-global", (g, f), expected)


GENERAL_JOINT_ROUND = (
    # fourteen decisions of about 2 ms hold op_p50_ms, at the median of the
    # dearest of them, the orthogonal triples, rather than at the group's
    # edge; the five UNDETERMINED searches of about a second each hold
    # op_tail_ms (p80) and most of the time
    ("orth-triple", 7), ("triple-in", 4), ("trine-in", 3), ("mub3-in", 1), ("mub4-in", 1),
    ("trine-out", 1), ("triple-out", 1), ("mub3-out", 1), ("mub4-out", 1), ("gf-global", 1),
)


def general_joint(jm, rng, rounds: int) -> Workload:
    makers = {
        "mub3-in": lambda: _mub_op(jm, rng, 3, True),
        "mub4-in": lambda: _mub_op(jm, rng, 4, True),
        "mub3-out": lambda: _mub_op(jm, rng, 3, False),
        "mub4-out": lambda: _mub_op(jm, rng, 4, False),
        "trine-in": lambda: _trine_op(jm, rng, True),
        "trine-out": lambda: _trine_op(jm, rng, False),
        "triple-in": lambda: _nonorth_triple_op(jm, rng, True),
        "triple-out": lambda: _nonorth_triple_op(jm, rng, False),
        "orth-triple": lambda: _orth_triple_op(jm, rng),
        "gf-global": lambda: _gf_global_op(jm, rng),
    }
    pool = [_round(rng, GENERAL_JOINT_ROUND, makers) for _ in range(rounds)]
    warm = [makers["mub3-in"](), makers["trine-in"](), makers["orth-triple"]()]
    return Workload(
        name="general-joint",
        rounds=pool,
        warmup=warm,
        tail_percentile=80.0,
        op_count_note="21 decide calls per round",
    )


# ---------------------------------------------------------------------------
# order-audit
# ---------------------------------------------------------------------------


def _psd_low(m) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def audit_failures(audit, g, a_obs, b_obs, greatest, unique: bool) -> list:
    """Check an OrderAudit against what is known about the joint it audits
    and re-verify every certificate it returns.

    ``greatest`` is False where the cells are known not to be greatest
    (boundary joints), True where they are known to be greatest (commuting
    sharp products) and None where nothing is claimed.  On a unique joint no
    cell can gain trace inside its lower-bound set, so NOT_MAXIMAL there is a
    contradiction.
    """
    out = []
    if greatest is False and audit.all_greatest:
        out.append("greatestness not refuted on a joint whose cells are not greatest")
    if greatest is True and not audit.all_greatest:
        out.append("greatestness refuted on a commuting sharp product")
    if unique and audit.uniqueness_refuted:
        out.append("uniqueness refuted on a unique joint")
    for (x, y), cell in audit.cells.items():
        c = g.effects[(x, y)].matrix
        fa, fb = a_obs.effects[x].matrix, b_obs.effects[y].matrix
        ref = cell.refutation
        if ref is not None:
            d = ref.witness.matrix
            low = min(_psd_low(d), _psd_low(fa - d), _psd_low(fb - d))
            if low < -ORDER_TOL:
                out.append(f"cell {x}{y}: refutation witness outside lb(A, B) by {-low:.3e}")
            psi = ref.vector
            if float(np.real(psi.conj() @ (d - c) @ psi)) <= 0.0:
                out.append(f"cell {x}{y}: refutation vector shows no violation")
        probe = cell.maximality
        if probe is not None and probe.verdict == "NOT_MAXIMAL":
            if unique:
                out.append(f"cell {x}{y}: NOT_MAXIMAL on a unique joint")
            if probe.witness is None:
                out.append(f"cell {x}{y}: NOT_MAXIMAL without a witness")
                continue
            d = probe.witness.matrix
            low = min(_psd_low(d - c), _psd_low(fa - d), _psd_low(fb - d))
            if low < -ORDER_TOL:
                out.append(f"cell {x}{y}: maximality witness infeasible by {-low:.3e}")
            if float(np.trace(d - c).real) <= probe.eps:
                out.append(f"cell {x}{y}: maximality witness gains no trace")
    return out


def audit_tally(audit) -> dict:
    cells = [c for c in audit.cells.values() if c.in_lb]
    refuted = sum(1 for c in cells if c.greatest_refuted)
    not_max = sum(
        1 for c in cells if c.maximality is not None and c.maximality.verdict == "NOT_MAXIMAL"
    )
    return {
        "audits": 1,
        "cells": len(audit.cells),
        "cells.greatest_refuted": refuted,
        "cells.not_maximal": not_max,
        # each audited cell asks two questions; a refutation and a
        # NOT_MAXIMAL witness are the answers that carry a certificate
        "questions": 2 * len(cells),
        "answered": refuted + not_max,
    }


def _audit_op(jm, kind, g, a_obs, b_obs, greatest, unique) -> Op:
    arrays = [e.matrix for e in g.effects.values()]
    arrays += [p.effects[x].matrix for p in (a_obs, b_obs) for x in p.outcomes]
    return Op(
        kind=kind,
        call=lambda: jm.joint_observable_order_audit(g, a_obs, b_obs),
        check=lambda audit: audit_failures(audit, g, a_obs, b_obs, greatest, unique),
        tally=audit_tally,
        summary=lambda audit: audit.to_json(),
        arrays=tuple(arrays),
    )


def _boundary_audit(jm, rng) -> Op:
    """The unique joint of a rotated orthogonal unbiased pair on the eq3
    boundary; its cells are not greatest lower bounds."""
    r = rotation(rng)
    la = rng.uniform(0.55, 0.8)
    a, b = la * r[:, 0], math.sqrt(1.0 - la * la) * r[:, 1]
    g = jm.boundary_joint(a, b)
    return _audit_op(jm, "boundary", g, qubit(jm, 1.0, a), qubit(jm, 1.0, b), False, True)


def _gamma_audit(jm, rng) -> Op:
    """An interior member of the one-parameter joint family of an unbiased
    effect against an orthogonal rank-one effect (rotated frame).

    The pair is fixed and only the frame and the member vary: drawing |a|
    and beta too spread the audit over 1.5-3.9 s of CPU, and with two audits
    in a run that was most of the run-to-run spread of ops_per_s."""
    r = rotation(rng)
    an = 0.6
    half = 0.5 * (1.0 - an * an)
    beta = half * 1.5
    lo, hi = beta - half, half
    gamma = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
    a, b_hat = an * r[:, 0], r[:, 1]
    g = jm.gamma_family_member(a, beta, b_hat, gamma)
    return _audit_op(jm, "gamma", g, qubit(jm, 1.0, a), qubit(jm, beta, beta * b_hat), None, False)


def _product_audit(jm, rng, d: int) -> Op:
    """Product joint of two commuting sharp two-outcome observables in
    dimension d; its cells are greatest lower bounds and the joint is
    unique.

    The projections' supports in the random eigenbasis are fixed so that
    the cells are as many nonzero rank-one projections as d allows (four in
    d = 4, three in d = 3): with random supports the d = 4 audit took
    either 1 s or 2 s, by which cells came out zero."""
    u = unitary(d, rng)
    eye = np.eye(d)
    supports = ((np.arange(d) < (d + 1) // 2), (np.arange(d) % 2 == 0))
    projs = []
    for x in (s.astype(float) for s in supports):
        p = (u * x) @ u.conj().T
        projs.append({"1": p, "0": eye - p})
    a_obs, b_obs = (
        jm.Observable(("0", "1"), {k: jm.HermitianOperator(m) for k, m in p.items()}) for p in projs
    )
    cells = {}
    for x in ("0", "1"):
        for y in ("0", "1"):
            m = projs[0][x] @ projs[1][y]
            cells[(x, y)] = jm.HermitianOperator(0.5 * (m + m.conj().T))
    g = jm.ProductObservable((("0", "1"), ("0", "1")), cells)
    return _audit_op(jm, f"product{d}", g, a_obs, b_obs, True, True)


# The d = 3 product audit is the cheapest, then the boundary audits, the
# d = 4 product audit and the gamma audit.  Half the audits are boundary
# audits, so the median of every run falls in the middle of that group.
ORDER_AUDIT_ROUND = (("boundary", 3), ("gamma", 1), ("product3", 1), ("product4", 1))


def order_audit(jm, rng, rounds: int) -> Workload:
    makers = {
        "boundary": lambda: _boundary_audit(jm, rng),
        "gamma": lambda: _gamma_audit(jm, rng),
        "product3": lambda: _product_audit(jm, rng, 3),
        "product4": lambda: _product_audit(jm, rng, 4),
    }
    pool = [_round(rng, ORDER_AUDIT_ROUND, makers) for _ in range(rounds)]
    return Workload(
        name="order-audit",
        rounds=pool,
        warmup=[_product_audit(jm, rng, 3)],
        # a run of 18 s holds twelve audits, so no percentile above the
        # median has ten beyond it
        tail_percentile=50.0,
        op_count_note="6 audits per round, 4 cells each",
    )


# ---------------------------------------------------------------------------
# cli-scenarios
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    returncode: int
    json_path: str
    stderr: str
    spans_path: str | None


class CliRunner:
    """Runs one registered scenario per call in a fresh interpreter, the way
    a user does: ``python -m jointmeas.cli run <name> --json-out <file>``.
    With ``spans_dir`` set, the same command runs under the span recorder."""

    def __init__(self, out_dir: str, env: dict, cwd: str, tracer_script: str):
        self.out_dir = out_dir
        self.env = env
        self.cwd = cwd
        self.tracer_script = tracer_script
        self.spans_dir = None
        self.calls = 0

    def run(self, name: str, seed: int) -> CliResult:
        self.calls += 1
        json_out = os.path.join(self.out_dir, f"scenario-{self.calls}.json")
        args = ["run", name, "--json-out", json_out, "--seed", str(seed)]
        spans = None
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "jointmeas.cli", *args]
        else:
            spans = os.path.join(self.spans_dir, f"spans-{self.calls}.json")
            argv = [sys.executable, self.tracer_script, spans, *args]
        proc = subprocess.run(
            argv, cwd=self.cwd, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=150,
        )
        return CliResult(proc.returncode, json_out, proc.stderr[-2000:], spans)


def _load_report(res: CliResult):
    try:
        with open(res.json_path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _verdicts(node, found: list) -> list:
    if isinstance(node, dict):
        v = node.get("verdict")
        if v in (FEASIBLE, INFEASIBLE, UNDETERMINED):
            found.append((v, int(node.get("iterations") or 0)))
        for child in node.values():
            _verdicts(child, found)
    elif isinstance(node, list):
        for child in node:
            _verdicts(child, found)
    return found


def _scenario_failures(name: str, res: CliResult) -> list:
    if res.returncode != 0:
        return [f"exit code {res.returncode}: {res.stderr.strip()[-300:]}"]
    payload = _load_report(res)
    if payload is None:
        return ["--json-out file missing or not JSON"]
    out = []
    if payload.get("scenario") != name:
        out.append(f"report names scenario {payload.get('scenario')!r}")
    if payload.get("passed") is not True:
        failed = [e.get("name") for e in payload.get("expectations", []) if not e.get("passed")]
        out.append(f"expectations failed: {failed}")
    return out


def _scenario_tally(res: CliResult) -> dict:
    found = _verdicts(_load_report(res) or {}, [])
    return {
        "scenarios": 1,
        "decisions": len(found),
        "undetermined": sum(1 for v, _ in found if v == UNDETERMINED),
        "iterations": sum(i for _, i in found),
        "questions": len(found),
        "answered": sum(1 for v, _ in found if v != UNDETERMINED),
        "emit_bytes": os.path.getsize(res.json_path) if os.path.exists(res.json_path) else 0,
    }


def _scenario_summary(res: CliResult):
    try:
        with open(res.json_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _scenario_op(runner: CliRunner, name: str, seed: int) -> Op:
    return Op(
        kind=name,
        call=lambda: runner.run(name, seed),
        check=lambda res: _scenario_failures(name, res),
        tally=_scenario_tally,
        summary=_scenario_summary,
        arrays=(np.frombuffer(f"{name}:{seed}".encode(), dtype=np.uint8),),
    )


# the registered scenarios at the time the benchmark was defined; a scenario
# that disappears from the registry fails, one that is added is not run
SCENARIOS = (
    "busch-boundary", "commuting-sharp-product", "no-maximal-family",
    "pairwise-not-triple", "partition-paradox", "unique-not-greatest",
)


def cli_scenarios(runner: CliRunner, rng, rounds: int) -> Workload:
    pool = []
    for _ in range(rounds):
        ops = [_scenario_op(runner, n, int(rng.integers(0, 2**31 - 1))) for n in SCENARIOS]
        pool.append([ops[i] for i in rng.permutation(len(ops))])
    return Workload(
        name="cli-scenarios",
        rounds=pool,
        warmup=[],
        # a run of 18 s holds 18 scenario runs, so no percentile above the
        # median has ten beyond it
        tail_percentile=50.0,
        op_count_note=f"{len(SCENARIOS)} scenario runs per round, one subprocess each",
        in_process=False,
    )


# Nominal seconds per round, measured once on the reference machine (2-vCPU
# Xeon VM).  They fix how many rounds a run of a given --seconds holds; the
# run never looks at the clock to decide, so a slower or faster build still
# runs exactly the same operations.
ROUND_SECONDS = {
    "qubit-pairs": 2.2, "general-joint": 5.4, "order-audit": 10.2, "cli-scenarios": 6.2,
}


def rounds_for(name: str, seconds: float) -> int:
    """Rounds in a run of ``seconds``: the nearest whole number, at least one."""
    return max(1, round(seconds / ROUND_SECONDS[name]))


def build(name: str, jm, seed: int, rounds: int, runner: CliRunner | None = None) -> Workload:
    """The workload ``name`` with ``rounds`` rounds of inputs from ``seed``."""
    rng = np.random.default_rng([seed, sum(name.encode())])
    if name == "qubit-pairs":
        return qubit_pairs(jm, rng, rounds)
    if name == "general-joint":
        return general_joint(jm, rng, rounds)
    if name == "order-audit":
        return order_audit(jm, rng, rounds)
    if name == "cli-scenarios":
        return cli_scenarios(runner, rng, rounds)
    raise KeyError(name)


WORKLOADS = ("qubit-pairs", "general-joint", "order-audit", "cli-scenarios")
