"""Joint-measurability decisions: analytic routes first, then the white-noise
robustness problem on the barrier kernel.

``decide`` dispatches in a fixed order:

1. families in which every pair of parents commutes get the product joint
   (reason ``commuting``): commuting effects have positive products, so no
   parent needs to be sharp.  Two-outcome qubit observables are read once
   into Bloch form by ``_bloch_forms`` and tested there, ||[A, B]|| =
   ||a x b|| / 2; any other family by ``commute``;
2. pairs of such forms are decided exactly: eq3, eq4 or eq5 where its
   hypotheses hold, else the general qubit criterion (reason
   ``qubit-pair``).  A violated criterion gives INFEASIBLE with its margin;
   a satisfied one gets its witness from the planar search below;
3. orthogonal unbiased triples of them get the eq6 verdict, with the
   closed-form signed-sum joint on the feasible side.
   Routes 2 and 3 take a family only if every effect passes the criteria's
   input check (``bloch._INPUT_TOL``); one that passes only ``tol`` goes to
   route 4;
4. everything else goes to the white-noise robustness SDP, solved by the
   log-det barrier kernel ``operators.barrier_maximize``
   (``_decide_by_robustness``): FEASIBLE with a witness whose marginals are
   exact, or INFEASIBLE with a dual certificate (reason ``dual-certificate``)
   that has been re-checked with ``eigvalsh``.

Two phases run over a batch of families, and ``decide`` is the batch of one.
Routing builds every witness: per family a final report or a job holding its
witness cells (a product, signed-sum or planar-search joint).  The witness
phase only gates, all jobs in one stacked pass: a FEASIBLE of any route has
its exact ``witness_residual`` within min(``tol``, ``WITNESS_TOL``).  A family
of routes 1-3 that misses the gate, or whose search fails, goes to route 4.

The planar search (``decide_pair_qubit_numeric``) reduces a qubit pair to
the question whether four filled ellipses in the plane of the two Bloch
vectors share a point, and answers it by a deterministic nested bracketing
of a convex function of two variables.  It also serves as an independent
numerical check of the qubit criteria.

The barrier route leaves UNDETERMINED when the robustness eta* lies within
about min(``tol``, ``WITNESS_TOL``) of 1, where neither a witness nor a
certificate can be told from rounding, and when the barrier ends early, on a
singular or indefinite Newton system or still at eta = 0, without a witness
that passes.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bloch import (
    CriterionResult,
    _bloch_matrices,
    _bloch_params,
    _is_effect_within,
    _norm,
    are_orthogonal,
    are_parallel,
    busch_criterion,
    liu_criterion,
    molnar_criterion,
    qubit_pair_criterion,
    three_orthogonal_criterion,
)
from .observables import (
    STRUCTURE_TOL,
    ProductObservable,
    _cell_joint_cells,
    _joint,
    _marginal_gaps,
    _marginal_map,
    _product_cells,
    commute,
    designation_order,
    label_key,
    observable_to_json,
)
from .operators import (
    HermitianOperator,
    _hermitian_stack,
    barrier_maximize,
    hermitian_basis,
    operator_to_json,
    opnorm,
)

REASON_BUSCH = "eq3"
REASON_MOLNAR = "eq4"
REASON_LIU = "eq5"
REASON_TRIPLE = "eq6"
REASON_COMMUTING = "commuting"
REASON_QUBIT_PAIR = "qubit-pair"
REASON_DUAL = "dual-certificate"

_ALPHA_TOL = 1e-9  # tolerance when matching criterion hypotheses on alpha
# loosest residual (or planar ellipse excess) at which a numeric witness is
# accepted, and the barrier route's loosest stopping gap: ``tol`` can tighten
# both to min(tol, WITNESS_TOL), never loosen them
WITNESS_TOL = 1e-7


class Verdict(str, enum.Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class FeasibilityOptions:
    tol: float = 1e-7

    def __post_init__(self):
        # tol bounds how far a parent's effects may sum from the identity; an
        # infinite tol would pass any input to ``validate``
        if not 0.0 < self.tol < float("inf"):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    parents: tuple
    options: FeasibilityOptions = field(default_factory=FeasibilityOptions)

    def __post_init__(self):
        parents = tuple(self.parents)
        object.__setattr__(self, "parents", parents)
        if len(parents) < 2:
            raise ValueError("need at least two observables")
        dims = {p.dim for p in parents}
        if len(dims) != 1:
            raise ValueError(f"observables have mixed dimensions {sorted(dims)}")


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    verdict: Verdict
    witness: ProductObservable | None = None
    reason: str | None = None
    margin: float | None = None
    residual: float = 0.0
    iterations: int = 0
    # a ``dual-certificate`` INFEASIBLE's Y[(axis, outcome)]: sum_i Y[(i, z_i)]
    # >= 0 on every cell z, and <Y, A> = -margin; the robustness eta* lies in
    # [1 - margin - gap, 1 - margin]
    certificate: dict | None = None
    gap: float | None = None

    def __post_init__(self):
        if self.verdict is Verdict.FEASIBLE and self.witness is None:
            raise ValueError("a FEASIBLE report needs a witness")
        if self.verdict is Verdict.INFEASIBLE and (self.reason is None or self.margin is None):
            raise ValueError("an INFEASIBLE report needs a reason and a margin")
        if self.reason == REASON_DUAL and self.certificate is None:
            raise ValueError(f"a {REASON_DUAL} report needs its certificate")

    def to_json(self) -> dict:
        cert = self.certificate
        return {
            "verdict": self.verdict.value,
            "residual": self.residual,
            "gap": self.gap,  # eta* in [1 - margin - gap, 1 - margin]; null unless dual
            "iterations": self.iterations,
            "reason": self.reason,
            "margin": self.margin,
            "witness": observable_to_json(self.witness) if self.witness is not None else None,
            # keyed "<axis>:<outcome key>"
            "certificate": None if cert is None else {
                f"{i}:{label_key(x)}": operator_to_json(HermitianOperator(y))
                for (i, x), y in cert.items()
            },
        }


def witness_residual(g: ProductObservable, parents) -> float:
    """Max marginal deviation (spectral norm) plus worst negative-eigenvalue
    magnitude over the cells."""
    return float(_residuals(g.stack[None], g.parents, [parents])[0])


def _residuals(cells, factors, parent_sets) -> np.ndarray:
    """``witness_residual`` of each joint of a stack (J, n, d, d) on the
    outcomes ``product(*factors)`` against its parents in ``parent_sets``,
    from one ``eigvalsh`` over every cell and every marginal gap."""
    axes = [(i, [ps[i] for ps in parent_sets]) for i in range(len(parent_sets[0]))]
    n = cells.shape[1]
    lam = np.linalg.eigvalsh(np.concatenate([cells, _marginal_gaps(cells, factors, axes)], axis=1))
    gaps = np.maximum(-lam[:, n:, 0], lam[:, n:, -1])  # ``opnorm``
    return np.maximum.reduce(gaps, axis=1) + np.maximum(0.0, -np.minimum.reduce(lam[:, :n, 0], axis=1))


# ---------------------------------------------------------------------------
# route 1: pairwise commuting families
# ---------------------------------------------------------------------------

def _bloch_commute(fa, fb) -> bool:
    """``commute`` on ``_bloch_forms``: ||[A, B]|| = ||a x b|| / 2 per outcome pair."""
    vecs = [[a.tolist() for _, _, a, _ in forms] for forms in (fa, fb)]
    return all(
        0.5 * math.hypot(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0) <= STRUCTURE_TOL
        for (a0, a1, a2), (b0, b1, b2) in itertools.product(*vecs)
    )


# ---------------------------------------------------------------------------
# route 2: analytic qubit criteria
# ---------------------------------------------------------------------------

def _bloch_forms(obs) -> tuple | None:
    """(label, alpha, a, ||a||) per outcome of a two-outcome qubit observable,
    in ``designation_order``, so that the first is its designated effect;
    None for any other observable.  Read from the stack in one pass by
    ``bloch._bloch_params``, the one Bloch reader."""
    if obs.dim != 2 or len(obs.outcomes) != 2:
        return None
    forms, rows = [], obs.stack.tolist()
    for x in designation_order(obs):
        alpha, a = _bloch_params(rows[obs.outcomes.index(x)])
        vec = np.array(a)
        vec.flags.writeable = False
        forms.append((x, alpha, vec, _norm(vec)))
    return tuple(forms)


def _criterion_forms(family) -> list | None:
    """The family of ``_bloch_forms`` when every effect passes the criteria's
    input check; else None, and the family goes to the barrier route."""
    return family if all(_is_effect_within(al, n) for f in family for _, al, _, n in f) else None


def _unbiased(forms) -> bool:
    return all(abs(al - 1.0) <= _ALPHA_TOL for _, al, _, _ in forms)


def _match_pair_criterion(fa, fb) -> tuple[str, CriterionResult]:
    """The criterion deciding a pair of two-outcome qubit observables from
    their ``_bloch_forms``, as (reason, result): eq3, eq4 or eq5 where its
    hypotheses hold, else the general qubit criterion."""
    (_, alpha, avec, _), (_, beta, bvec, _) = fa[0], fb[0]
    if _unbiased(fa) and _unbiased(fb):
        return REASON_BUSCH, busch_criterion(avec, bvec)

    ranks = [next((v for _, al, v, n in f if abs(al - n) <= _ALPHA_TOL), None) for f in (fa, fb)]
    if ranks[0] is not None and ranks[1] is not None and not are_parallel(*ranks):
        return REASON_MOLNAR, molnar_criterion(*ranks)

    for forms, u, beta_o, v in ((fa, avec, beta, bvec), (fb, bvec, alpha, avec)):
        if _unbiased(forms) and are_orthogonal(u, v):
            return REASON_LIU, liu_criterion(u, beta_o, v)

    return REASON_QUBIT_PAIR, qubit_pair_criterion(alpha, avec, beta, bvec)


def _match_triple_criterion(family) -> tuple[CriterionResult, tuple] | None:
    """The eq6 result and the designations ((label, a) per parent) of an
    orthogonal unbiased triple, from its ``_bloch_forms``; None for any other
    triple."""
    if not all(_unbiased(f) for f in family):
        return None
    desigs = tuple((f[0][0], f[0][2]) for f in family)
    vecs = [v for _, v in desigs]
    if not all(are_orthogonal(u, v) for u, v in itertools.combinations(vecs, 2)):
        return None
    return three_orthogonal_criterion(*vecs), desigs


# ---------------------------------------------------------------------------
# witnesses for analytically feasible cases
# ---------------------------------------------------------------------------

def _signed_sum_cells(parents, designations) -> np.ndarray:
    """Cells, in product-outcome order, of the joint of unbiased qubit
    observables with designated Bloch vectors v_i:
    G(s) = (1 + (sum_i s_i v_i).sigma) / 8, with s_i = +1 on the designated
    outcome and -1 on the other.  For an orthogonal triple every signed sum
    has length sqrt(sum |v_i|^2), so eq6 makes every cell positive."""
    combos = itertools.product(*(p.outcomes for p in parents))
    signs = np.array([[1.0 if x == d else -1.0 for x, (d, _) in zip(z, designations)] for z in combos])
    vecs = sum(signs[:, i, None] * v for i, (_, v) in enumerate(designations))
    return _bloch_matrices(np.full(len(signs), 0.25), 0.25 * vecs)


# ---------------------------------------------------------------------------
# planar witness search for qubit pairs
# ---------------------------------------------------------------------------

_GRID = np.linspace(0.0, 1.0, 17)
_ELLIPSES = np.array([[0, 1], [0, 2], [1, 3], [2, 3]])  # focal pairs among 0, a, b, a + b
_ROUNDS = 14  # a round narrows a bracket eightfold: 8**-14 < 1e-12
_SETTLED = 1e-12  # the search's own resolution: a point this good ends it


def _narrow(lo, width, best):
    """Bracket of a minimum of a convex function of one variable, from its
    values on ``lo + width * _GRID`` with the least at index ``best``: the
    grid points on either side of it, clipped to [0, 1]."""
    step = width / (len(_GRID) - 1)
    new_lo = np.maximum(lo + (best - 1) * step, 0.0)
    return new_lo, np.minimum(lo + (best + 1) * step, 1.0) - new_lo


def _planar_search(alpha: float, avec, beta: float, bvec):
    """Minimize the largest ellipse excess over g = s a + t b, s, t in [0, 1].

    Returns (value, s, t, evaluations).  For each s of a grid the minimum
    over t is bracketed by ``_narrow``; the row minima of the last round
    bracket the minimum over s the same way.  The search returns at the
    first grid evaluation holding a point with excess <= ``_SETTLED``.
    """
    # the plane of a and b as the complex plane, a on the real axis
    ref = avec if _norm(avec) > 0.0 else bvec
    length = _norm(ref)
    axis = ref / length if length > 0.0 else np.array([1.0, 0.0, 0.0])

    def planar(v) -> complex:
        along = float(np.dot(v, axis))
        return complex(along, _norm(v - along * axis))

    pa, pb = planar(avec), planar(bvec)
    foci = np.array([0.0, pa, pb, pa + pb])[:, None, None]
    bounds = np.array([alpha, beta, 2.0 - beta, 2.0 - alpha])[:, None, None]

    def excess(p):  # each ellipse's focal distances |p - f1| + |p - f2| minus its bound
        return np.maximum.reduce(np.add.reduce(np.abs(p - foci).take(_ELLIPSES, axis=0), axis=1) - bounds)

    best = (np.inf, 0.0, 0.0)
    evaluations = 0
    t_offsets = pb * _GRID
    s_lo, s_width = 0.0, 1.0
    for _ in range(_ROUNDS):
        s = s_lo + s_width * _GRID
        t_lo, t_width = np.zeros_like(s), np.ones_like(s)
        for _ in range(_ROUNDS):
            values = excess((s * pa + t_lo * pb)[:, None] + t_width[:, None] * t_offsets)
            evaluations += 1
            i, col = divmod(int(values.argmin()), len(_GRID))  # the first least point, row by row
            value = float(values[i, col])
            if value < best[0]:
                best = (value, float(s[i]), float(t_lo[i] + t_width[i] * _GRID[col]))
                if best[0] <= _SETTLED:
                    return (*best, evaluations)
            t_lo, t_width = _narrow(t_lo, t_width, values.argmin(axis=1))
        s_lo, s_width = _narrow(s_lo, s_width, i)
    return (*best, evaluations)


def decide_pair_qubit_numeric(a_obs, b_obs, opts: FeasibilityOptions | None = None) -> FeasibilityReport:
    """Search for a joint observable of two two-outcome qubit observables.

    With designated effects (alpha, a) and (beta, b), a joint is fixed by
    its designated cell G(1,1) = (gamma, g) in Bloch form; the marginals fix
    the other three cells.  Each cell is positive iff its Bloch vector is no
    longer than its weight, and eliminating gamma leaves four filled
    ellipses that g must share:

        |g| + |g - a| <= alpha,          |g| + |g - b| <= beta,
        |g - a| + |g - a - b| <= 2 - beta,  |g - b| + |g - a - b| <= 2 - alpha.

    Any gamma in [max(|g|, |g - a - b| + alpha + beta - 2),
    min(alpha - |g - a|, beta - |g - b|)] then completes the joint; the
    witness takes the middle of that interval.  Reflection through the plane
    of a and b maps the conditions to themselves, so by convexity g can be
    taken in that plane, and projecting g onto the parallelogram spanned by
    a and b shortens every focal distance, so g = s a + t b with s, t in
    [0, 1].  The largest ellipse excess (sum of focal distances minus the
    bound) is convex in (s, t); nested bracketing on a 17-point grid narrows
    both variables to 1e-12, stopping early once a point with excess <= 1e-12
    is found.  A least excess and a ``witness_residual`` both within
    min(``opts.tol``, ``WITNESS_TOL``) give FEASIBLE with the witness;
    otherwise the report is UNDETERMINED with the excess or the residual
    that missed.  Deterministic; ``iterations`` counts grid evaluations.
    The qubit-pair route of ``decide`` and its gate, run on one pair.
    """
    opts = opts or FeasibilityOptions()
    forms = (_bloch_forms(a_obs), _bloch_forms(b_obs))
    if None in forms:
        raise ValueError("the pair search needs two-outcome qubit observables")
    job = _pair_job((a_obs, b_obs), forms, None, None, opts.tol)
    return _witness([job], opts.tol)[0] if isinstance(job, _Job) else job


# ---------------------------------------------------------------------------
# general sets: the white-noise robustness problem on the barrier kernel
# ---------------------------------------------------------------------------

# largest Newton system the barrier route builds: n variables, an n x n Hessian
MAX_BARRIER_VARIABLES = 4096


def _decide_by_robustness(parents, tol: float) -> FeasibilityReport:
    """Decide joint measurability through the white-noise robustness SDP
    (Wolf, Perez-Garcia & Fernandez, PRL 103, 230402, 2009; Designolle,
    Farkas & Kaniewski, NJP 21, 113053, 2019): the largest eta for which the
    noisy parents eta A + (1 - eta) N, N(i, x) = tr A_i(x) / d I, have a joint.
    An effect whose share tr A / d is within min(``tol``, ``WITNESS_TOL``)
    counts as zero; cells with a zero-effect outcome must vanish and are left
    out.  M is the witness gate's own marginal map
    (``observables._marginal_map``), which gives the live cells, M^+, the
    null space and the dual cells M^T Y.
    With G0(z) = prod_i tr A_i(z_i) / d I, D = M^+ (A - N) and rows K_l
    spanning the null space of M, G(eta, H)_z = G0_z + eta D_z +
    sum_l K_lz H_l has the noisy marginals for all Hermitian H_l.  Each
    witness, zero-padded to every cell, passes the witness phase's gate
    (``_witness``) or leaves UNDETERMINED.  After the point (1, 0) misses
    it, ``barrier_maximize`` (G0, one general direction D, weights K)
    maximizes eta from G0 (t = 1) and stops at the first of:

    - eta >= 1: the witness (1, H / eta), which is G / eta + (1 - 1 / eta) G0;
    - any iterate whose Y = (M^T)^+ G^-1 / t, shifted on parent 0's rows so
      that sum_i Y_(i, z_i) >= 0 on every cell, has <Y, A> < 0 in an
      ``eigvalsh`` re-check (run only if the live rows alone give <Y, A> < 0,
      as the shift and the zero-effect rows add >= 0).  A joint G would give
      <Y, A> = sum_z tr((M^T Y)_z G_z) >= 0.  Scaled to <Y, N - A> = 1, a
      joint of the noisy parents gives eta <= <Y, N> = 1 - margin, and the
      iterate's eta is feasible: INFEASIBLE, reason ``dual-certificate``,
      margin -<Y, A>, residual 0 and ``gap`` 1 - margin - eta, so that eta*
      lies in [1 - margin - gap, 1 - margin];
    - the barrier's gap bound k d / t <= min(``tol``, ``WITNESS_TOL``) (eta*
      within about that of 1), or a singular or indefinite Newton system: the
      witness (1, H / eta), or UNDETERMINED when eta is still 0.

    ``iterations`` counts the start test and the Newton steps.  Raises
    ValueError when a parent's effects do not sum to the identity within
    ``tol`` (spectral norm, as in ``validate``): no joint can then have its
    marginals.  Raises ValueError, before M or anything of the family's size
    is built, when the Newton system would have more than
    ``MAX_BARRIER_VARIABLES`` variables: n = 1 + (prod l_i - sum l_i + k - 1)
    d^2 for k parents with l_i live outcomes, as M has rank sum l_i - k + 1.
    """
    factors = tuple(p.outcomes for p in parents)
    a = np.concatenate([p.stack for p in parents])
    dim = parents[0].dim
    eye = np.eye(dim)
    unnormalized = opnorm(np.array([p.stack.sum(axis=0) for p in parents]) - eye)
    if unnormalized.max() > tol:
        i = int(unnormalized.argmax())
        raise ValueError(
            f"parent {i}'s effects sum to the identity only within "
            f"{unnormalized[i]:.3e} > tol {tol:.1e}"
        )
    share = np.trace(a, axis1=1, axis2=2).real / dim
    live_rows = share > min(tol, WITNESS_TOL)
    rows = iter(live_rows.tolist())
    counts = [sum(itertools.islice(rows, len(f))) for f in factors]  # live outcomes per parent
    if 0 in counts:
        raise ValueError("a parent observable has no nonzero effect")
    n = 1 + (math.prod(counts) - sum(counts) + len(counts) - 1) * dim * dim
    if n > MAX_BARRIER_VARIABLES:
        raise ValueError(f"the barrier route needs {n} variables, above its bound {MAX_BARRIER_VARIABLES}")
    m = _marginal_map(factors, tuple(enumerate(factors)))
    live = ~m[~live_rows].any(axis=0)
    ml = m[np.ix_(live_rows, live)]
    g0 = np.prod(np.where(ml.T > 0, share[live_rows], 1.0), axis=1)[:, None, None] * eye
    u, sv, vt = np.linalg.svd(ml)
    rank = int(np.count_nonzero(sv > 1e-9 * sv[0]))
    m_pinv = (vt[:rank].T / sv[:rank]) @ u[:, :rank].T
    drift = np.tensordot(m_pinv, a[live_rows] - share[live_rows, None, None] * eye, axes=1)

    def settle(cells, iterations):
        """The witness phase's report on the live cells, symmetrized and zero-padded."""
        full = np.zeros((m.shape[1], dim, dim), dtype=complex)
        full[live] = 0.5 * (cells + cells.conj().swapaxes(-1, -2))
        return _witness([_Job(parents, None, None, full, iterations)], tol)[0]

    start = settle(g0 + drift, 1)  # the affine projection of G0: eta = 1, H = 0
    if start.verdict is Verdict.FEASIBLE:
        return start
    null = vt[rank:]

    def stop(x, w, t):
        if x[0] >= 1.0:
            return True  # (1, H / eta) is a witness
        y = np.zeros_like(a)
        y[live_rows] = np.tensordot(m_pinv.T, w / t, axes=1)
        if np.einsum("rij,rji->", y[live_rows], a[live_rows]).real >= 0.0:
            return None  # the shift and the dead rows below only add to <Y, A>
        low = np.linalg.eigvalsh(np.tensordot(ml.T, y[live_rows], axes=1))[:, 0].min()
        y[: len(parents[0].outcomes)] += max(0.0, -low) * eye
        # a cell with a zero-effect outcome is made positive by that outcome's
        # row alone, at no cost since its effect is zero
        y[~live_rows] = np.linalg.norm(y[live_rows], axis=(1, 2)).sum() * eye
        low = np.linalg.eigvalsh(np.tensordot(m.T, y, axes=1))[:, 0].min()
        value = float(np.einsum("rij,rji->", y, a).real)
        if value + dim * max(0.0, -low) >= 0.0:  # a joint has sum_z tr G_z = d
            return None
        # scaled to <Y, N - A> = 1, a joint of eta A + (1 - eta) N gives
        # <Y, N> - eta >= 0: eta* <= 1 - margin, and x[0] <= eta*
        norm = share @ np.trace(y, axis1=1, axis2=2).real - value
        keys = [(i, o) for i, p in enumerate(parents) for o in p.outcomes]
        return dict(zip(keys, y / norm)), -value / norm, 1.0 + value / norm - x[0]

    c = np.zeros(1 + len(null) * dim * dim)
    c[0] = 1.0
    gap_tol = min(tol, WITNESS_TOL)
    x, steps, found = barrier_maximize(c, g0, drift[None], null, np.zeros_like(c), 1.0, gap_tol, stop)
    if isinstance(found, tuple):
        cert, margin, gap = found
        return FeasibilityReport(
            Verdict.INFEASIBLE, None, REASON_DUAL, margin, 0.0, 1 + steps, cert, gap
        )
    if x[0] <= 0.0:  # the barrier ended at its start: no eta to scale H by
        return FeasibilityReport(Verdict.UNDETERMINED, None, None, None, start.residual, 1 + steps)
    h = np.tensordot((x[1:] / x[0]).reshape(len(null), dim * dim), hermitian_basis(dim), axes=1)
    return settle(g0 + drift + np.tensordot(null.T, h, axes=1), 1 + steps)


# ---------------------------------------------------------------------------
# the two phases: routing per family, then one witness pass over every job
# ---------------------------------------------------------------------------

class _Job(NamedTuple):
    """A family pending the gate: its witness cells and the iterations spent."""

    parents: tuple
    reason: str | None
    margin: float | None
    cells: np.ndarray
    iterations: int = 0


def _route(parents, forms, tol: float):
    """Routes 1-3 of one family from its parents' ``_bloch_forms``: a final
    report, a ``_Job``, or None for the barrier route."""
    family = None if None in forms else forms  # else not all two-outcome qubit observables
    members, commutes = (parents, commute) if family is None else (family, _bloch_commute)
    if all(commutes(a, b) for a, b in itertools.combinations(members, 2)):
        return _Job(parents, REASON_COMMUTING, None, _product_cells(parents))

    family = _criterion_forms(family) if family is not None and len(family) in (2, 3) else None
    if family is not None and len(family) == 2:
        reason, result = _match_pair_criterion(*family)
        if not result.jm:
            return FeasibilityReport(Verdict.INFEASIBLE, None, reason, result.margin, 0.0, 0)
        return _pair_job(parents, family, reason, result.margin, tol)
    if family is not None:
        match = _match_triple_criterion(family)
        if match is not None:
            result, designations = match
            if not result.jm:
                return FeasibilityReport(
                    Verdict.INFEASIBLE, None, REASON_TRIPLE, result.margin, 0.0, 0
                )
            return _Job(parents, REASON_TRIPLE, result.margin, _signed_sum_cells(parents, designations))
    return None


def _pair_job(parents, forms, reason, margin, tol: float):
    """The planar search of a pair from its ``_bloch_forms``: a ``_Job`` with
    the witness cells (4, 2, 2) in product-outcome order and the grid
    evaluations, or UNDETERMINED with the least excess when that exceeds
    min(``tol``, ``WITNESS_TOL``)."""
    (da, alpha, avec, _), (db, beta, bvec, _) = forms[0][0], forms[1][0]
    value, s, t, evaluations = _planar_search(alpha, avec, beta, bvec)
    if value > min(tol, WITNESS_TOL):
        return FeasibilityReport(Verdict.UNDETERMINED, None, None, None, value, evaluations)
    g = s * avec + t * bvec
    lo = max(_norm(g), _norm(g - (avec + bvec)) + alpha + beta - 2.0)
    hi = min(alpha - _norm(avec - g), beta - _norm(bvec - g))
    (a, b), cell = parents, _bloch_matrices([0.5 * (lo + hi)], g[None])
    i, j = a.outcomes.index(da), b.outcomes.index(db)
    cells = _cell_joint_cells(a.stack[i:i + 1], b.stack[j:j + 1], cell, i, j)[0]
    return _Job(parents, reason, margin, cells, evaluations)


def _witness(jobs, tol: float) -> list:
    """The witness phase, only a gate: a report per job, FEASIBLE when its
    witness passes the one gate of every route, ``witness_residual`` <=
    min(``tol``, ``WITNESS_TOL``), else UNDETERMINED with that residual.  The
    cells of all jobs of one outcome structure are checked as one stack and
    their residuals taken in one pass."""
    reports, groups = [None] * len(jobs), {}
    for k, job in enumerate(jobs):
        groups.setdefault((tuple(p.outcomes for p in job.parents), job.cells.shape), []).append(k)

    for (factors, (n, d, _)), members in groups.items():
        herm, asym = _hermitian_stack(np.concatenate([jobs[k].cells for k in members]))
        resids = _residuals(herm.reshape(len(members), n, d, d), factors, [jobs[k].parents for k in members])
        for j, (k, resid) in enumerate(zip(members, resids.tolist())):
            _, reason, margin, _, iterations = jobs[k]
            if resid > min(tol, WITNESS_TOL):
                reports[k] = FeasibilityReport(Verdict.UNDETERMINED, None, None, None, resid, iterations)
                continue
            witness = _joint(factors, herm[j * n:(j + 1) * n], asym[j * n:(j + 1) * n])
            reports[k] = FeasibilityReport(Verdict.FEASIBLE, witness, reason, margin, resid, iterations)
    return reports


def _decide_batch(families, opts: FeasibilityOptions) -> list:
    """``decide`` on each family (a tuple of parents): routes 1-3 per family,
    each distinct parent's ``_bloch_forms`` read once, then one witness phase
    for all jobs; the barrier route for the rest and for a failed witness or
    planar search."""
    forms = {}
    for p in itertools.chain.from_iterable(families):
        if id(p) not in forms:
            forms[id(p)] = _bloch_forms(p)
    routed = [_route(parents, [forms[id(p)] for p in parents], opts.tol) for parents in families]
    jobs = [r for r in routed if isinstance(r, _Job)]
    witnessed = iter(_witness(jobs, opts.tol) if jobs else ())  # no call for a batch of final reports
    reports = []
    for parents, report in zip(families, routed):
        if isinstance(report, _Job):
            report = next(witnessed)
        if report is None or report.verdict is Verdict.UNDETERMINED:
            report = _decide_by_robustness(parents, opts.tol)
        reports.append(report)
    return reports


def decide(problem: FeasibilityProblem) -> FeasibilityReport:
    """Decide joint measurability of the problem's parents: the batch of one."""
    return _decide_batch([problem.parents], problem.options)[0]


@dataclass(frozen=True, eq=False)
class PairwiseGlobalReport:
    pairwise: dict
    global_report: FeasibilityReport

    def to_json(self) -> dict:
        return {
            "pairs": {f"{i},{j}": r.to_json() for (i, j), r in sorted(self.pairwise.items())},
            "global": self.global_report.to_json(),
        }


def pairwise_vs_global(parents, opts: FeasibilityOptions | None = None) -> PairwiseGlobalReport:
    """Decide every pair and the full family.

    Each report is ``decide``'s own, from one ``_decide_batch`` that reads
    each parent's Bloch forms once.  A family of sharp observables that are
    pairwise compatible commutes, so n - 1 such sharp parents make a
    commuting family that ``decide`` answers with the product joint.
    """
    parents = tuple(parents)
    if len(parents) < 3:
        raise ValueError("need at least three observables to compare pairwise vs global")
    problem = FeasibilityProblem(parents, opts or FeasibilityOptions())
    *pairwise, whole = _decide_batch([*itertools.combinations(parents, 2), parents], problem.options)
    return PairwiseGlobalReport(dict(zip(itertools.combinations(range(len(parents)), 2), pairwise)), whole)
