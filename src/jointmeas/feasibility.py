"""Joint-measurability decisions: analytic routes first, then the white-noise
robustness problem on the barrier kernel.

``decide`` dispatches in a fixed order:

1. commuting families in which every pair contains a sharp (or scalar)
   member get the exact product joint;
2. pairs of two-outcome qubit observables, read into Bloch form by
   ``_bloch_forms``, are decided exactly: eq3, eq4 or eq5 where its
   hypotheses hold, else the general qubit criterion (reason
   ``qubit-pair``).  A violated criterion gives INFEASIBLE with its margin;
   a satisfied one gets its witness from the planar search below;
3. orthogonal unbiased triples, read the same way, get the eq6 verdict,
   with the closed-form signed-sum joint on the feasible side.
   Routes 2 and 3 take a family only if every effect passes the criteria's
   input check (``bloch._INPUT_TOL``); one that passes only ``tol`` goes to
   route 4;
4. everything else goes to the white-noise robustness SDP, solved by the
   log-det barrier kernel ``operators.barrier_maximize``
   (``_decide_by_robustness``): FEASIBLE with a witness whose marginals are
   exact, or INFEASIBLE with a dual certificate (reason ``dual-certificate``)
   that has been re-checked with ``eigvalsh``.

The planar search (``decide_pair_qubit_numeric``) reduces a qubit pair to
the question whether four filled ellipses in the plane of the two Bloch
vectors share a point, and answers it by a deterministic nested bracketing
of a convex function of two variables.  It also serves as an independent
numerical check of the qubit criteria.

The barrier route leaves UNDETERMINED only when the robustness eta* lies
within about min(``tol``, ``WITNESS_TOL``) of 1, where neither a witness nor
a certificate can be told from rounding.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bloch import (
    BlochEffect,
    CriterionResult,
    _is_effect_within,
    are_orthogonal,
    are_parallel,
    bloch_matrix,
    busch_criterion,
    liu_criterion,
    molnar_criterion,
    qubit_pair_criterion,
    three_orthogonal_criterion,
)
from .observables import (
    ProductObservable,
    commute,
    designation_order,
    joint_from_cell,
    label_key,
    max_marginal_deviation,
    observable_to_json,
    product_joint_many,
    structure_flags,
)
from .operators import (
    HermitianOperator,
    barrier_maximize,
    hermitian_basis,
    operator_to_json,
    opnorm,
)

REASON_BUSCH = "eq3"
REASON_MOLNAR = "eq4"
REASON_LIU = "eq5"
REASON_TRIPLE = "eq6"
REASON_COMMUTING_SHARP = "commuting-sharp"
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
    cells = np.array([g.effects[z].matrix for z in g.outcomes])
    neg = max(0.0, -float(np.linalg.eigvalsh(cells)[:, 0].min()))
    return max_marginal_deviation(g, parents) + neg


# ---------------------------------------------------------------------------
# route 1: commuting families
# ---------------------------------------------------------------------------

def _is_commuting_compatible_family(parents) -> bool:
    """All pairs commute and each pair contains a sharp or scalar member."""
    flags = [any(structure_flags(p)) for p in parents]
    n = len(parents)
    for i in range(n):
        for j in range(i + 1, n):
            if not (flags[i] or flags[j]):
                return False
    for i in range(n):
        for j in range(i + 1, n):
            if not commute(parents[i], parents[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# route 2: analytic qubit criteria
# ---------------------------------------------------------------------------

def _bloch_forms(obs) -> tuple | None:
    """(label, alpha, a, ||a||) per outcome of a two-outcome qubit observable,
    in ``designation_order``, so that the first is its designated effect;
    None for any other observable."""
    if obs.dim != 2 or len(obs.outcomes) != 2:
        return None
    forms = []
    for x in designation_order(obs):
        be = BlochEffect.from_operator(obs.effects[x])
        # sqrt(a.a) is np.linalg.norm(a) bit for bit, at a third of its cost
        forms.append((x, be.alpha, be.a, math.sqrt(be.a.dot(be.a))))
    return tuple(forms)


def _criterion_forms(parents) -> list | None:
    """Each parent's ``_bloch_forms`` when every parent is a two-outcome qubit
    observable whose effects pass the criteria's input check; else None, and
    the family goes to the barrier route."""
    family = [_bloch_forms(p) for p in parents]
    if any(f is None or not all(_is_effect_within(al, n) for _, al, _, n in f) for f in family):
        return None
    return family


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

def _signed_sum_joint(parents, designations) -> ProductObservable:
    """Joint of unbiased qubit observables with designated Bloch vectors v_i:
    G(s) = (1 + (sum_i s_i v_i).sigma) / 8, with s_i = +1 on the designated
    outcome and -1 on the other.  For an orthogonal triple every signed sum
    has length sqrt(sum |v_i|^2), so eq6 makes every cell positive."""
    effects = {}
    for combo in itertools.product(*(p.outcomes for p in parents)):
        vec = sum(
            (1.0 if x == d else -1.0) * v for x, (d, v) in zip(combo, designations)
        )
        effects[combo] = HermitianOperator(bloch_matrix(0.25, 0.25 * vec))
    return ProductObservable(tuple(tuple(p.outcomes) for p in parents), effects)


# ---------------------------------------------------------------------------
# planar witness search for qubit pairs
# ---------------------------------------------------------------------------

_GRID = np.linspace(0.0, 1.0, 17)
_ROWS = np.arange(len(_GRID))
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
    ref = avec if np.linalg.norm(avec) > 0.0 else bvec
    length = float(np.linalg.norm(ref))
    axis = ref / length if length > 0.0 else np.array([1.0, 0.0, 0.0])

    def planar(v) -> complex:
        along = float(np.dot(v, axis))
        return complex(along, float(np.linalg.norm(v - along * axis)))

    pa, pb = planar(avec), planar(bvec)
    pab = pa + pb

    def excess(p):
        d0, da, db, dab = np.abs(p), np.abs(p - pa), np.abs(p - pb), np.abs(p - pab)
        return np.maximum(
            np.maximum(d0 + da - alpha, d0 + db - beta),
            np.maximum(da + dab - (2.0 - beta), db + dab - (2.0 - alpha)),
        )

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
            cols = values.argmin(axis=1)
            row_min = values[_ROWS, cols]
            i = int(row_min.argmin())
            if row_min[i] < best[0]:
                t = t_lo[i] + t_width[i] * _GRID[cols[i]]
                best = (float(row_min[i]), float(s[i]), float(t))
                if best[0] <= _SETTLED:
                    return (*best, evaluations)
            t_lo, t_width = _narrow(t_lo, t_width, cols)
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
    is found.  A least excess within min(``opts.tol``, ``WITNESS_TOL``) gives
    FEASIBLE with the witness; otherwise the report is UNDETERMINED with that
    excess as its residual.  Deterministic; ``iterations`` counts grid
    evaluations.
    """
    opts = opts or FeasibilityOptions()
    fa, fb = _bloch_forms(a_obs), _bloch_forms(b_obs)
    if fa is None or fb is None:
        raise ValueError("the pair search needs two-outcome qubit observables")
    (da, alpha, avec, _), (db, beta, bvec, _) = fa[0], fb[0]

    value, s, t, evaluations = _planar_search(alpha, avec, beta, bvec)
    if value > min(opts.tol, WITNESS_TOL):
        return FeasibilityReport(Verdict.UNDETERMINED, None, None, None, value, evaluations)

    absum = avec + bvec
    g = s * avec + t * bvec
    lo = max(float(np.linalg.norm(g)), float(np.linalg.norm(g - absum)) + alpha + beta - 2.0)
    hi = min(alpha - float(np.linalg.norm(avec - g)), beta - float(np.linalg.norm(bvec - g)))
    witness = joint_from_cell(a_obs, b_obs, bloch_matrix(0.5 * (lo + hi), g), da, db)
    resid = witness_residual(witness, (a_obs, b_obs))
    return FeasibilityReport(Verdict.FEASIBLE, witness, None, None, resid, evaluations)


# ---------------------------------------------------------------------------
# general sets: the white-noise robustness problem on the barrier kernel
# ---------------------------------------------------------------------------

def _marginal_constraints(parents):
    """Cell labels, the constraint matrix M (one row per parent effect) and
    the stacked targets A, so that a joint family G satisfies M G = A."""
    labels = list(itertools.product(*(p.outcomes for p in parents)))
    rows = [[z[i] == x for z in labels] for i, p in enumerate(parents) for x in p.outcomes]
    targets = [p.effects[x].matrix for p in parents for x in p.outcomes]
    return labels, np.array(rows, dtype=float), np.array(targets)


_ZERO_SHARE = 1e-12  # an effect with tr A / d at most this counts as zero


def _decide_by_robustness(parents, tol: float) -> FeasibilityReport:
    """Decide joint measurability through the white-noise robustness SDP
    (Wolf, Perez-Garcia & Fernandez, PRL 103, 230402, 2009; Designolle,
    Farkas & Kaniewski, NJP 21, 113053, 2019): the largest eta for which the
    noisy parents eta A + (1 - eta) N, N(i, x) = tr A_i(x) / d I, have a joint.
    Cells with a zero-effect outcome must vanish and are left out.  With
    G0(z) = prod_i tr A_i(z_i) / d I, D = M^+ (A - N) and rows K_l spanning
    the null space of M, G(eta, H)_z = G0_z + eta D_z + sum_l K_lz H_l has the
    noisy marginals for all Hermitian H_l.  After the point (1, 0),
    ``barrier_maximize`` (G0, one general direction D, weights K) maximizes
    eta from G0 (t = 1) and stops at the first of:

    - eta >= 1: FEASIBLE with the witness (1, H / eta), which is
      G / eta + (1 - 1 / eta) G0;
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
      within about that of 1): FEASIBLE if (1, H / eta) passes the residual
      test, else UNDETERMINED.

    The residual test accepts a witness at min(``tol``, ``WITNESS_TOL``).
    ``iterations`` counts the start test and the Newton steps.  Raises
    ValueError when a parent's effects do not sum to the identity within
    ``tol`` (spectral norm, as in ``validate``): no joint can then have its
    marginals.
    """
    labels, m, a = _marginal_constraints(parents)
    dim = parents[0].dim
    eye = np.eye(dim)
    starts = np.cumsum([0] + [len(p.outcomes) for p in parents[:-1]])
    gaps = np.add.reduceat(a, starts) - eye
    unnormalized = opnorm(gaps)
    if unnormalized.max() > tol:
        i = int(unnormalized.argmax())
        raise ValueError(
            f"parent {i}'s effects sum to the identity only within "
            f"{unnormalized[i]:.3e} > tol {tol:.1e}"
        )
    share = np.trace(a, axis1=1, axis2=2).real / dim
    live_rows = share > _ZERO_SHARE
    live = ~m[~live_rows].any(axis=0)
    if not live.any():
        raise ValueError("a parent observable has no nonzero effect")
    ml = m[np.ix_(live_rows, live)]
    g0 = np.prod(np.where(ml.T > 0, share[live_rows], 1.0), axis=1)[:, None, None] * eye
    u, sv, vt = np.linalg.svd(ml)
    rank = int(np.count_nonzero(sv > 1e-9 * sv[0]))
    m_pinv = (vt[:rank].T / sv[:rank]) @ u[:, :rank].T
    drift = np.tensordot(m_pinv, a[live_rows] - share[live_rows, None, None] * eye, axes=1)
    accept = min(tol, WITNESS_TOL)  # the barrier's stopping gap and the residual test's bound

    def settle(cells, iterations):
        """FEASIBLE with the live cells as witness if a bound on their
        ``witness_residual`` (marginals in Frobenius norm) is within
        ``accept``."""
        full = np.zeros((len(labels), dim, dim), dtype=complex)
        full[live] = 0.5 * (cells + cells.conj().swapaxes(-1, -2))
        resid = float(np.linalg.norm(np.tensordot(m, full, axes=1) - a, axis=(1, 2)).max())
        resid += max(0.0, -float(np.linalg.eigvalsh(full)[:, 0].min()))
        if resid > accept:
            return FeasibilityReport(Verdict.UNDETERMINED, None, None, None, resid, iterations)
        effects = {z: HermitianOperator(g) for z, g in zip(labels, full)}
        g = ProductObservable(tuple(tuple(p.outcomes) for p in parents), effects)
        return FeasibilityReport(Verdict.FEASIBLE, g, None, None, resid, iterations)

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
    x, steps, found = barrier_maximize(c, g0, drift[None], null, np.zeros_like(c), 1.0, accept, stop)
    if isinstance(found, tuple):
        cert, margin, gap = found
        return FeasibilityReport(
            Verdict.INFEASIBLE, None, REASON_DUAL, margin, 0.0, 1 + steps, cert, gap
        )
    h = np.tensordot((x[1:] / x[0]).reshape(len(null), -1), hermitian_basis(dim), axes=1)
    return settle(g0 + drift + np.tensordot(null.T, h, axes=1), 1 + steps)


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------

def decide(problem: FeasibilityProblem) -> FeasibilityReport:
    """Decide joint measurability of the problem's parent observables."""
    parents = problem.parents
    opts = problem.options

    if _is_commuting_compatible_family(parents):
        witness = product_joint_many(parents)
        resid = witness_residual(witness, parents)
        return FeasibilityReport(
            Verdict.FEASIBLE, witness, REASON_COMMUTING_SHARP, None, resid, 0
        )

    family = _criterion_forms(parents) if len(parents) in (2, 3) else None
    if family is not None and len(family) == 2:
        reason, result = _match_pair_criterion(*family)
        if not result.jm:
            return FeasibilityReport(Verdict.INFEASIBLE, None, reason, result.margin, 0.0, 0)
        search = decide_pair_qubit_numeric(*parents, opts)
        return FeasibilityReport(
            search.verdict, search.witness, reason, result.margin, search.residual,
            search.iterations,
        )
    if family is not None:
        match = _match_triple_criterion(family)
        if match is not None:
            result, designations = match
            if not result.jm:
                return FeasibilityReport(
                    Verdict.INFEASIBLE, None, REASON_TRIPLE, result.margin, 0.0, 0
                )
            witness = _signed_sum_joint(parents, designations)
            resid = witness_residual(witness, parents)
            return FeasibilityReport(
                Verdict.FEASIBLE, witness, REASON_TRIPLE, result.margin, resid, 0
            )

    return _decide_by_robustness(parents, opts.tol)


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

    Each verdict is ``decide``'s own.  A family of sharp observables that
    are pairwise compatible commutes, so n - 1 such sharp parents make a
    commuting family that ``decide`` answers with the product joint.
    """
    opts = opts or FeasibilityOptions()
    parents = tuple(parents)
    if len(parents) < 3:
        raise ValueError("need at least three observables to compare pairwise vs global")
    pairwise = {}
    for i in range(len(parents)):
        for j in range(i + 1, len(parents)):
            pairwise[(i, j)] = decide(FeasibilityProblem((parents[i], parents[j]), opts))
    return PairwiseGlobalReport(pairwise, decide(FeasibilityProblem(parents, opts)))
