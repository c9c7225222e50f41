"""Lower-bound set analysis: membership, greatest refutation, maximality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmeas import (
    BlochEffect,
    HermitianOperator,
    Observable,
    ProductObservable,
    SimpleQubitObservable,
    bloch_matrix,
    boundary_joint,
    gamma_family_member,
    in_lb,
    joint_from_cell,
    joint_observable_order_audit,
    loewner_leq,
    marginal,
    max_cell_deviation,
    maximality_probe,
    refute_greatest,
    validate,
)
from jointmeas.order import EPS, _lb_margin
from jointmeas.sampling import random_unitary

from conftest import (
    effect_within,
    identity,
    in_lb_within,
    loewner_leq_within,
    product_joint,
    random_effect,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

L = 1.0 / math.sqrt(2.0)


def unbiased(vec) -> Observable:
    return SimpleQubitObservable(BlochEffect(1.0, vec)).as_observable()


def bloch_op(alpha, vec) -> HermitianOperator:
    return HermitianOperator(bloch_matrix(alpha, vec))


@pytest.fixture()
def boundary_setup():
    a_obs = unbiased(L * EX)
    b_obs = unbiased(L * EY)
    g = boundary_joint(L * EX, L * EY)
    return a_obs, b_obs, g


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_zero_is_always_a_lower_bound():
    a = bloch_op(0.9, 0.4 * EX)
    b = bloch_op(0.7, 0.5 * EY)
    assert in_lb(HermitianOperator(np.zeros((2, 2))), a, b)


def test_joint_cells_lie_below_their_marginals(boundary_setup):
    a_obs, b_obs, g = boundary_setup
    for (x, y), e in g.effects.items():
        assert in_lb_within(e, a_obs.effects[x], b_obs.effects[y], 1e-12)


def test_membership_is_a_real_constraint():
    a = unbiased(L * EX).effects["1"]
    b = unbiased(L * EY).effects["1"]
    # a itself is not below b
    assert not in_lb(a, a, b)


def test_directed_effect_is_in_lb(boundary_setup):
    # C = (1/2)(gamma 1 + t(a+b).sigma) with t = 0.3, gamma = 0.4 sits below
    # both parent effects but not below the joint's corner cell
    a_obs, b_obs, g = boundary_setup
    c = bloch_op(0.4, 0.3 * (L * EX + L * EY))
    assert in_lb_within(c, a_obs.effects["1"], b_obs.effects["1"], 1e-12)
    assert not loewner_leq(c, g.effects[("1", "1")])
    # the violation is visible to a single unit vector
    diff = c.matrix - g.effects[("1", "1")].matrix
    top = float(np.linalg.eigvalsh(diff)[-1])
    assert top == pytest.approx(0.05, abs=1e-12)


def test_query_construction_errors():
    good = bloch_op(0.5, 0.2 * EX)
    with pytest.raises(ValueError, match="C is not an effect"):
        in_lb(HermitianOperator(1.5 * np.eye(2)), good, good)
    with pytest.raises(ValueError, match="mixed dimensions"):
        in_lb(HermitianOperator(0.5 * np.eye(3)), good, good)
    with pytest.raises(ValueError, match="A is not an effect"):
        in_lb(good, HermitianOperator(-0.1 * np.eye(2)), good)


@settings(max_examples=200)
@given(
    st.integers(1, 4),
    st.integers(0, 3),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.5, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_one_membership_test_matches_the_three_call_check(dim, bound, sign, scale, seed):
    # effects A, B and a cell C whose margin on one of the four bounds
    # C >= 0, C <= I, C <= A, C <= B is a planted eigenvalue t = +-(0.5-2) EPS,
    # every other margin at least 0.02
    rng = np.random.default_rng([29, seed])
    t = sign * scale * EPS
    q = random_unitary(dim, rng)
    rest = rng.uniform(0.1, 0.4, dim - 1)
    planted = (q * np.array([t, *rest])) @ q.conj().T

    def spread():
        u = random_unitary(dim, rng)
        return (u * rng.uniform(0.05, 0.3, dim)) @ u.conj().T

    if bound == 0:
        c = planted
        a, b = c + spread(), c + spread()
    elif bound == 1:
        # A <= I makes A - C <= I - C, so A and B share the planted direction
        c = np.eye(dim) - planted
        a, b = (
            c + (q * np.array([t, *(rest * rng.uniform(0.2, 1.0, dim - 1))])) @ q.conj().T
            for _ in range(2)
        )
    else:
        c = spread()
        a, b = (c + planted, c + spread()) if bound == 2 else (c + spread(), c + planted)
    ops = [HermitianOperator(m) for m in (c, a, b)]
    cop, aop, bop = ops
    assert all(effect_within(op, 2.0 * EPS) for op in (aop, bop))

    margin = _lb_margin(cop.matrix, aop.matrix, bop.matrix)
    new = margin >= -EPS
    # the three-call reference: one eigvalsh test per order bound, at EPS
    old = (
        loewner_leq_within(cop, aop, EPS)
        and loewner_leq_within(cop, bop, EPS)
        and effect_within(cop, EPS)
    )
    assert type(new) is bool
    assert new == old or abs(margin + EPS) <= 1e-12
    if abs(t + EPS) > 1e-12:
        assert new == (t >= -EPS)


_PIN_FRAME = random_unitary(2, np.random.default_rng(31))


@pytest.mark.parametrize("bound", ["C >= 0", "C <= I", "C <= A", "C <= B"])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_membership_precondition_keeps_its_threshold(bound, factor):
    # each bound in turn violated by factor * EPS, the others met by >= 0.2;
    # for C <= I the parents sit above I, so that only that bound is at stake
    v = factor * EPS
    c, a, b = {
        "C >= 0": ([-v, 0.3], [0.5, 0.5], [0.5, 0.5]),
        "C <= I": ([1.0 + v, 0.3], [1.5, 0.5], [1.5, 0.5]),
        "C <= A": ([0.5 + v, 0.3], [0.5, 0.5], [0.8, 0.8]),
        "C <= B": ([0.5 + v, 0.3], [0.8, 0.8], [0.5, 0.5]),
    }[bound]
    c, a, b = (HermitianOperator((_PIN_FRAME * w) @ _PIN_FRAME.conj().T) for w in (c, a, b))
    for probe in (refute_greatest, maximality_probe):
        if factor < 1.0:
            probe(c, a, b)
        else:
            with pytest.raises(ValueError, match="not in lb"):
                probe(c, a, b)


# ---------------------------------------------------------------------------
# greatest-element refutation
# ---------------------------------------------------------------------------


def test_refute_greatest_requires_membership(boundary_setup):
    a_obs, b_obs, _ = boundary_setup
    outsider = a_obs.effects["1"]  # not below the B effect
    with pytest.raises(ValueError, match="not in lb"):
        refute_greatest(outsider, a_obs.effects["1"], b_obs.effects["1"])


def test_boundary_corner_cell_is_not_greatest(boundary_setup, eig2x2_oracle):
    a_obs, b_obs, g = boundary_setup
    fa, fb = a_obs.effects["1"], b_obs.effects["1"]
    c = g.effects[("1", "1")]
    ref = refute_greatest(c, fa, fb)
    assert ref is not None
    # A and B have full rank, so A' = A, B' = B and C' = C.  The corner cell
    # is rank one; the witness is lambda w w* on its kernel, with
    # lambda = 1 / max(w* A^-1 w, w* B^-1 w) = 1/6
    cm = c.matrix
    low = eig2x2_oracle(cm)[0]
    assert abs(low) <= 1e-12
    w = np.array([cm[0, 1], low - cm[0, 0]])  # (C - low) w = 0
    w = w / np.linalg.norm(w)
    lam = 1.0 / max(float(np.real(w.conj() @ np.linalg.inv(m.matrix) @ w)) for m in (fa, fb))
    want = eig2x2_oracle(lam * np.outer(w, w.conj()) - cm)[1]
    assert want == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert ref.violation == pytest.approx(want, abs=1e-9)
    assert in_lb_within(ref.witness, a_obs.effects["1"], b_obs.effects["1"], 1e-9)
    psi = ref.vector
    quad = float(np.real(psi.conj() @ (ref.witness.matrix - c.matrix) @ psi))
    assert quad == pytest.approx(ref.violation, abs=1e-9)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_projection_is_its_own_greatest_lower_bound():
    p = HermitianOperator(np.diag([1.0, 0.0]))
    assert refute_greatest(p, p, p) is None


def test_commuting_sharp_product_cells_survive_refutation():
    # diagonal projections: the product effect is the greatest element
    a1 = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
    b1 = HermitianOperator(np.diag([1.0, 1.0, 0.0]))
    c = HermitianOperator(a1.matrix @ b1.matrix)
    assert refute_greatest(c, a1, b1) is None


@pytest.mark.parametrize("cell", [("1", "1"), ("0", "1")])
def test_gamma_family_cells_are_not_greatest(cell):
    # B's effect 0.4 P_y is rank one, so lb(A_x, B_1) is the segment s P_y
    # with s <= (1 - |a|^2) / 2 = 0.32 for either effect A_x of the unbiased
    # A.  Its top 0.32 P_y is the infimum, and the trace-0.2 cell s = 0.2 of
    # the member gamma = 0.2 sits 0.12 below it
    a_vec = 0.6 * EX
    fa = unbiased(a_vec).effects[cell[0]]
    fb = bloch_op(0.4, 0.4 * EY)
    c = gamma_family_member(a_vec, 0.4, EY, 0.2).effects[cell]
    ref = refute_greatest(c, fa, fb)
    assert ref is not None
    assert ref.violation == pytest.approx(0.12, abs=1e-9)
    assert np.abs(ref.witness.matrix - bloch_matrix(0.32, 0.32 * EY)).max() <= 1e-9
    assert in_lb_within(ref.witness, fa, fb, 1e-9)
    psi = ref.vector
    quad = float(np.real(psi.conj() @ (ref.witness.matrix - c.matrix) @ psi))
    assert quad == pytest.approx(ref.violation, abs=1e-9)


def test_invertible_cell_witness_is_closed_form(eig2x2_oracle):
    # the (1,0) cell of the gamma = 0.2 member is invertible and its parent
    # effects are full rank and incomparable, so lb(A, B) has no greatest
    # element.  The first candidate is lambda v v* with v maximizing
    # v* C^-1 v / v* A^-1 v: v = C w for (A - mu C) w = 0 at the larger root
    # mu of det(A - mu C) = det C mu^2 - s mu + det A = 0
    a_vec = 0.6 * EX
    fa = unbiased(a_vec).effects["1"]
    fb = bloch_op(1.6, -0.4 * EY)
    c = gamma_family_member(a_vec, 0.4, EY, 0.2).effects[("1", "0")]
    am, bm, cm = fa.matrix, fb.matrix, c.matrix
    assert eig2x2_oracle(cm)[0] > 0.05

    def det(m):
        return float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)

    s = float((am[0, 0] * cm[1, 1] + am[1, 1] * cm[0, 0] - 2.0 * am[0, 1] * cm[1, 0]).real)
    mu = (s + math.sqrt(s * s - 4.0 * det(cm) * det(am))) / (2.0 * det(cm))
    pencil = am - mu * cm
    v = cm @ np.array([pencil[0, 1], -pencil[0, 0]])
    forms = [float(np.real(v.conj() @ np.linalg.inv(m) @ v)) for m in (am, bm, cm)]
    assert forms[2] > max(forms[:2])  # lambda v v* is not below C
    want = eig2x2_oracle(np.outer(v, v.conj()) / max(forms[:2]) - cm)[1]

    ref = refute_greatest(c, fa, fb)
    assert ref is not None
    assert ref.violation == pytest.approx(want, abs=1e-9)
    assert in_lb_within(ref.witness, fa, fb, 1e-9)


def _parallel_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A : B = A (A + B)^+ B, a member of lb(A, B) (Anderson & Duffin)."""
    m = a @ np.linalg.pinv(a + b, hermitian=True) @ b
    return 0.5 * (m + m.conj().T)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(m)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def _verdicts_agree(c, a, b, seed):
    """refute_greatest on (C, A, B), with every refutation re-checked, and
    its verdict compared under swapping A and B and under U . U*."""
    ops = [HermitianOperator(m) for m in (c, a, b)]
    ref = refute_greatest(*ops)
    if ref is not None:
        d = ref.witness
        assert in_lb_within(d, ops[1], ops[2], 1e-9)
        assert ref.violation > EPS
        psi = ref.vector
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        quad = float(np.real(psi.conj() @ (d.matrix - c) @ psi))
        assert quad == pytest.approx(ref.violation, abs=1e-9)
    assert (refute_greatest(ops[0], ops[2], ops[1]) is None) == (ref is None)
    u = random_unitary(c.shape[0], np.random.default_rng([19, seed]))
    turned = [HermitianOperator(u @ m @ u.conj().T) for m in (c, a, b)]
    assert (refute_greatest(*turned) is None) == (ref is None)
    return ref


@settings(max_examples=60)
@given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_greatest_decision_is_exact_and_frame_free(dim, drop, seed):
    rng = np.random.default_rng([21, seed])
    # random effects A, B; A loses up to dim - 1 eigenvalues
    a = random_effect(dim, rng).matrix
    w, u = np.linalg.eigh(a)
    w[: min(drop, dim - 1)] = 0.0
    a = (u * w) @ u.conj().T
    b = random_effect(dim, rng).matrix
    # C = X^1/2 R X^1/2 <= X = A : B.  On S the parallel sum sits strictly
    # below A' and B', so C is never the infimum and must be refuted
    root = _psd_sqrt(_parallel_sum(a, b))
    c = root @ random_effect(dim, rng).matrix @ root
    assert _verdicts_agree(c, a, b, seed) is not None

    # A = V A' V* + P, B = V B' V* + Q with A' <= B' and P, Q, S = ran V
    # mutually orthogonal: A' and B' are the compressed shorts on
    # S = ran A cap ran B, and C = V A' V* is the infimum
    k = int(rng.integers(1, dim + 1))
    extra_a = int(rng.integers(0, dim - k + 1))
    extra_b = int(rng.integers(0, dim - k - extra_a + 1))
    frame = random_unitary(dim, rng)
    v = frame[:, :k]
    pa = frame[:, k : k + extra_a]
    pb = frame[:, k + extra_a : k + extra_a + extra_b]

    def positive(basis, lo, hi):
        r = random_unitary(basis.shape[1], rng)
        m = (r * rng.uniform(lo, hi, basis.shape[1])) @ r.conj().T
        return basis @ m @ basis.conj().T

    low = positive(v, 0.1, 0.5)
    bump = positive(v, 0.0, 0.4)
    if k > 1 and rng.integers(0, 2):
        bump = np.outer(v[:, 0], v[:, 0].conj()) * 0.3  # equal on part of S
    a = low + positive(pa, 0.1, 1.0)
    b = low + bump + positive(pb, 0.1, 1.0)
    assert _verdicts_agree(low, a, b, seed) is None


# ---------------------------------------------------------------------------
# maximality probe
# ---------------------------------------------------------------------------


def test_probe_zero_below_half_identities():
    half = HermitianOperator(0.5 * np.eye(2))
    report = maximality_probe(HermitianOperator(np.zeros((2, 2))), half, half)
    assert report.verdict == "NOT_MAXIMAL"
    assert report.trace_gain == pytest.approx(1.0, abs=1e-6)
    d = report.witness
    assert in_lb_within(d, half, half, 1e-8)
    assert loewner_leq_within(HermitianOperator(np.zeros((2, 2))), d, 1e-9)
    assert d.trace() > report.eps
    # a two-dimensional shared range goes to the barrier solve
    assert report.iterations > 0
    assert report.to_json()["iterations"] == report.iterations


def test_probe_gain_below_commuting_bounds_is_sum_of_minima():
    # A and B share the eigenbasis of a random frame and their ranges meet in
    # two dimensions; every X <= A, B has <e_i, X e_i> <= min(a_i, b_i), and
    # X = diag(min(a_i, b_i)) attains it, so the largest gain is 0.4 + 0.3
    u = random_unitary(3, np.random.default_rng(23))
    a = HermitianOperator((u * np.array([0.7, 0.3, 0.0])) @ u.conj().T)
    b = HermitianOperator((u * np.array([0.4, 0.6, 0.0])) @ u.conj().T)
    report = maximality_probe(HermitianOperator(np.zeros((3, 3))), a, b)
    assert report.verdict == "NOT_MAXIMAL"
    assert report.trace_gain == pytest.approx(0.7, abs=1e-8)
    assert report.iterations > 0
    assert in_lb_within(report.witness, a, b, 1e-9)


def test_probe_self_bounds_are_maximal():
    c = bloch_op(0.8, 0.3 * EX)
    report = maximality_probe(c, c, c)
    assert report.verdict == "MAXIMAL_WITHIN"
    assert report.trace_gain <= 1e-6
    assert report.witness is None


def test_gamma_family_corner_cell_is_not_maximal():
    # interior member gamma = 0.2 of the family with |a| = 0.6, beta = 0.4:
    # effects below both parents along b_hat are s*P_b with s <= (1-|a|^2)/2,
    # so the achievable trace gain at the corner is 0.32 - 0.2 = 0.12
    a_vec = 0.6 * EX
    g = gamma_family_member(a_vec, 0.4, EY, 0.2)
    fa = unbiased(a_vec).effects["1"]
    fb = bloch_op(0.4, 0.4 * EY)
    c = g.effects[("1", "1")]
    report = maximality_probe(c, fa, fb)
    assert report.verdict == "NOT_MAXIMAL"
    assert report.trace_gain == pytest.approx(0.12, abs=1e-9)
    assert report.iterations == 0  # a one-dimensional shared range: closed form
    d = report.witness
    assert in_lb_within(d, fa, fb, 1e-12)
    assert loewner_leq_within(c, d, 1e-12)
    assert d.trace() - c.trace() == pytest.approx(report.trace_gain, abs=1e-12)


def test_boundary_corner_cell_is_maximal(boundary_setup):
    a_obs, b_obs, g = boundary_setup
    report = maximality_probe(
        g.effects[("1", "1")], a_obs.effects["1"], b_obs.effects["1"]
    )
    assert report.verdict == "MAXIMAL_WITHIN"
    assert report.trace_gain == 0.0
    assert report.iterations == 0


def _shared_range_cell(dim: int, shared: int, seed: int):
    """(C, A, B) with A - C and B - C positive on ranges that meet in exactly
    ``shared`` dimensions, in a random frame."""
    rng = np.random.default_rng([17, seed])
    u = random_unitary(dim, rng)
    common = [u[:, i] for i in range(shared)]
    extra_p = u[:, shared]
    extra_q = (u[:, shared] + u[:, shared + 1]) / math.sqrt(2.0)

    def positive_on(vectors):
        basis = np.array(vectors).T
        k = basis.shape[1]
        w = random_unitary(k, rng)
        m = (w * rng.uniform(0.2, 0.5, k)) @ w.conj().T
        return basis @ m @ basis.conj().T

    p = positive_on(common + [extra_p])
    q = positive_on(common + [extra_q])
    w = random_unitary(dim, rng)
    c = (w * rng.uniform(0.0, 0.3, dim)) @ w.conj().T
    return (HermitianOperator(m) for m in (c, c + p, c + q))


@settings(max_examples=40)
@given(st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_probe_verdict_follows_shared_range(shared, seed):
    c, a, b = _shared_range_cell(4, shared, seed)
    report = maximality_probe(c, a, b)
    assert report.verdict == ("NOT_MAXIMAL" if shared else "MAXIMAL_WITHIN")
    if shared == 0:
        assert report.trace_gain == 0.0
        assert report.iterations == 0
    else:
        d = report.witness
        assert in_lb_within(d, a, b, 1e-9)
        assert loewner_leq_within(c, d, 1e-9)
        assert d.trace() - c.trace() == pytest.approx(report.trace_gain, abs=1e-9)
    # the verdict and the gain do not depend on the frame
    u = random_unitary(4, np.random.default_rng([18, seed]))
    turned = maximality_probe(
        *(HermitianOperator(u @ m.matrix @ u.conj().T) for m in (c, a, b))
    )
    assert turned.verdict == report.verdict
    assert turned.trace_gain == pytest.approx(report.trace_gain, abs=1e-7)


def test_probe_requires_membership(boundary_setup):
    a_obs, b_obs, _ = boundary_setup
    with pytest.raises(ValueError, match="not in lb"):
        maximality_probe(b_obs.effects["1"], a_obs.effects["1"], a_obs.effects["1"])


# ---------------------------------------------------------------------------
# full audits
# ---------------------------------------------------------------------------


def test_audit_commuting_sharp_product_joint():
    def diag_obs(groups):
        effects = {}
        for label, idx in groups.items():
            m = np.zeros((3, 3))
            for k in idx:
                m[k, k] = 1.0
            effects[label] = HermitianOperator(m)
        return Observable(tuple(groups), effects)

    a = diag_obs({"0": (0,), "1": (1, 2)})
    b = diag_obs({"0": (0, 1), "1": (2,)})
    g = product_joint((a, b))
    audit = joint_observable_order_audit(g, a, b)
    assert all(cell.in_lb for cell in audit.cells.values())
    assert audit.all_greatest
    assert audit.all_maximal
    assert all(cell.maximality.trace_gain == 0.0 for cell in audit.cells.values())
    assert not audit.uniqueness_refuted
    assert audit.alternative_joint is None


def test_audit_boundary_joint_unique_but_not_greatest(boundary_setup):
    a_obs, b_obs, g = boundary_setup
    audit = joint_observable_order_audit(g, a_obs, b_obs)
    assert all(cell.in_lb for cell in audit.cells.values())
    assert not audit.all_greatest
    assert audit.cells[("1", "1")].greatest_refuted
    assert audit.all_maximal
    assert all(cell.maximality.trace_gain == 0.0 for cell in audit.cells.values())
    assert not audit.uniqueness_refuted
    assert audit.alternative_joint is None


def test_audit_gamma_family_member_refutes_uniqueness():
    a_vec = 0.6 * EX
    a_obs = unbiased(a_vec)
    b_obs = SimpleQubitObservable(BlochEffect(0.4, 0.4 * EY)).as_observable()
    g = gamma_family_member(a_vec, 0.4, EY, 0.2)
    audit = joint_observable_order_audit(g, a_obs, b_obs)
    assert audit.cells[("1", "1")].maximality.verdict == "NOT_MAXIMAL"
    assert not audit.all_maximal
    assert audit.uniqueness_refuted
    alt = audit.alternative_joint
    assert alt is not None
    assert validate(alt, tol=1e-6).passed
    for axis, parent in ((0, a_obs), (1, b_obs)):
        got = marginal(alt, axis)
        for x in parent.outcomes:
            dev = np.abs(got.effects[x].matrix - parent.effects[x].matrix).max()
            assert dev <= 1e-7
    assert max_cell_deviation(g, alt) > 1e-3


@pytest.mark.parametrize("v", [0.9 * EPS, 1.1 * EPS, 1e-5])
def test_audit_membership_keeps_its_threshold(v):
    # G(1, 1) = diag(-v, 0) passes validate at 1e-4 but is no effect, and it
    # puts the margins of G(1, 1), G(1, 0) and G(0, 1) at -v: every cell is
    # audited at v = 0.9 EPS; past EPS the three are outside their lb sets,
    # get neither decision, and greatestness is not claimed
    a_obs = SimpleQubitObservable(BlochEffect(0.6, 0.2 * EZ)).as_observable()
    b_obs = SimpleQubitObservable(BlochEffect(0.6, 0.2 * EX)).as_observable()
    g = joint_from_cell(a_obs, b_obs, np.diag([-v, 0.0]), "1", "1")
    assert validate(g, tol=1e-4).passed
    audit = joint_observable_order_audit(g, a_obs, b_obs)
    outside = {k for k, cell in audit.cells.items() if not cell.in_lb}
    assert outside == (set() if v < EPS else {("1", "1"), ("1", "0"), ("0", "1")})
    for cell in audit.cells.values():
        assert type(cell.in_lb) is bool
        assert (cell.maximality is not None) == cell.in_lb
        assert cell.in_lb or cell.refutation is None
    if v > EPS:
        assert not audit.all_greatest
        assert not audit.all_maximal
        assert not audit.uniqueness_refuted


def test_all_greatest_requires_every_cell_in_lb():
    # A = B = {I, 0, 0}; four cells of +-1e-5 |1><1| keep the marginals exact
    # and pass validate at 1e-4, but lie outside lb(0, 0) = {0}
    labels = ("0", "1", "2")
    zero, proj = np.zeros((2, 2)), np.diag([0.0, 1.0])
    parent = Observable(
        labels,
        {x: HermitianOperator(np.eye(2) if x == "0" else zero) for x in labels},
    )
    cells = {(x, y): zero for x in labels for y in labels}
    cells[("0", "0")] = np.eye(2)
    cells[("1", "1")] = cells[("2", "2")] = -1e-5 * proj
    cells[("1", "2")] = cells[("2", "1")] = 1e-5 * proj
    g = ProductObservable(
        (labels, labels), {k: HermitianOperator(m) for k, m in cells.items()}
    )
    assert validate(g, tol=1e-4).passed
    audit = joint_observable_order_audit(g, parent, parent)
    outside = {k for k, cell in audit.cells.items() if not cell.in_lb}
    assert outside == {("1", "1"), ("2", "2"), ("1", "2"), ("2", "1")}
    assert not any(cell.greatest_refuted for cell in audit.cells.values())
    assert not audit.all_greatest
    assert audit.to_json()["all_greatest"] is False


def test_witness_rechecks_allow_parents_above_identity():
    # parents up to EPS above I pass validate and the precondition, and a
    # witness may reach them: the re-checks test D, A - D, B - D and X = D - C,
    # P - X, Q - X, not D <= I or X <= I
    d = 4e-7
    cells = {
        ("0", "0"): np.diag([1.0 + 2.0 * d, 0.0]),
        ("0", "1"): np.diag([-d, 0.5]),
        ("1", "0"): np.diag([-d, 0.5]),
        ("1", "1"): np.zeros((2, 2)),
    }
    g = ProductObservable((("0", "1"),) * 2, {k: HermitianOperator(m) for k, m in cells.items()})
    parent = marginal(g, 0)
    assert validate(g, tol=1e-6).passed and validate(parent, tol=1e-6).passed
    ref = refute_greatest(g.effects[("0", "0")], parent.effects["0"], parent.effects["0"])
    assert ref is not None and ref.violation == pytest.approx(0.5)
    audit = joint_observable_order_audit(g, parent, marginal(g, 1))
    assert audit.cells[("0", "0")].greatest_refuted
    assert not audit.all_greatest

    a, b = HermitianOperator(np.diag([1.0, 0.5])), HermitianOperator(np.diag([1.0, 0.3]))
    report = maximality_probe(HermitianOperator(np.diag([-5e-7, 0.1])), a, b)
    assert report.verdict == "NOT_MAXIMAL"
    assert report.trace_gain > 1.0
    assert in_lb_within(report.witness, a, b, 2.0 * EPS)


def test_audit_rejects_marginal_mismatch(boundary_setup):
    a_obs, b_obs, g = boundary_setup
    wrong = unbiased(0.55 * EX)
    with pytest.raises(ValueError, match="marginal mismatch on axis 0"):
        joint_observable_order_audit(g, wrong, b_obs)


def test_audit_rejects_foreign_labels(boundary_setup):
    a_obs, b_obs, g = boundary_setup
    relabeled = Observable(
        ("lo", "hi"),
        {"hi": a_obs.effects["1"], "lo": a_obs.effects["0"]},
    )
    with pytest.raises(ValueError, match="labels do not match"):
        joint_observable_order_audit(g, relabeled, b_obs)


def test_audit_rejects_a_joint_that_is_not_a_two_parent_product(boundary_setup):
    a_obs, b_obs, _ = boundary_setup
    with pytest.raises(ValueError, match="joint observable of two parents"):
        joint_observable_order_audit(a_obs, a_obs, b_obs)
