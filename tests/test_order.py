"""Lower-bound set analysis: membership, greatest refutation, maximality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmeas import (
    BlochEffect,
    HermitianOperator,
    LowerBoundQuery,
    Observable,
    OrderSearchOptions,
    SimpleQubitObservable,
    bloch_matrix,
    boundary_joint,
    gamma_family_member,
    identity,
    in_lb,
    joint_agreement,
    joint_observable_order_audit,
    loewner_leq,
    marginal,
    maximality_probe,
    product_joint_commuting,
    random_unitary,
    refute_greatest,
    validate,
    zero,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])

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
    assert in_lb(LowerBoundQuery(a, b, zero(2)))


def test_joint_cells_lie_below_their_marginals(boundary_setup):
    a_obs, b_obs, g = boundary_setup
    for (x, y), e in g.effects.items():
        assert in_lb(LowerBoundQuery(a_obs.effects[x], b_obs.effects[y], e, 1e-12))


def test_membership_is_a_real_constraint():
    a = unbiased(L * EX).effects["1"]
    b = unbiased(L * EY).effects["1"]
    # a itself is not below b
    assert not in_lb(LowerBoundQuery(a, b, a))


def test_directed_effect_is_in_lb(boundary_setup):
    # C = (1/2)(gamma 1 + t(a+b).sigma) with t = 0.3, gamma = 0.4 sits below
    # both parent effects but not below the joint's corner cell
    a_obs, b_obs, g = boundary_setup
    c = bloch_op(0.4, 0.3 * (L * EX + L * EY))
    assert in_lb(LowerBoundQuery(a_obs.effects["1"], b_obs.effects["1"], c, 1e-12))
    assert not loewner_leq(c, g.effects[("1", "1")])
    # the violation is visible to a single unit vector
    diff = c.matrix - g.effects[("1", "1")].matrix
    top = float(np.linalg.eigvalsh(diff)[-1])
    assert top == pytest.approx(0.05, abs=1e-12)


def test_query_construction_errors():
    good = bloch_op(0.5, 0.2 * EX)
    with pytest.raises(ValueError, match="C is not an effect"):
        LowerBoundQuery(good, good, HermitianOperator(1.5 * np.eye(2)))
    with pytest.raises(ValueError, match="mixed dimensions"):
        LowerBoundQuery(good, good, HermitianOperator(0.5 * np.eye(3)))
    with pytest.raises(ValueError, match="A is not an effect"):
        LowerBoundQuery(HermitianOperator(-0.1 * np.eye(2)), good, good)


# ---------------------------------------------------------------------------
# greatest-element refutation
# ---------------------------------------------------------------------------


def test_refute_greatest_requires_membership(boundary_setup):
    a_obs, b_obs, _ = boundary_setup
    outsider = a_obs.effects["1"]  # not below the B effect
    with pytest.raises(ValueError, match="not in lb"):
        refute_greatest(outsider, a_obs.effects["1"], b_obs.effects["1"])


def test_boundary_corner_cell_is_not_greatest(boundary_setup):
    a_obs, b_obs, g = boundary_setup
    c = g.effects[("1", "1")]
    ref = refute_greatest(c, a_obs.effects["1"], b_obs.effects["1"])
    assert ref is not None
    # the first directed candidate already violates by 0.05
    assert ref.violation == pytest.approx(0.05, abs=1e-9)
    assert in_lb(
        LowerBoundQuery(a_obs.effects["1"], b_obs.effects["1"], ref.witness, 1e-9)
    )
    psi = ref.vector
    quad = float(np.real(psi.conj() @ (ref.witness.matrix - c.matrix) @ psi))
    assert quad == pytest.approx(ref.violation, abs=1e-9)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_projection_is_its_own_greatest_lower_bound():
    p = HermitianOperator(np.diag([1.0, 0.0]))
    assert refute_greatest(p, p, p) is None


def test_commuting_sharp_product_cells_survive_refutation():
    # diagonal projections: the product effect is the greatest element, so the
    # randomized search must exhaust
    a1 = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
    b1 = HermitianOperator(np.diag([1.0, 1.0, 0.0]))
    c = HermitianOperator(a1.matrix @ b1.matrix)
    assert refute_greatest(c, a1, b1, OrderSearchOptions(trials=400)) is None


# ---------------------------------------------------------------------------
# maximality probe
# ---------------------------------------------------------------------------


def test_probe_zero_below_half_identities():
    half = HermitianOperator(0.5 * np.eye(2))
    report = maximality_probe(zero(2), half, half)
    assert report.verdict == "NOT_MAXIMAL"
    assert report.trace_gain == pytest.approx(1.0, abs=1e-6)
    d = report.witness
    assert in_lb(LowerBoundQuery(half, half, d, 1e-8))
    assert loewner_leq(zero(2), d, 1e-9)
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
    report = maximality_probe(zero(3), a, b)
    assert report.verdict == "NOT_MAXIMAL"
    assert report.trace_gain == pytest.approx(0.7, abs=1e-8)
    assert report.iterations > 0
    assert in_lb(LowerBoundQuery(a, b, report.witness, 1e-9))


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
    assert in_lb(LowerBoundQuery(fa, fb, d, 1e-12))
    assert loewner_leq(c, d, 1e-12)
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
        assert in_lb(LowerBoundQuery(a, b, d, 1e-9))
        assert loewner_leq(c, d, 1e-9)
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
    g = product_joint_commuting(a, b)
    audit = joint_observable_order_audit(g, a, b, OrderSearchOptions(trials=150))
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
    assert not joint_agreement(g, alt, tol=1e-3)


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
