"""Joint-measurability decision engine: routing, witnesses, verdicts."""

import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jointmeas
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_dual_certificate, identity, spread_axes
from jointmeas import (
    BlochEffect,
    FeasibilityOptions,
    FeasibilityProblem,
    FeasibilityReport,
    HermitianOperator,
    Observable,
    SimpleQubitObservable,
    Verdict,
    boundary_joint,
    busch_criterion,
    decide,
    decide_pair_qubit_numeric,
    joint_from_cell,
    joint_observable_order_audit,
    liu_criterion,
    max_marginal_deviation,
    molnar_criterion,
    pairwise_vs_global,
    partition_compatibility_matrix,
    qubit_pair_criterion,
    random_commuting_sharp_pair,
    validate,
    witness_residual,
)
from jointmeas.bloch import _norm, bloch_matrix
from jointmeas import feasibility
from jointmeas.feasibility import (
    MAX_BARRIER_VARIABLES,
    WITNESS_TOL,
    _bloch_commute,
    _bloch_forms,
    _decide_by_robustness,
    _signed_sum_cells,
)
from jointmeas.observables import (
    STRUCTURE_TOL,
    VALIDATE_TOL,
    _marginal_map,
    commute,
    designation_order,
    structure_flags,
)
from jointmeas.operators import PAULI, barrier_maximize, opnorm
from jointmeas.sampling import random_unitary

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def unbiased(vec) -> Observable:
    return SimpleQubitObservable(BlochEffect(1.0, vec)).as_observable()


def coin(p: float, dim: int = 2) -> Observable:
    return Observable(("0", "1"), {"1": identity(dim, p), "0": identity(dim, 1.0 - p)})


def _qubit(alpha, vec, labels=("0", "1"), swap=False) -> Observable:
    """(alpha, vec) on labels[1] and its complement on labels[0], or the
    other way round with ``swap``."""
    e = BlochEffect(alpha, vec)
    effects = [e.complement().to_operator(), e.to_operator()]
    if swap:
        effects.reverse()
    return Observable(labels, dict(zip(labels, effects)))


def assert_witness_ok(report, parents, tol):
    g = report.witness
    assert g is not None
    assert validate(g, tol=max(tol, 1e-9)).passed
    assert witness_residual(g, parents) <= 10 * tol


# ---------------------------------------------------------------------------
# dispatch route 1: pairwise commuting families
# ---------------------------------------------------------------------------


def test_commuting_sharp_pair_product_route():
    rng = np.random.default_rng(7)
    a, b = random_commuting_sharp_pair(3, rng)
    report = decide(FeasibilityProblem((a, b)))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "commuting"
    assert report.residual <= 1e-12
    assert report.iterations == 0
    assert_witness_ok(report, (a, b), 1e-10)


def test_commuting_sharp_product_witness_matches_operator_products():
    # diagonal parents make G(x,y) = A(x) B(y) checkable entrywise
    def diag_obs(groups):
        effects = {}
        for label, idx in groups.items():
            m = np.zeros((3, 3))
            for k in idx:
                m[k, k] = 1.0
            effects[label] = HermitianOperator(m)
        return Observable(tuple(groups), effects)

    a = diag_obs({"lo": (0,), "hi": (1, 2)})
    b = diag_obs({"even": (0, 2), "odd": (1,)})
    report = decide(FeasibilityProblem((a, b)))
    assert report.verdict is Verdict.FEASIBLE
    for x in a.outcomes:
        for y in b.outcomes:
            want = a.effects[x].matrix @ b.effects[y].matrix
            got = report.witness.effects[(x, y)].matrix
            assert np.allclose(got, want, atol=1e-12)


def test_trivial_coin_partner_always_feasible():
    # a scalar observable is compatible with anything, including unsharp
    # partners in higher dimension
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = h @ h.conj().T
    h = h / (np.trace(h).real * 1.5)  # eigenvalues well inside [0,1]
    e = HermitianOperator(h)
    partner = Observable(("0", "1"), {"1": e, "0": identity(3) - e})
    report = decide(FeasibilityProblem((coin(0.3, 3), partner)))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "commuting"
    assert_witness_ok(report, (coin(0.3, 3), partner), 1e-10)

    # spec'd qubit case through the pair solver as well
    numeric = decide_pair_qubit_numeric(coin(0.5), unbiased(0.8 * EX))
    assert numeric.verdict is Verdict.FEASIBLE


def _every_pair_commutes(parents) -> bool:
    """Route 1's rule from the spectral test: every pair of parents commutes."""
    return all(commute(a, b) for a, b in itertools.combinations(parents, 2))


def _near_the_edge(parents) -> bool:
    """Some ||[A, B]|| over effects of two parents, by ``eigvalsh``, lies
    within 1e-12 relative of STRUCTURE_TOL, where two readings may differ."""
    products = [
        ea.matrix @ eb.matrix
        for a, b in itertools.combinations(parents, 2)
        for ea in a.effects.values()
        for eb in b.effects.values()
    ]
    norms = [opnorm(1j * (ab - ab.conj().T)) for ab in products]
    return any(abs(v - STRUCTURE_TOL) <= 1e-12 * STRUCTURE_TOL for v in norms)


def _near_edge(rng) -> float:
    return 10.0 ** rng.uniform(-10.5, -7.5)


def _near_route_one_parent(rng, axis, off) -> Observable:
    """A two-outcome qubit parent along +-``axis``, possibly tilted towards
    ``off`` by a near-edge angle: near sharp, near scalar, unsharp, or the
    zero effect with the identity."""
    kind = rng.integers(4)
    tilt = _near_edge(rng) if rng.random() < 0.5 else 0.0
    direction = rng.choice([-1.0, 1.0]) * (axis + tilt * off) / math.hypot(1.0, tilt)
    if kind == 0:  # eigenvalues within about the defect of 0 and 1
        defect = _near_edge(rng) if rng.random() < 0.8 else 0.0
        alpha, length = 1.0 + rng.uniform(-1.0, 1.0) * defect, 1.0 - defect
    elif kind == 1:  # eigenvalues alpha / 2 +- length / 2
        alpha, length = rng.uniform(0.2, 1.8), _near_edge(rng)
    elif kind == 2:
        alpha, length = rng.uniform(0.6, 1.4), rng.uniform(0.1, 0.5)
    else:
        alpha, length = rng.choice([0.0, 2.0]), 0.0
    return _random_labels(rng, alpha, length * direction)


def _random_labels(rng, alpha, vec) -> Observable:
    labels = [("0", "1"), ("a", "b"), ("x", "1")][rng.integers(3)]
    return _qubit(alpha, vec, labels, swap=rng.random() < 0.5)


def _near_route_one_pair(rng) -> tuple:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    off = np.cross(axis, rng.standard_normal(3))
    off /= np.linalg.norm(off)
    return tuple(_near_route_one_parent(rng, axis, off) for _ in range(2))


def _near_route_one_triple(rng) -> tuple:
    """Unbiased parents along three orthogonal axes, near sharp, near scalar
    or unsharp.  Route 1 or eq6 decides it, or the barrier route where a
    near-scalar member's axis is read too coarsely for the orthogonality test."""
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    parents = []
    for axis in frame.T:
        kind = rng.integers(3)
        if kind == 0:  # eigenvalues (1 +- length) / 2, within about defect / 2 of 0 and 1
            length = 1.0 - (_near_edge(rng) if rng.random() < 0.8 else 0.0)
        elif kind == 1:
            length = _near_edge(rng)
        else:
            length = rng.uniform(0.1, 0.5)
        parents.append(_random_labels(rng, 1.0, rng.choice([-1.0, 1.0]) * length * axis))
    return tuple(parents)


@pytest.mark.parametrize(
    "draw, count", [(_near_route_one_pair, 2000), (_near_route_one_triple, 300)], ids=["pairs", "triples"]
)
def test_route_one_on_qubit_families_matches_the_spectral_test(draw, count):
    # near-edge sharpness defects, Bloch lengths of near-scalar effects and
    # (for pairs) off-axis tilts, log-uniform in [1e-10.5, 1e-7.5] around
    # STRUCTURE_TOL
    rng = np.random.default_rng(2024 + count)
    hits = misses = 0
    for _ in range(count):
        parents = draw(rng)
        if _near_the_edge(parents):
            continue
        expected = _every_pair_commutes(parents)
        assert (decide(FeasibilityProblem(parents)).reason == "commuting") is expected
        hits += expected
        misses += not expected
    assert min(hits, misses) >= count // 20


@pytest.mark.parametrize(
    "draw, count", [(_near_route_one_pair, 2000), (_near_route_one_triple, 300)], ids=["pairs", "triples"]
)
def test_bloch_commute_agrees_with_commute_on_near_edge_draws(draw, count):
    # route 1 reads commutation of a two-outcome qubit family from its Bloch
    # forms; pair by pair, that reading must be the spectral test's
    rng = np.random.default_rng(2024 + count)
    seen = set()
    for _ in range(count):
        for a, b in itertools.combinations(draw(rng), 2):
            if _near_the_edge((a, b)):
                continue
            expected = commute(a, b)
            assert _bloch_commute(_bloch_forms(a), _bloch_forms(b)) is expected
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("eps, reason", [(1.9e-9, "commuting"), (2.1e-9, "eq3")])
def test_route_one_commutation_edge_on_a_sharp_qubit_pair(eps, reason):
    # ||[A, B]|| = ||a x b|| / 2 = eps / 2 against STRUCTURE_TOL = 1e-9
    parents = (_qubit(1.0, EX), _qubit(1.0, np.array([0.5, eps, 0.0])))
    assert decide(FeasibilityProblem(parents)).reason == reason
    assert _every_pair_commutes(parents) is (reason == "commuting")


@pytest.mark.parametrize("delta, reason", [(1e-9, "commuting"), (3e-9, "eq3")])
def test_route_one_scalar_edge_on_a_qubit_pair(delta, reason):
    # a near-scalar (1, (delta, 0, 0)) against (1, 0.9 e_y): ||a x b|| / 2 =
    # 0.45 delta against STRUCTURE_TOL
    parents = (_qubit(1.0, delta * EX), _qubit(1.0, 0.9 * EY))
    assert decide(FeasibilityProblem(parents)).reason == reason
    assert _every_pair_commutes(parents) is (reason == "commuting")


def test_a_route_one_witness_beyond_the_residual_bound_goes_to_the_barrier_route():
    # both commute, but (1, (1 + 1e-6) e_z) is no effect: its product joint
    # has a cell eigenvalue -5e-7, five times WITNESS_TOL, and the barrier
    # route proves the exact input incompatible
    parents = (_qubit(1.0, EZ), _qubit(1.0, (1.0 + 1e-6) * EZ))
    report = decide(FeasibilityProblem(parents))
    assert report.verdict is Verdict.INFEASIBLE
    assert report.reason == "dual-certificate"
    assert report.margin == pytest.approx(5e-7, rel=1e-4)
    assert report.iterations == 10
    assert_dual_certificate(report, parents)
    # within the bound the product joint is kept: residual 3.75e-8
    parents = (_qubit(1.0, 0.5 * EZ), _qubit(1.0, (1.0 + 1e-7) * EZ))
    report = decide(FeasibilityProblem(parents))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "commuting"
    assert report.residual == pytest.approx(3.75e-8, rel=1e-6)
    assert witness_residual(report.witness, parents) == report.residual <= WITNESS_TOL


@pytest.mark.parametrize("family", [
    # a zero-effect partner (alpha = 0, a = 0) against an unsharp effect
    (_qubit(0.0, np.zeros(3)), _qubit(0.9, np.array([0.2, 0.3, 0.1]))),
    # four commuting sharp parents, on either outcome and under three label sets
    (_qubit(1.0, EZ), _qubit(1.0, -EZ, ("a", "b")), _qubit(1.0, EZ, ("x", "1"), swap=True),
     _qubit(1.0, EZ, swap=True)),
])
def test_route_one_takes_zero_effects_and_four_sharp_qubit_parents(family):
    report = decide(FeasibilityProblem(family))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "commuting"
    assert report.iterations == 0
    assert_witness_ok(report, family, 1e-12)


_MEMBER = st.tuples(st.booleans(), st.floats(0.05, 0.95), st.floats(0.0, 1.0), st.booleans())


@settings(max_examples=40)
@given(st.floats(0.0, 2.0), st.lists(_MEMBER, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_route_one_is_frame_order_and_label_free(scalar, members, seed):
    # a scalar member and one to three members along a common axis, each
    # sharp or unsharp with its own Bloch length, share of its effect band
    # and sign: every pair commutes
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    family = [_qubit(scalar, np.zeros(3))]
    for sharp, length, share, flip in members:
        sign = -1.0 if flip else 1.0
        if sharp:
            family.append(_qubit(1.0, sign * axis))
        else:
            family.append(_qubit(length + share * (2.0 - 2.0 * length), sign * length * axis))
    u = random_unitary(2, rng)
    variants = (
        tuple(family),
        tuple(_conjugate(p, u) for p in family),
        tuple(family[::-1]),
        tuple(_relabel(p) for p in family),
    )
    for parents in variants:
        report = decide(FeasibilityProblem(parents))
        assert report.verdict is Verdict.FEASIBLE
        assert report.reason == "commuting"
        assert report.iterations == 0
        assert validate(report.witness).passed
        assert witness_residual(report.witness, parents) <= 1e-12


def test_route_one_takes_commuting_unsharp_qubit_triples():
    # (1, e_z) against two unsharp effects along e_z: the unsharp pair holds
    # no sharp member, and the barrier route raised numpy's LinAlgError on 53
    # of these 108 triples when route 1 asked for one
    grid = itertools.product((0.9, 1.0, 1.1, 1.2), (0.2, 0.3, 0.5), (0.8, 1.0, 1.3), (-0.4, 0.25, 0.6))
    for alpha, c, beta, d in grid:
        family = (_qubit(1.0, EZ), _qubit(alpha, c * EZ), _qubit(beta, d * EZ))
        report = decide(FeasibilityProblem(family))
        assert report.verdict is Verdict.FEASIBLE
        assert report.reason == "commuting"
        assert_witness_ok(report, family, 1e-12)


@pytest.mark.parametrize("dim", [3, 4, 5])
@pytest.mark.parametrize("count", [2, 3])
def test_route_one_takes_commuting_unsharp_families(dim, count):
    # unsharp parents of two or three outcomes, diagonal in one random frame:
    # commute decides them, and none is sharp or scalar
    rng = np.random.default_rng([dim, count])
    u = random_unitary(dim, rng)
    family = []
    for _ in range(count):
        weights = rng.dirichlet(np.ones(rng.integers(2, 4)), size=dim)  # rows sum to 1
        effects = {str(x): HermitianOperator(u @ np.diag(w) @ u.conj().T) for x, w in enumerate(weights.T)}
        family.append(Observable(tuple(effects), effects))
    assert not any(any(structure_flags(p)) for p in family)
    report = decide(FeasibilityProblem(tuple(family)))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "commuting"
    assert report.iterations == 0
    assert_witness_ok(report, family, 1e-12)


def _designated(*forms) -> tuple:
    """Two-outcome qubit observables from the Bloch forms (alpha, a) of their
    designated effects."""
    return tuple(SimpleQubitObservable(BlochEffect(al, np.array(a))).as_observable() for al, a in forms)


def test_route_one_takes_four_parents_whose_ordered_product_is_not_hermitian():
    # every pair passes commute, yet the ordered product at ("1", "1", "1",
    # "0") has a skew part of 1.121e-9 > STRUCTURE_TOL, on which route 1 used
    # to raise
    family = _designated(
        (2 - 2e-9, (-1.5369641890579545e-09, -8.282372966253603e-10, 4.05135591741157e-10)),
        (0.9999999996968542, (0.07892747292026428, -0.10673931621323181, 0.991149418575905)),
        (0.9999999989305848, (0.07892747486782818, -0.10673931703838949, 0.9911494199338355)),
        (1.7e-9, (-8.481460819058564e-10, -1.4092417273739001e-09, -7.870425921991186e-10)),
    )
    assert all(validate(p).passed for p in family) and _every_pair_commutes(family)
    report = decide(FeasibilityProblem(family))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "commuting"
    assert validate(report.witness).passed
    assert witness_residual(report.witness, family) <= 1e-9


# ---------------------------------------------------------------------------
# dispatch route 2: analytic qubit criteria
# ---------------------------------------------------------------------------


def test_unbiased_orthogonal_infeasible_frozen_margin():
    l = 0.8
    a, b = unbiased(l * EX), unbiased(l * EY)
    report = decide(FeasibilityProblem((a, b)))
    assert report.verdict is Verdict.INFEASIBLE
    assert report.reason == "eq3"
    assert report.witness is None
    # |a+b| + |a-b| - 2 for orthogonal equal-length vectors is 2*l*sqrt(2) - 2
    assert report.margin == pytest.approx(2.0 * l * math.sqrt(2.0) - 2.0, abs=1e-12)


_U = np.array([0.6, 0.8, 0.0])  # not orthogonal to EX


@pytest.mark.parametrize("a, b, reason, criterion, args", [
    (_qubit(1.0, 0.8 * EX), _qubit(1.0, 0.8 * EY), "eq3", busch_criterion, (0.8 * EX, 0.8 * EY)),
    (_qubit(1.0, 0.6 * EX, ("a", "b")), _qubit(1.0, 0.6 * _U, ("x", "1"), swap=True),
     "eq3", busch_criterion, (0.6 * EX, -0.6 * _U)),
    (_qubit(0.6, 0.6 * EX), _qubit(0.7, 0.7 * _U), "eq4", molnar_criterion,
     (0.6 * EX, 0.7 * _U)),
    # rank one on the complement outcome: alpha = 2 - ||a|| puts (||a||, -a) on "0"
    (_qubit(1.4, 0.6 * EX), _qubit(0.7, 0.7 * _U), "eq4", molnar_criterion,
     (-0.6 * EX, 0.7 * _U)),
    (_qubit(0.3, 0.3 * EX, ("a", "b"), swap=True), _qubit(1.5, 0.5 * _U, ("x", "1")),
     "eq4", molnar_criterion, (0.3 * EX, -0.5 * _U)),
    (_qubit(1.0, 0.99 * EX), _qubit(1.2, 0.3 * EY), "eq5", liu_criterion,
     (0.99 * EX, 1.2, 0.3 * EY)),
    # the unbiased member second
    (_qubit(1.2, 0.3 * EY), _qubit(1.0, 0.9 * EX), "eq5", liu_criterion,
     (0.9 * EX, 1.2, 0.3 * EY)),
    (_qubit(0.8, 0.3 * EY, ("a", "b")), _qubit(1.0, 0.9 * EX, ("x", "1"), swap=True),
     "eq5", liu_criterion, (-0.9 * EX, 0.8, 0.3 * EY)),
    (_qubit(0.9, np.array([0.2, 0.3, 0.1])), _qubit(1.2, np.array([0.0, 0.3, 0.1])),
     "qubit-pair", qubit_pair_criterion, (0.9, np.array([0.2, 0.3, 0.1]), 1.2,
                                          np.array([0.0, 0.3, 0.1]))),
    (_qubit(0.9, 0.8 * _U, ("a", "b")), _qubit(0.7, 0.5 * EY, ("x", "1"), swap=True),
     "qubit-pair", qubit_pair_criterion, (0.9, 0.8 * _U, 1.3, -0.5 * EY)),
])
@pytest.mark.parametrize("swap_parents", [False, True])
def test_qubit_pair_route_and_margin_are_pinned(a, b, reason, criterion, args, swap_parents):
    # the criterion decide names, and its margin on the designated effects
    # ("1" if present, else the last outcome) or, for eq4, on the rank-one
    # effect; every margin here is invariant under swapping the parents
    parents = (b, a) if swap_parents else (a, b)
    report = decide(FeasibilityProblem(parents))
    expected = criterion(*args)
    assert report.reason == reason
    assert report.margin == pytest.approx(expected.margin, abs=1e-12)
    assert report.verdict is (Verdict.FEASIBLE if expected.jm else Verdict.INFEASIBLE)


def test_unbiased_orthogonal_interior_numeric_witness():
    a, b = unbiased(0.5 * EX), unbiased(0.5 * EY)
    opts = FeasibilityOptions()
    report = decide(FeasibilityProblem((a, b), opts))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "eq3"
    assert report.margin < 0
    assert_witness_ok(report, (a, b), opts.tol)
    assert witness_residual(report.witness, (a, b)) <= 1e-9


def test_unbiased_boundary_uses_closed_form_witness():
    l = 1.0 / math.sqrt(2.0)
    a, b = unbiased(l * EX), unbiased(l * EY)
    report = decide(FeasibilityProblem((a, b)))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "eq3"
    assert abs(report.margin) <= 1e-9
    # the planar search stops at its first grid evaluation: s = t = 1/2 is a
    # grid point, and there the boundary joint has zero ellipse excess
    assert report.iterations == 1
    closed = boundary_joint(l * EX, l * EY)
    for key in closed.effects:
        got = report.witness.effects[key].matrix
        assert np.allclose(got, closed.effects[key].matrix, atol=1e-12)
    assert witness_residual(report.witness, (a, b)) <= 1e-12


@pytest.mark.parametrize(
    "avec, bvec",
    [(0.6 * EX, 0.8 * EY), (np.array([0.3, 0.7, 0.0]), np.array([0.3, -0.7, 0.0]))],
)
def test_boundary_witness_is_the_closed_form_relabeled(avec, bvec):
    # outcome labels other than "0"/"1": the designated outcome is "plus"
    def labeled(vec):
        one = SimpleQubitObservable(BlochEffect(1.0, vec)).as_observable()
        return Observable(("minus", "plus"), {"plus": one.effects["1"], "minus": one.effects["0"]})

    report = decide(FeasibilityProblem((labeled(avec), labeled(bvec))))
    assert report.verdict is Verdict.FEASIBLE and report.reason == "eq3"
    closed = boundary_joint(avec, bvec)
    name = {"1": "plus", "0": "minus"}
    for (i, j), effect in closed.effects.items():
        got = report.witness.effects[(name[i], name[j])].matrix
        assert np.abs(got - effect.matrix).max() <= 1e-12


_LABEL_PAIRS = [("0", "1"), ("1", "0"), ("minus", "plus"), ("up", "down")]


@settings(max_examples=60)
@given(
    st.floats(0.05, 1.95),
    st.floats(0.1, math.pi - 0.1),
    st.integers(0, 2**32 - 1),
    st.sampled_from(_LABEL_PAIRS),
    st.booleans(),
    st.booleans(),
)
def test_eq3_boundary_witness_is_the_closed_form(u, phi, seed, labels, flip_a, flip_b):
    # |a + b| = u and |a - b| = 2 - u put (a, b) on the eq3 boundary, with
    # unequal lengths unless phi = pi / 2; the joint there is unique, so the
    # planar search must return boundary_joint in every frame and labeling
    rot = _rotation(seed)
    p = u * EX
    q = (2.0 - u) * (math.cos(phi) * EX + math.sin(phi) * EY)
    avec, bvec = rot @ (0.5 * (p + q)), rot @ (0.5 * (p - q))

    def labeled(vec, flip):
        one = unbiased(vec)
        plus, minus = labels[::-1] if flip else labels
        obs = Observable(labels, {plus: one.effects["1"], minus: one.effects["0"]})
        return obs, {"1": plus, "0": minus}

    (a, na), (b, nb) = labeled(avec, flip_a), labeled(bvec, flip_b)
    report = decide(FeasibilityProblem((a, b)))
    assert report.verdict is Verdict.FEASIBLE and report.reason == "eq3"
    closed = boundary_joint(avec, bvec)
    for (i, j), effect in closed.effects.items():
        got = report.witness.effects[(na[i], nb[j])].matrix
        assert np.abs(got - effect.matrix).max() <= 1e-12
    assert validate(report.witness, tol=1e-12).passed
    assert witness_residual(report.witness, (a, b)) <= 1e-12


def test_numeric_pair_search_undetermined_inside_infeasible_region():
    a, b = unbiased(0.72 * EX), unbiased(0.72 * EY)
    report = decide(FeasibilityProblem((a, b)))
    assert report.verdict is Verdict.INFEASIBLE
    assert report.reason == "eq3"

    numeric = decide_pair_qubit_numeric(a, b)
    assert numeric.verdict is Verdict.UNDETERMINED
    assert numeric.witness is None
    assert numeric.residual > 1e-4  # genuinely violated, not a boundary artifact
    assert numeric.iterations > 0


def test_orthogonal_triple_analytic_infeasibility():
    l = 0.6
    parents = tuple(unbiased(l * v) for v in (EX, EY, EZ))
    report = decide(FeasibilityProblem(parents))
    assert report.verdict is Verdict.INFEASIBLE
    assert report.reason == "eq6"
    assert report.margin == pytest.approx(3 * l * l - 1.0, abs=1e-12)


def test_an_orthogonal_triple_outside_the_input_slack_is_decided():
    # ||a|| = 1 + 1e-8 passes validate at decide's tol but not the eq6 input
    # check, which used to raise; the barrier route answers instead
    parents = (unbiased((1.0 + 1e-8) * EX), unbiased(0.3 * EY), unbiased(0.3 * EZ))
    assert validate(parents[0], tol=FeasibilityOptions().tol).passed
    report = decide(FeasibilityProblem(parents))
    assert report.verdict is Verdict.INFEASIBLE
    assert_dual_certificate(report, parents)


# ---------------------------------------------------------------------------
# general sets: the barrier route
# ---------------------------------------------------------------------------


def test_generic_triple_is_infeasible_with_dual_certificate():
    # non-orthogonal long vectors dodge every criterion hypothesis, so the
    # barrier route decides them, and its INFEASIBLE carries a certificate
    parents = (
        unbiased(0.95 * EX),
        unbiased(0.95 * EY),
        unbiased(0.95 * np.array([0.6, 0.8, 0.0])),
    )
    report = decide(FeasibilityProblem(parents))
    assert report.verdict is Verdict.INFEASIBLE
    assert report.witness is None
    assert report.iterations > 1
    assert_dual_certificate(report, parents)


def test_generic_search_finds_triple_witness_in_feasible_region():
    opts = FeasibilityOptions(tol=1e-7)
    # an orthogonal triple below the 1/sqrt(3) threshold: eq6 verdict with
    # the closed-form signed-sum witness, no search
    l = 0.5
    parents = tuple(unbiased(l * v) for v in (EX, EY, EZ))
    report = decide(FeasibilityProblem(parents, opts))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "eq6"
    assert report.iterations == 0
    assert_witness_ok(report, parents, opts.tol)
    # a non-orthogonal unbiased triple whose signed sums are all shorter than
    # 0.85: no criterion applies, so the witness comes from the barrier route
    axes = (EX, np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.6, 0.8]))
    vecs = [0.35 * v for v in axes]
    assert max(
        np.linalg.norm(s1 * vecs[0] + s2 * vecs[1] + s3 * vecs[2])
        for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
    ) < 0.85
    parents = tuple(unbiased(v) for v in vecs)
    report = decide(FeasibilityProblem(parents, opts))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason is None
    assert report.iterations > 0
    assert_witness_ok(report, parents, opts.tol)


@pytest.mark.parametrize("seed", range(6))
def test_orthogonal_triple_gets_closed_form_witness(seed):
    # rotated frames, lengths up to the eq6 threshold, and relabeled outcomes
    # with the designated outcome either first or last
    rng = np.random.default_rng([31, seed])
    rot = _rotation(seed)
    lens = rng.uniform(0.2, 1.0, 3)
    scale = 1.0 / math.sqrt(3.0) - 1e-9 if seed < 3 else rng.uniform(0.1, 0.57)
    lens *= scale * math.sqrt(3.0) / float(np.linalg.norm(lens))
    parents = []
    for k, labels in enumerate((("0", "1"), ("up", "dn"), ("x", "y"))):
        if seed % 2:
            labels = labels[::-1]
        effects = SimpleQubitObservable(
            BlochEffect(1.0, lens[k] * rot[:, k])
        ).as_observable().effects
        parents.append(Observable(labels, {labels[0]: effects["0"], labels[1]: effects["1"]}))
    parents = tuple(parents)
    report = decide(FeasibilityProblem(parents))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "eq6"
    assert report.iterations == 0
    assert validate(report.witness, tol=1e-12).passed
    assert witness_residual(report.witness, parents) <= 1e-12
    assert report.residual <= 1e-12


def noisy_fourier_mubs(d: int, v: float, seed: int = 0, count: int = 2):
    """The computational basis and count - 1 Fourier-type bases of dimension
    d (columns w^(s k^2 + j k) / sqrt d for s = 0, 1, ...), mutually unbiased
    for prime d, in a random frame, each mixed with white noise at
    visibility v."""
    u = random_unitary(d, np.random.default_rng([47, d, seed]))
    w = np.exp(2j * math.pi / d)
    labels = tuple(str(i) for i in range(d))

    def noisy(basis):
        vecs = u @ basis
        return Observable(labels, {
            x: HermitianOperator(v * np.outer(vecs[:, i], vecs[:, i].conj()) + (1.0 - v) * np.eye(d) / d)
            for i, x in enumerate(labels)
        })

    fourier = [
        np.array([[w ** (s * k * k + j * k) for j in range(d)] for k in range(d)]) / math.sqrt(d)
        for s in range(count - 1)
    ]
    return (noisy(np.eye(d)), *map(noisy, fourier))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("offset", [-1e-3, 1e-3])
def test_noisy_mubs_flip_at_the_critical_visibility(d, offset):
    # Carmeli, Heinosaari & Toigo, PRA 85, 012109 (2012): jointly measurable
    # exactly up to v_c = (1 + 1 / (1 + sqrt d)) / 2, so eta* = v_c / v
    vc = 0.5 * (1.0 + 1.0 / (1.0 + math.sqrt(d)))
    parents = noisy_fourier_mubs(d, vc + offset)
    tol = FeasibilityOptions().tol
    report = decide(FeasibilityProblem(parents))
    if offset < 0:
        assert report.verdict is Verdict.FEASIBLE
        assert validate(report.witness, tol=tol).passed
        assert max_marginal_deviation(report.witness, parents) <= tol
    else:
        assert report.verdict is Verdict.INFEASIBLE
        assert_dual_certificate(report, parents)
        # the certified bound 1 - margin on eta* cannot undercut the truth
        assert report.margin <= 1.0 - vc / (vc + offset) + 1e-9


def critical_visibility(d: int) -> float:
    return 0.5 * (1.0 + 1.0 / (1.0 + math.sqrt(d)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32 - 1), st.floats(1e-3, 0.1))
def test_noisy_mub_certificates_bracket_the_robustness(d, seed, offset):
    # a certificate from any iterate, not only a centered one, bounds eta* =
    # v_c / v from above by 1 - margin, and its iterate bounds it from below
    vc = critical_visibility(d)
    parents = noisy_fourier_mubs(d, vc + offset, seed)
    report = decide(FeasibilityProblem(parents))
    assert_dual_certificate(report, parents)
    eta = vc / (vc + offset)
    assert 1.0 - report.margin - report.gap <= eta <= 1.0 - report.margin + 1e-9


# ids name the instance, not the pinned count, so a re-pin keeps the test's name
@pytest.mark.parametrize("d, v, count, verdict, iterations", [
    pytest.param(4, critical_visibility(4) - 0.05, 2, Verdict.FEASIBLE, 13, id="mub4-in"),
    pytest.param(4, critical_visibility(4) + 0.05, 2, Verdict.INFEASIBLE, 7, id="mub4-out"),
    # three MUBs turn incompatible at v = 0.568579, four at v = 0.481763
    pytest.param(3, 0.60, 3, Verdict.INFEASIBLE, 12, id="three-mub3"),
    pytest.param(3, 0.50, 4, Verdict.INFEASIBLE, 11, id="four-mub3"),
])
def test_barrier_verdicts_and_steps_are_pinned(d, v, count, verdict, iterations):
    # iterations count the start test and the Newton steps
    parents = noisy_fourier_mubs(d, v, count=count)
    report = decide(FeasibilityProblem(parents))
    assert report.verdict is verdict
    assert report.iterations == iterations
    if verdict is Verdict.FEASIBLE:
        assert report.reason is None and report.gap is None
        assert validate(report.witness, tol=WITNESS_TOL).passed
        assert witness_residual(report.witness, parents) <= WITNESS_TOL
    else:
        assert_dual_certificate(report, parents)
        assert report.to_json()["gap"] == report.gap


def test_an_oversized_barrier_family_is_refused_before_anything_is_built(monkeypatch):
    # twelve two-outcome qubit parents need n = 1 + (4096 - 24 + 11) 4 = 16333
    # Newton variables: a 2.1 GB Hessian after a 134 MB SVD of the marginal map
    def refuse(*_, **__):
        raise AssertionError("allocated before the size bound")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(feasibility, "_marginal_map", refuse)
    monkeypatch.setattr(feasibility, "barrier_maximize", refuse)
    parents = tuple(unbiased(0.3 * v) for v in spread_axes(12))
    bound = f"the barrier route needs 16333 variables, above its bound {MAX_BARRIER_VARIABLES}"
    with pytest.raises(ValueError, match=bound):
        decide(FeasibilityProblem(parents))


def test_three_mubs_in_dimension_five_stay_under_the_size_bound(monkeypatch):
    # n = 1 + (125 - 15 + 2) 25 = 2801, the largest family any use needs; the
    # solve itself is left out to keep the suite fast
    class Reached(Exception):
        pass

    def reached(c, *_):
        raise Reached(len(c))

    monkeypatch.setattr(feasibility, "barrier_maximize", reached)
    with pytest.raises(Reached) as info:
        decide(FeasibilityProblem(noisy_fourier_mubs(5, 0.5, count=3)))
    assert info.value.args == (2801,) and 2801 <= MAX_BARRIER_VARIABLES


@pytest.mark.parametrize("offset", [-0.05, 0.05])
def test_zero_effect_gets_zero_cells(offset):
    vc = 0.5 * (1.0 + 1.0 / (1.0 + math.sqrt(3.0)))
    a, b = noisy_fourier_mubs(3, vc + offset)
    padded = Observable(("0", "1", "2", "none"), {**b.effects, "none": HermitianOperator(np.zeros((3, 3)))})
    plain = decide(FeasibilityProblem((a, b)))
    report = decide(FeasibilityProblem((a, padded)))
    assert report.verdict is plain.verdict is not Verdict.UNDETERMINED
    if report.verdict is Verdict.FEASIBLE:
        for x in a.outcomes:
            assert not report.witness.effects[(x, "none")].matrix.any()
        assert validate(report.witness, tol=1e-9).passed
        assert witness_residual(report.witness, (a, padded)) <= FeasibilityOptions().tol
    else:
        assert_dual_certificate(report, (a, padded))


# the Newton system turns singular in the last barrier steps, where numpy's
# solve raised LinAlgError: the iterate is settled instead
_SINGULAR_PAIR = (
    (1.000000001453275, (0.12458641016622927, 0.05603677882002613, 0.99062510675941)),
    (1.9999999888719222, (8.19216528821268e-09, 4.463982219176062e-09, -1.075713518261523e-08)),
)
_SINGULAR_TRIPLE = (
    (1.0, (0.0, 0.0, 1.0)),
    (1.1639662057892899, (-2.334015911021174e-07, 9.605142801955277e-07, 0.3356539830988674)),
    (1.0780541198712057, (3.035908750980355e-08, -1.2812993431056658e-07, 0.20359563031082084)),
)


@pytest.mark.parametrize("forms, verdict", [
    (_SINGULAR_PAIR, Verdict.FEASIBLE),
    (_SINGULAR_TRIPLE, Verdict.FEASIBLE),
    # the barrier ended at its start eta = 0, where H / eta was 0 / 0, and
    # gave UNDETERMINED; the first effect's share 1.5e-9 now counts as zero
    ([(2.901280705694408e-09, (3.1149762681278485e-10, 4.618403207213446e-09, 4.718502074304996e-10)),
      (1.0000000000924332, (0.358333890699693, 0.39027299348512473, -0.8481060186628326))],
     Verdict.FEASIBLE),
    # the near-zero effect's cells drop out and the marginals fix the two
    # left: no free Hermitian variables, whose coordinates were reshaped
    # with an inferred length
    ([(-8.347487824298985e-10, (-1.3878158018913734e-07, -1.0035191855106601e-07, 3.051646166507741e-09)),
      (1.0, (0.0, 0.0, 1.0))],
     None),
], ids=["singular-pair", "singular-triple", "eta-zero", "no-free-variables"])
def test_the_barrier_route_reports_on_near_commuting_qubit_families(forms, verdict):
    family = _designated(*forms)
    tol = FeasibilityOptions().tol
    assert all(validate(p, tol=tol).passed for p in family) and not _every_pair_commutes(family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = decide(FeasibilityProblem(family))
    assert report.reason is None and report.iterations > 0
    if verdict is not None:
        assert report.verdict is verdict
    if report.verdict is Verdict.FEASIBLE:
        assert validate(report.witness, tol=tol).passed
        assert witness_residual(report.witness, family) <= tol
    else:
        assert report.verdict is Verdict.UNDETERMINED


def test_the_barrier_route_stops_at_a_newton_decrement_that_is_not_positive(monkeypatch):
    # the barrier's input for the eta-zero family with its near-zero effect
    # kept live, as the route built it while only a share <= 1e-12 counted as
    # zero: the Newton system is indefinite from the first step.  Its
    # decrement <= 0 used to read as convergence, and the system was rebuilt
    # and solved once per round (9 solves)
    family = _designated(
        (2.901280705694408e-09, (3.1149762681278485e-10, 4.618403207213446e-09, 4.718502074304996e-10)),
        (1.0000000000924332, (0.358333890699693, 0.39027299348512473, -0.8481060186628326)),
    )
    factors = tuple(p.outcomes for p in family)
    m, a = _marginal_map(factors, tuple(enumerate(factors))), np.concatenate([p.stack for p in family])
    share = np.trace(a, axis1=1, axis2=2).real / 2
    g0 = np.prod(np.where(m.T > 0, share, 1.0), axis=1)[:, None, None] * np.eye(2)
    u, sv, vt = np.linalg.svd(m)
    drift = np.tensordot((vt[:3].T / sv[:3]) @ u[:, :3].T, a - share[:, None, None] * np.eye(2), axes=1)
    c = np.eye(5)[0]
    solve, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    x, steps, found = barrier_maximize(c, g0, drift[None], vt[3:], np.zeros(5), 1.0, WITNESS_TOL)
    assert len(solves) == 1
    assert steps == 0 and found is None and not x.any()


@st.composite
def _bloch_vectors(draw):
    """Bloch vectors with components drawn from signed zeros, axis-aligned
    values and arbitrary floats."""
    part = st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0]),
        st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=True),
    )
    return np.array([draw(part) for _ in range(3)])


@given(
    st.lists(st.tuples(st.floats(0.0, 2.0), _bloch_vectors()), min_size=1, max_size=4),
    st.sampled_from([("0", "1"), ("1", "0"), ("a", "b"), ("b", "a")]),
)
def test_the_stacked_bloch_forms_equal_the_per_effect_reading_bit_for_bit(effects, labels):
    for alpha, vec in effects:
        e = HermitianOperator(bloch_matrix(alpha, vec))
        obs = Observable(labels, {labels[0]: e, labels[1]: HermitianOperator(np.eye(2) - e.matrix)})
        want = []
        for x in designation_order(obs):
            # the entries read one effect at a time, as numpy scalars
            m = obs.effects[x].matrix
            a = np.array([2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, m[0, 0].real - m[1, 1].real])
            want.append((x, repr(float(m[0, 0].real + m[1, 1].real)), a.tobytes(), repr(_norm(a))))
        got = [(x, repr(al), v.tobytes(), repr(n)) for x, al, v, n in _bloch_forms(obs)]
        assert got == want


def _bloch_matrix_per_entry_sum(alpha, a) -> np.ndarray:
    """``bloch_matrix`` as it was computed on one cell at a time."""
    m = alpha * np.eye(2, dtype=complex)
    for k in range(3):
        m = m + a[k] * PAULI[k]
    return 0.5 * m


@given(st.one_of(st.sampled_from([0.0, -0.0, -0.7, 1.0]), st.floats(-2.0, 2.0)), _bloch_vectors())
def test_bloch_matrix_keeps_its_per_cell_arithmetic_bit_for_bit(alpha, vec):
    # every combination of signed zeros and signs, where the complex products'
    # zero parts decide the signs of the result's zeros, then random draws
    special = (0.0, -0.0, 0.3, -0.7)
    for a, v in itertools.chain(itertools.product(special, itertools.product(special, repeat=3)), [(alpha, vec)]):
        v = np.array(v)
        assert bloch_matrix(a, v).tobytes() == _bloch_matrix_per_entry_sum(a, v).tobytes()


@given(st.lists(_bloch_vectors(), min_size=2, max_size=3), st.lists(st.booleans(), min_size=3, max_size=3))
def test_the_signed_sum_cells_equal_per_cell_bloch_matrices_bit_for_bit(vecs, flips):
    parents = [unbiased(EZ) for _ in vecs]
    designations = [("1" if flip else "0", v) for v, flip in zip(vecs, flips)]
    want = []
    for combo in itertools.product(*(p.outcomes for p in parents)):
        vec = sum((1.0 if x == d else -1.0) * v for x, (d, v) in zip(combo, designations))
        want.append(_bloch_matrix_per_entry_sum(0.25, 0.25 * vec))
    assert _signed_sum_cells(parents, designations).tobytes() == np.array(want).tobytes()


def _random_povm(dim: int, n: int, v: float, rng) -> Observable:
    """A projective measurement in a random basis, its basis vectors split
    into n nonempty outcomes, mixed with white noise at visibility v."""
    u = random_unitary(dim, rng)
    owner = np.concatenate([np.arange(n), rng.integers(0, n, dim - n)])
    labels = tuple(f"o{i}" for i in range(n))
    effects = {}
    for i, x in enumerate(labels):
        proj = u[:, owner == i] @ u[:, owner == i].conj().T
        effects[x] = HermitianOperator(v * proj + (1.0 - v) * np.trace(proj).real / dim * np.eye(dim))
    return Observable(labels, effects)


def _relabel(obs: Observable) -> Observable:
    labels = tuple(f"r{x}" for x in reversed(obs.outcomes))
    return Observable(labels, {f"r{x}": obs.effects[x] for x in obs.outcomes})


def _conjugate(obs: Observable, u) -> Observable:
    return Observable(obs.outcomes, {
        x: HermitianOperator(u @ e.matrix @ u.conj().T) for x, e in obs.effects.items()
    })


@settings(max_examples=20)
@given(
    st.sampled_from([(3, (2, 2)), (3, (2, 3)), (3, (3, 3)), (2, (2, 2, 2)), (3, (2, 2, 2))]),
    st.floats(0.3, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_barrier_verdict_is_frame_and_label_free(shape, v, seed):
    # random pairs beyond qubits and random triples: no criterion applies,
    # so every variant is decided by the barrier route, and all agree
    dim, counts = shape
    rng = np.random.default_rng(seed)
    parents = tuple(_random_povm(dim, n, v, rng) for n in counts)
    u = random_unitary(dim, rng)
    variants = (
        parents,
        tuple(_conjugate(p, u) for p in parents),
        tuple(_relabel(p) for p in parents),
        parents[::-1],
    )
    tol = FeasibilityOptions().tol
    verdicts = set()
    for family in variants:
        report = decide(FeasibilityProblem(family))
        assert report.verdict is not Verdict.UNDETERMINED
        if report.verdict is Verdict.FEASIBLE:
            assert validate(report.witness, tol=tol).passed
            assert witness_residual(report.witness, family) <= tol
        else:
            assert_dual_certificate(report, family)
        verdicts.add(report.verdict)
    assert len(verdicts) == 1


def _sharp_in_frame(frame, rng) -> Observable:
    """A sharp observable whose effects are the spectral projections of
    ``frame``'s columns grouped by random labels, two or three of them, each
    used at least once."""
    dim = frame.shape[0]
    labels = rng.permutation(np.arange(dim) % rng.integers(2, 4))
    outcomes = tuple(str(x) for x in np.unique(labels))
    return Observable(
        outcomes, {x: HermitianOperator((frame * (labels == int(x))) @ frame.conj().T) for x in outcomes}
    )


def test_sharp_families_meet_the_papers_facts_one_and_three():
    # for sharp parents compatible means commuting: (i) parents diagonal in
    # one Haar frame are compatible, through route 1, in pairs and as a whole,
    # and a parent in a second Haar frame makes the pair and the triple
    # incompatible; (iii) in d = 3 the partition matrix of the non-commuting
    # pair then has an incompatible cell, since commuting binarizations would
    # make every spectral projection commute
    rng = np.random.default_rng(3)
    for draw in range(15):
        dim = 3 + draw % 2
        u, v = random_unitary(dim, rng), random_unitary(dim, rng)
        a = tuple(_sharp_in_frame(u, rng) for _ in range(2 + draw // 2 % 2))
        b = _sharp_in_frame(v, rng)
        report = decide(FeasibilityProblem(a))
        assert (report.verdict, report.reason) == (Verdict.FEASIBLE, "commuting"), draw
        for family in ((a[0], b), (a[0], a[1], b)):
            report = decide(FeasibilityProblem(family))
            assert report.verdict is Verdict.INFEASIBLE, (draw, len(family))
            assert_dual_certificate(report, family)
        if dim == 3:
            matrix = partition_compatibility_matrix(a[0], b)
            assert any(r.verdict is Verdict.INFEASIBLE for r in matrix.cells.values()), draw


def test_commuting_sharp_pairs_meet_the_papers_fact_two():
    # (ii) for sharp parents: the joint that decide builds for a commuting
    # pair in d = 2-4, with projections of any rank, has cells that are the
    # greatest lower bounds of their marginal effects and maximal, and the
    # audit finds no second joint
    rng = np.random.default_rng(5)
    for draw in range(18):
        a, b = random_commuting_sharp_pair(2 + draw % 3, rng)
        report = decide(FeasibilityProblem((a, b)))
        assert (report.verdict, report.reason) == (Verdict.FEASIBLE, "commuting"), draw
        audit = joint_observable_order_audit(report.witness, a, b)
        assert audit.all_greatest and audit.all_maximal, draw
        assert not audit.uniqueness_refuted, draw


def test_trivial_joint_construction_and_refusal():
    quarter = Observable(("0", "1"), {"1": identity(2, 0.25), "0": identity(2, 0.75)})
    g = joint_from_cell(quarter, quarter, np.zeros((2, 2)), "1", "1")
    assert np.allclose(g.effects[("1", "1")].matrix, np.zeros((2, 2)), atol=1e-15)
    assert np.allclose(g.effects[("0", "0")].matrix, 0.5 * np.eye(2), atol=1e-15)
    assert validate(g, tol=1e-12).passed


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------


def test_decide_is_deterministic():
    a, b = unbiased(0.5 * EX), unbiased(0.5 * EY)
    opts = FeasibilityOptions()
    r1 = decide(FeasibilityProblem((a, b), opts))
    r2 = decide(FeasibilityProblem((a, b), opts))
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
        r2.to_json(), sort_keys=True
    )


def test_a_feasible_report_needs_a_witness():
    with pytest.raises(ValueError, match="witness"):
        FeasibilityReport(Verdict.FEASIBLE, None, None, None, 0.0, 1)


@pytest.mark.parametrize("reason, margin", [(None, 0.1), ("eq3", None)])
def test_an_infeasible_report_needs_a_reason_and_a_margin(reason, margin):
    with pytest.raises(ValueError, match="reason and a margin"):
        FeasibilityReport(Verdict.INFEASIBLE, None, reason, margin, 0.0, 0)


def test_a_dual_certificate_report_needs_its_certificate():
    with pytest.raises(ValueError, match="certificate"):
        FeasibilityReport(Verdict.INFEASIBLE, None, "dual-certificate", 0.1, 0.0, 18, None, 0.3)


def test_problem_validation_errors():
    a = unbiased(0.5 * EX)
    with pytest.raises(ValueError):
        FeasibilityProblem((a,))
    with pytest.raises(ValueError):
        FeasibilityProblem((a, coin(0.5, 3)))
    with pytest.raises(ValueError, match="tol must be positive"):
        FeasibilityOptions(tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_options_reject_a_tolerance_that_is_not_finite(tol):
    # an infinite tol passes every input to validate
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        FeasibilityOptions(tol=tol)


def test_unnormalized_parent_is_rejected_not_undetermined():
    # effects 0.5 I and 0.2 I sum to 0.7 I, 0.3 from I in spectral norm: no
    # joint has that marginal, and the barrier route used to end UNDETERMINED
    # on it after reaching eta >= 1
    short = Observable(("0", "1"), {"0": identity(2, 0.5), "1": identity(2, 0.2)})
    parents = (unbiased(0.6 * EX), unbiased(0.6 * EY), short)
    with pytest.raises(ValueError, match="parent 2's effects sum to the identity only within 3.000e-01"):
        decide(FeasibilityProblem(parents))
    # the same family, normalized, is decided
    fixed = Observable(("0", "1"), {"0": identity(2, 0.8), "1": identity(2, 0.2)})
    assert decide(FeasibilityProblem(parents[:2] + (fixed,))).verdict is Verdict.FEASIBLE


def test_a_parent_that_passes_validate_is_decided():
    # the Z basis scaled by 1 + 8e-8 sums to the identity within 8e-8 in the
    # spectral norm, as validate measures it, but within 1.386e-7 in the
    # Frobenius norm, which decide used to apply and refuse at tol 1e-7
    z, x = noisy_fourier_mubs(3, 0.6)
    scaled = Observable(
        z.outcomes, {k: HermitianOperator((1.0 + 8e-8) * e.matrix) for k, e in z.effects.items()}
    )
    tol = FeasibilityOptions().tol
    assert validate(scaled, tol=tol).passed
    report = decide(FeasibilityProblem((scaled, x)))
    assert report.verdict is Verdict.FEASIBLE
    assert validate(report.witness, tol=tol).passed
    assert witness_residual(report.witness, (scaled, x)) <= tol


@pytest.mark.parametrize("route, alpha, partner", [
    ("eq3", 1.0, (1.0, 0.5 * EY)),
    ("qubit-pair", 0.9, (1.2, np.array([0.0, 0.3, 0.1]))),
])
@pytest.mark.parametrize("slack", [0.9e-9, 1.1e-9])
def test_a_qubit_pair_that_passes_validate_is_decided(route, alpha, partner, slack):
    # ||a|| = alpha + 2 slack puts the least eigenvalue of (alpha, a) at
    # -slack: the criteria's input checks, at Bloch slack 2 VALIDATE_TOL,
    # accept what validate accepts by default.  What only decide's own tol
    # accepts goes to the barrier route, and an effect with a negative
    # eigenvalue is the marginal of no joint with positive cells
    a = SimpleQubitObservable(BlochEffect(alpha, (alpha + 2.0 * slack) * EX)).as_observable()
    b = SimpleQubitObservable(BlochEffect(*partner)).as_observable()
    rep = validate(a)
    assert rep.min_eigenvalues["1"] == pytest.approx(-slack, rel=1e-6)
    report = decide(FeasibilityProblem((a, b)))
    assert report.verdict is Verdict.INFEASIBLE
    if slack < VALIDATE_TOL:
        assert rep.passed
        assert report.reason == route
    else:
        assert not rep.passed
        assert validate(a, tol=FeasibilityOptions().tol).passed
        assert_dual_certificate(report, (a, b))


@pytest.mark.parametrize("tol", [1e-7, 1e-3, 0.12, 0.5])
def test_a_loose_tol_never_accepts_an_invalid_witness(tol):
    # tol bounds the barrier's gap; a witness is accepted only within
    # min(tol, WITNESS_TOL).  At tol 0.12 the sharp Fourier pair used to come
    # out FEASIBLE with the barrier's start point as witness (residual 0.111)
    vc = 0.5 * (1.0 + 1.0 / (1.0 + math.sqrt(3.0)))
    opts = FeasibilityOptions(tol)
    sharp = noisy_fourier_mubs(3, 1.0)
    checked = [
        (f, decide(FeasibilityProblem(f, opts)))
        for f in (sharp, noisy_fourier_mubs(3, vc - 0.05), noisy_fourier_mubs(3, vc + 0.05))
    ]
    assert checked[0][1].verdict is not Verdict.FEASIBLE
    for l in (0.7, 0.72, 0.8):  # the planar search, inside and past the eq3 boundary
        pair = (unbiased(l * EX), unbiased(l * EY))
        checked.append((pair, decide_pair_qubit_numeric(*pair, opts)))
    for family, report in checked:
        if report.verdict is Verdict.FEASIBLE:
            assert validate(report.witness, tol=WITNESS_TOL).passed
            assert witness_residual(report.witness, family) <= WITNESS_TOL


@pytest.mark.parametrize("tol", [1e-7, 0.5, 1.0, 10.0])
def test_a_loose_tol_keeps_the_default_verdict_and_steps(tol):
    # the barrier's stopping gap is min(tol, WITNESS_TOL): a loose tol used to
    # end the noisy pairs UNDETERMINED (d = 3 from tol 0.5, d = 4 from tol 1)
    # and the sharp pair at tol 10
    def vc(d):
        return 0.5 * (1.0 + 1.0 / (1.0 + math.sqrt(d)))

    for family in (
        noisy_fourier_mubs(3, vc(3) + 0.05),
        noisy_fourier_mubs(4, vc(4) - 0.02),
        noisy_fourier_mubs(3, 1.0),
    ):
        default = decide(FeasibilityProblem(family))
        report = decide(FeasibilityProblem(family, FeasibilityOptions(tol)))
        assert report.verdict is default.verdict is not Verdict.UNDETERMINED
        assert report.iterations == default.iterations
        if report.verdict is Verdict.INFEASIBLE:
            assert_dual_certificate(report, family)
            assert report.margin == default.margin
        else:
            assert validate(report.witness, tol=WITNESS_TOL).passed
            assert witness_residual(report.witness, family) <= WITNESS_TOL


@st.composite
def qubit_observables(draw):
    vec = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(3)])
    n = float(np.linalg.norm(vec))
    alpha = draw(st.floats(0.0, 1.0))
    alpha = n + alpha * (2.0 - 2.0 * n)  # valid effect band
    return SimpleQubitObservable(BlochEffect(alpha, vec)).as_observable()


@settings(max_examples=30, deadline=None)
@given(qubit_observables(), st.floats(0.05, 0.95))
def test_trivialization_is_always_feasible(obs, p):
    # replacing a partner with a scalar observable can never hurt: the pair
    # (obs, coin) is jointly measurable whatever obs is
    report = decide(FeasibilityProblem((obs, coin(p))))
    assert report.verdict is Verdict.FEASIBLE


def _rotation(seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@st.composite
def qubit_effect_params(draw):
    vec = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    assume(np.linalg.norm(vec) > 1e-3)
    n = draw(st.floats(0.0, 1.0))
    alpha = n + draw(st.floats(0.0, 1.0)) * (2.0 - 2.0 * n)
    return alpha, n * vec / np.linalg.norm(vec)


@settings(max_examples=60)
@given(qubit_effect_params(), qubit_effect_params(), st.integers(0, 2**32 - 1))
def test_pair_verdict_invariant_under_rotation_swap_and_relabeling(pa, pb, seed):
    (alpha, a), (beta, b) = pa, pb
    rot = _rotation(seed)
    variants = (
        ((alpha, a), (beta, b)),
        ((alpha, rot @ a), (beta, rot @ b)),
        ((beta, b), (alpha, a)),
        ((2.0 - alpha, -a), (beta, b)),
        ((alpha, a), (2.0 - beta, -b)),
    )
    tol = FeasibilityOptions().tol
    verdicts = set()
    for (al, va), (be, vb) in variants:
        parents = (
            SimpleQubitObservable(BlochEffect(al, va)).as_observable(),
            SimpleQubitObservable(BlochEffect(be, vb)).as_observable(),
        )
        report = decide(FeasibilityProblem(parents))
        assert report.verdict is not Verdict.UNDETERMINED
        if report.verdict is Verdict.FEASIBLE:
            assert report.witness is not None
            assert validate(report.witness, tol=tol).passed
            assert witness_residual(report.witness, parents) <= tol
        verdicts.add(report.verdict)
    assert len(verdicts) == 1


def test_only_two_tolerances_are_settable():
    # every other bound is a module constant; Expectation.tol and
    # ValidationReport.tol record the bound a report was checked at
    allowed = {
        ("FeasibilityOptions", "tol"),
        ("validate", "tol"),
        ("Expectation", "tol"),
        ("ValidationReport", "tol"),
    }
    named = [(n, getattr(jointmeas, n)) for n in jointmeas.__all__]
    found = set()
    for name, obj in named + [("structure_flags", structure_flags)]:
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # exception classes carry no signature
            continue
        found |= {(name, p) for p in params if "tol" in p}
    assert found == allowed


def test_import_loads_no_scipy():
    code = (
        "import sys, jointmeas; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(jointmeas.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# pairwise vs global
# ---------------------------------------------------------------------------


def test_pairwise_vs_global_triple_paradox_region():
    l = 0.6
    parents = tuple(unbiased(l * v) for v in (EX, EY, EZ))
    out = pairwise_vs_global(parents)
    assert len(out.pairwise) == 3
    for rep in out.pairwise.values():
        assert rep.verdict is Verdict.FEASIBLE
        assert rep.reason == "eq3"
    assert all(r.verdict is Verdict.FEASIBLE for r in out.pairwise.values())
    assert out.global_report.verdict is Verdict.INFEASIBLE
    assert out.global_report.reason == "eq6"
    assert out.global_report.margin == pytest.approx(0.08, abs=1e-9)


def test_pairwise_vs_global_three_commuting_sharp():
    a, b = random_commuting_sharp_pair(4, np.random.default_rng(12))
    family = (a, b, coin(0.4, 4))
    out = pairwise_vs_global(family)
    for rep in out.pairwise.values():
        assert rep.verdict is Verdict.FEASIBLE
    assert out.global_report.verdict is Verdict.FEASIBLE
    assert out.global_report.reason == "commuting"
    assert_witness_ok(out.global_report, family, 1e-9)


def test_pairwise_vs_global_two_sharp_one_unsharp_commuting():
    def diag(vals_by_label):
        return Observable(
            tuple(vals_by_label),
            {
                k: HermitianOperator(np.diag(np.asarray(v, dtype=float)))
                for k, v in vals_by_label.items()
            },
        )

    a = diag({"0": [1, 0, 0], "1": [0, 1, 1]})
    b = diag({"0": [1, 1, 0], "1": [0, 0, 1]})
    c = diag({"0": [0.3, 0.6, 0.2], "1": [0.7, 0.4, 0.8]})  # unsharp, commutes
    out = pairwise_vs_global((a, b, c))
    assert all(r.verdict is Verdict.FEASIBLE for r in out.pairwise.values())
    assert out.global_report.verdict is Verdict.FEASIBLE
    assert out.global_report.reason == "commuting"
    assert_witness_ok(out.global_report, (a, b, c), 1e-9)


def test_pairwise_vs_global_needs_three_parents():
    a, b = unbiased(0.5 * EX), unbiased(0.5 * EY)
    with pytest.raises(ValueError):
        pairwise_vs_global((a, b))


def _report_bytes(report):
    """Everything a report says: verdict, reason, the repr of margin, gap and
    residual, iterations, and the bytes of the witness cells (with each
    asymmetry) and of the certificate."""
    w, cert = report.witness, report.certificate
    cells = None if w is None else [(z, e.matrix.tobytes(), repr(e.asymmetry)) for z, e in w.effects.items()]
    ys = None if cert is None else [(key, np.asarray(y).tobytes()) for key, y in cert.items()]
    return (report.verdict, report.reason, repr(report.margin), repr(report.gap), repr(report.residual),
            report.iterations, cells, ys)


@settings(max_examples=30)
@given(
    st.sampled_from(["commuting", "orthogonal-unbiased", "generic"]), st.integers(3, 4), st.integers(0, 2**32 - 1)
)
def test_pairwise_vs_global_is_decide_on_each_of_its_families(kind, n, seed):
    # one batch for all pairs and the whole family, against the batch of one
    rng = np.random.default_rng(seed)
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
    if kind == "commuting":
        parents = [_qubit(al, rng.uniform(-0.5, 0.5) * frame[0]) for al in rng.uniform(0.6, 1.4, n)]
    elif kind == "orthogonal-unbiased":
        parents = [unbiased(rng.uniform(0.3, 0.8) * frame[k % 3]) for k in range(n)]
    else:
        vecs = rng.standard_normal((n, 3))
        parents = [
            _qubit(al, rng.uniform(0.3, 0.95) * min(al, 2.0 - al) * v / _norm(v))
            for al, v in zip(rng.uniform(0.6, 1.4, n), vecs)
        ]
    parents = tuple(parents)
    out = pairwise_vs_global(parents)
    assert sorted(out.pairwise) == list(itertools.combinations(range(n), 2))
    for (i, j), report in out.pairwise.items():
        alone = decide(FeasibilityProblem((parents[i], parents[j])))
        assert _report_bytes(report) == _report_bytes(alone), (i, j)
    assert _report_bytes(out.global_report) == _report_bytes(decide(FeasibilityProblem(parents)))


# ---------------------------------------------------------------------------
# one witness gate on every route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family, reason, iterations", [
    pytest.param(lambda: (unbiased(0.6 * EZ), _qubit(0.7, 0.2 * EZ)), "commuting", 0, id="commuting"),
    pytest.param(lambda: (unbiased(0.6 * EX), unbiased(0.6 * EY)), "eq3", None, id="planar-search"),
    pytest.param(lambda: tuple(unbiased(0.5 * v) for v in (EX, EY, EZ)), "eq6", 0, id="signed-sum"),
    # the affine projection of G0 (eta = 1, H = 0) is already a witness
    pytest.param(lambda: noisy_fourier_mubs(3, 0.3), None, 1, id="barrier-start"),
    pytest.param(lambda: noisy_fourier_mubs(3, critical_visibility(3) - 0.01), None, None, id="mub3-in"),
    pytest.param(lambda: noisy_fourier_mubs(4, critical_visibility(4) - 0.01), None, None, id="mub4-in"),
    pytest.param(lambda: _designated(*_SINGULAR_PAIR), None, None, id="singular-pair"),
    pytest.param(lambda: _designated(*_SINGULAR_TRIPLE), None, None, id="singular-triple"),
])
def test_every_feasible_reports_its_witness_residual_exactly(family, reason, iterations):
    # the barrier route used to report a Frobenius-norm bound on the residual
    # instead of the residual of its witness
    parents = family()
    report = decide(FeasibilityProblem(parents))
    assert report.verdict is Verdict.FEASIBLE and report.reason == reason
    if iterations is not None:
        assert report.iterations == iterations
    assert report.residual == witness_residual(report.witness, parents)
    assert report.residual <= WITNESS_TOL


def test_a_planar_search_that_fails_inside_decide_falls_through_to_the_barrier_route(monkeypatch):
    pair = (_qubit(0.9, 0.3 * EX + 0.1 * EZ), _qubit(1.2, 0.4 * EY))
    other = (unbiased(0.5 * EX), unbiased(0.5 * EY))
    opts = FeasibilityOptions()
    before = decide(FeasibilityProblem(pair))
    assert before.verdict is Verdict.FEASIBLE and before.reason == "qubit-pair"  # the search's witness
    oracle = _report_bytes(_decide_by_robustness(pair, opts.tol))
    excess = 10.0 * WITNESS_TOL
    monkeypatch.setattr(feasibility, "_planar_search", lambda *_: (excess, 0.5, 0.5, 7))
    assert _report_bytes(decide(FeasibilityProblem(pair))) == oracle
    batch = feasibility._decide_batch([other, pair, other[::-1]], opts)
    assert _report_bytes(batch[1]) == oracle
    numeric = decide_pair_qubit_numeric(*pair)
    assert numeric.verdict is Verdict.UNDETERMINED and numeric.witness is None
    assert numeric.residual == excess and numeric.iterations == 7


def _pair_scale(alpha, a, beta, b) -> float:
    """The scale s at which (alpha, s a) and (beta, s b) cross the general
    qubit criterion, by bisection; inf when they stay compatible up to the
    largest scale at which both are effects."""
    top = min(min(alpha, 2.0 - alpha) / _norm(a), min(beta, 2.0 - beta) / _norm(b))
    if qubit_pair_criterion(alpha, top * a, beta, top * b).jm:
        return math.inf
    lo, hi = 0.0, top
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if qubit_pair_criterion(alpha, mid * a, beta, mid * b).jm else (lo, mid)
    return lo


def _boundary_pair(rng, factor: float) -> tuple:
    """Two two-outcome qubit observables, unbiased or not, with Bloch
    vectors at ``factor`` times their criterion boundary."""
    while True:
        alpha, beta = rng.uniform(0.6, 1.4, 2) if rng.random() < 0.5 else (1.0, 1.0)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        scale = _pair_scale(alpha, a, beta, b)
        top = min(min(alpha, 2.0 - alpha) / _norm(a), min(beta, 2.0 - beta) / _norm(b))
        if factor * scale <= top:
            return _qubit(alpha, factor * scale * a), _qubit(beta, factor * scale * b)


def _boundary_triple(rng, factor: float) -> tuple:
    """An orthogonal unbiased triple at ``factor`` times the eq6 boundary
    sum |v_i|^2 = 1."""
    lengths = rng.uniform(0.5, 1.0, 3)
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return tuple(unbiased(factor * l / _norm(lengths) * v) for l, v in zip(lengths, frame.T))


def _commuting_family(rng) -> tuple:
    """Two or three two-outcome observables in d = 2-4, diagonal in one
    basis with eigenvalues in [0.05, 0.95]."""
    dim = int(rng.integers(2, 5))
    family = []
    for _ in range(int(rng.integers(2, 4))):
        p = rng.uniform(0.05, 0.95, dim)
        family.append(Observable(("0", "1"), {
            "1": HermitianOperator(np.diag(p)), "0": HermitianOperator(np.diag(1.0 - p)),
        }))
    return tuple(family)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.floats(1.0, 6.0, exclude_max=True), st.sampled_from([-1.0, 1.0]))
@pytest.mark.parametrize("kind", ["pair", "triple", "commuting"])
def test_decide_agrees_with_the_barrier_route_off_the_boundary(kind, seed, k, side):
    # the barrier route is the oracle: a criterion's verdict is about the
    # exact input, a witness about one within the gate; at 1e-6 relative or
    # more from the boundary the two must agree
    rng = np.random.default_rng(seed)
    factor = 1.0 + side * 10.0 ** -k
    if kind == "pair":
        family = _boundary_pair(rng, factor)
    elif kind == "triple":
        family = _boundary_triple(rng, factor)
    else:
        family = _commuting_family(rng)
    u = random_unitary(family[0].dim, rng)
    family = tuple(_conjugate(p, u) for p in family)
    tol = FeasibilityOptions().tol
    report, oracle = decide(FeasibilityProblem(family)), _decide_by_robustness(family, tol)
    assert report.verdict is oracle.verdict is not Verdict.UNDETERMINED, (report.reason, factor)
    for r in (report, oracle):
        if r.verdict is Verdict.FEASIBLE:
            assert witness_residual(r.witness, family) <= min(tol, WITNESS_TOL)
