"""Joint-measurability decision engine: routing, witnesses, verdicts."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jointmeas
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_dual_certificate, identity
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
    liu_criterion,
    max_marginal_deviation,
    molnar_criterion,
    pairwise_vs_global,
    qubit_pair_criterion,
    random_commuting_sharp_pair,
    validate,
    witness_residual,
)
from jointmeas.feasibility import WITNESS_TOL
from jointmeas.observables import VALIDATE_TOL, structure_flags
from jointmeas.sampling import random_unitary

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def unbiased(vec) -> Observable:
    return SimpleQubitObservable(BlochEffect(1.0, vec)).as_observable()


def coin(p: float, dim: int = 2) -> Observable:
    eye = identity(dim)
    return Observable(("0", "1"), {"1": p * eye, "0": (1.0 - p) * eye})


def assert_witness_ok(report, parents, tol):
    g = report.witness
    assert g is not None
    assert validate(g, tol=max(tol, 1e-9)).passed
    assert witness_residual(g, parents) <= 10 * tol


# ---------------------------------------------------------------------------
# dispatch route 1: commuting family with a sharp/scalar member per pair
# ---------------------------------------------------------------------------


def test_commuting_sharp_pair_product_route():
    rng = np.random.default_rng(7)
    a, b = random_commuting_sharp_pair(3, rng)
    report = decide(FeasibilityProblem((a, b)))
    assert report.verdict is Verdict.FEASIBLE
    assert report.reason == "commuting-sharp"
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
    assert report.reason == "commuting-sharp"
    assert_witness_ok(report, (coin(0.3, 3), partner), 1e-10)

    # spec'd qubit case through the pair solver as well
    numeric = decide_pair_qubit_numeric(coin(0.5), unbiased(0.8 * EX))
    assert numeric.verdict is Verdict.FEASIBLE


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


def _qubit(alpha, vec, labels=("0", "1"), swap=False) -> Observable:
    """(alpha, vec) on labels[1] and its complement on labels[0], or the
    other way round with ``swap``."""
    e = BlochEffect(alpha, vec)
    effects = [e.complement().to_operator(), e.to_operator()]
    if swap:
        effects.reverse()
    return Observable(labels, dict(zip(labels, effects)))


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


def test_trivial_joint_construction_and_refusal():
    quarter = Observable(("0", "1"), {"1": 0.25 * identity(2), "0": 0.75 * identity(2)})
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
    eye = identity(2)
    short = Observable(("0", "1"), {"0": 0.5 * eye, "1": 0.2 * eye})
    parents = (unbiased(0.6 * EX), unbiased(0.6 * EY), short)
    with pytest.raises(ValueError, match="parent 2's effects sum to the identity only within 3.000e-01"):
        decide(FeasibilityProblem(parents))
    # the same family, normalized, is decided
    fixed = Observable(("0", "1"), {"0": 0.8 * eye, "1": 0.2 * eye})
    assert decide(FeasibilityProblem(parents[:2] + (fixed,))).verdict is Verdict.FEASIBLE


def test_a_parent_that_passes_validate_is_decided():
    # the Z basis scaled by 1 + 8e-8 sums to the identity within 8e-8 in the
    # spectral norm, as validate measures it, but within 1.386e-7 in the
    # Frobenius norm, which decide used to apply and refuse at tol 1e-7
    z, x = noisy_fourier_mubs(3, 0.6)
    scaled = Observable(z.outcomes, {k: (1.0 + 8e-8) * e for k, e in z.effects.items()})
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


def test_only_three_tolerances_are_settable():
    # every other bound is a module constant; Expectation.tol and
    # ValidationReport.tol record the bound a report was checked at
    allowed = {
        ("FeasibilityOptions", "tol"),
        ("validate", "tol"),
        ("is_valid_effect_params", "tol"),
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
    assert out.global_report.reason == "commuting-sharp"
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
    assert out.global_report.reason == "commuting-sharp"
    assert_witness_ok(out.global_report, (a, b, c), 1e-9)


def test_pairwise_vs_global_needs_three_parents():
    a, b = unbiased(0.5 * EX), unbiased(0.5 * EY)
    with pytest.raises(ValueError):
        pairwise_vs_global((a, b))
