"""Two-outcome coarse-grainings and the compatibility-matrix paradox audit."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_dual_certificate, product_joint, sharp_within
from jointmeas import (
    BlochEffect,
    FeasibilityOptions,
    HermitianOperator,
    Observable,
    Partitioning,
    ProductObservable,
    SimpleQubitObservable,
    Verdict,
    boundary_joint,
    decide,
    decide_pair_qubit_numeric,
    enumerate_partitionings,
    forward_partition_joint,
    marginal,
    partition_compatibility_matrix,
    partition_paradox_audit,
    validate,
    witness_residual,
)
from jointmeas.sampling import random_unitary
from jointmeas.feasibility import FeasibilityProblem

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
L = 1.0 / math.sqrt(2.0)


def unbiased(vec) -> Observable:
    return SimpleQubitObservable(BlochEffect(1.0, vec)).as_observable()


def diag_obs(groups, dim):
    effects = {}
    for label, idx in groups.items():
        m = np.zeros((dim, dim))
        for k in idx:
            m[k, k] = 1.0
        effects[label] = HermitianOperator(m)
    return Observable(tuple(groups), effects)


@pytest.fixture()
def four_outcome_sharp():
    return diag_obs({"a": (0,), "b": (1,), "c": (2,), "d": (3,)}, 4)


# ---------------------------------------------------------------------------
# enumeration and construction
# ---------------------------------------------------------------------------


def test_enumeration_counts_by_type(four_outcome_sharp):
    parts = enumerate_partitionings(four_outcome_sharp)
    assert len(parts) == 16
    assert Counter(p.type for p in parts) == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    keys = [(p.type, p.key) for p in parts]
    assert keys == sorted(keys)


def test_enumeration_small_parents():
    two = diag_obs({"0": (0,), "1": (1,)}, 2)
    assert len(enumerate_partitionings(two)) == 4
    one = Observable(("only",), {"only": HermitianOperator(np.eye(2))})
    parts = enumerate_partitionings(one)
    assert len(parts) == 2
    assert all(p.is_trivial for p in parts)


def test_enumeration_guard():
    n = 21
    effects = {
        f"o{i}": HermitianOperator(np.array([[1.0 / n]])) for i in range(n)
    }
    wide = Observable(tuple(effects), effects)
    with pytest.raises(ValueError, match="enumeration guard"):
        enumerate_partitionings(wide)


def test_partitioning_unpacks_as_subset_and_observable(four_outcome_sharp):
    for p in enumerate_partitionings(four_outcome_sharp):
        obs = p.observable
        assert isinstance(p.subset, frozenset)
        assert obs.outcomes == ("0", "1")
        assert validate(obs, tol=1e-12).passed


def test_complement_swap_is_bit_exact():
    rng = np.random.default_rng(2)
    mats = rng.dirichlet(np.ones(4), size=3)  # columns sum to 1 per diag slot
    effects = {
        f"x{i}": HermitianOperator(np.diag(mats[:, i])) for i in range(4)
    }
    parent = Observable(tuple(effects), effects)
    outcomes = set(parent.outcomes)
    for p in enumerate_partitionings(parent):
        direct = p.observable
        swapped = Partitioning(parent, outcomes - p.subset).observable
        assert np.array_equal(direct.effects["1"].matrix, swapped.effects["0"].matrix)
        assert np.array_equal(direct.effects["0"].matrix, swapped.effects["1"].matrix)


def test_sharp_parent_gives_sharp_partitionings(four_outcome_sharp):
    for p in enumerate_partitionings(four_outcome_sharp):
        assert sharp_within(p.observable, 1e-10)


def test_partition_rejects_unknown_labels(four_outcome_sharp):
    with pytest.raises(ValueError, match="labels not in the parent"):
        Partitioning(four_outcome_sharp, frozenset({"zz"}))


def test_partition_of_joint_recovers_marginal():
    g = boundary_joint(L * EX, L * EY)
    coarse = Partitioning(g, frozenset({("1", "1"), ("1", "0")})).observable
    want = unbiased(L * EX)
    assert np.allclose(coarse.effects["1"].matrix, want.effects["1"].matrix, atol=1e-15)
    assert np.allclose(coarse.effects["0"].matrix, want.effects["0"].matrix, atol=1e-15)


# ---------------------------------------------------------------------------
# forward coarse-graining of joints
# ---------------------------------------------------------------------------


def test_forward_partition_singletons_reproduce_joint():
    g = boundary_joint(L * EX, L * EY)
    h = forward_partition_joint(g, {"1"}, {"1"})
    for key in g.effects:
        assert np.allclose(h.effects[key].matrix, g.effects[key].matrix, atol=1e-15)


def test_forward_partition_full_axis_collapses_to_marginal():
    g = boundary_joint(L * EX, L * EY)
    h = forward_partition_joint(g, {"1", "0"}, {"1"})
    b = unbiased(L * EY)
    assert np.allclose(h.effects[("1", "1")].matrix, b.effects["1"].matrix, atol=1e-14)
    assert np.allclose(h.effects[("0", "1")].matrix, np.zeros((2, 2)), atol=1e-15)
    assert validate(h, tol=1e-12).passed


def test_forward_partition_matches_operator_products_for_diagonal_joints():
    a = diag_obs({"p": (0,), "q": (1,), "r": (2, 3)}, 4)
    b = diag_obs({"u": (0, 2), "v": (1, 3)}, 4)
    g = product_joint((a, b))
    x, y = {"p", "r"}, {"v"}
    h = forward_partition_joint(g, x, y)
    pa, pb = Partitioning(a, frozenset(x)).observable, Partitioning(b, frozenset(y)).observable
    for i in ("0", "1"):
        for j in ("0", "1"):
            want = pa.effects[i].matrix @ pb.effects[j].matrix
            assert np.allclose(h.effects[(i, j)].matrix, want, atol=1e-14)


def test_forward_partition_rejects_foreign_labels():
    g = boundary_joint(L * EX, L * EY)
    with pytest.raises(ValueError, match="labels not on the joint"):
        forward_partition_joint(g, {"2"}, {"1"})


def _per_effect_sum(obs, labels) -> HermitianOperator:
    """A coarse-grained effect as it was built before the stacked path: one
    operator on the effects of ``labels``, summed in outcome order from a
    zero start."""
    start = np.zeros((obs.dim, obs.dim), dtype=complex)
    return HermitianOperator(sum((obs.effects[x].matrix for x in obs.outcomes if x in labels), start))


def _assert_held_as(obs, want):
    """``obs`` lists ``want``'s (label, operator) pairs in outcome order and
    holds their matrices and asymmetries byte for byte."""
    assert obs.outcomes == tuple(x for x, _ in want) == tuple(obs.effects)
    got = [(obs.effects[x].matrix.tobytes(), repr(obs.effects[x].asymmetry)) for x in obs.outcomes]
    assert got == [(op.matrix.tobytes(), repr(op.asymmetry)) for _, op in want]
    assert obs.stack.tobytes() == b"".join(op.matrix.tobytes() for _, op in want)


def _signed_zero_cells(rng, n: int, dim: int) -> list:
    """n Hermitian cells with about a third of their entries +0.0 or -0.0,
    and the real part of entry (0, 0) -0.0 in every cell."""
    cells = []
    for _ in range(n):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        zeros = rng.random((dim, dim)) < 0.35
        z = np.where(zeros, np.where(rng.random((dim, dim)) < 0.5, -0.0, 0.0) * (1 + 1j), z)
        m = np.triu(z, 1)
        m = m + m.conj().T + np.diag(z.diagonal().real)
        m[0, 0] = -0.0
        cells.append(HermitianOperator(m))
    return cells


@given(st.integers(0, 10_000), st.integers(2, 3), st.lists(st.integers(2, 3), min_size=2, max_size=3))
def test_coarse_grainings_equal_the_per_effect_sums_bit_for_bit(seed, dim, sizes):
    rng = np.random.default_rng(seed)
    factors = tuple(tuple(f"{k}{x}" for x in range(n)) for k, n in enumerate(sizes))
    labels = list(itertools.product(*factors))
    g = ProductObservable(factors, dict(zip(labels, _signed_zero_cells(rng, len(labels), dim))))
    assert np.signbit(g.stack.real[g.stack.real == 0.0]).any()
    for axis, outcomes in enumerate(factors):
        want = [(x, _per_effect_sum(g, {z for z in labels if z[axis] == x})) for x in outcomes]
        _assert_held_as(marginal(g, axis), want)
    subset = frozenset(z for z in labels if rng.random() < 0.5)
    want = [("0", _per_effect_sum(g, set(labels) - subset)), ("1", _per_effect_sum(g, subset))]
    _assert_held_as(Partitioning(g, subset).observable, want)
    pair = list(itertools.product(*factors[:2]))
    h = ProductObservable(factors[:2], dict(zip(pair, _signed_zero_cells(rng, len(pair), dim))))
    x, y = ({o for o in f if rng.random() < 0.5} for f in factors[:2])
    want = [
        ((i, j), _per_effect_sum(h, {z for z in pair if (z[0] in x) == (i == "1") and (z[1] in y) == (j == "1")}))
        for i in ("0", "1")
        for j in ("0", "1")
    ]
    _assert_held_as(forward_partition_joint(h, x, y), want)


# ---------------------------------------------------------------------------
# compatibility matrices
# ---------------------------------------------------------------------------


def test_matrix_on_orthogonal_sharp_pair_finds_incompatibility():
    mat = partition_compatibility_matrix(unbiased(EZ), unbiased(EX))
    assert [p.key for p in mat.rows] == ["0"]
    assert [p.key for p in mat.cols] == ["0"]
    report = mat.cells[("0", "0")]
    assert report.verdict is Verdict.INFEASIBLE
    assert report.reason == "eq3"
    assert not mat.all_feasible
    assert mat.undetermined_count == 0


def test_matrix_on_commuting_sharp_pair_is_all_feasible():
    a = diag_obs({"p": (0,), "q": (1,), "r": (2,)}, 3)
    b = diag_obs({"u": (0, 1), "v": (2,)}, 3)
    mat = partition_compatibility_matrix(a, b)
    assert len(mat.rows) == 3 and len(mat.cols) == 1
    assert mat.all_feasible
    for report in mat.cells.values():
        assert report.reason == "commuting"


def test_rotated_paradox_matrices_decide_every_cell_with_witnesses():
    # |a| just below 1/sqrt(2): several feasible cells sit close to the eq3
    # and eq4 boundaries, where a witness is hardest to find
    tol = FeasibilityOptions().tol
    for seed in range(20):
        rng = np.random.default_rng([90, seed])
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        la = rng.uniform(0.66, 0.707)
        a, b, c = la * q[:, 0], math.sqrt(1.0 - la * la) * q[:, 1], la * q[:, 2]
        mat = partition_compatibility_matrix(boundary_joint(a, b), boundary_joint(b, c))
        rows = {p.key: p.observable for p in mat.rows}
        cols = {p.key: p.observable for p in mat.cols}
        for (xk, yk), report in mat.cells.items():
            assert report.verdict is not Verdict.UNDETERMINED, (seed, xk, yk)
            if report.verdict is Verdict.FEASIBLE:
                assert report.witness is not None, (seed, xk, yk)
                assert validate(report.witness, tol=tol).passed, (seed, xk, yk)
                resid = witness_residual(report.witness, (rows[xk], cols[yk]))
                assert resid <= tol, (seed, xk, yk, resid)


def _decision(report):
    """Everything a report decides: verdict, reason, the repr of margin and
    residual, iterations and the witness's matrix bytes."""
    w = report.witness
    cells = None if w is None else [w.effects[z].matrix.tobytes() for z in w.outcomes]
    return report.verdict, report.reason, repr(report.margin), repr(report.residual), \
        report.iterations, cells


def test_the_partition_matrix_constructs_no_operator(monkeypatch):
    # the row and column observables used to be built from two operators
    # each, 28 per matrix of two four-outcome joints
    lb = math.sqrt(1.0 - 0.75**2)
    g, f = boundary_joint(0.75 * EX, lb * EY), boundary_joint(lb * EY, 0.75 * EZ)
    built, init = [], HermitianOperator.__post_init__
    monkeypatch.setattr(HermitianOperator, "__post_init__", lambda op: built.append(op) or init(op))
    matrix = partition_compatibility_matrix(g, f)
    assert len(matrix.cells) == 49 and built == []


@pytest.mark.parametrize("seed", range(8))
def test_every_matrix_cell_is_decides_report_on_its_pair(seed):
    # the batch against the batch of one, on rotated boundary-joint matrices
    # below 1/sqrt(2) (odd seeds) and above it (even seeds)
    rng = np.random.default_rng([91, seed])
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    la = rng.uniform(0.66, 0.705) if seed % 2 else rng.uniform(0.71, 0.8)
    a, b, c = la * q[:, 0], math.sqrt(1.0 - la * la) * q[:, 1], la * q[:, 2]
    mat = partition_compatibility_matrix(boundary_joint(a, b), boundary_joint(b, c))
    rows = {p.key: p.observable for p in mat.rows}
    cols = {p.key: p.observable for p in mat.cols}
    searched = 0
    for (xk, yk), cell in mat.cells.items():
        pair = (rows[xk], cols[yk])
        assert _decision(cell) == _decision(decide(FeasibilityProblem(pair))), (xk, yk)
        if cell.verdict is Verdict.FEASIBLE:
            # the gate checked 49 joints as one stack, witness_residual checks one
            assert cell.residual == witness_residual(cell.witness, pair), (xk, yk)
        if cell.verdict is Verdict.FEASIBLE and cell.reason != "commuting":
            # the witness came from the planar search, run here on its own
            numeric = decide_pair_qubit_numeric(*pair)
            assert _decision(numeric)[3:] == _decision(cell)[3:], (xk, yk)
            searched += 1
    assert searched > 0


# ---------------------------------------------------------------------------
# paradox audits
# ---------------------------------------------------------------------------


def example_joints(l: float):
    return boundary_joint(l * EX, l * EY), boundary_joint(l * EY, l * EZ)


def test_paradox_audit_requires_shared_marginal():
    g = boundary_joint(L * EX, L * EY)
    u = L * (EX + EY) / math.sqrt(2.0)
    v = L * (EX - EY) / math.sqrt(2.0)
    f = boundary_joint(u, v)
    with pytest.raises(ValueError, match="share no common parent"):
        partition_paradox_audit(g, f)


def test_paradox_audit_boundary_triple():
    # every partitioning pair is compatible, and decide's barrier route proves
    # (G, F) incompatible with a dual certificate
    g, f = example_joints(L)
    report = partition_paradox_audit(g, f)
    mat = report.matrix
    assert len(mat.rows) == len(mat.cols) == 7
    assert len(mat.cells) == 49
    assert mat.all_feasible
    assert mat.undetermined_count == 0
    assert report.global_report.verdict is Verdict.INFEASIBLE
    assert_dual_certificate(report.global_report, (g, f))
    assert report.paradox


def test_paradox_audit_without_context_is_certified():
    # (G, F) alone goes to decide, whose barrier route proves it INFEASIBLE;
    # the analytic eq6 verdict on the triple of parents must agree
    g, f = example_joints(L)
    report = partition_paradox_audit(g, f)
    assert report.global_report.verdict is Verdict.INFEASIBLE
    assert report.paradox
    assert_dual_certificate(report.global_report, (g, f))
    parents = tuple(unbiased(L * v) for v in (EX, EY, EZ))
    analytic = decide(FeasibilityProblem(parents))
    assert analytic.reason == "eq6"
    assert analytic.verdict is report.global_report.verdict


def transformed(joint, u, names):
    """U G U* with each axis's outcome labels renamed by its map in ``names``."""
    effects = {
        tuple(n[x] for n, x in zip(names, z)): HermitianOperator(u @ e.matrix @ u.conj().T)
        for z, e in joint.effects.items()
    }
    parents = tuple(tuple(n[x] for x in p) for n, p in zip(names, joint.parents))
    return ProductObservable(parents, effects)


@pytest.mark.parametrize("seed", range(3))
def test_paradox_audit_invariant_under_conjugation_relabeling_and_swap(seed):
    g, f = example_joints(L)
    base = partition_paradox_audit(g, f).global_report
    u = random_unitary(2, np.random.default_rng([91, seed]))
    # the shared parent keeps one labeling on both joints; "0" and "1" swap on it
    na, nb, nc = {"0": "x-", "1": "x+"}, {"0": "1", "1": "0"}, {"0": "lo", "1": "hi"}
    gu, fu = transformed(g, u, (na, nb)), transformed(f, u, (nb, nc))
    for first, second in ((gu, fu), (fu, gu)):
        report = partition_paradox_audit(first, second)
        assert len(report.matrix.cells) == 49
        assert all(r.verdict is Verdict.FEASIBLE for r in report.matrix.cells.values())
        assert report.global_report.verdict is Verdict.INFEASIBLE
        assert_dual_certificate(report.global_report, (first, second))
        assert report.global_report.margin == pytest.approx(base.margin, abs=1e-9)
        assert report.paradox


def test_paradox_audit_commuting_pair_is_negative():
    a = diag_obs({"0": (0,), "1": (1,)}, 2)
    b = diag_obs({"0": (0,), "1": (1,)}, 2)
    g = product_joint((a, b))
    report = partition_paradox_audit(g, g)
    assert report.matrix.all_feasible
    assert report.global_report.verdict is Verdict.FEASIBLE
    assert not report.paradox


def test_paradox_audit_feasible_global_when_triple_exists():
    # l = 0.5 sits inside the triple-compatibility region, so the two joints
    # built from a genuine triple joint must see a FEASIBLE global verdict
    l = 0.5
    parents = tuple(unbiased(l * v) for v in (EX, EY, EZ))
    triple = decide(FeasibilityProblem(parents))
    assert triple.verdict is Verdict.FEASIBLE
    k = triple.witness

    def slice_joint(axes):
        # sum K over the dropped axis to get a two-parent joint
        keep = axes
        drop = next(i for i in range(3) if i not in keep)
        cells = {}
        for xi in ("0", "1"):
            for xj in ("0", "1"):
                total = np.zeros((2, 2), dtype=complex)
                for xd in ("0", "1"):
                    z = [None, None, None]
                    z[keep[0]], z[keep[1]], z[drop] = xi, xj, xd
                    total = total + k.effects[tuple(z)].matrix
                cells[(xi, xj)] = HermitianOperator(total)
        return ProductObservable((("0", "1"), ("0", "1")), cells)

    g = slice_joint((0, 1))
    f = slice_joint((1, 2))
    opts = FeasibilityOptions(tol=1e-6)
    report = partition_paradox_audit(g, f, opts=opts)
    assert report.matrix.undetermined_count == 0
    assert report.matrix.all_feasible
    assert report.global_report.verdict is Verdict.FEASIBLE
    assert not report.paradox
