"""Acceptance gate: one test per headline claim, at the stated tolerances.

Each test wraps its checks in the ``criterion`` recorder so the terminal
summary prints a PASS/FAIL line per criterion.
"""

import itertools
import math

import numpy as np
import pytest

from jointmeas import (
    BlochEffect,
    FeasibilityOptions,
    FeasibilityProblem,
    HermitianOperator,
    Observable,
    ProductObservable,
    SimpleQubitObservable,
    Verdict,
    bloch_matrix,
    boundary_joint,
    busch_criterion,
    decide,
    decide_pair_qubit_numeric,
    forward_partition_joint,
    gamma_family_member,
    gamma_interval,
    in_lb,
    liu_criterion,
    loewner_leq,
    LowerBoundQuery,
    marginal,
    max_marginal_deviation,
    molnar_criterion,
    opnorm,
    pairwise_vs_global,
    partition,
    partition_paradox_audit,
    product_joint_commuting,
    qubit_pair_criterion,
    random_commuting_sharp_pair,
    random_orthogonal_unbiased_vs_biased_pair,
    random_rank_one_pair,
    random_unbiased_pair,
    refute_greatest,
    validate,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
L2 = 1.0 / math.sqrt(2.0)
L3 = 1.0 / math.sqrt(3.0)


def unbiased(vec) -> Observable:
    return SimpleQubitObservable(BlochEffect(1.0, vec)).as_observable()


def orthogonal_triple(l: float):
    return tuple(unbiased(l * v) for v in (EX, EY, EZ))


def test_criterion_1_pairwise_not_triple(criterion):
    with criterion(1, "pairwise vs triple verdict flips"):
        quick = FeasibilityOptions(max_iter=3000, restarts=2)
        eps = 1e-9

        # pairwise flip at l = 1/sqrt(2)
        below = decide(
            FeasibilityProblem(
                (unbiased((L2 - eps) * EX), unbiased((L2 - eps) * EY)), quick
            )
        )
        above = decide(
            FeasibilityProblem(
                (unbiased((L2 + eps) * EX), unbiased((L2 + eps) * EY)), quick
            )
        )
        assert below.verdict is Verdict.FEASIBLE
        assert above.verdict is Verdict.INFEASIBLE
        assert above.reason == "eq3"

        # triple flip at l = 1/sqrt(3)
        below3 = decide(FeasibilityProblem(orthogonal_triple(L3 - eps), quick))
        above3 = decide(FeasibilityProblem(orthogonal_triple(L3 + eps), quick))
        assert below3.verdict is Verdict.FEASIBLE
        assert below3.reason == "eq6"
        assert above3.verdict is Verdict.INFEASIBLE
        assert above3.reason == "eq6"

        # the l = 0.6 splitting instance
        out = pairwise_vs_global(orthogonal_triple(0.6), quick)
        assert len(out.pairwise) == 3
        for report in out.pairwise.values():
            assert report.verdict is Verdict.FEASIBLE
        assert out.global_report.verdict is Verdict.INFEASIBLE
        assert out.global_report.margin == pytest.approx(0.08, abs=1e-9)


def test_criterion_2_boundary_joint(criterion):
    with criterion(2, "boundary joint closed form vs numerics"):
        a_obs, b_obs = unbiased(L2 * EX), unbiased(L2 * EY)
        g = boundary_joint(L2 * EX, L2 * EY)
        assert validate(g, tol=1e-12).passed
        assert max_marginal_deviation(g, (a_obs, b_obs)) <= 1e-12

        numeric = decide_pair_qubit_numeric(a_obs, b_obs)
        assert numeric.verdict is Verdict.FEASIBLE
        worst = max(
            opnorm(numeric.witness.effects[key].matrix - g.effects[key].matrix)
            for key in g.effects
        )
        assert worst <= 1e-6


def test_criterion_3_not_greatest_counterexample(criterion):
    with criterion(3, "explicit non-greatest lower bound"):
        a_vec, b_vec = L2 * EX, L2 * EY
        g11 = boundary_joint(a_vec, b_vec).effects[("1", "1")]
        fa = unbiased(a_vec).effects["1"]
        fb = unbiased(b_vec).effects["1"]
        c = HermitianOperator(bloch_matrix(0.4, 0.3 * (a_vec + b_vec)))
        assert in_lb(LowerBoundQuery(fa, fb, c, 1e-12))
        assert not loewner_leq(c, g11)
        diff = c.matrix - g11.matrix
        w, v = np.linalg.eigh(diff)
        psi = v[:, -1]
        quad = float(np.real(psi.conj() @ diff @ psi))
        assert quad >= 1e-3


def test_criterion_4_gamma_family(criterion):
    with criterion(4, "gamma family interval and opposite ordering"):
        a_vec = 0.6 * EX
        beta = 0.4
        j = gamma_interval(a_vec, beta)
        assert j.lo == pytest.approx(0.08, abs=1e-12)
        assert j.hi == pytest.approx(0.32, abs=1e-12)

        for endpoint in (j.lo, j.hi):
            g = gamma_family_member(a_vec, beta, EY, endpoint)
            assert validate(g, tol=1e-9).passed

        with pytest.raises(ValueError):
            gamma_family_member(a_vec, beta, EY, 0.33)

        grid = np.linspace(j.lo, j.hi, 5)
        members = {g: gamma_family_member(a_vec, beta, EY, g) for g in grid}
        for g1, g2 in itertools.combinations(grid, 2):
            m1, m2 = members[g1], members[g2]
            c11_1, c11_2 = m1.effects[("1", "1")], m2.effects[("1", "1")]
            c01_1, c01_2 = m1.effects[("0", "1")], m2.effects[("0", "1")]
            assert loewner_leq(c11_1, c11_2, 1e-12)
            assert loewner_leq(c01_2, c01_1, 1e-12)
            assert c11_2.trace() - c11_1.trace() > 1e-9
            assert c01_1.trace() - c01_2.trace() > 1e-9


def test_criterion_5_partition_paradox(criterion):
    with criterion(5, "partition compatibility paradox"):
        va, vb, vc = L2 * EX, L2 * EY, L2 * EZ
        g = boundary_joint(va, vb)
        f = boundary_joint(vb, vc)
        report = partition_paradox_audit(g, f, triple_context=(va, vb, vc))
        assert report.matrix.undetermined_count == 0
        assert report.matrix.all_feasible
        assert len(report.matrix.cells) == 49
        assert report.global_route == "triple-criterion"
        assert report.global_report.verdict is Verdict.INFEASIBLE
        assert report.paradox is True


def test_criterion_6_commuting_sharp_products(criterion):
    with criterion(6, "commuting sharp product joints"):
        for i in range(50):
            dim = 2 + (i % 7)
            rng = np.random.default_rng([60, i])
            a, b = random_commuting_sharp_pair(dim, rng)
            g = product_joint_commuting(a, b)
            assert validate(g, tol=1e-10).passed
            assert max_marginal_deviation(g, (a, b)) <= 1e-10
            for x in a.outcomes:
                for y in b.outcomes:
                    ref = refute_greatest(g.effects[(x, y)], a.effects[x], b.effects[y])
                    assert ref is None


def test_criterion_7_oracle_agreement(criterion):
    with criterion(7, "numeric vs analytic criterion agreement"):
        opts = FeasibilityOptions(restarts=2)
        band = 1e-3

        def params(obs):
            e = BlochEffect.from_operator(obs.effects["1"])
            return e.alpha, e.a

        def check(result, a_obs, b_obs):
            if abs(result.margin) < band:
                return 0
            numeric = decide_pair_qubit_numeric(a_obs, b_obs, opts)
            agrees = (numeric.verdict is Verdict.FEASIBLE) == result.jm
            assert agrees, (
                f"margin {result.margin:+.6f} but numeric verdict {numeric.verdict}"
            )
            return 1

        compared = 0
        for i in range(200):
            rng = np.random.default_rng([71, i])
            a_obs, b_obs = random_unbiased_pair(rng)
            (_, va), (_, vb) = params(a_obs), params(b_obs)
            compared += check(busch_criterion(va, vb), a_obs, b_obs)

        for i in range(200):
            rng = np.random.default_rng([72, i])
            a_obs, b_obs = random_rank_one_pair(rng)
            (_, va), (_, vb) = params(a_obs), params(b_obs)
            compared += check(molnar_criterion(va, vb), a_obs, b_obs)

        for i in range(200):
            rng = np.random.default_rng([73, i])
            a_obs, b_obs = random_orthogonal_unbiased_vs_biased_pair(rng)
            (_, va), (beta, vb) = params(a_obs), params(b_obs)
            compared += check(liu_criterion(va, beta, vb), a_obs, b_obs)

        def biased_effect(rng):
            # neither unbiased nor rank one, so no eq criterion applies
            while True:
                v = rng.standard_normal(3)
                n = rng.uniform(0.5, 0.95)
                alpha = n + rng.uniform(0.0, 1.0) * (2.0 - 2.0 * n)
                if min(abs(alpha - 1.0), alpha - n, 2.0 - alpha - n) >= 0.02:
                    return alpha, n * v / np.linalg.norm(v)

        for i in range(200):
            rng = np.random.default_rng([74, i])
            (alpha, va), (beta, vb) = biased_effect(rng), biased_effect(rng)
            a_obs = SimpleQubitObservable(BlochEffect(alpha, va)).as_observable()
            b_obs = SimpleQubitObservable(BlochEffect(beta, vb)).as_observable()
            compared += check(qubit_pair_criterion(alpha, va, beta, vb), a_obs, b_obs)

        # the boundary band must not swallow the sample
        assert compared >= 700


def suite_joints():
    """The canonical two-parent joints the suite constructs, rebuilt with
    fixed seeds so this module is self-contained."""
    joints = []

    def add(g, a_obs, b_obs, tag):
        joints.append((tag, g, a_obs, b_obs))

    # closed-form boundary joints, orthogonal and not
    add(
        boundary_joint(L2 * EX, L2 * EY),
        unbiased(L2 * EX),
        unbiased(L2 * EY),
        "boundary-orthogonal",
    )
    skew = math.sqrt(0.19) * EY
    add(
        boundary_joint(0.9 * EX, skew),
        unbiased(0.9 * EX),
        unbiased(skew),
        "boundary-skew",
    )

    # gamma family members
    a_vec, beta = 0.6 * EX, 0.4
    b_parent = SimpleQubitObservable(BlochEffect(beta, beta * EY)).as_observable()
    for gamma in (0.08, 0.2, 0.32):
        add(
            gamma_family_member(a_vec, beta, EY, gamma),
            unbiased(a_vec),
            b_parent,
            f"gamma-{gamma}",
        )

    # commuting sharp products across dimensions
    for i in range(10):
        rng = np.random.default_rng([80, i])
        a, b = random_commuting_sharp_pair(2 + (i % 7), rng)
        add(product_joint_commuting(a, b), a, b, f"product-{i}")

    # numeric witnesses
    pair = (unbiased(0.5 * EX), unbiased(0.5 * EY))
    nm = decide_pair_qubit_numeric(*pair, FeasibilityOptions(restarts=3))
    assert nm.verdict is Verdict.FEASIBLE
    add(nm.witness, *pair, "nm-interior")

    # slices of the closed-form eq6 triple witness
    l = 0.5
    parents = tuple(unbiased(l * v) for v in (EX, EY, EZ))
    triple = decide(
        FeasibilityProblem(parents, FeasibilityOptions(max_iter=6000, restarts=2))
    )
    assert triple.verdict is Verdict.FEASIBLE
    k = triple.witness
    for keep in ((0, 1), (1, 2), (0, 2)):
        drop = next(i for i in range(3) if i not in keep)
        cells = {}
        for xi in ("0", "1"):
            for xj in ("0", "1"):
                total = np.zeros((2, 2), dtype=complex)
                for xd in ("0", "1"):
                    z = [None, None, None]
                    z[keep[0]], z[keep[1]], z[drop] = xi, xj, xd
                    total = total + k.effects[tuple(z)].matrix
                cells[(xi, xj)] = HermitianOperator(total, atol=1e-6)
        add(
            ProductObservable((("0", "1"), ("0", "1")), cells),
            parents[keep[0]],
            parents[keep[1]],
            f"triple-slice-{keep}",
        )
    return joints


def test_criterion_8_partitionings_of_every_joint(criterion):
    with criterion(8, "coarse-grainings of every constructed joint"):
        for tag, g, a_obs, b_obs in suite_joints():
            ax, ay = g.parents
            a_marg, b_marg = marginal(g, 0), marginal(g, 1)
            for x_bits in itertools.product((False, True), repeat=len(ax)):
                x = {lab for lab, keep in zip(ax, x_bits) if keep}
                for y_bits in itertools.product((False, True), repeat=len(ay)):
                    y = {lab for lab, keep in zip(ay, y_bits) if keep}
                    h = forward_partition_joint(g, x, y)
                    assert validate(h, tol=1e-9).passed, tag
                    want_a = partition(a_marg, x)
                    want_b = partition(b_marg, y)
                    resid = max_marginal_deviation(h, (want_a, want_b))
                    assert resid <= 1e-10, (tag, sorted(x), sorted(y), resid)
