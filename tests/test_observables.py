import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointmeas.feasibility import FeasibilityProblem, decide
from jointmeas.observables import (
    STRUCTURE_TOL,
    Observable,
    ProductObservable,
    commute,
    joint_from_cell,
    label_key,
    marginal,
    marginal_deviation,
    max_cell_deviation,
    max_marginal_deviation,
    observable_from_json,
    observable_to_json,
    structure_flags,
    subset_key,
    validate,
)
from jointmeas.operators import HermitianOperator, operator_to_json, opnorm
from jointmeas.sampling import random_commuting_sharp_pair, random_unitary

from conftest import identity, product_joint, random_effect


def _coin(dim: int, p: float = 0.5) -> Observable:
    return Observable(("0", "1"), {"1": identity(dim, p), "0": identity(dim, 1 - p)})


def _diag_sharp(bits) -> Observable:
    bits = np.asarray(bits, dtype=float)
    return Observable(
        ("0", "1"),
        {"1": HermitianOperator(np.diag(bits)), "0": HermitianOperator(np.diag(1.0 - bits))},
    )


def test_label_key_conventions():
    assert label_key("x") == "x"
    assert label_key(("1", "0")) == "10"
    assert label_key(("up", "dn")) == "up:dn"
    assert subset_key({"b", "a"}) == "a,b"
    assert subset_key({("1", "0"), ("0", "1")}) == "01,10"


def test_structural_checks():
    with pytest.raises(ValueError):
        Observable((), {})
    with pytest.raises(ValueError):
        Observable(("0", "0"), {"0": identity(2)})
    with pytest.raises(ValueError):
        Observable(("0", "1"), {"0": identity(2)})
    with pytest.raises(ValueError):
        Observable(("0", "1"), {"0": identity(2), "1": identity(3)})


def test_validate_reports_residuals():
    good = _coin(2)
    assert validate(good).passed
    bad = Observable(("0", "1"), {"0": identity(2, 0.6), "1": identity(2, 0.6)})
    rep = validate(bad)
    assert not rep.passed
    assert rep.normalization_residual == pytest.approx(0.2)
    neg = Observable(
        ("0", "1"),
        {
            "0": HermitianOperator(np.diag([-0.1, 0.5])),
            "1": HermitianOperator(np.diag([1.1, 0.5])),
        },
    )
    assert not validate(neg).passed


def test_sharp_and_trivial_predicates():
    assert structure_flags(_diag_sharp([1, 0, 1]))[0]
    assert not structure_flags(_coin(3))[0]
    assert structure_flags(_coin(3))[1]
    assert not structure_flags(_diag_sharp([1, 0]))[1]


def _two_outcome(e: np.ndarray) -> Observable:
    one = HermitianOperator(e)
    return Observable(("0", "1"), {"1": one, "0": identity(len(e)) - one})


def _framed(diagonal, seed: int) -> np.ndarray:
    u = random_unitary(len(diagonal), np.random.default_rng(seed))
    return (u * np.asarray(diagonal, dtype=float)) @ u.conj().T


# each pin sets the norm the tolerance bounds to 0.9 or 1.1 STRUCTURE_TOL,
# measured independently with the SVD norm
@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_structure_flags_keeps_its_sharp_threshold(scale):
    e = _framed([1.0 + scale * STRUCTURE_TOL, 1.0, 0.0], 31)  # ||E^2 - E|| = eps + eps^2
    assert np.linalg.norm(e @ e - e, 2) == pytest.approx(scale * STRUCTURE_TOL, rel=1e-5)
    assert structure_flags(_two_outcome(e))[0] is (scale < 1.0)


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_structure_flags_keeps_its_trivial_threshold(scale):
    eps = scale * STRUCTURE_TOL
    e = _framed([0.4 + 1.5 * eps, 0.4, 0.4], 32)  # tr E / 3 = 0.4 + eps / 2
    assert np.linalg.norm(e - np.trace(e).real / 3 * np.eye(3), 2) == pytest.approx(eps, rel=1e-5)
    assert structure_flags(_two_outcome(e))[1] is (scale < 1.0)


def _skewed_pair(eps: float):
    # [P, Q] for P = diag(1, 0) and Q = I / 2 + eps sigma_x is eps [[0, 1], [-1, 0]]
    p = _two_outcome(np.diag([1.0, 0.0]))
    return p, _two_outcome(np.array([[0.5, eps], [eps, 0.5]]))


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_commute_keeps_its_threshold(scale):
    a, b = _skewed_pair(scale * STRUCTURE_TOL)
    pa, qb = a.effects["1"].matrix, b.effects["1"].matrix
    assert np.linalg.norm(pa @ qb - qb @ pa, 2) == pytest.approx(scale * STRUCTURE_TOL, rel=1e-5)
    assert commute(a, b) is (scale < 1.0)


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_product_skew_check_keeps_its_threshold(scale):
    # decide builds the product joint for exactly the pairs that commute accepts
    a, b = _skewed_pair(scale * STRUCTURE_TOL)
    report = decide(FeasibilityProblem((a, b)))
    assert (report.reason == "commuting") is commute(a, b) is (scale < 1.0)


def test_marginals_of_product():
    a = _diag_sharp([1, 0])
    b = _coin(2, 0.3)
    g = product_joint((a, b))
    for axis, parent in enumerate((a, b)):
        got = marginal(g, axis)
        for x in parent.outcomes:
            assert opnorm(got.effects[x].matrix - parent.effects[x].matrix) <= 1e-12


@given(st.integers(min_value=0, max_value=200))
def test_marginal_normalization_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    a, b = random_commuting_sharp_pair(dim, rng)
    g = product_joint((a, b))
    total = sum(e.matrix for e in g.effects.values())
    assert opnorm(total - np.eye(dim)) <= 1e-12
    for axis in (0, 1):
        m = marginal(g, axis)
        assert validate(m, tol=1e-10).passed


def test_product_joint_oracle_on_diagonal_pair():
    # hand-computed product of commuting diagonal effects
    a = _diag_sharp([1, 1, 0])
    b = _diag_sharp([1, 0, 0])
    g = product_joint((a, b))
    expected_11 = np.diag([1.0, 0.0, 0.0])
    assert opnorm(g.effects[("1", "1")].matrix - expected_11) <= 1e-14
    expected_10 = np.diag([0.0, 1.0, 0.0])
    assert opnorm(g.effects[("1", "0")].matrix - expected_10) <= 1e-14


def test_product_joint_rejects_noncommuting():
    x = HermitianOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
    a = Observable(("0", "1"), {"1": x, "0": identity(2) - x})
    b = _diag_sharp([1, 0])
    assert decide(FeasibilityProblem((a, b))).reason != "commuting"
    assert not commute(a, b)


def test_joint_agreement():
    rng = np.random.default_rng(7)
    a, b = random_commuting_sharp_pair(3, rng)
    g = product_joint((a, b))
    assert max_cell_deviation(g, g) <= 1e-9
    other = ProductObservable(
        g.parents, {k: v for k, v in g.effects.items()}
    )
    assert max_cell_deviation(g, other) <= 1e-9


def test_product_observable_requires_full_grid():
    e = identity(2, 0.25)
    with pytest.raises(ValueError):
        ProductObservable((("0", "1"), ("0", "1")), {("0", "0"): e})


def test_a_product_factor_that_repeats_a_label_is_refused():
    # the repeated "0" left four outcomes on two effects, and the joint
    # passed validate
    quarter = identity(2, 0.25)
    with pytest.raises(ValueError, match="outcome labels must be unique"):
        ProductObservable((("0", "0"), ("a", "b")), {("0", "a"): quarter, ("0", "b"): quarter})
    data = {
        "outcomes": [["0", "a"], ["0", "b"]],
        "effects": {"0a": operator_to_json(quarter), "0b": operator_to_json(quarter)},
        "parents": [["0", "0"], ["a", "b"]],
    }
    with pytest.raises(ValueError, match="outcome labels must be unique"):
        observable_from_json(data)


def test_observable_json_round_trip():
    rng = np.random.default_rng(5)
    e = random_effect(3, rng)
    obs = Observable(("0", "1"), {"1": e, "0": identity(3) - e})
    back = observable_from_json(observable_to_json(obs))
    assert back.outcomes == obs.outcomes
    for x in obs.outcomes:
        assert opnorm(back.effects[x].matrix - obs.effects[x].matrix) <= 1e-12

    a, b = random_commuting_sharp_pair(2, rng)
    g = product_joint((a, b))
    back_g = observable_from_json(observable_to_json(g))
    assert isinstance(back_g, ProductObservable)
    assert max_cell_deviation(g, back_g) <= 1e-12


def _reference_marginal_deviation(g, axis, parent) -> float:
    """The marginal check as it read before the stacked kernel: build the
    axis marginal with ``marginal`` and compare effect by effect."""
    got = marginal(g, axis)
    return max(opnorm(got.effects[x].matrix - parent.effects[x].matrix) for x in parent.outcomes)


@pytest.mark.parametrize("seed", range(12))
def test_stacked_marginal_deviation_matches_the_marginal_formula(seed):
    rng = np.random.default_rng([23, seed])
    dim = int(rng.integers(2, 5))
    sizes = rng.integers(2, 4, size=int(rng.integers(2, 4)))
    parents = []
    for k, n in enumerate(sizes):
        labels = tuple(f"{k}{x}" for x in range(n))
        parents.append(Observable(labels, {x: random_effect(dim, rng) for x in labels}))
    g = ProductObservable(
        tuple(p.outcomes for p in parents),
        {z: random_effect(dim, rng) for z in itertools.product(*(p.outcomes for p in parents))},
    )
    want = [_reference_marginal_deviation(g, i, p) for i, p in enumerate(parents)]
    for i, p in enumerate(parents):
        assert abs(marginal_deviation(g, i, p) - want[i]) <= 1e-12
    assert abs(max_marginal_deviation(g, parents) - max(want)) <= 1e-12


@given(st.integers(0, 10_000), st.integers(2, 4))
def test_joint_from_cell_has_exact_marginals(seed, dim):
    rng = np.random.default_rng(seed)
    ea, eb = random_effect(dim, rng), random_effect(dim, rng)
    a = Observable(("x", "y"), {"y": ea, "x": identity(dim) - ea})
    b = Observable(("0", "1"), {"1": eb, "0": identity(dim) - eb})
    cell = random_effect(dim, rng).matrix
    g = joint_from_cell(a, b, cell, "y", "1")
    assert g.parents == (("x", "y"), ("0", "1"))
    assert np.array_equal(g.effects[("y", "1")].matrix, cell)
    assert max_marginal_deviation(g, (a, b)) <= 1e-12


def test_joint_from_cell_refuses_parents_without_two_outcomes():
    two = _coin(2)
    three = Observable(("a", "b", "c"), {x: identity(2, 1 / 3) for x in "abc"})
    with pytest.raises(ValueError, match="two two-outcome parents"):
        joint_from_cell(two, three, np.zeros((2, 2)), "1", "a")
    with pytest.raises(ValueError, match="two two-outcome parents"):
        joint_from_cell(three, two, np.zeros((2, 2)), "a", "1")
    with pytest.raises(ValueError, match="not an outcome pair"):
        joint_from_cell(two, two, np.zeros((2, 2)), "1", "2")


@pytest.mark.parametrize("dim", [-1, 0, 1])
def test_commuting_sharp_pair_needs_dimension_two(dim):
    with pytest.raises(ValueError, match="dim >= 2"):
        random_commuting_sharp_pair(dim, np.random.default_rng(0))


def _qubit_coin_and_dict():
    given = {"1": HermitianOperator(np.diag([0.75, 0.25])), "0": HermitianOperator(np.diag([0.25, 0.75]))}
    return Observable(("0", "1"), given), given


def test_changing_the_dict_passed_in_leaves_the_observable_alone():
    obs, given = _qubit_coin_and_dict()
    before = obs.stack.tobytes()
    given["1"] = HermitianOperator(np.eye(2))
    del given["0"]
    assert obs.stack.tobytes() == before
    assert set(obs.effects) == {"0", "1"}
    assert np.array_equal(obs.effects["1"].matrix, np.diag([0.75, 0.25]))
    cells = {z: HermitianOperator(np.eye(2) / 4) for z in itertools.product("01", "01")}
    g = ProductObservable((("0", "1"), ("0", "1")), cells)
    cells[("1", "1")] = HermitianOperator(np.zeros((2, 2)))
    assert np.array_equal(g.effects[("1", "1")].matrix, np.eye(2) / 4)


def test_assigning_into_the_effects_raises():
    obs, _ = _qubit_coin_and_dict()
    with pytest.raises(TypeError):
        obs.effects["1"] = HermitianOperator(np.eye(2))
    with pytest.raises(TypeError):
        del obs.effects["0"]
    assert list(obs.effects) == ["1", "0"]  # the order the effects were given in


def test_the_stack_is_read_only():
    obs, _ = _qubit_coin_and_dict()
    g = product_joint([obs, obs])
    for held in (obs, g):
        assert held.stack.shape == (len(held.outcomes), 2, 2) and not held.stack.flags.writeable
        assert not any(held.effects[x].matrix.flags.writeable for x in held.outcomes)
        with pytest.raises(ValueError):
            held.stack[0, 0, 0] = 1.0
    # the stack is in outcome order, whatever the order of the effects given
    assert np.array_equal(obs.stack[1], np.diag([0.75, 0.25]))


def _masked_marginal_gaps(cells, factors, axes) -> np.ndarray:
    """The marginal gaps as they were summed before the grid reading: per
    (axis, outcome), a masked sum over the product outcomes."""
    labels = list(itertools.product(*factors))
    gaps = []
    for axis, parents in axes:
        for x in parents[0].outcomes:
            keep = [z[axis] == x for z in labels]
            gaps.append(cells[:, keep].sum(axis=1) - np.array([p.effects[x].matrix for p in parents]))
    return np.stack(gaps, axis=1)


@given(
    st.integers(0, 10_000),
    st.integers(1, 3),
    st.integers(2, 3),
    st.lists(st.integers(2, 3), min_size=2, max_size=3),
    st.booleans(),
)
def test_the_mapped_marginal_gaps_equal_the_masked_sums_bit_for_bit(seed, joints, dim, sizes, shuffle):
    from jointmeas.observables import _marginal_gaps

    rng = np.random.default_rng(seed)
    factors = tuple(tuple(f"{k}{x}" for x in range(n)) for k, n in enumerate(sizes))
    axes = []
    for axis, labels in enumerate(factors):
        # every parent on an axis lists its outcomes alike, in the factor's
        # order or, when shuffled, in another
        order = tuple(rng.permutation(labels)) if shuffle else labels
        axes.append((axis, [
            Observable(order, {x: random_effect(dim, rng) for x in order}) for _ in range(joints)
        ]))
    cells = np.array([[random_effect(dim, rng).matrix for _ in range(int(np.prod(sizes)))] for _ in range(joints)])
    cells[:, 0, 0, 0] = -0.0  # a signed zero in every joint's first cell
    got = _marginal_gaps(cells, factors, axes)
    assert got.tobytes() == _masked_marginal_gaps(cells, factors, axes).tobytes()


def _looped_product_cells(parents) -> np.ndarray:
    """The product cells as they were built before the broadcast: per cell,
    the identity times each parent's effect in parent order."""
    dim = parents[0].dim
    combos = list(itertools.product(*(range(len(p.outcomes)) for p in parents)))
    prods = np.empty((len(combos), dim, dim), dtype=complex)
    for k, combo in enumerate(combos):
        prods[k] = np.eye(dim)
        for p, i in zip(parents, combo):
            prods[k] = prods[k] @ p.stack[i]
    return 0.5 * (prods + prods.conj().swapaxes(-1, -2))


@given(st.integers(0, 10_000), st.lists(st.integers(2, 3), min_size=2, max_size=4), st.integers(2, 4))
def test_the_broadcast_product_cells_equal_the_per_cell_loop_bit_for_bit(seed, sizes, dim):
    from jointmeas.observables import _product_cells

    rng = np.random.default_rng(seed)
    parents = []
    for k, n in enumerate(sizes):
        effects = {}
        for x in range(n):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            # signed zeros in about a third of the entries
            m = np.where(rng.random((dim, dim)) < 0.3, rng.choice([0.0, -0.0], (dim, dim)), z + z.conj().T)
            effects[f"{k}{x}"] = HermitianOperator(0.5 * (m + m.conj().T))
        parents.append(Observable(tuple(effects), effects))
    assert _product_cells(parents).tobytes() == _looped_product_cells(parents).tobytes()


@pytest.mark.parametrize("axis", [2, -1])
def test_a_marginal_axis_out_of_range_is_refused(axis):
    coin = _coin(2)
    g = product_joint((coin, coin))
    with pytest.raises(ValueError, match="out of range"):
        marginal_deviation(g, axis, coin)
    with pytest.raises(ValueError, match="out of range"):
        marginal(g, axis)
