import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jointmeas import bloch
from jointmeas.bloch import (
    CRITERION_TOL,
    BlochEffect,
    SimpleQubitObservable,
    bloch_matrix,
    boundary_joint,
    busch_criterion,
    gamma_family_member,
    gamma_interval,
    liu_criterion,
    molnar_criterion,
    qubit_pair_criterion,
    three_orthogonal_criterion,
)
from jointmeas.observables import marginal, validate
from jointmeas.operators import PAULI, loewner_leq, opnorm

from conftest import random_effect

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

vectors = st.builds(
    lambda x, y, z: np.array([x, y, z]),
    *(st.floats(-0.57, 0.57) for _ in range(3)),
)


def _is_effect(alpha, a) -> bool:
    """The effect condition ||a|| <= alpha <= 2 - ||a|| with no slack."""
    return bloch._is_effect_within(alpha, bloch._norm(np.asarray(a, dtype=float)), 0.0)


def test_effect_validity_region():
    assert _is_effect(1.0, 0.9 * EX)
    assert _is_effect(0.5, 0.5 * EX)  # rank-one boundary
    assert not _is_effect(0.4, 0.5 * EX)  # alpha below the norm
    assert not _is_effect(1.8, 0.5 * EX)  # complement fails
    assert _is_effect(2.0, np.zeros(3))  # identity


@given(st.floats(0.0, 1.9), vectors)
def test_bloch_round_trip(alpha, a):
    if not _is_effect(alpha, a):
        return
    back_alpha, back_a = bloch._bloch_params(BlochEffect(alpha, a).to_operator().matrix.tolist())
    assert abs(back_alpha - alpha) <= 1e-12
    assert np.linalg.norm(np.array(back_a) - a) <= 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_bloch_form_equals_the_pauli_traces_bit_for_bit(seed):
    e = random_effect(2, np.random.default_rng(seed))
    alpha, a = bloch._bloch_params(e.matrix.tolist())
    assert alpha == float(np.trace(e.matrix).real)
    assert np.array_equal(a, [float(np.trace(e.matrix @ s).real) for s in PAULI])


def test_complement_involution():
    eff = BlochEffect(0.7, 0.3 * EX + 0.2 * EY)
    comp = eff.complement()
    assert comp.alpha == pytest.approx(2.0 - 0.7)
    assert np.allclose(comp.a, -eff.a)
    again = comp.complement()
    assert again.alpha == pytest.approx(eff.alpha)
    assert np.allclose(again.a, eff.a)


def test_simple_observable_normalizes():
    obs = SimpleQubitObservable(BlochEffect(0.8, 0.5 * EZ)).as_observable()
    assert validate(obs).passed
    total = obs.effects["0"].matrix + obs.effects["1"].matrix
    assert opnorm(total - np.eye(2)) <= 1e-15


# --- criteria against independently recomputed arithmetic ---------------


def _norm(v):
    return math.sqrt(float(np.dot(v, v)))


def test_the_private_norm_is_numpy_norm_bit_for_bit():
    # the premise under which the criteria's margins stay unchanged
    rng = np.random.default_rng(17)
    vecs = [rng.standard_normal(3) * 10.0 ** rng.uniform(-160.0, 150.0) for _ in range(3000)]
    vecs += [
        np.zeros(3), -np.zeros(3), np.array([5e-324, 0.0, -5e-324]),
        np.array([2.2e-308, -1e-310, 3e-320]), np.array([1e150, -1e150, 1e150]),
        np.array([-1e150, 0.0, 0.0]), rng.standard_normal((3, 3))[:, 1],
    ]
    for v in vecs:
        got = bloch._norm(v)
        assert type(got) is float
        assert got.hex() == float(np.linalg.norm(v)).hex(), v


def test_busch_values():
    l = 1 / math.sqrt(2)
    r = busch_criterion(l * EX, l * EY)
    assert r.value == pytest.approx(2.0, abs=1e-12)
    assert r.jm
    # violated for longer orthogonal vectors
    r2 = busch_criterion(0.8 * EX, 0.8 * EY)
    want = _norm(0.8 * EX + 0.8 * EY) + _norm(0.8 * EX - 0.8 * EY)
    assert r2.value == pytest.approx(want, abs=1e-14)
    assert not r2.jm
    assert r2.margin == pytest.approx(want - 2.0, abs=1e-14)


def test_busch_symmetry_exact():
    a = np.array([0.3, -0.2, 0.6])
    b = np.array([-0.1, 0.5, 0.2])
    v0 = busch_criterion(a, b).value
    assert busch_criterion(b, a).value == v0
    assert busch_criterion(-a, b).value == v0


def test_busch_rejects_invalid_effect():
    with pytest.raises(ValueError):
        busch_criterion(1.5 * EX, 0.5 * EY)


def test_molnar_values():
    a, b = 0.5 * EX, 0.6 * EY
    r = molnar_criterion(a, b)
    want = _norm(a + b) + 0.5 + 0.6
    assert r.value == pytest.approx(want, abs=1e-14)
    assert r.jm == (want <= 2.0 + 1e-9)
    feas = molnar_criterion(0.2 * EX, 0.2 * EY)
    assert feas.jm


def test_molnar_rejects_parallel():
    with pytest.raises(ValueError):
        molnar_criterion(0.5 * EX, 0.25 * EX)


def test_liu_values():
    # boundary instance: value = sqrt(2) and threshold = 0 + sqrt(2)
    l = 1 / math.sqrt(2)
    r = liu_criterion(l * EX, 0.5, 0.5 * EY)
    assert r.value == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert r.threshold == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert r.jm
    r2 = liu_criterion(0.9 * EX, 0.5, 0.3 * EY)
    assert r2.value == pytest.approx(1.8, abs=1e-14)
    assert r2.threshold == pytest.approx(0.4 + math.sqrt(2.16), abs=1e-12)
    assert r2.jm
    # trivial coin partner
    r3 = liu_criterion(EX, 1.0, np.zeros(3))
    assert r3.value == pytest.approx(2.0)
    assert r3.threshold == pytest.approx(2.0)
    assert r3.jm


def test_liu_rejects_bad_hypothesis():
    with pytest.raises(ValueError):
        liu_criterion(0.5 * EX, 0.5, 0.3 * EX)  # not orthogonal
    with pytest.raises(ValueError):
        liu_criterion(0.5 * EX, 0.2, 0.3 * EY)  # beta below |b|


def test_three_orthogonal_values():
    l = 1 / math.sqrt(3)
    assert three_orthogonal_criterion(l * EX, l * EY, l * EZ).value == pytest.approx(1.0)
    assert three_orthogonal_criterion(l * EX, l * EY, l * EZ).jm
    r = three_orthogonal_criterion(0.6 * EX, 0.6 * EY, 0.6 * EZ)
    assert r.value == pytest.approx(1.08, abs=1e-12)
    assert not r.jm
    l2 = 1 / math.sqrt(2)
    r2 = three_orthogonal_criterion(l2 * EX, l2 * EY, np.zeros(3))
    assert r2.value == pytest.approx(1.0, abs=1e-12)
    assert r2.jm
    with pytest.raises(ValueError):
        three_orthogonal_criterion(EX, EX, EY)


def test_qubit_pair_criterion_values():
    # the ROADMAP example no eq criterion covers: incompatible
    r = qubit_pair_criterion(0.9, 0.85 * EX, 1.1, 0.85 * (EX + EY) / math.sqrt(2.0))
    assert not r.jm
    assert r.margin == pytest.approx(r.value - r.threshold, abs=0.0)
    assert r.margin > 0.1
    # a projection is compatible exactly with the partners parallel to it
    assert qubit_pair_criterion(1.0, EZ, 0.3, -0.2 * EZ).jm
    blocked = qubit_pair_criterion(1.0, EZ, 0.4, 0.2 * EX)
    assert not blocked.jm
    assert blocked.margin == pytest.approx(0.04, abs=1e-12)  # |a x b|^2
    assert not qubit_pair_criterion(1.0, EZ, 1.0, EX).jm
    # a scalar effect is compatible with anything
    assert qubit_pair_criterion(0.7, np.zeros(3), 1.2, 0.8 * EY).jm


def test_qubit_pair_criterion_complement_invariance():
    a, b = np.array([0.3, -0.2, 0.4]), np.array([-0.1, 0.5, 0.2])
    r = qubit_pair_criterion(0.8, a, 1.3, b)
    for alpha, va, beta, vb in ((1.2, -a, 1.3, b), (0.8, a, 0.7, -b), (1.3, b, 0.8, a)):
        other = qubit_pair_criterion(alpha, va, beta, vb)
        assert other.value == pytest.approx(r.value, abs=1e-14)
        assert other.threshold == pytest.approx(r.threshold, abs=1e-14)


def test_qubit_pair_criterion_rejects_invalid_effect():
    with pytest.raises(ValueError):
        qubit_pair_criterion(0.4, 0.5 * EX, 1.0, 0.5 * EY)
    with pytest.raises(ValueError):
        qubit_pair_criterion(1.0, 0.5 * EX, 1.8, 0.5 * EY)


unit_vectors = st.builds(
    lambda x, y, z: np.array([x, y, z]), *(st.floats(-1.0, 1.0) for _ in range(3))
).filter(lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


@st.composite
def eq_instances(draw):
    """(eq criterion result, alpha, a, beta, b) where eq3, eq4 or eq5 applies."""
    kind = draw(st.sampled_from(("eq3", "eq4", "eq5")))
    u, w = draw(unit_vectors), draw(unit_vectors)
    na, nb = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
    if kind == "eq3":
        a, b = na * u, nb * w
        return busch_criterion(a, b), 1.0, a, 1.0, b
    if kind == "eq4":
        a, b = na * u, nb * w
        assume(np.linalg.norm(np.cross(u, w)) > 1e-3)
        return molnar_criterion(a, b), na, a, nb, b
    w = w - np.dot(w, u) * u
    assume(np.linalg.norm(w) > 0.1)
    a, b = na * u, nb * w / np.linalg.norm(w)
    beta = nb + draw(st.floats(0.0, 1.0)) * (2.0 - 2.0 * nb)
    return liu_criterion(a, beta, b), 1.0, a, beta, b


@settings(max_examples=300)
@given(eq_instances())
def test_qubit_pair_criterion_agrees_with_eq3_eq4_eq5(instance):
    special, alpha, a, beta, b = instance
    assume(abs(special.margin) > 1e-6)
    general = qubit_pair_criterion(alpha, a, beta, b)
    assert general.jm == special.jm, (special.margin, general.margin)


# Each entry returns the criterion's result on an input whose value sits
# delta above its threshold.
_CRITERION_AT = {
    "eq3": lambda delta: busch_criterion(
        (2.0 + delta) / (2.0 * math.sqrt(2.0)) * EX, (2.0 + delta) / (2.0 * math.sqrt(2.0)) * EY
    ),
    "eq4": lambda delta: molnar_criterion(
        (2.0 + delta) / (2.0 + math.sqrt(2.0)) * EX, (2.0 + delta) / (2.0 + math.sqrt(2.0)) * EY
    ),
    "eq5": lambda delta: liu_criterion((0.8 + 0.5 * delta) * EX, 1.0, 0.6 * EY),
    "eq6": lambda delta: three_orthogonal_criterion(
        *(math.sqrt((1.0 + delta) / 3.0) * e for e in (EX, EY, EZ))
    ),
    # unbiased orthogonal pair: value ||a||^2 + ||b||^2 - 1 against (a.b)^2 = 0
    "qubit-pair": lambda delta: qubit_pair_criterion(
        1.0, math.sqrt((1.0 + delta) / 2.0) * EX, 1.0, math.sqrt((1.0 + delta) / 2.0) * EY
    ),
}


@pytest.mark.parametrize("name", sorted(_CRITERION_AT))
def test_criteria_hold_exactly_up_to_criterion_tol(name):
    inside = _CRITERION_AT[name](0.5 * CRITERION_TOL)
    outside = _CRITERION_AT[name](2.0 * CRITERION_TOL)
    assert inside.margin == pytest.approx(0.5 * CRITERION_TOL, rel=1e-5)
    assert outside.margin == pytest.approx(2.0 * CRITERION_TOL, rel=1e-5)
    assert inside.jm
    assert not outside.jm


# --- boundary joint ------------------------------------------------------


def test_boundary_joint_cells_and_marginals():
    l = 1 / math.sqrt(2)
    a, b = l * EX, l * EY
    g = boundary_joint(a, b)
    # all four cells have Bloch norm 1/2 here
    for (i, j), sign in (
        (("1", "1"), (1, 1)),
        (("1", "0"), (1, -1)),
        (("0", "1"), (-1, 1)),
        (("0", "0"), (-1, -1)),
    ):
        n = 0.5 * (sign[0] * a + sign[1] * b)
        want = bloch_matrix(float(np.linalg.norm(n)), n)
        assert opnorm(g.effects[(i, j)].matrix - want) <= 1e-15
    assert validate(g).passed
    for axis, vec in ((0, a), (1, b)):
        parent = SimpleQubitObservable(BlochEffect(1.0, vec)).as_observable()
        got = marginal(g, axis)
        for x in parent.outcomes:
            assert opnorm(got.effects[x].matrix - parent.effects[x].matrix) <= 1e-12


def test_boundary_joint_rejects_bad_input():
    with pytest.raises(ValueError):
        boundary_joint(0.5 * EX, 0.5 * EY)  # off boundary
    with pytest.raises(ValueError):
        boundary_joint(EX, EX)  # a = b, two corner cells vanish


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_boundary_joint_accepts_pairs_within_criterion_tol_of_the_boundary(sign):
    def at(delta):  # ||a+b|| + ||a-b|| = 2 + delta
        r = (2.0 + delta) / (2.0 * math.sqrt(2.0))
        return boundary_joint(r * EX, r * EY)

    assert len(at(sign * 0.5 * CRITERION_TOL).effects) == 4
    with pytest.raises(ValueError, match="not on the compatibility boundary"):
        at(sign * 2.0 * CRITERION_TOL)


def test_boundary_joint_non_orthogonal_instance():
    # boundary holds iff a . b = 0 when |a| = |b| = 1/sqrt(2); for skewed
    # lengths pick vectors solving |a+b| + |a-b| = 2 directly
    a = 0.9 * EX
    bn = math.sqrt(1.0 - 0.81)
    b = bn * EY
    val = _norm(a + b) + _norm(a - b)
    assert val == pytest.approx(2.0, abs=1e-12)
    g = boundary_joint(a, b)
    assert validate(g).passed


# --- gamma family ---------------------------------------------------------


def test_gamma_interval_endpoints():
    iv = gamma_interval(0.6 * EZ, 0.4)
    assert iv.lo == pytest.approx(0.08, abs=1e-12)
    assert iv.hi == pytest.approx(0.32, abs=1e-12)
    assert iv.hi - iv.lo == pytest.approx(0.24, abs=1e-12)


def test_gamma_interval_precondition_names():
    with pytest.raises(ValueError, match="a"):
        gamma_interval(1.2 * EZ, 0.4)
    with pytest.raises(ValueError, match="beta"):
        gamma_interval(0.6 * EZ, 0.3)
    with pytest.raises(ValueError, match="beta"):
        gamma_interval(0.6 * EZ, 0.7)


def test_gamma_family_members_valid_and_marginal_correct():
    a = 0.6 * EZ
    for gamma in (0.08, 0.2, 0.32):
        g = gamma_family_member(a, 0.4, EX, gamma)
        assert validate(g).passed
        ma = marginal(g, 0)
        want_a = SimpleQubitObservable(BlochEffect(1.0, a)).as_observable()
        for x in ("0", "1"):
            assert opnorm(ma.effects[x].matrix - want_a.effects[x].matrix) <= 1e-12
        mb = marginal(g, 1)
        want_b = SimpleQubitObservable(BlochEffect(0.4, 0.4 * EX)).as_observable()
        for x in ("0", "1"):
            assert opnorm(mb.effects[x].matrix - want_b.effects[x].matrix) <= 1e-12


def test_gamma_family_rejects_and_names_cells():
    a = 0.6 * EZ
    with pytest.raises(ValueError, match=r"1,0|\(1, 0\)"):
        gamma_family_member(a, 0.4, EX, 0.4)
    with pytest.raises(ValueError, match=r"0,0|\(0, 0\)"):
        gamma_family_member(a, 0.4, EX, 0.01)
    with pytest.raises(ValueError):
        gamma_family_member(a, 0.4, EZ, 0.2)  # b_hat not orthogonal to a


def test_gamma_family_opposite_ordering():
    a = 0.6 * EZ
    g1 = gamma_family_member(a, 0.4, EX, 0.1)
    g2 = gamma_family_member(a, 0.4, EX, 0.3)
    assert loewner_leq(g1.effects[("1", "1")], g2.effects[("1", "1")])
    assert not loewner_leq(g2.effects[("1", "1")], g1.effects[("1", "1")])
    assert loewner_leq(g2.effects[("0", "1")], g1.effects[("0", "1")])
    gap = (g2.effects[("1", "1")] - g1.effects[("1", "1")]).trace()
    assert gap == pytest.approx(0.2, abs=1e-12)
