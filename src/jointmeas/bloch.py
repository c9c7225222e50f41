"""Qubit effects in Bloch form and analytic compatibility criteria.

A qubit effect is written as (alpha/2) I + (1/2) a.sigma with alpha real and
a a real 3-vector; it is a valid effect iff ||a|| <= alpha <= 2 - ||a||, and a
nontrivial projection iff alpha = ||a|| = 1.  Two-outcome qubit observables
are handled through their defining effect.

The criteria implemented here decide joint measurability of two-outcome qubit
pairs and orthogonal triples in closed form:

* ``busch_criterion``    - pair of unbiased effects (alpha = beta = 1):
  ||a+b|| + ||a-b|| <= 2.
* ``molnar_criterion``   - pair of scaled rank-one projections
  (alpha = ||a||, beta = ||b||, a not parallel to b):
  ||a+b|| + ||a|| + ||b|| <= 2.
* ``liu_criterion``      - unbiased effect against an orthogonal-axis effect:
  2||a|| <= sqrt(beta^2 - ||b||^2) + sqrt((2-beta)^2 - ||b||^2).
* ``three_orthogonal_criterion`` - unbiased triple along orthogonal axes:
  ||a||^2 + ||b||^2 + ||c||^2 <= 1.
* ``qubit_pair_criterion`` - any pair of effects, necessary and sufficient;
  the three pair criteria above are its special cases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observables import VALIDATE_TOL, Observable, ProductObservable, _joint
from .operators import PAULI, HermitianOperator, _hermitian_stack

AXIS_TOL = 1e-10  # tolerance on normalized dot products for (anti)parallel / orthogonal tests
# a criterion holds when value <= threshold + CRITERION_TOL; an unbiased pair
# with | ||a+b|| + ||a-b|| - 2 | <= CRITERION_TOL is on the eq3 boundary
CRITERION_TOL = 1e-9
EFFECT_TOL = 1e-12  # slack of the effect test on gamma-family cells
# slack of every criterion's input check in Bloch parameters, where an
# eigenvalue slack s is 2s: the effects that pass ``validate`` by default
_INPUT_TOL = 2.0 * VALIDATE_TOL
_QUBIT_PAIR = (("0", "1"), ("0", "1"))  # the outcomes of a joint of two simple qubit observables
_EYE = np.eye(2, dtype=complex)


def bloch_matrix(alpha: float, a) -> np.ndarray:
    """(alpha I + a.sigma) / 2."""
    return _bloch_matrices([alpha], np.asarray(a, dtype=float)[None])[0]


def _bloch_params(m) -> tuple:
    """(alpha, [a_x, a_y, a_z]) of a qubit matrix given as nested lists:
    tr M and tr(M sigma_k) read off the entries, the same floating-point
    values as the traces."""
    (m00, m01), (_, m11) = m
    return m00.real + m11.real, [2.0 * m01.real, -2.0 * m01.imag, m00.real - m11.real]


def _bloch_matrices(alphas, vecs) -> np.ndarray:
    """``bloch_matrix`` of each (alpha, a) of a stack (n,) and (n, 3): alpha I
    plus a_x, a_y and a_z times their Pauli matrices in that order, halved."""
    m = np.asarray(alphas, dtype=float)[:, None, None] * _EYE
    terms = vecs[:, :, None, None] * PAULI
    return 0.5 * (((m + terms[:, 0]) + terms[:, 1]) + terms[:, 2])


@dataclass(frozen=True, eq=False)
class BlochEffect:
    """A qubit effect in Bloch form."""

    alpha: float
    a: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.a, dtype=float).reshape(3).copy()
        vec.flags.writeable = False
        object.__setattr__(self, "a", vec)
        object.__setattr__(self, "alpha", float(self.alpha))

    def to_operator(self) -> HermitianOperator:
        return HermitianOperator(bloch_matrix(self.alpha, self.a))

    def complement(self) -> "BlochEffect":
        return BlochEffect(2.0 - self.alpha, -self.a)


@dataclass(frozen=True, eq=False)
class SimpleQubitObservable:
    """Two-outcome qubit observable determined by the effect of outcome '1'."""

    one: BlochEffect

    def as_observable(self) -> Observable:
        return Observable(
            ("0", "1"),
            {"1": self.one.to_operator(), "0": self.one.complement().to_operator()},
        )


def _norm(v: np.ndarray) -> float:
    """Euclidean length sqrt(v.v) of a real vector array: ``np.linalg.norm``
    bit for bit, which takes the same dot product, at a fraction of its cost."""
    return math.sqrt(v.dot(v))


def _is_effect_within(alpha: float, norm: float, tol: float = _INPUT_TOL) -> bool:
    """Effect condition in Bloch form from ||a||: ||a|| <= alpha <= 2 - ||a||
    within ``tol``.  At the default ``_INPUT_TOL`` it is every criterion's
    input check and the guard of ``decide``'s qubit routes."""
    return norm <= alpha + tol and alpha <= 2.0 - norm + tol


def _require_effects(*named):
    """Raise ValueError naming the first (name, alpha, a) outside ``_INPUT_TOL``."""
    for name, alpha, v in named:
        if not _is_effect_within(float(alpha), _norm(v)):
            raise ValueError(f"({name}) is not a valid effect")


def _unit_dot(u, v) -> float:
    """Normalized dot product; zero vectors count as orthogonal to everything."""
    nu, nv = _norm(u), _norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def are_orthogonal(u, v) -> bool:
    return abs(_unit_dot(u, v)) <= AXIS_TOL


def are_parallel(u, v) -> bool:
    """Parallel or antiparallel; zero vectors count as parallel to everything."""
    nu, nv = _norm(u), _norm(v)
    if nu == 0.0 or nv == 0.0:
        return True
    return abs(abs(_unit_dot(u, v)) - 1.0) <= AXIS_TOL


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of an analytic criterion: jm iff value <= threshold + CRITERION_TOL.

    ``margin`` is value - threshold: positive means the criterion is violated
    by that amount.  For the asymmetric Liu inequality ``value`` is the left
    side and ``threshold`` the right side.
    """

    value: float
    threshold: float
    jm: bool

    @property
    def margin(self) -> float:
        return self.value - self.threshold


def busch_criterion(a, b) -> CriterionResult:
    """Pair of unbiased qubit effects: jm iff ||a+b|| + ||a-b|| <= 2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _require_effects(("1, a", 1.0, a), ("1, b", 1.0, b))
    value = _norm(a + b) + _norm(a - b)
    return CriterionResult(value, 2.0, value <= 2.0 + CRITERION_TOL)


def molnar_criterion(a, b) -> CriterionResult:
    """Pair of scaled rank-one projections: jm iff ||a+b|| + ||a|| + ||b|| <= 2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = _norm(a), _norm(b)
    _require_effects(("||a||, a", na, a), ("||b||, b", nb, b))
    if are_parallel(a, b):
        raise ValueError("criterion requires non-parallel (and nonzero) vectors")
    value = _norm(a + b) + na + nb
    return CriterionResult(value, 2.0, value <= 2.0 + CRITERION_TOL)


def liu_criterion(a, beta: float, b) -> CriterionResult:
    """Unbiased effect vs an effect along an orthogonal axis.

    jm iff 2||a|| <= sqrt(beta^2 - ||b||^2) + sqrt((2-beta)^2 - ||b||^2).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _require_effects(("1, a", 1.0, a), ("beta, b", beta, b))
    if not are_orthogonal(a, b):
        raise ValueError("criterion requires a orthogonal to b")
    nb2 = float(np.dot(b, b))
    lhs = 2.0 * _norm(a)
    rhs = float(np.sqrt(max(beta**2 - nb2, 0.0)) + np.sqrt(max((2.0 - beta) ** 2 - nb2, 0.0)))
    return CriterionResult(lhs, rhs, lhs <= rhs + CRITERION_TOL)


def three_orthogonal_criterion(a, b, c) -> CriterionResult:
    """Unbiased triple along pairwise orthogonal axes: jm iff sum of ||.||^2 <= 1."""
    vecs = [np.asarray(v, dtype=float) for v in (a, b, c)]
    _require_effects(*((f"1, {name}", 1.0, v) for name, v in zip("abc", vecs)))
    for (n1, v1), (n2, v2) in (
        (("a", vecs[0]), ("b", vecs[1])),
        (("a", vecs[0]), ("c", vecs[2])),
        (("b", vecs[1]), ("c", vecs[2])),
    ):
        if not are_orthogonal(v1, v2):
            raise ValueError(f"criterion requires {n1} orthogonal to {n2}")
    value = float(sum(np.dot(v, v) for v in vecs))
    return CriterionResult(value, 1.0, value <= 1.0 + CRITERION_TOL)


def _f_term(alpha: float, n: float) -> float:
    """F = (sqrt(alpha^2 - n^2) + sqrt((2-alpha)^2 - n^2)) / 2, with the
    differences of squares factored to keep near-sharp effects accurate."""
    lower = max((alpha - n) * (alpha + n), 0.0)
    upper = max((2.0 - alpha - n) * (2.0 - alpha + n), 0.0)
    return 0.5 * (math.sqrt(lower) + math.sqrt(upper))


def qubit_pair_criterion(alpha: float, a, beta: float, b) -> CriterionResult:
    """Any pair of qubit effects (alpha, a) and (beta, b).

    With x = alpha - 1, y = beta - 1 and F_A, F_B the ``_f_term`` of each
    effect, jm iff
    (1 - F_A^2 - F_B^2)(1 - x^2/F_A^2 - y^2/F_B^2) <= (a.b - xy)^2
    (Yu, Liu, Li & Oh, PRA 81, 062116 (2010); equivalent to Busch & Schmidt,
    QIP 9, 143 (2010)).  ``value`` is the left side and ``threshold`` the
    right side.  The inequality is unchanged when either effect is replaced
    by its complement, so either outcome of each observable may be used.

    F vanishes only for a nontrivial projection, where x = 0 and x^2/F^2 is
    taken at its limit 0.  Since (1 - F^2)(1 - y^2/F^2) = ||b||^2 for every
    effect, a projection A then gives ||b||^2 <= (a.b)^2: it is compatible
    exactly with the partners whose vector is parallel to a, the commuting
    ones.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _require_effects(("alpha, a", alpha, a), ("beta, b", beta, b))
    x, y = float(alpha) - 1.0, float(beta) - 1.0
    fa = _f_term(float(alpha), _norm(a))
    fb = _f_term(float(beta), _norm(b))
    ratio_a = (x / fa) ** 2 if fa > 0.0 else 0.0
    ratio_b = (y / fb) ** 2 if fb > 0.0 else 0.0
    lhs = (1.0 - fa * fa - fb * fb) * (1.0 - ratio_a - ratio_b)
    rhs = (float(np.dot(a, b)) - x * y) ** 2
    return CriterionResult(lhs, rhs, lhs <= rhs + CRITERION_TOL)


def boundary_joint(a, b) -> ProductObservable:
    """The unique joint observable of an unbiased pair on the compatibility boundary.

    Requires ||a+b|| + ||a-b|| = 2 (within ``CRITERION_TOL``).  The joint effect for
    outcome pair (i, j) points along n_ij = ((-1)^(i+1) a + (-1)^(j+1) b) / 2
    and equals ||n_ij|| (I + n_ij.sigma/||n_ij||) / 2; each n_ij must be
    nonzero, which excludes a = +-b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    value = _norm(a + b) + _norm(a - b)
    if abs(value - 2.0) > CRITERION_TOL:
        raise ValueError(
            f"pair is not on the compatibility boundary: ||a+b|| + ||a-b|| = {value!r}"
        )
    signs = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])  # (0,0) ... (1,1)
    corners = 0.5 * (signs[:, :1] * a + signs[:, 1:] * b)
    lengths = [_norm(n) for n in corners]
    if 0.0 in lengths:
        raise ValueError("a = +-b makes a corner effect vanish; no unique direction")
    return _joint(_QUBIT_PAIR, *_hermitian_stack(_bloch_matrices(lengths, corners)))


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float


def gamma_interval(a, beta: float) -> Interval:
    """Parameter interval of the one-parameter joint family for the
    unbiased-vs-orthogonal pair: gamma in [beta - (1-||a||^2)/2, (1-||a||^2)/2].

    Preconditions pin the regime where the family is nondegenerate:
    0 < ||a|| < 1 and (1-||a||^2)/2 < beta < 1-||a||^2.
    """
    a = np.asarray(a, dtype=float)
    na = _norm(a)
    if not 0.0 < na < 1.0:
        raise ValueError(f"need 0 < ||a|| < 1, got ||a|| = {na!r}")
    half_gap = 0.5 * (1.0 - na**2)
    if not half_gap < beta < 2.0 * half_gap:
        raise ValueError(
            f"need (1-||a||^2)/2 < beta < 1-||a||^2, got beta = {beta!r} "
            f"with bounds ({half_gap!r}, {2.0 * half_gap!r})"
        )
    return Interval(beta - half_gap, half_gap)


def gamma_family_member(a, beta: float, b_hat, gamma: float) -> ProductObservable:
    """One member of the joint-observable family for the pair
    A = (unbiased, axis a) and B = (beta, beta * b_hat) with b_hat orthogonal to a.

    The four joint effects are fixed by gamma = weight of the (1,1) cell along
    b_hat; the marginal equations then force the rest.  Every cell must pass
    the effect test, and gamma outside the admissible interval is rejected
    with the failing cells named; a cell with a Bloch-vector entry above 2,
    which no effect has, fails before its length is taken.
    """
    a = np.asarray(a, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    if abs(_norm(b_hat) - 1.0) > AXIS_TOL:
        raise ValueError("b_hat must be a unit vector")
    if not are_orthogonal(a, b_hat):
        raise ValueError("b_hat must be orthogonal to a")
    gamma_interval(a, beta)  # validates the (a, beta) regime
    cells = {
        ("1", "1"): (gamma, gamma * b_hat),
        ("1", "0"): (1.0 - gamma, a - gamma * b_hat),
        ("0", "1"): (beta - gamma, (beta - gamma) * b_hat),
        ("0", "0"): (1.0 - beta + gamma, -a - (beta - gamma) * b_hat),
    }
    bad = [
        (i, j)
        for (i, j), (al, v) in cells.items()
        if not (np.abs(v) <= 2.0).all() or not _is_effect_within(al, _norm(v), EFFECT_TOL)
    ]
    if bad:
        names = ", ".join(f"({i},{j})" for i, j in sorted(bad))
        raise ValueError(f"gamma = {gamma!r} gives invalid effects at cells {names}")
    order = sorted(cells)  # product-outcome order; ``effects`` lists them as above
    stack = _bloch_matrices([cells[z][0] for z in order], np.array([cells[z][1] for z in order]))
    return _joint(_QUBIT_PAIR, *_hermitian_stack(stack), order=list(cells))
