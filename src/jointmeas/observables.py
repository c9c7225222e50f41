"""Finite-outcome observables (POVMs), marginals and the marginal check, and
the joint constructions: product joints and the two-outcome joint fixed by
one cell.

The marginal check, ``decide``'s witness gate and its barrier route read the
marginals of joint cells through one cached 0/1 matrix per outcome
structure, ``_marginal_map``; ``marginal`` keeps its zero-start sum.

An outcome label is either a plain string or, for observables living on a
product outcome space, a tuple of parent labels.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .operators import (
    HermitianOperator,
    _hermitian_stack,
    eigvalsh_checked,
    operator_from_json,
    operator_to_json,
    opnorm,
)

# spectral-norm bound of the structural tests: ||E^2 - E|| (sharp) and
# ||E - (tr E / d) I|| (trivial) in ``structure_flags``, ||[A, B]|| in ``commute``
STRUCTURE_TOL = 1e-9
# largest ``marginal_deviation`` at which a joint's marginal counts as a given
# parent (the order audit and the paradox audit)
MARGINAL_TOL = 1e-8
# default bound of ``validate``: effect eigenvalues in [-tol, 1 + tol] and the
# normalization residual at most tol
VALIDATE_TOL = 1e-9


def label_key(label) -> str:
    """Canonical string form of an outcome label for JSON keys and reports."""
    if isinstance(label, tuple):
        if all(len(part) == 1 for part in label):
            return "".join(label)
        return ":".join(label)
    return str(label)


def subset_key(labels) -> str:
    """Canonical key for a set of outcome labels: sorted label keys joined by ','."""
    return ",".join(sorted(label_key(x) for x in labels))


def designation_order(obs) -> list:
    """Deterministic preference order for the designated outcome of an
    observable: "1" when present, otherwise its outcomes in reverse."""
    outs = list(obs.outcomes)
    if "1" in outs:
        return ["1"] + [x for x in outs if x != "1"]
    return list(reversed(outs))


def _hold(obs, labels, given):
    """Give ``obs`` its ``stack`` of the operators ``given`` (label -> operator)
    in ``labels`` order, stacked once, and its ``effects`` view of it."""
    ops = [given[x] for x in labels]
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise ValueError(f"effects have mixed dimensions {sorted(dims)}")
    stack = np.array([op.matrix for op in ops])
    stack.flags.writeable = False
    _view(obs, labels, stack, [op.asymmetry for op in ops], given)


def _view(obs, labels, stack, asym, order):
    """Set ``obs.stack`` to a checked read-only stack (outcomes in ``labels``
    order) with its asymmetries, and ``obs.effects`` to a read-only mapping
    listing the labels in ``order``, to ``HermitianOperator`` views of its
    rows; returns ``obs``."""
    ops = {}
    for x, m, s in zip(labels, stack, asym):
        ops[x] = op = object.__new__(HermitianOperator)  # the stack is checked: no second check
        object.__setattr__(op, "matrix", m)
        object.__setattr__(op, "asymmetry", s)
    object.__setattr__(obs, "stack", stack)
    object.__setattr__(obs, "effects", MappingProxyType({x: ops[x] for x in order}))
    return obs


@dataclass(frozen=True, eq=False)
class Observable:
    """An outcome-labeled effect family.  Construction checks structure only
    (matching labels, equal dimensions); the numerical POVM conditions are
    reported by :func:`validate` so that broken inputs can still be examined.

    The effects are held as one read-only ``stack`` (n, d, d) in outcome
    order, stacked once at construction; ``effects`` is a read-only mapping
    of views of it, so changing the dict passed in changes nothing.
    """

    outcomes: tuple
    effects: Mapping
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        if not outcomes:
            raise ValueError("observable needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        if set(self.effects) != set(outcomes):
            raise ValueError("effect labels do not match outcome labels")
        _hold(self, outcomes, self.effects)

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]


@dataclass(frozen=True, eq=False)
class ProductObservable:
    """An observable on the Cartesian product of parent outcome sets.

    ``parents`` holds the outcome labels of each factor; outcome labels of the
    product are tuples, one entry per factor, and every combination must be
    present in ``effects``.  The effects are held as in ``Observable``, the
    stack in product-outcome order.
    """

    parents: tuple
    effects: Mapping
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        parents = tuple(tuple(p) for p in self.parents)
        object.__setattr__(self, "parents", parents)
        if len(parents) < 2:
            raise ValueError("product observable needs at least two factors")
        if any(len(set(p)) != len(p) for p in parents):
            raise ValueError("outcome labels must be unique")
        labels = list(itertools.product(*parents))
        if set(self.effects) != set(labels):
            raise ValueError("effects do not cover the product outcome set exactly")
        _hold(self, labels, self.effects)

    @property
    def outcomes(self) -> tuple:
        return tuple(itertools.product(*self.parents))

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]


def _joint(factors, stack, asym, order=None) -> ProductObservable:
    """The joint on the outcomes ``product(*factors)`` from a
    ``_hermitian_stack`` of its cells in that order; ``effects`` lists them
    in that order, or in ``order``."""
    g = object.__new__(ProductObservable)
    object.__setattr__(g, "parents", factors)
    labels = list(itertools.product(*factors))
    return _view(g, labels, stack, asym, labels if order is None else order)


@dataclass(frozen=True)
class ValidationReport:
    """Per-effect spectral bounds plus the normalization residual."""

    min_eigenvalues: dict
    max_eigenvalues: dict
    normalization_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        ok_low = all(v >= -self.tol for v in self.min_eigenvalues.values())
        ok_high = all(v <= 1.0 + self.tol for v in self.max_eigenvalues.values())
        return ok_low and ok_high and self.normalization_residual <= self.tol

    def to_json(self) -> dict:
        return {
            "min_eigenvalues": {label_key(k): v for k, v in self.min_eigenvalues.items()},
            "max_eigenvalues": {label_key(k): v for k, v in self.max_eigenvalues.items()},
            "normalization_residual": self.normalization_residual,
            "tol": self.tol,
            "passed": self.passed,
        }


def validate(obs, tol: float = VALIDATE_TOL) -> ValidationReport:
    """Check the POVM conditions: each effect in [0, 1], effects summing to identity."""
    evals = eigvalsh_checked(obs.stack)
    lows = dict(zip(obs.outcomes, evals[:, 0].tolist()))
    highs = dict(zip(obs.outcomes, evals[:, -1].tolist()))
    total = sum(obs.stack, np.zeros((obs.dim, obs.dim), dtype=complex))  # in outcome order
    resid = opnorm(total - np.eye(obs.dim))
    return ValidationReport(lows, highs, resid, tol)


def structure_flags(obs) -> tuple[bool, bool]:
    """(sharp, trivial) from one stacked ``eigvalsh`` of the effects.  For
    Hermitian E, ||E^2 - E|| = max |lambda^2 - lambda| (sharp) and
    ||E - (tr E / d) I|| = max |lambda - mean lambda| (trivial), each at most
    ``STRUCTURE_TOL`` for every effect."""
    lam = np.linalg.eigvalsh(obs.stack)
    sharp = np.abs(lam * lam - lam).max() <= STRUCTURE_TOL
    trivial = np.abs(lam - lam.mean(axis=1, keepdims=True)).max() <= STRUCTURE_TOL
    return bool(sharp), bool(trivial)


def commute(a, b) -> bool:
    """True iff every effect of a commutes with every effect of b within
    ``STRUCTURE_TOL``: one batched ``opnorm`` over all outcome pairs."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ab = a.stack[:, None] @ b.stack[None]
    # [A, B] = AB - (AB)* is anti-Hermitian; i [A, B] has the same norm
    return bool(opnorm(1j * (ab - ab.conj().swapaxes(-1, -2))).max() <= STRUCTURE_TOL)


def _coarse_grained(obs, groups, factors=None):
    """``obs`` coarse-grained: per key, the effects of the outcomes in
    ``groups[key]`` summed in outcome order from a zero start and held as
    ``_joint`` holds a joint; an ``Observable`` on the keys, or the joint on ``product(*factors)``."""
    zero, rows = np.zeros((obs.dim, obs.dim), dtype=complex), list(zip(obs.outcomes, obs.stack))
    stack, asym = _hermitian_stack([sum((m for x, m in rows if x in g), zero) for g in groups.values()])
    if factors is not None:
        return _joint(factors, stack, asym)
    coarse = object.__new__(Observable)
    object.__setattr__(coarse, "outcomes", tuple(groups))
    return _view(coarse, coarse.outcomes, stack, asym, coarse.outcomes)


def marginal(g: ProductObservable, axis: int):
    """Sum the product effects over every factor except ``axis``."""
    if not 0 <= axis < len(g.parents):
        raise ValueError(f"axis {axis} out of range for {len(g.parents)} factors")
    return _coarse_grained(g, {x: {z for z in g.outcomes if z[axis] == x} for x in g.parents[axis]})


@functools.lru_cache(maxsize=256)
def _marginal_map(factors, axes) -> np.ndarray:
    """The read-only 0/1 matrix M with one row per (axis, outcome) of
    ``axes``, pairs (axis, outcomes) in the parent's own outcome order, and
    one column per outcome of ``product(*factors)``: (M G)_(i, x) sums the
    cells G_z with z_i = x.  Built once per outcome structure."""
    for axis, outcomes in axes:
        if not 0 <= axis < len(factors):
            raise ValueError(f"axis {axis} out of range for {len(factors)} factors")
        if set(outcomes) != set(factors[axis]):
            raise ValueError(f"axis {axis} labels do not match the parent observable")
    labels = list(itertools.product(*factors))
    m = np.array([[z[i] == x for z in labels] for i, outcomes in axes for x in outcomes], dtype=float)
    m.flags.writeable = False
    return m


def _marginal_gaps(cells, factors, axes) -> np.ndarray:
    """The marginals minus the parent effects for a stack (J, n, d, d) of
    joints on the outcomes ``product(*factors)``: (J, c, d, d), one row of
    ``_marginal_map`` per (axis, parent, outcome) in ``axes``, whose
    ``parents`` hold each joint's parent on that axis, all listing their
    outcomes alike.  Each joint's marginals are M times its (n, d^2) cells."""
    j, n, d = cells.shape[:3]
    m = _marginal_map(factors, tuple((axis, parents[0].outcomes) for axis, parents in axes))
    targets = np.concatenate([np.array([p.stack for p in parents]) for _, parents in axes], axis=1)
    return (m @ cells.reshape(j, n, d * d)).reshape(j, len(m), d, d) - targets


def marginal_deviation(g: ProductObservable, axis: int, parent) -> float:
    """Largest spectral-norm distance between an effect of the ``axis``
    marginal of g and the same outcome's effect of ``parent``."""
    return float(opnorm(_marginal_gaps(g.stack[None], g.parents, [(axis, [parent])])).max())


def max_marginal_deviation(g: ProductObservable, parents) -> float:
    """``marginal_deviation`` maximized over the axes, with ``parents[i]``
    the observable that axis i should reproduce."""
    axes = [(i, [p]) for i, p in enumerate(parents)]
    return float(opnorm(_marginal_gaps(g.stack[None], g.parents, axes)).max())


def joint_from_cell(a, b, cell, x, y) -> ProductObservable:
    """The joint of two two-outcome observables fixed by its (x, y) cell D:
    the marginals force G(x, y') = A(x) - D, G(x', y) = B(y) - D and
    G(x', y') = I - A(x) - B(y) + D, with x', y' the other outcomes.  The
    marginals hold by construction; positivity of the cells is the
    caller's to check."""
    if len(a.outcomes) != 2 or len(b.outcomes) != 2:
        raise ValueError("a joint fixed by one cell needs two two-outcome parents")
    if x not in a.outcomes or y not in b.outcomes:
        raise ValueError(
            f"cell ({label_key(x)}, {label_key(y)}) is not an outcome pair of the parents"
        )
    i, j = a.outcomes.index(x), b.outcomes.index(y)
    cells = _cell_joint_cells(a.stack[i], b.stack[j], np.asarray(cell, dtype=complex)[None], i, j)
    return _joint((a.outcomes, b.outcomes), *_hermitian_stack(cells[0]))


def _cell_joint_cells(ax, by, cells, i, j) -> np.ndarray:
    """The cells of ``joint_from_cell`` for a stack (J, d, d) of its (x, y)
    cells, with A(x), B(y) given as matrices or stacks and x, y at positions
    i, j of the outcomes: (J, 4, d, d), in product-outcome order."""
    grid = np.empty((len(cells), 2, 2) + cells.shape[1:], dtype=complex)
    grid[:, i, j] = cells
    grid[:, i, 1 - j] = ax - cells
    grid[:, 1 - i, j] = by - cells
    grid[:, 1 - i, 1 - j] = np.eye(cells.shape[-1]) - ax - by + cells
    return grid.reshape(len(cells), 4, *cells.shape[1:])


def _product_cells(parents) -> np.ndarray:
    """The Hermitian part of the ordered product A_1(x_1) ... A_n(x_n) in
    every cell, in product-outcome order: one broadcast product from the
    identity over the parents' stacks, in parent order.  The caller has found
    every pair of parents commuting."""
    prods = np.eye(parents[0].dim, dtype=complex)
    for p in parents:
        prods = prods[..., None, :, :] @ p.stack
    prods = prods.reshape(-1, *prods.shape[-2:])
    return 0.5 * (prods + prods.conj().swapaxes(-1, -2))


def max_cell_deviation(g: ProductObservable, f: ProductObservable) -> float:
    """Largest spectral-norm distance between the same cell of two joints
    with the same parent outcome sets."""
    if len(g.parents) != len(f.parents):
        raise ValueError("different number of factors")
    for pg, pf in zip(g.parents, f.parents):
        if set(pg) != set(pf):
            raise ValueError("parent outcome sets differ")
    if g.dim != f.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {f.dim}")
    return float(opnorm(g.stack - np.array([f.effects[z].matrix for z in g.outcomes])).max())


def _label_to_json(label):
    return list(label) if isinstance(label, tuple) else label


def observable_to_json(obs) -> dict:
    data = {
        "outcomes": [_label_to_json(x) for x in obs.outcomes],
        "effects": {label_key(x): operator_to_json(obs.effects[x]) for x in obs.outcomes},
    }
    if isinstance(obs, ProductObservable):
        data["parents"] = [list(p) for p in obs.parents]
    return data


def observable_from_json(data: dict):
    """Rebuild an Observable (or ProductObservable when "parents" is present):
    "outcomes" is a list of strings, or of lists for a product."""
    product, outcomes = "parents" in data, data["outcomes"]
    if not isinstance(outcomes, list) or not all(isinstance(x, list if product else str) for x in outcomes):
        raise ValueError(f"outcomes must be a list of {'lists' if product else 'strings'}")
    outcomes = tuple(map(tuple, outcomes) if product else outcomes)
    if len(set(outcomes)) != len(outcomes):  # a product's outcomes are read from its parents
        raise ValueError("outcome labels must be unique")
    effects = {}
    for x in outcomes:
        key = label_key(x)
        if key not in data["effects"]:
            raise ValueError(f"missing effect for outcome {key!r}")
        effects[x] = operator_from_json(data["effects"][key])
    if product:
        parents = tuple(tuple(str(l) for l in p) for p in data["parents"])
        return ProductObservable(parents, effects)
    return Observable(outcomes, effects)
