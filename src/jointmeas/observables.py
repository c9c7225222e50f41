"""Finite-outcome observables (POVMs), marginals, and product joints.

An outcome label is either a plain string or, for observables living on a
product outcome space, a tuple of parent labels.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    HermitianOperator,
    eigvalsh_checked,
    identity,
    operator_from_json,
    operator_to_json,
    opnorm,
)

Label = "str | tuple[str, ...]"


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


@dataclass(frozen=True, eq=False)
class Observable:
    """An outcome-labeled effect family.  Construction checks structure only
    (matching labels, equal dimensions); the numerical POVM conditions are
    reported by :func:`validate` so that broken inputs can still be examined.
    """

    outcomes: tuple
    effects: dict

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        if not outcomes:
            raise ValueError("observable needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        if set(self.effects) != set(outcomes):
            raise ValueError("effect labels do not match outcome labels")
        dims = {self.effects[x].dim for x in outcomes}
        if len(dims) != 1:
            raise ValueError(f"effects have mixed dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.effects[self.outcomes[0]].dim

    def effect(self, label) -> HermitianOperator:
        return self.effects[label]


@dataclass(frozen=True, eq=False)
class ProductObservable:
    """An observable on the Cartesian product of parent outcome sets.

    ``parents`` holds the outcome labels of each factor; outcome labels of the
    product are tuples, one entry per factor, and every combination must be
    present in ``effects``.
    """

    parents: tuple
    effects: dict

    def __post_init__(self):
        parents = tuple(tuple(p) for p in self.parents)
        object.__setattr__(self, "parents", parents)
        if len(parents) < 2:
            raise ValueError("product observable needs at least two factors")
        expected = set(itertools.product(*parents))
        if set(self.effects) != expected:
            raise ValueError("effects do not cover the product outcome set exactly")
        dims = {e.dim for e in self.effects.values()}
        if len(dims) != 1:
            raise ValueError(f"effects have mixed dimensions {sorted(dims)}")

    @property
    def outcomes(self) -> tuple:
        return tuple(itertools.product(*self.parents))

    @property
    def dim(self) -> int:
        return next(iter(self.effects.values())).dim

    def effect(self, label) -> HermitianOperator:
        return self.effects[label]


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


def validate(obs, tol: float = 1e-9) -> ValidationReport:
    """Check the POVM conditions: each effect in [0, 1], effects summing to identity."""
    lows, highs = {}, {}
    total = np.zeros((obs.dim, obs.dim), dtype=complex)
    for x in obs.outcomes:
        evals = eigvalsh_checked(obs.effects[x])
        lows[x] = float(evals[0])
        highs[x] = float(evals[-1])
        total = total + obs.effects[x].matrix
    resid = opnorm(total - np.eye(obs.dim))
    return ValidationReport(lows, highs, resid, tol)


def is_sharp(obs, tol: float = 1e-9) -> bool:
    """True iff every effect is a projection: ||E^2 - E|| <= tol for all outcomes."""
    for x in obs.outcomes:
        m = obs.effects[x].matrix
        if opnorm(m @ m - m) > tol:
            return False
    return True


def is_trivial(obs, tol: float = 1e-9) -> bool:
    """True iff every effect is a multiple of the identity."""
    for x in obs.outcomes:
        m = obs.effects[x].matrix
        scale = np.trace(m).real / obs.dim
        if opnorm(m - scale * np.eye(obs.dim)) > tol:
            return False
    return True


def commute(a, b, tol: float = 1e-9) -> bool:
    """True iff every effect of a commutes with every effect of b within tol."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    for x in a.outcomes:
        for y in b.outcomes:
            ma, mb = a.effects[x].matrix, b.effects[y].matrix
            if opnorm(ma @ mb - mb @ ma) > tol:
                return False
    return True


def marginal(g: ProductObservable, axis: int):
    """Sum the product effects over every factor except ``axis``."""
    if not 0 <= axis < len(g.parents):
        raise ValueError(f"axis {axis} out of range for {len(g.parents)} factors")
    effects = {}
    for x in g.parents[axis]:
        total = np.zeros((g.dim, g.dim), dtype=complex)
        for z in g.outcomes:
            if z[axis] == x:
                total = total + g.effects[z].matrix
        effects[x] = HermitianOperator(total)
    return Observable(tuple(g.parents[axis]), effects)


def marginal_deviation(g: ProductObservable, axis: int, parent) -> float:
    """Largest spectral-norm distance between an effect of the ``axis``
    marginal of g and the same outcome's effect of ``parent``."""
    got = marginal(g, axis)
    return max(opnorm(got.effects[x].matrix - parent.effects[x].matrix) for x in parent.outcomes)


def max_marginal_deviation(g: ProductObservable, parents) -> float:
    """``marginal_deviation`` maximized over the axes, with ``parents[i]``
    the observable that axis i should reproduce."""
    return max(marginal_deviation(g, axis, p) for axis, p in enumerate(parents))


def product_joint_commuting(a, b, tol: float = 1e-9) -> ProductObservable:
    """Joint observable of a commuting pair via symmetrized products.

    G(x, y) = (A(x)B(y) + B(y)A(x)) / 2.  Rejects non-commuting input; for
    commuting pairs the skew part of A(x)B(y) is exactly half the commutator,
    so the symmetrization residual stays below tol.  When neither factor is
    sharp the joint exists but need not be the only one, which is flagged
    with a warning.
    """
    if not commute(a, b, tol):
        raise ValueError("effects do not commute within tol; no product joint built")
    if not (is_sharp(a, tol) or is_sharp(b, tol)):
        warnings.warn(
            "neither factor is sharp: the product joint exists but uniqueness "
            "is not guaranteed",
            stacklevel=2,
        )
    effects = {}
    for x in a.outcomes:
        for y in b.outcomes:
            p = a.effects[x].matrix @ b.effects[y].matrix
            sym = 0.5 * (p + p.conj().T)
            resid = opnorm(p - sym)
            if resid > tol:
                raise ValueError(
                    f"product of effects ({label_key(x)}, {label_key(y)}) has "
                    f"Hermiticity residual {resid:.3e} > {tol:.1e}"
                )
            effects[(x, y)] = HermitianOperator(sym)
    return ProductObservable((tuple(a.outcomes), tuple(b.outcomes)), effects)


def joint_agreement(g: ProductObservable, f: ProductObservable, tol: float = 1e-9) -> bool:
    """True iff g and f have the same parents and agree effect-by-effect within tol."""
    if len(g.parents) != len(f.parents):
        raise ValueError("different number of factors")
    for pg, pf in zip(g.parents, f.parents):
        if set(pg) != set(pf):
            raise ValueError("parent outcome sets differ")
    if g.dim != f.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {f.dim}")
    return all(
        opnorm(g.effects[z].matrix - f.effects[z].matrix) <= tol for z in g.outcomes
    )


def _label_to_json(label):
    return list(label) if isinstance(label, tuple) else label


def _label_from_json(entry):
    return tuple(entry) if isinstance(entry, list) else str(entry)


def observable_to_json(obs) -> dict:
    data = {
        "outcomes": [_label_to_json(x) for x in obs.outcomes],
        "effects": {label_key(x): operator_to_json(obs.effects[x]) for x in obs.outcomes},
    }
    if isinstance(obs, ProductObservable):
        data["parents"] = [list(p) for p in obs.parents]
    return data


def observable_from_json(data: dict):
    """Rebuild an Observable (or ProductObservable when "parents" is present)."""
    outcomes = tuple(_label_from_json(x) for x in data["outcomes"])
    effects = {}
    for x in outcomes:
        key = label_key(x)
        if key not in data["effects"]:
            raise ValueError(f"missing effect for outcome {key!r}")
        effects[x] = operator_from_json(data["effects"][key])
    if "parents" in data:
        parents = tuple(tuple(str(l) for l in p) for p in data["parents"])
        return ProductObservable(parents, effects)
    return Observable(outcomes, effects)
