"""Seeded random instance generators.  The ``commuting-sharp-product``
scenario draws its pair with ``random_commuting_sharp_pair``; the other
generators serve the test suite."""
from __future__ import annotations

import numpy as np

from .bloch import BlochEffect, SimpleQubitObservable
from .observables import Observable
from .operators import HermitianOperator


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fixing."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def random_effect(dim: int, rng: np.random.Generator) -> HermitianOperator:
    u = random_unitary(dim, rng)
    w = rng.uniform(0.0, 1.0, dim)
    return HermitianOperator((u * w) @ u.conj().T)


def _nonconstant_bits(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        bits = rng.integers(0, 2, dim)
        if 0 < bits.sum() < dim:
            return bits.astype(float)


def random_commuting_sharp_pair(dim: int, rng: np.random.Generator):
    """Two sharp two-outcome observables diagonal in a common random basis.
    Raises ValueError for dim < 2, where no projection is nontrivial."""
    if dim < 2:
        raise ValueError(f"a nontrivial sharp pair needs dim >= 2, got {dim}")
    u = random_unitary(dim, rng)

    def sharp(bits):
        one = HermitianOperator((u * bits) @ u.conj().T)
        zero_eff = HermitianOperator((u * (1.0 - bits)) @ u.conj().T)
        return Observable(("0", "1"), {"1": one, "0": zero_eff})

    return sharp(_nonconstant_bits(dim, rng)), sharp(_nonconstant_bits(dim, rng))


def _random_direction(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _simple(alpha: float, vec) -> Observable:
    return SimpleQubitObservable(BlochEffect(alpha, vec)).as_observable()


def random_unbiased_pair(rng: np.random.Generator):
    """Two unbiased qubit observables; norms spread across the feasibility split."""
    na, nb = rng.uniform(0.2, 1.0, 2)
    return _simple(1.0, na * _random_direction(rng)), _simple(1.0, nb * _random_direction(rng))


def random_rank_one_pair(rng: np.random.Generator):
    """Two scaled rank-one qubit observables (alpha equal to the vector norm)."""
    while True:
        va = rng.uniform(0.1, 1.0) * _random_direction(rng)
        vb = rng.uniform(0.1, 1.0) * _random_direction(rng)
        cross = np.linalg.norm(np.cross(va, vb))
        if cross > 1e-6 * np.linalg.norm(va) * np.linalg.norm(vb):
            return _simple(float(np.linalg.norm(va)), va), _simple(float(np.linalg.norm(vb)), vb)


def random_orthogonal_unbiased_vs_biased_pair(rng: np.random.Generator):
    """An unbiased observable and a biased one with orthogonal Bloch vectors."""
    va = rng.uniform(0.2, 1.0) * _random_direction(rng)
    raw = rng.standard_normal(3)
    raw -= (raw @ va) / (va @ va) * va
    bnorm = rng.uniform(0.05, 0.95)
    vb = bnorm * raw / np.linalg.norm(raw)
    beta = rng.uniform(bnorm, 2.0 - bnorm)
    return _simple(1.0, va), _simple(float(beta), vb)
