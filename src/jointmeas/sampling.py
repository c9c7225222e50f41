"""Seeded random instances for the ``commuting-sharp-product`` scenario: a
Haar unitary and a commuting sharp pair diagonal in its basis."""
from __future__ import annotations

import numpy as np

from .observables import Observable
from .operators import MAX_DIM, HermitianOperator


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fixing."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def _nonconstant_bits(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        bits = rng.integers(0, 2, dim)
        if 0 < bits.sum() < dim:
            return bits.astype(float)


def random_commuting_sharp_pair(dim: int, rng: np.random.Generator):
    """Two sharp two-outcome observables diagonal in a common random basis.
    Raises ValueError for dim < 2, where no projection is nontrivial, and for
    dim > ``MAX_DIM``, before the unitary is drawn."""
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"a nontrivial sharp pair needs dim >= 2 and dim <= {MAX_DIM}, got {dim}")
    u = random_unitary(dim, rng)

    def sharp(bits):
        one = HermitianOperator((u * bits) @ u.conj().T)
        zero_eff = HermitianOperator((u * (1.0 - bits)) @ u.conj().T)
        return Observable(("0", "1"), {"1": one, "0": zero_eff})

    return sharp(_nonconstant_bits(dim, rng)), sharp(_nonconstant_bits(dim, rng))
