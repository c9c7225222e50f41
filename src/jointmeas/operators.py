"""Finite-dimensional Hermitian operators, positivity tests, the Loewner
order, and the log-det barrier kernel for linear matrix inequalities.

Everything downstream works with dense complex matrices.  Operators are
symmetrized on construction so later eigensolver calls can assume exact
Hermiticity; the recorded asymmetry keeps track of how much symmetrization
threw away.  ``barrier_maximize`` serves both the general joint-measurability
decision and the maximality probe: cells F0_z + sum_e x_e D_ez + sum_l k_lz Y_l
with a few general directions D_e and free Hermitian Y_l.  Each Newton step
builds per cell, on ``hermitian_basis(d)``, the real d^2 x d^2 matrix T_z of
X -> W_z X W_z (W = F(x)^-1) and S_z = T_z J_z for the fixed Jacobian J from x
to cell coordinates; the Hessian's rows are sum_z D_z^T S_z and sum_z k_lz S_z.
A step is full below Newton decrement 1/4, else the longest s = 1, 1/2, ...
that lowers the barrier by s lambda^2 / 4, but never below 1 / (1 + lambda).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_DIM = 64
# largest entry modulus of any operator or stack built: an effect's entries lie
# in [-1, 1], and sums, products and eigensolves of such matrices stay finite
_MAX_ENTRY = 1e150
ASYMMETRY_TOL = 1e-8  # largest skew part (spectral norm) that symmetrization may discard

PAULI = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
SIGMA_X, SIGMA_Y, SIGMA_Z = PAULI


class EigensolverError(RuntimeError):
    """Raised when the Hermitian eigensolver fails to converge."""


def opnorm(x) -> float | np.ndarray:
    """Spectral norm max(-lambda_min, lambda_max) of a Hermitian matrix or
    operator, from ``eigvalsh``; a stack (..., d, d) of Hermitian matrices
    gets one norm per matrix from one batched call.  Only the lower triangle
    is read, so the input must be Hermitian: pass an anti-Hermitian X (a
    commutator, a skew part) as 1j * X, which has the same norm."""
    m = x.matrix if isinstance(x, HermitianOperator) else np.asarray(x)
    lam = np.linalg.eigvalsh(m)
    norms = np.maximum(-lam[..., 0], lam[..., -1])
    return float(norms) if norms.ndim == 0 else norms


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense Hermitian matrix, symmetrized and validated at construction.

    The input is replaced by (M + M*)/2; the spectral norm of the discarded
    skew part is stored as ``asymmetry``.  Inputs with asymmetry above
    ``ASYMMETRY_TOL`` are rejected rather than silently repaired.
    """

    matrix: np.ndarray
    asymmetry: float = field(init=False, default=0.0)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        herm, asym = _hermitian_stack(m)
        object.__setattr__(self, "matrix", herm)
        object.__setattr__(self, "asymmetry", asym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self.matrix - other.matrix)


def _hermitian_stack(m) -> tuple:
    """The constructor's checks and symmetrization, run once on a matrix or
    on a stack (n, d, d): the read-only (M + M*)/2 and the asymmetry of each
    matrix as a float (a list of them for a stack).  Row k of a stack, with
    its asymmetry, is what the constructor makes of m[k]."""
    m = np.asarray(m, dtype=complex)
    d = m.shape[-1]
    if m.shape[-2] != d:
        raise ValueError(f"operator must be square, got shape {m.shape[-2:]}")
    if d < 1 or d > MAX_DIM:
        raise ValueError(f"dimension {d} outside [1, {MAX_DIM}]")
    if not np.abs(m).max(initial=0.0) <= _MAX_ENTRY:  # before any arithmetic; NaN fails too
        raise ValueError(f"operator entries must be finite and of modulus at most {_MAX_ENTRY:.0e}")
    adjoint = m.conj().swapaxes(-1, -2)
    twice_skew = m - adjoint
    asym = np.zeros(m.shape[:-2])
    if twice_skew.any():
        # np.abs: a numpy value, and 0.0 for a zero skew part in a stack, not
        # the -0.0 that eigvalsh may give
        asym = np.abs(opnorm(1j * (0.5 * twice_skew)))
        if asym.max() > ASYMMETRY_TOL:
            first = asym.flat[(asym > ASYMMETRY_TOL).argmax()]
            raise ValueError(f"matrix asymmetry {first:.3e} exceeds {ASYMMETRY_TOL:.3e}")
    herm = 0.5 * (m + adjoint)
    herm.flags.writeable = False
    return herm, asym.tolist()


def eigvalsh_checked(h) -> np.ndarray:
    """Ascending eigenvalues of an operator, or of each matrix of a checked
    stack (..., d, d), wrapping solver failures in EigensolverError."""
    m = h.matrix if isinstance(h, HermitianOperator) else h
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise EigensolverError(
            f"eigensolver failed on dim-{m.shape[-1]} operator (largest entry "
            f"{np.abs(m).max():.3e}): {exc}"
        ) from exc


def _psd_tol(evals) -> float:
    """Positivity tolerance 1e-9 max(1, ||H||) relative to H's scale, with
    ||H|| read from H's ascending eigenvalues."""
    return 1e-9 * max(1.0, -float(evals[0]), float(evals[-1]))


def is_psd(h: HermitianOperator) -> bool:
    """True iff the smallest eigenvalue is >= -1e-9 max(1, ||H||)."""
    evals = eigvalsh_checked(h)
    return bool(evals[0] >= -_psd_tol(evals))


def loewner_leq(a: HermitianOperator, b: HermitianOperator) -> bool:
    """Loewner order test: a <= b iff ``is_psd(b - a)``."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return is_psd(b - a)


def hermitian_basis(k: int) -> np.ndarray:
    """Orthonormal basis of the k x k Hermitian matrices (k^2 of them) for
    the trace inner product."""
    out = np.zeros((k, k, k, k), dtype=complex)
    for i in range(k):
        out[i, i, i, i] = 1.0
        for j in range(i + 1, k):
            out[i, j, i, j] = out[i, j, j, i] = 1.0 / np.sqrt(2.0)
            out[j, i, j, i], out[j, i, i, j] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
    return out.reshape(k * k, k, k)


_ROUND_STEPS = 50  # Newton steps per barrier round; a few suffice


def barrier_maximize(c, f0, free, weights, x, t: float, gap_tol: float, stop=lambda *_: None):
    """Maximize c.x subject to F(x)_z = F0_z + sum_e x_e D_ez + sum_l k_lz Y_l > 0.

    ``f0`` stacks the m Hermitian d x d cells F0_z, ``free`` the e general
    directions D_e (e x m x d x d, e may be 0); the l x m real ``weights`` k
    place the free Hermitian d x d variables Y_l (l may be 0).  x holds the
    x_e, then each Y_l's d^2 coordinates on ``hermitian_basis(d)``, and starts
    strictly feasible.  Log-det barrier method: Newton steps on the
    self-concordant -t c.x - log det F(x), with t growing tenfold per round.
    A step with Newton decrement lambda < 1/4 is full.  Otherwise its length
    s halves from 1 until the cells' Cholesky succeeds at x + s dx and the
    barrier falls by s lambda^2 / 4, at most log2(1 + lambda) times: it never
    goes below the damped 1 / (1 + lambda), which self-concordance makes
    feasible and descending.  A round ends when the decrement falls to 1e-12
    or after ``_ROUND_STEPS``.  A singular Newton system ends the solve, as
    does a decrement <= 0 with a nonzero gradient, which a positive-definite
    Hessian cannot give (Boyd & Vandenberghe 2004, 9.5.1).

    The Newton system is built in real coordinates from the fixed Jacobian
    J_z (d^2 x n) of x -> coords(F(x)_z): its x_e column is coords(D_ez),
    its column for Y_l's b-th coordinate is k_lz e_b.  Each step forms, per
    cell, the real d^2 x d^2 matrix T_z = Re conj(B) (W_z kron W_z^T) B^T of
    X -> W_z X W_z (W = F(x)^-1, rows of B the flattened basis) and
    S_z = T_z J_z.  The gradient is -t c - sum_z J_z^T coords(W_z); the
    Hessian sum_z J_z^T S_z has rows sum_z coords(D_ez)^T S_z for the x_e and
    sum_z k_lz S_z for Y_l's coordinates.

    After every step, ``stop(x, w, t)`` sees the iterate, the cell inverses
    W = F(x)^-1 and the round's t; anything but None ends the solve.
    Otherwise it ends after the round at which the duality-gap bound m d / t
    is at most ``gap_tol``.  Returns (x, Newton steps, what ``stop`` returned
    or None).
    """
    m, d = f0.shape[:2]
    e, l, dd = len(free), len(weights), d * d
    basis = hermitian_basis(d).reshape(dd, dd)
    conj = basis.conj()

    def coordinates(h):  # (tr(B_k H))_k of each trailing d x d block of h
        return np.ascontiguousarray((h.reshape(*h.shape[:-2], dd) @ conj.T).real)

    free_rows = coordinates(free).reshape(e, m * dd)
    unit = weights.T[:, None, :, None] * np.eye(dd)[:, None, :]  # k_lz on each diagonal
    jac = np.concatenate([free_rows.T.reshape(m, dd, e), unit.reshape(m, dd, l * dd)], axis=2)
    flat = jac.reshape(m * dd, -1)
    origin = coordinates(f0).ravel()
    scaled = np.empty_like(jac)  # S_z = T_z J_z
    hess = np.empty((e + l * dd,) * 2)

    def cells(x):
        return ((origin + flat @ x).reshape(m, dd) @ basis).reshape(m, d, d)

    def barrier(y):  # -t c.y - log det F(y), infinite outside the domain
        try:
            chol = np.linalg.cholesky(cells(y))
        except np.linalg.LinAlgError:
            return np.inf
        return -t * (c @ y) - 2.0 * np.log(np.diagonal(chol, 0, 1, 2).real).sum()

    w = np.linalg.inv(cells(x))
    steps = 0
    while True:
        for _ in range(_ROUND_STEPS):
            kron = np.einsum("zip,zqj->zijpq", w, w).reshape(m, dd, dd)
            sup = (conj @ kron @ basis.T).real
            grad = -t * c - coordinates(w).ravel() @ flat
            np.matmul(sup, jac, out=scaled)
            np.matmul(free_rows, scaled.reshape(m * dd, -1), out=hess[:e])
            np.matmul(weights, scaled.reshape(m, -1), out=hess[e:].reshape(l, dd * len(hess)))
            try:
                dx = -np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:  # singular Newton system: the caller judges x
                return x, steps, None
            decrement = -float(grad @ dx)
            if decrement <= 0.0 and grad.any():  # H not positive definite: as if singular
                return x, steps, None
            if decrement <= 1e-12:
                break
            lam, size = np.sqrt(decrement), 1.0
            if lam >= 0.25:
                floor = 1.0 / (1.0 + lam)
                value = barrier(x)
                while size > floor and barrier(x + size * dx) > value - 0.25 * size * decrement:
                    size *= 0.5
                size = max(size, floor)
            x = x + size * dx
            w = np.linalg.inv(cells(x))
            steps += 1
            if (found := stop(x, w, t)) is not None:
                return x, steps, found
        if m * d / t <= gap_tol:
            return x, steps, None
        t *= 10.0


def is_effect(e: HermitianOperator) -> bool:
    """True iff 0 <= e <= identity within 1e-9 max(1, ||E||)."""
    evals = eigvalsh_checked(e)
    tol = _psd_tol(evals)
    return bool(evals[0] >= -tol and evals[-1] <= 1.0 + tol)


def operator_to_json(h: HermitianOperator) -> dict:
    return {
        "dim": h.dim,
        "re": h.matrix.real.tolist(),
        "im": h.matrix.imag.tolist(),
    }


def operator_from_json(data: dict) -> HermitianOperator:
    """Rebuild an operator from its JSON dict, re-running the Hermiticity check."""
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"re/im shapes {re.shape}/{im.shape} do not match dim {dim}")
    m = re.astype(complex)
    m.imag = im  # not re + 1j * im, whose 0 * inf would warn before the constructor's check
    return HermitianOperator(m)
