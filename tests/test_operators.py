import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointmeas.operators import (
    ASYMMETRY_TOL,
    MAX_DIM,
    HermitianOperator,
    _hermitian_stack,
    barrier_maximize,
    eigvalsh_checked,
    hermitian_basis,
    is_effect,
    is_psd,
    loewner_leq,
    operator_from_json,
    operator_to_json,
    opnorm,
)
from jointmeas.sampling import random_unitary

from conftest import eig2x2, identity, random_hermitian


def test_symmetrization_records_asymmetry():
    m = np.array([[1.0, 0.1 + 1e-10j], [0.1, 0.0]])
    h = HermitianOperator(m)
    assert h.asymmetry <= 1e-9
    assert np.allclose(h.matrix, h.matrix.conj().T)


def test_rejects_gross_asymmetry():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermitianOperator(m)


def test_asymmetry_bound_is_asymmetry_tol():
    def skewed(eps):  # skew part [[0, eps], [-eps, 0]], spectral norm eps
        return np.array([[0.0, 1.0 + eps], [1.0 - eps, 0.0]])

    h = HermitianOperator(skewed(0.5 * ASYMMETRY_TOL))
    assert h.asymmetry == pytest.approx(0.5 * ASYMMETRY_TOL, rel=1e-6)
    with pytest.raises(ValueError, match="asymmetry"):
        HermitianOperator(skewed(2.0 * ASYMMETRY_TOL))


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_asymmetry_tol_keeps_its_threshold(scale):
    eps = scale * ASYMMETRY_TOL  # skew part [[0, eps], [-eps, 0]], spectral norm eps
    m = np.array([[0.5, 0.2 + eps], [0.2 - eps, 0.5]])
    if scale < 1.0:
        assert HermitianOperator(m).asymmetry == pytest.approx(eps, rel=1e-6)
    else:
        with pytest.raises(ValueError, match="asymmetry"):
            HermitianOperator(m)


def test_rejects_oversized_matrix():
    with pytest.raises(ValueError):
        HermitianOperator(np.eye(MAX_DIM + 1))


def test_fortran_ordered_and_transposed_inputs_construct():
    m = np.array([[0.5, 0.1 - 0.2j, 0.0], [0.1 + 0.2j, 0.3, 0.05j], [0.0, -0.05j, 0.2]])
    for layout in (np.asfortranarray(m), np.ascontiguousarray(m.T).T):
        assert not layout.flags.c_contiguous
        assert np.array_equal(HermitianOperator(layout).matrix, HermitianOperator(m).matrix)
    assert np.array_equal(HermitianOperator(m.T).matrix, HermitianOperator(m.T.copy()).matrix)
    assert np.array_equal(HermitianOperator(np.asfortranarray(np.eye(2, dtype=complex))).matrix, np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_rejects_a_nonfinite_real_or_imaginary_part(bad, order):
    m = np.eye(2, dtype=complex)
    m[1, 1] = bad
    with pytest.raises(ValueError, match="operator entries must be finite"):
        HermitianOperator(np.asarray(m, order=order))


@pytest.mark.parametrize("m", [
    np.array([[0.5 + 1e308j, 0], [0, 0.5]]),  # was accepted as diag(0.5, 0.5), asymmetry 0.0
    np.array([[1e308, 1e308], [1e308, 0.5]]),  # was accepted holding inf + nan j entries
    np.array([[1.0, 0.0], [0.0, -2e150]]),
    np.array([[1.0, 0.0], [0.0, 2e150j]]),
], ids=["imaginary-1e308", "real-1e308", "real-above-bound", "imaginary-above-bound"])
def test_rejects_an_entry_above_the_bound_before_any_arithmetic(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from an overflow first
        with pytest.raises(ValueError, match="operator entries must be finite"):
            HermitianOperator(m)
        with pytest.raises(ValueError, match="operator entries must be finite"):
            _hermitian_stack(np.array([np.eye(2), m]))


def test_matrix_is_frozen():
    h = identity(2)
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 5.0


def test_arithmetic():
    h = HermitianOperator(np.diag([1.0, 2.0]))
    k = HermitianOperator(np.diag([0.5, 0.5]))
    assert np.allclose((h - k).matrix, np.diag([0.5, 1.5]))
    assert h.trace() == pytest.approx(3.0)


def test_eigvalsh_matches_char_poly_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_hermitian(2, rng)
        lo, hi = eig2x2(m)
        ev = eigvalsh_checked(HermitianOperator(m))
        assert ev[0] == pytest.approx(lo, abs=1e-10)
        assert ev[-1] == pytest.approx(hi, abs=1e-10)


@given(st.integers(min_value=0, max_value=500))
def test_min_eigenvalue_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    m = random_hermitian(dim, rng)
    u = random_unitary(dim, rng)
    a = eigvalsh_checked(HermitianOperator(m))[0]
    b = eigvalsh_checked(HermitianOperator(u @ m @ u.conj().T))[0]
    assert a == pytest.approx(b, abs=1e-9)


def test_psd_and_effect_tests():
    assert is_psd(HermitianOperator(np.zeros((3, 3))))
    assert is_psd(identity(3))
    assert not is_psd(HermitianOperator(np.diag([1.0, -0.1])))
    assert is_effect(HermitianOperator(np.diag([0.0, 1.0])))
    assert not is_effect(HermitianOperator(np.diag([0.5, 1.2])))
    # the default bound is 1e-9 max(1, ||H||): 1e-9 here
    assert is_psd(HermitianOperator(np.diag([1.0, -0.9e-9])))
    assert not is_psd(HermitianOperator(np.diag([1.0, -1.1e-9])))
    for check in (is_psd, is_effect):
        assert type(check(identity(2))) is bool
        assert type(check(HermitianOperator(np.diag([0.5, 1.2])))) is bool


def test_loewner_order_basics():
    a = HermitianOperator(np.diag([0.2, 0.3]))
    b = HermitianOperator(np.diag([0.4, 0.3]))
    assert loewner_leq(a, b)
    assert not loewner_leq(b, a)
    assert loewner_leq(a, a)
    with pytest.raises(ValueError):
        loewner_leq(a, identity(3))


@given(st.integers(min_value=0, max_value=300))
def test_loewner_shift_property(seed):
    # adding a PSD operator moves up in the order; subtracting moves down
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    m = HermitianOperator(random_hermitian(dim, rng))
    w = rng.uniform(0.0, 1.0, dim)
    p = HermitianOperator(np.diag(w))
    assert loewner_leq(m, HermitianOperator(m.matrix + p.matrix))
    assert loewner_leq(m - p, m)


def test_opnorm_is_spectral():
    m = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert opnorm(m) == pytest.approx(3.0)


@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 6), st.integers(1, 5))
def test_opnorm_matches_the_svd_norm_on_stacks(seed, dim, count):
    rng = np.random.default_rng(seed)
    h = np.array([random_hermitian(dim, rng, rng.uniform(1e-3, 1e3)) for _ in range(count)])
    np.testing.assert_allclose(opnorm(h), np.linalg.norm(h, 2, axis=(1, 2)), rtol=1e-12)
    assert opnorm(h[0]) == pytest.approx(float(np.linalg.norm(h[0], 2)), rel=1e-12)
    z = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    skew = z - z.conj().swapaxes(-1, -2)  # anti-Hermitian: passed as 1j * X
    np.testing.assert_allclose(opnorm(1j * skew), np.linalg.norm(skew, 2, axis=(1, 2)), rtol=1e-12)


def _constructed(m):
    """The constructor's outcome on one matrix: its ValueError message, or
    its matrix bytes with the repr of its asymmetry."""
    try:
        h = HermitianOperator(m)
    except ValueError as exc:
        return str(exc)
    return h.matrix.tobytes(), repr(h.asymmetry)


def _assert_stack_matches_constructor(stack):
    singles = [_constructed(m) for m in stack]
    errors = [r for r in singles if isinstance(r, str)]
    if errors:
        with pytest.raises(ValueError) as exc:
            _hermitian_stack(stack)
        assert str(exc.value) == errors[0]
        return
    herm, asym = _hermitian_stack(stack)
    assert [(h.tobytes(), repr(a)) for h, a in zip(herm, asym)] == singles
    assert all(type(a) is float for a in asym)
    assert not herm.flags.writeable


def _nan_at(stack, k):
    stack = stack.astype(complex)
    stack[k, 0, -1] = complex(0.0, np.nan)
    return stack


@pytest.mark.parametrize("stack", [
    np.zeros((2, 3, 2)),  # not square
    np.zeros((1, 0, 0)),  # dimension 0
    np.zeros((1, MAX_DIM + 1, MAX_DIM + 1)),
    _nan_at(np.zeros((3, 2, 2)), 1),
    np.array([np.eye(2), [[0.0, 1.0 + 3e-8], [1.0 - 3e-8, 0.0]], [[0.0, 1.0], [0.0, 0.0]]]),
], ids=["not-square", "dim-0", "dim-above-max", "non-finite", "asymmetric"])
def test_the_stacked_constructor_raises_the_constructors_errors(stack):
    _assert_stack_matches_constructor(stack)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(1, 4),
    st.integers(1, 6),
    st.sampled_from([1e-13, 0.5 * ASYMMETRY_TOL, 0.99 * ASYMMETRY_TOL, 1.01 * ASYMMETRY_TOL]),
)
def test_the_stacked_constructor_equals_the_constructor(seed, dim, count, eps):
    # Hermitian matrices, some made slightly skew: a skew part eps K with K
    # anti-Hermitian of norm 1, near and across ASYMMETRY_TOL
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(count):
        m = random_hermitian(dim, rng).astype(complex)
        if rng.random() < 0.5:
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            k = z - z.conj().T
            m = m + eps * k / opnorm(1j * k)
        stack.append(m)
    _assert_stack_matches_constructor(np.array(stack))


def test_operator_json_round_trip():
    rng = np.random.default_rng(3)
    m = random_hermitian(4, rng)
    h = HermitianOperator(m)
    back = operator_from_json(operator_to_json(h))
    assert np.allclose(back.matrix, h.matrix, atol=1e-15)
    payload = operator_to_json(h)
    payload["re"][0][1] = payload["re"][0][1] + 1.0  # break Hermiticity
    with pytest.raises(ValueError):
        operator_from_json(payload)


def dense_barrier_maximize(c, blocks, x, t, gap_tol, stop=lambda *_: None):
    """Reference kernel: the same Newton rounds and step rule on
    F_0 + sum_a x_a F_a for the stacked ``blocks`` F_0, ..., F_n, with the
    Newton system from the dense products W F_a, H_ab = Re tr(W F_a W F_b)."""
    f0, fs = blocks[0], blocks[1:]

    def barrier(y):
        try:
            chol = np.linalg.cholesky(f0 + np.tensordot(y, fs, axes=1))
        except np.linalg.LinAlgError:
            return np.inf
        return -t * (c @ y) - 2.0 * np.log(np.diagonal(chol, 0, 1, 2).real).sum()

    w = np.linalg.inv(f0 + np.tensordot(x, fs, axes=1))
    steps = 0
    while True:
        for _ in range(50):
            wf = w @ fs
            grad = -t * c - np.einsum("abii->a", wf).real
            hess = np.einsum("azij,bzji->ab", wf, wf).real
            dx = -np.linalg.solve(hess, grad)
            decrement = -float(grad @ dx)
            if decrement <= 1e-12:
                break
            # the full step, else the longest s of 1, 1/2, 1/4, ... above the
            # damped 1 / (1 + lambda) that lowers the barrier by s lambda^2 / 4
            lam, size = np.sqrt(decrement), 1.0
            if lam >= 0.25:
                floor, value = 1.0 / (1.0 + lam), barrier(x)
                while size > floor and barrier(x + size * dx) > value - 0.25 * size * decrement:
                    size *= 0.5
                size = max(size, floor)
            x = x + size * dx
            w = np.linalg.inv(f0 + np.tensordot(x, fs, axes=1))
            steps += 1
            if (found := stop(x, w, t)) is not None:
                return x, steps, found
        if f0.shape[0] * f0.shape[1] / t <= gap_tol:
            return x, steps, None
        t *= 10.0


def dense_blocks(f0, free, weights):
    """F_0, the general directions, then one block k_lz B_b per cell for each
    coordinate b of each free variable Y_l: the structured LMI written out."""
    ys = np.einsum("lz,bij->lbzij", weights, hermitian_basis(f0.shape[-1]))
    return np.concatenate([f0[None], free, ys.reshape(-1, *f0.shape)])


def random_structured_lmi(rng, d, m, e, l):
    """F_0 = I on every cell, e random Hermitian directions whose traces over
    the whole stack vanish and l free variables whose weight rows sum to zero,
    so that a positive semidefinite F(x) - F_0 forces x = 0 and the feasible
    set is bounded."""
    z = rng.standard_normal((e, m, d, d)) + 1j * rng.standard_normal((e, m, d, d))
    free = 0.5 * (z + z.conj().swapaxes(-1, -2))
    total = np.trace(free, axis1=-2, axis2=-1).real.sum(axis=1)
    free -= (total / (m * d))[:, None, None, None] * np.eye(d)
    weights = rng.standard_normal((l, m))
    weights -= weights.mean(axis=1, keepdims=True)
    f0 = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d))
    return rng.standard_normal(e + l * d * d), f0, free, weights


def assert_kernel_matches_dense(c, f0, free, weights):
    blocks = dense_blocks(f0, free, weights)
    x0 = np.zeros(len(c))
    x, steps, found = barrier_maximize(c, f0, free, weights, x0, 1.0, 1e-6)
    x_ref, steps_ref, found_ref = dense_barrier_maximize(c, blocks, x0, 1.0, 1e-6)
    assert found is None and found_ref is None
    assert steps == steps_ref > 0
    assert np.allclose(x, x_ref, rtol=0.0, atol=1e-8)

    # stops that fire mid-round on the objective, or at the first step of a
    # later round, and hand back what they saw
    target = 0.5 * float(c @ x)
    for fires in (
        lambda y, t: c @ y >= target,
        lambda y, t: t >= 100.0,
    ):
        stop = lambda y, w, t: (y.copy(), t) if fires(y, t) else None
        x, steps, found = barrier_maximize(c, f0, free, weights, x0, 1.0, 1e-6, stop)
        x_ref, steps_ref, found_ref = dense_barrier_maximize(c, blocks, x0, 1.0, 1e-6, stop)
        assert steps == steps_ref > 0
        assert found is not None and found[1:] == found_ref[1:]
        assert np.allclose(x, x_ref, rtol=0.0, atol=1e-8)
        assert np.array_equal(found[0], x)


@pytest.mark.parametrize("d, m, n", [(2, 4, 10), (2, 12, 40), (3, 3, 20), (3, 6, 40), (4, 2, 25), (4, 3, 40)])
def test_barrier_newton_system_matches_the_dense_formula(d, m, n):
    # general directions only (l = 0)
    rng = np.random.default_rng(100 * d + n)
    assert_kernel_matches_dense(*random_structured_lmi(rng, d, m, n, 0))


@pytest.mark.parametrize("d, m, e, l", [
    (2, 4, 0, 2), (3, 5, 0, 3), (4, 3, 0, 1),  # free variables only, as in ``maximality_probe``
    (2, 4, 1, 3), (3, 9, 1, 4), (4, 8, 1, 3),  # one drift and free variables, as in ``decide``
    (3, 4, 2, 2),
])
def test_structured_barrier_matches_the_expanded_blocks(d, m, e, l):
    rng = np.random.default_rng([d, m, e, l])
    assert_kernel_matches_dense(*random_structured_lmi(rng, d, m, e, l))


@pytest.mark.parametrize("d, m, e, l", [(2, 4, 0, 2), (3, 9, 1, 4), (4, 8, 1, 3), (3, 6, 40, 0)])
def test_barrier_steps_stay_feasible_and_never_raise_the_barrier(d, m, e, l):
    # every iterate's cells are positive definite (Cholesky succeeds) and each
    # step lowers -t c.x - log det F(x) at the round's t, up to rounding
    rng = np.random.default_rng([7, d, m, e, l])
    c, f0, free, weights = random_structured_lmi(rng, d, m, e, l)
    blocks = dense_blocks(f0, free, weights)
    seen = [np.zeros(len(c))]

    def barrier(y, t):
        chol = np.linalg.cholesky(blocks[0] + np.tensordot(y, blocks[1:], axes=1))
        return -t * (c @ y) - 2.0 * np.log(np.diagonal(chol, 0, 1, 2).real).sum()

    def stop(y, w, t):
        before, after = barrier(seen[-1], t), barrier(y, t)
        assert after <= before + 1e-13 * (1.0 + abs(before))
        seen.append(y.copy())

    _, steps, _ = barrier_maximize(c, f0, free, weights, seen[0], 1.0, 1e-6, stop)
    assert steps == len(seen) - 1 > 0


def test_a_singular_newton_system_ends_the_solve():
    # a zero direction leaves its Hessian row and column zero: the solve hands
    # back the iterate it holds instead of raising numpy's LinAlgError
    rng = np.random.default_rng(5)
    c, f0, free, weights = random_structured_lmi(rng, 2, 4, 2, 0)
    free[1] = 0.0
    x0 = np.zeros(len(c))
    x, steps, found = barrier_maximize(c, f0, free, weights, x0, 1.0, 1e-6)
    assert steps == 0 and found is None
    assert np.array_equal(x, x0)


def test_hermitian_basis_is_orthonormal():
    for k in (1, 2, 3, 4):
        b = hermitian_basis(k)
        assert b.shape == (k * k, k, k)
        assert np.allclose(b, b.conj().swapaxes(-1, -2))
        gram = np.einsum("aij,bji->ab", b, b)
        assert np.allclose(gram, np.eye(k * k), atol=1e-15)
