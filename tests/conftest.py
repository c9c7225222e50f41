"""Shared fixtures: closed-form 2x2 eigenvalue oracle, acceptance recorder,
dual-certificate re-check, seeded random effects and qubit pairs, and order,
effect and sharpness checks at a call site's own bound."""
from __future__ import annotations

import itertools
import math
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from jointmeas import BlochEffect, HermitianOperator, Observable, SimpleQubitObservable
from jointmeas.sampling import random_unitary

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# the suite's settings with examples drawn from each test's own fixed seed, so
# that a CI run repeats exactly; local runs keep drawing fresh examples
settings.register_profile("ci", settings.get_profile("suite"), derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


def eig2x2(m) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian matrix from the characteristic
    polynomial; independent of any LAPACK code path."""
    tr = float(m[0, 0].real + m[1, 1].real)
    det = float((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real)
    disc = max(tr * tr / 4.0 - det, 0.0)
    root = math.sqrt(disc)
    return tr / 2.0 - root, tr / 2.0 + root


@pytest.fixture
def eig2x2_oracle():
    return eig2x2


_ACCEPTANCE: dict[int, tuple[str, bool]] = {}


@pytest.fixture
def criterion():
    """Context manager that records one acceptance-criterion outcome."""

    @contextmanager
    def _criterion(num: int, title: str):
        try:
            yield
        except BaseException:
            _ACCEPTANCE[num] = (title, False)
            raise
        _ACCEPTANCE[num] = (title, True)

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        title, passed = _ACCEPTANCE[num]
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({title}): {word}")


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (z + z.conj().T)


def identity(dim: int) -> HermitianOperator:
    return HermitianOperator(np.eye(dim, dtype=complex))


def random_effect(dim: int, rng: np.random.Generator) -> HermitianOperator:
    u = random_unitary(dim, rng)
    w = rng.uniform(0.0, 1.0, dim)
    return HermitianOperator((u * w) @ u.conj().T)


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


def effect_within(e: HermitianOperator, tol: float) -> bool:
    """0 <= E <= I within ``tol``: E's eigenvalues lie in [-tol, 1 + tol]."""
    lam = np.linalg.eigvalsh(e.matrix)
    return bool(lam[0] >= -tol and lam[-1] <= 1.0 + tol)


def loewner_leq_within(a: HermitianOperator, b: HermitianOperator, tol: float) -> bool:
    """A <= B within ``tol``: the least eigenvalue of B - A is >= -tol."""
    return bool(np.linalg.eigvalsh(b.matrix - a.matrix)[0] >= -tol)


def in_lb_within(c, a, b, tol: float) -> bool:
    """C in lb(A, B) within ``tol``: A, B and C effects and C below A and B,
    each within ``tol``."""
    effects = all(effect_within(op, tol) for op in (a, b, c))
    return effects and loewner_leq_within(c, a, tol) and loewner_leq_within(c, b, tol)


def sharp_within(obs, tol: float) -> bool:
    """Every effect a projection within ``tol``: ||E^2 - E|| = max |lambda^2 -
    lambda| <= tol."""
    lam = np.linalg.eigvalsh(np.array([obs.effects[x].matrix for x in obs.outcomes]))
    return bool(np.abs(lam * lam - lam).max() <= tol)


def assert_dual_certificate(report, parents):
    """Re-check an INFEASIBLE report's dual certificate from scratch: every
    cell z gets sum_i Y[(i, z_i)] >= 0, and <Y, A> = -margin < 0, so that no
    joint G could satisfy 0 <= sum_z tr((sum_i Y[(i, z_i)]) G_z) = <Y, A>."""
    assert report.reason == "dual-certificate"
    # a proof has no residual; the barrier's gap bound is reported apart
    assert report.residual == 0.0 and report.gap > 0.0
    y = report.certificate
    for z in itertools.product(*(p.outcomes for p in parents)):
        cell = sum(y[(i, x)] for i, x in enumerate(z))
        assert np.linalg.eigvalsh(cell)[0] >= -1e-12, z
    value = sum(
        np.trace(y[(i, x)] @ p.effects[x].matrix).real
        for i, p in enumerate(parents)
        for x in p.outcomes
    )
    assert value < 0.0
    assert value == pytest.approx(-report.margin, abs=1e-12)
