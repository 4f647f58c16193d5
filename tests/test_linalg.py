"""Contract of the Hermitian matrix exponential."""

from __future__ import annotations

import numpy as np
import pytest

from mesospin.errors import ContractViolation
from mesospin.linalg import expm


def _random_hermitian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def test_expm_zero_time_is_exact_identity():
    h = _random_hermitian(5, 1)
    assert np.array_equal(expm(h, 0.0), np.eye(5, dtype=complex))
    assert np.array_equal(expm(h, 0j), np.eye(5, dtype=complex))
    stack = expm(h, np.array([[0.7, 0.0], [0j, 0.4 - 1.1j]]))
    assert stack.shape == (2, 2, 5, 5)
    assert np.array_equal(stack[0, 1], np.eye(5, dtype=complex))
    assert np.array_equal(stack[1, 0], np.eye(5, dtype=complex))


def test_expm_diagonal_case():
    diag = np.array([-1.0, 2.5, 0.3])
    for z in (0.7, 0.4 - 1.1j, 2.0j):
        expected = np.diag(np.exp(z * diag))
        assert np.abs(expm(np.diag(diag), z) - expected).max() < 1e-14


def test_expm_semigroup_property():
    h = _random_hermitian(8, 2)
    pairs = ((0.7, 0.9), (0.3 + 0.5j, -0.2 + 1.1j), (1.5j, -0.4j))
    for z1, z2 in pairs:
        combined = expm(h, z1 + z2)
        split = expm(h, z1) @ expm(h, z2)
        assert np.abs(combined - split).max() < 1e-12 * np.abs(combined).max()
    # An array of scalars gives, entry for entry, the matrices of the scalar calls.
    zs = np.array(pairs).ravel()
    stack = expm(h, zs)
    for z, matrix in zip(zs, stack):
        assert np.array_equal(matrix, expm(h, z))


def test_expm_determinant_matches_trace():
    h = _random_hermitian(6, 3)
    for z in (0.3, 1.0 - 0.5j, 2.5j):
        det = np.linalg.det(expm(h, z))
        expected = np.exp(z * np.trace(h))
        assert abs(det - expected) < 1e-12 * abs(expected)


def test_expm_rejects_nonsquare_and_bad_time():
    with pytest.raises(ContractViolation):
        expm(np.ones((2, 3)), 1.0)
    with pytest.raises(ContractViolation):
        expm(np.eye(2), float("nan"))
    with pytest.raises(ContractViolation):
        expm(np.eye(2), complex(0.0, float("inf")))
    with pytest.raises(ContractViolation):
        expm(np.eye(2), np.array([0.0, 1.0, float("nan")]))


def test_expm_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ContractViolation):
        expm(np.array([[1.0, 2.0j], [2.0j, 3.0]]), 1.0j)
