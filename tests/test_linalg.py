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


def test_expm_of_a_stack_is_each_matrix_at_each_scalar():
    h = np.array([[_random_hermitian(4, seed + 3 * row) for seed in range(3)] for row in range(2)])
    zs = np.array([0.7, 0.0, 0.4 - 1.1j, 0j])
    # every matrix at every scalar: the caller adds the axis the scalars take
    stack = expm(h[:, :, None], zs)
    assert stack.shape == (2, 3, 4, 4, 4)
    for index in np.ndindex(2, 3):
        assert np.array_equal(stack[index], expm(h[index], zs))
        for k, z in enumerate(zs):
            assert np.array_equal(stack[index][k], expm(h[index], z))
        assert np.array_equal(stack[index][1], np.eye(4, dtype=complex))
        assert np.array_equal(stack[index][3], np.eye(4, dtype=complex))
    # a scalar keeps the stack's own shape
    assert np.array_equal(expm(h, 0.3)[1, 2], expm(h[1, 2], 0.3))


def test_expm_of_a_stack_at_a_matching_stack_of_scalars_is_each_single_call():
    h = np.array([[_random_hermitian(4, seed + 3 * row) for seed in range(3)] for row in range(2)])
    zs = np.array([[0.7, 0.0, 0.4 - 1.1j], [0j, 2.0j, -0.3]])
    each = expm(h, zs)
    assert each.shape == (2, 3, 4, 4)
    for index in np.ndindex(2, 3):
        assert np.array_equal(each[index], expm(h[index], zs[index]))
    assert np.array_equal(each[0, 1], np.eye(4, dtype=complex))
    assert np.array_equal(each[1, 0], np.eye(4, dtype=complex))
    # a column of scalars broadcasts along each row of matrices
    rows = expm(h, zs[:, :1])
    for index in np.ndindex(2, 3):
        assert np.array_equal(rows[index], expm(h[index], zs[index[0], 0]))
    # scalars that do not broadcast against the stack are refused
    with pytest.raises(ContractViolation, match="broadcast"):
        expm(h, np.array([0.7, 0.0, 0.4, 0.1]))


def test_expm_rejects_a_non_finite_or_non_hermitian_matrix_in_a_stack():
    with pytest.raises(ContractViolation, match="finite"):
        expm(np.full((4, 4), np.nan), 1.0)
    h = np.array([_random_hermitian(3, seed) for seed in range(3)])
    h[1, 0, 2] = complex(np.inf, 0.0)
    with pytest.raises(ContractViolation, match="finite"):
        expm(h, 1.0j)
    h = np.array([_random_hermitian(3, seed) for seed in range(3)])
    h[2, 0, 1] += 1e-3
    with pytest.raises(ContractViolation, match="Hermitian"):
        expm(h, 1.0j)
