"""Quadrature conversion, partial transpose spectrum, logarithmic negativity."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from mesospin.errors import ContractViolation, NumericError
from mesospin.modes import drift_matrix, initial_state, propagate
from mesospin.negativity import (
    first_mode_block,
    log_negativity,
    min_symplectic_pt,
    negativity,
    quadrature_covariance,
    symplectic_eigenvalues,
)
from mesospin.sites import ModelParams

negativity_module = importlib.import_module("mesospin.negativity")


def _entangled_state():
    p = ModelParams(1.0, 0.1, 0.5)
    return propagate(initial_state(p, 1.0), drift_matrix(p), 1.373), p


def _tmsv(s: float) -> np.ndarray:
    c, h = np.cosh(2.0 * s), np.sinh(2.0 * s)
    return np.array(
        [
            [c, 0.0, h, 0.0],
            [0.0, c, 0.0, -h],
            [h, 0.0, c, 0.0],
            [0.0, -h, 0.0, c],
        ]
    )


def test_first_mode_block_of_the_fixed_point():
    p = ModelParams(1.0, 0.1, 0.5)
    block = first_mode_block(initial_state(p, 0.0))
    assert np.array_equal(block, np.eye(4, dtype=complex) / (2.0 * p.eta))


def test_quadrature_of_the_thermal_state_is_isotropic():
    p = ModelParams(1.0, 0.5, 0.5)
    cov = quadrature_covariance(first_mode_block(initial_state(p, 0.0)))
    assert np.abs(cov - np.eye(4) / p.eta).max() < 1e-14


def test_quadrature_of_the_squeezed_state_is_diagonal():
    p = ModelParams(1.0, 1.0, 0.5)
    r = 0.8
    cov = quadrature_covariance(first_mode_block(initial_state(p, r)))
    expected = (
        np.diag([np.exp(-2.0 * r), np.exp(2.0 * r), np.exp(-2.0 * r), np.exp(2.0 * r)])
        / p.eta
    )
    assert np.abs(cov - expected).max() < 1e-12


def test_quadrature_vacuum_anchor():
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = 0.5 * np.eye(2)
    block[2:, 2:] = 0.5 * np.eye(2)
    assert np.array_equal(quadrature_covariance(block), np.eye(4))


def test_quadrature_rejects_inconsistent_blocks():
    block = np.eye(4, dtype=complex)
    block[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ContractViolation):
        quadrature_covariance(block)
    lopsided = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)  # swap-asymmetric
    with pytest.raises(ContractViolation):
        quadrature_covariance(lopsided)


def test_quadrature_covariance_refuses_nan_blocks():
    with pytest.raises(ContractViolation):
        quadrature_covariance(np.full((4, 4), np.nan))
    block = first_mode_block(_entangled_state()[0]).copy()
    block[1, 3] = block[3, 1] = np.nan
    with pytest.raises(ContractViolation):
        quadrature_covariance(np.array([block, block.real]))


def test_symplectic_eigenvalues_refuse_a_nan_covariance():
    # not a NumericError from the Cholesky factor: the input breaks the contract
    with pytest.raises(ContractViolation, match="symmetric"):
        symplectic_eigenvalues(np.full((4, 4), np.nan))


def test_symplectic_spectrum_of_direct_sums():
    cov = np.diag([1.5, 1.5, 4.0, 4.0])
    values = symplectic_eigenvalues(cov)
    assert np.abs(values - np.array([1.5, 4.0])).max() < 1e-12


def test_min_symplectic_pt_vacuum_and_two_mode_squeezed():
    assert abs(min_symplectic_pt(np.eye(4)) - 1.0) < 1e-12
    nu = min_symplectic_pt(_tmsv(1.0))
    assert abs(nu - 0.1353352832366127) < 1e-10
    assert abs(log_negativity(nu) - 2.0) < 1e-10


def test_initial_state_minimum_eigenvalue_is_inverse_eta():
    for temperature in (0.1, 1.0, 5.0):
        for r in (0.0, 1.0, 3.0):
            p = ModelParams(1.0, temperature, 0.5)
            cov = quadrature_covariance(first_mode_block(initial_state(p, r)))
            a = np.linalg.det(cov[:2, :2])
            b = np.linalg.det(cov[2:, 2:])
            c = np.linalg.det(cov[:2, 2:])
            delta = a + b - 2.0 * c
            # exp(-2r)/eta entries come from a cosh - sinh difference whose
            # relative accuracy degrades like exp(4r) * eps
            rel = 1e-12 + 4e-16 * float(np.exp(4.0 * r))
            assert abs(delta - 2.0 / p.eta**2) < rel * (2.0 / p.eta**2)
            det = np.linalg.det(cov)
            assert abs(det - 1.0 / p.eta**4) < rel * (1.0 / p.eta**4)
            nu = min_symplectic_pt(cov)
            assert abs(nu - 1.0 / p.eta) < rel / p.eta
            assert log_negativity(nu) == 0.0


def test_dual_routes_agree_at_degenerate_spectra(monkeypatch):
    # gamma = 0 keeps the two modes in locked identical states: the partially
    # transposed spectrum is doubly degenerate along the whole curve, the
    # worst case for a general eigensolver. The internal cross-check must
    # stay silent and the negativity must vanish identically.
    p = ModelParams(1.0, 0.1, 0.0)
    gen = drift_matrix(p)
    start = initial_state(p, 1.0)
    times = (0.0, 0.5, 1.0, 3.0)
    for t in times:
        result = negativity(propagate(start, gen, t))
        assert type(result.nu_min) is float and type(result.log_negativity) is float
        assert result.log_negativity == 0.0
        assert result.nu_min >= 1.0
    # A state stack gives arrays, entry for entry what single states give.
    stacked = negativity(propagate(start, gen, np.array(times)))
    loop = [negativity(propagate(start, gen, t)) for t in times]
    assert np.array_equal(stacked.nu_min, [r.nu_min for r in loop])
    assert np.array_equal(stacked.log_negativity, [r.log_negativity for r in loop])
    # A disagreement in a stack names the entry; a single 4x4 names none.
    honest = negativity_module.symplectic_eigenvalues

    def skewed(cov):
        values = np.array(honest(cov))
        values.reshape(-1, 2)[-1, 0] *= 1.0 + 1e-6  # the last entry only
        return values

    monkeypatch.setattr(negativity_module, "symplectic_eigenvalues", skewed)
    covs = quadrature_covariance(first_mode_block(propagate(start, gen, np.array(times))))
    with pytest.raises(NumericError, match="routes disagree at stack index 3: formula"):
        min_symplectic_pt(covs)
    with pytest.raises(NumericError, match="routes disagree: formula"):
        min_symplectic_pt(covs[3])


def test_log_negativity_contract():
    assert log_negativity(1.0) == 0.0
    assert log_negativity(2.5) == 0.0
    assert type(log_negativity(0.5)) is float
    values = log_negativity(np.array([0.5, 1.0, 2.5]))
    assert np.array_equal(values, [np.log(2.0), 0.0, 0.0])
    assert not np.signbit(values).any()  # E = +0, which prints as "0", not "-0"
    with pytest.raises(ContractViolation):
        log_negativity(np.array([0.5, float("nan"), 2.0]))
    with pytest.raises(ContractViolation):
        log_negativity(0.0)
    with pytest.raises(ContractViolation):
        log_negativity(-0.2)
    with pytest.raises(ContractViolation):
        log_negativity(float("nan"))


def test_negativity_of_the_entangled_benchmark_state():
    state, _ = _entangled_state()
    result = negativity(state)
    assert result.log_negativity > 0.07
    assert result.nu_min < 1.0


def _local_symplectic(rng: np.random.Generator) -> np.ndarray:
    def one() -> np.ndarray:
        theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=2)
        kappa = rng.uniform(-0.5, 0.5)

        def rot(angle: float) -> np.ndarray:
            return np.array(
                [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            )

        return rot(theta) @ np.diag([np.exp(kappa), np.exp(-kappa)]) @ rot(phi)

    out = np.zeros((4, 4))
    out[:2, :2] = one()
    out[2:, 2:] = one()
    return out


def test_negativity_is_invariant_under_local_symplectics():
    state, _ = _entangled_state()
    cov = quadrature_covariance(first_mode_block(state))
    base = log_negativity(min_symplectic_pt(cov))
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = _local_symplectic(rng)
        transformed = s @ cov @ s.T
        value = log_negativity(min_symplectic_pt(transformed))
        assert abs(value - base) < 1e-9


def test_uncorrelated_covariance_has_no_negativity():
    cov = np.diag([1.3, 1.3, 2.0, 2.0])
    assert log_negativity(min_symplectic_pt(cov)) == 0.0


def test_added_noise_never_increases_negativity():
    state, _ = _entangled_state()
    cov = quadrature_covariance(first_mode_block(state))
    values = [
        log_negativity(min_symplectic_pt(cov + c * np.eye(4)))
        for c in (0.0, 0.05, 0.2, 1.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_negativity_is_continuous_away_from_the_kink():
    state, _ = _entangled_state()
    cov = quadrature_covariance(first_mode_block(state))
    base = log_negativity(min_symplectic_pt(cov))
    rng = np.random.default_rng(5)
    bump = rng.standard_normal((4, 4))
    bump = 1e-8 * (bump + bump.T) / 2.0
    shifted = log_negativity(min_symplectic_pt(cov + bump))
    assert abs(shifted - base) < 1e-6
