"""Site algebra: parameters, thermal state, observables, dissipation matrix."""

from __future__ import annotations

import numpy as np
import pytest

from mesospin.errors import ContractViolation
from mesospin.modes import mode_operators
from mesospin.sites import (
    ModelParams,
    dissipation_matrix,
    fluctuation_inner,
    kron2,
    lindblad_ops,
    observables,
    site_hamiltonian,
    thermal_state,
)


def test_params_derived_fields_are_recomputable_exactly():
    p = ModelParams(epsilon=1.3, temperature=0.7, gamma=0.2)
    assert p.beta == 1.0 / 0.7
    assert p.eta == float(np.tanh(0.5 * p.epsilon * p.beta))
    assert p.eta_perp == float(1.0 / np.cosh(0.5 * p.epsilon * p.beta))
    assert abs(p.eta**2 + p.eta_perp**2 - 1.0) < 1e-15
    assert 0.0 < p.eta < 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": -1.0},
        {"temperature": 0.0},
        {"temperature": -0.3},
        {"gamma": -0.01},
        {"gamma": 0.51},
        {"epsilon": float("nan")},
        # cold enough that tanh(eps*beta/2) rounds to 1.0
        {"temperature": 1e-3},
    ],
)
def test_params_rejects_invalid_values(kwargs):
    base = {"epsilon": 1.0, "temperature": 1.0, "gamma": 0.5}
    base.update(kwargs)
    with pytest.raises(ContractViolation):
        ModelParams(**base)


def test_hamiltonian_is_diagonal_with_split_epsilon():
    p = ModelParams(epsilon=2.5, temperature=1.0, gamma=0.0)
    h = site_hamiltonian(p)
    assert np.array_equal(h, np.diag([2.5, 0.0, 0.0, -2.5]).astype(complex))


def test_hamiltonian_commutes_with_every_coupling_operator():
    p = ModelParams(epsilon=1.0, temperature=1.0, gamma=0.5)
    h = site_hamiltonian(p)
    for v in lindblad_ops():
        assert np.abs(h @ v - v @ h).max() < 1e-14


def test_coupling_operators_structure():
    v1, v2, v3, v4 = lindblad_ops()
    assert np.abs(v1 - v2.conj().T).max() == 0.0
    p = ModelParams(epsilon=1.7, temperature=1.0, gamma=0.0)
    assert np.abs(v3 + v4 - site_hamiltonian(p) / 1.7).max() < 1e-15


@pytest.mark.parametrize(
    "temperature,expected",
    [(1.0, -0.46211715726000974), (0.1, -0.9999092042625951)],
)
def test_thermal_magnetization(temperature, expected):
    p = ModelParams(epsilon=1.0, temperature=temperature, gamma=0.0)
    state = thermal_state(p)
    value = state.expectation(kron2(3, 0)).real
    assert abs(value - expected) < 1e-14
    assert abs(value + p.eta) < 1e-14


def test_thermal_state_is_normalized_positive_and_stationary():
    p = ModelParams(epsilon=1.4, temperature=0.3, gamma=0.0)
    state = thermal_state(p)
    rho = state.rho
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.linalg.eigvalsh(rho).min() >= 0.0
    h = site_hamiltonian(p)
    assert np.abs(rho @ h - h @ rho).max() < 1e-14


def test_thermal_state_factorizes_over_the_two_chains():
    p = ModelParams(epsilon=0.8, temperature=0.25, gamma=0.0)
    rho = thermal_state(p).rho
    single = np.exp(-p.beta * 0.4 * np.array([1.0, -1.0]))
    single = np.diag(single / single.sum())
    assert np.abs(rho - np.kron(single, single)).max() < 1e-15


def test_fluctuation_inner_on_the_first_chain_pair():
    p = ModelParams(epsilon=1.0, temperature=1.0, gamma=0.0)
    state = thermal_state(p)
    x1, x2 = observables().ops[0], observables().ops[1]
    assert abs(fluctuation_inner(x1, x1, state) - 1.0) < 1e-14
    assert abs(fluctuation_inner(x1, x2, state) - (-1j * p.eta)) < 1e-14
    assert abs(fluctuation_inner(x2, x1, state) - (1j * p.eta)) < 1e-14


def test_stacked_expectation_and_inner_form_match_scalar_calls():
    p = ModelParams(epsilon=1.3, temperature=0.4, gamma=0.2)
    state = thermal_state(p)
    ops = mode_operators(p)
    stack = np.array(ops)
    table = fluctuation_inner(stack[:, None], stack[None, :], state)
    values = state.expectation(stack)
    assert table.shape == (4, 4) and values.shape == (4,)
    for i, x in enumerate(ops):
        assert abs(values[i] - state.expectation(x)) <= 1e-15
        for j, y in enumerate(ops):
            assert abs(table[i, j] - fluctuation_inner(x, y, state)) <= 1e-15
    assert type(state.expectation(ops[0])) is complex
    assert type(fluctuation_inner(ops[0], ops[1], state)) is complex


def test_fluctuation_inner_vanishes_across_chains():
    p = ModelParams(epsilon=1.0, temperature=0.5, gamma=0.0)
    state = thermal_state(p)
    obs = observables().ops
    for i in range(4):
        for j in range(4, 8):
            assert abs(fluctuation_inner(obs[i], obs[j], state)) < 1e-14


def test_observables_are_hermitian_traceless_involutions():
    for x in observables().ops:
        assert np.abs(x - x.conj().T).max() == 0.0
        assert abs(np.trace(x)) == 0.0
        assert np.abs(x @ x - np.eye(4)).max() == 0.0


def test_complement_decouples_in_the_fluctuation_form():
    for temperature in (0.1, 1.0, 5.0):
        p = ModelParams(epsilon=1.0, temperature=temperature, gamma=0.0)
        state = thermal_state(p)
        obs = observables()
        for y in obs.complement:
            for x in obs.ops:
                assert abs(fluctuation_inner(y, x, state)) < 1e-12
                assert abs(fluctuation_inner(x, y, state)) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25, 0.5])
def test_dissipation_spectrum(gamma):
    d = dissipation_matrix(gamma)
    expected = np.sort([1.0 - 2.0 * gamma, 1.0, 1.0, 1.0 + 2.0 * gamma])
    assert np.abs(d.eigenvalues - expected).max() < 1e-12
    assert d.is_positive
    assert np.abs(d.matrix - d.matrix.T).max() == 0.0


def test_dissipation_positivity_flips_at_one_half():
    assert dissipation_matrix(0.5).is_positive
    assert not dissipation_matrix(0.5 + 1e-9).is_positive
    beyond = dissipation_matrix(0.6)
    assert not beyond.is_positive
    assert abs(beyond.min_eigenvalue - (-0.2)) < 1e-12


def test_dissipation_matrix_at_zero_coupling_is_identity():
    assert np.array_equal(dissipation_matrix(0.0).matrix, np.eye(4, dtype=complex))
