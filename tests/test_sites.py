"""Site algebra: parameters, thermal state, observables, dissipation matrix."""

from __future__ import annotations

import numpy as np
import pytest

from mesospin.checks import check_dissipation_spectrum
from mesospin.errors import ContractViolation
from mesospin.modes import mode_operators
from mesospin.sites import (
    ModelParams,
    dissipation_matrix,
    expectation,
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


def _refusal_edge() -> float:
    """The smallest temperature that ModelParams accepts at epsilon = 1, by bisection."""
    refused, accepted = 0.01, 0.1
    while np.nextafter(refused, accepted) < accepted:
        middle = 0.5 * (refused + accepted)
        try:
            ModelParams(1.0, middle, 0.0)
        except ContractViolation:
            refused = middle
        else:
            accepted = middle
    return accepted


def _random_sets() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10^4 random (eps, T, gamma) sets up to eps/T = 33, and 400 at the refusal edge."""
    rng = np.random.default_rng(16)
    n = 10_000
    eps = rng.uniform(0.05, 5.0, n)
    # eps/T up to 33, so tanh(eps*beta/2) stays below 1 everywhere
    temps = eps / rng.uniform(0.01, 33.0, n)
    gammas = rng.choice([0.0, 0.5, 0.25, 0.1], n)
    gammas[::7] = rng.uniform(0.0, 0.5, len(gammas[::7]))
    # temperatures within 1e-3 of the refusal edge at eps = 1, at both ends of gamma
    edge = _refusal_edge() + np.linspace(0.0, 1e-3, 200)
    eps = np.concatenate([eps, np.ones(2 * len(edge))])
    temps = np.concatenate([temps, edge, edge])
    gammas = np.concatenate([gammas, np.zeros(len(edge)), np.full(len(edge), 0.5)])
    return eps, temps, gammas


def test_array_params_are_each_scalar_params_bit_for_bit():
    eps, temps, gammas = _random_sets()
    params = ModelParams(eps, temps, gammas)
    assert params.eta.shape == (10_400,)
    singles = [ModelParams(*entry) for entry in zip(eps.tolist(), temps.tolist(), gammas.tolist())]
    for name in ("epsilon", "temperature", "gamma", "beta", "eta", "eta_perp", "delta"):
        field = getattr(params, name)
        assert not field.flags.writeable
        assert np.array_equal(field, [getattr(p, name) for p in singles]), name
    assert params.eta.max() < 1.0 and params.eta.max() > 1.0 - 1e-15
    # broadcasting: a column of epsilons against a row of temperatures
    grid = ModelParams(np.array([[0.5], [2.0]]), np.array([0.1, 1.0, 5.0]), 0.3)
    assert grid.gamma.shape == grid.eta.shape == (2, 3)
    assert grid.eta[1, 0] == ModelParams(2.0, 0.1, 0.3).eta
    # scalars keep Python floats
    assert all(type(getattr(singles[0], name)) is float for name in ("epsilon", "beta", "eta"))


def test_delta_is_one_minus_eta_to_two_ulps_up_to_the_refusal_edge():
    # 1 - eta from the rounded eta is off by eps_mach/delta relative; the
    # carried delta is held to 2 ulps of a 40-digit 1 - tanh(u) at the same float u.
    mp = pytest.importorskip("mpmath").mp
    params = ModelParams(*_random_sets())
    u = 0.5 * params.epsilon * params.beta
    with mp.workdps(40):
        want = np.array([float(1 - mp.tanh(mp.mpf(x))) for x in u.tolist()])
    assert np.all(np.abs(params.delta - want) <= 2 * np.spacing(want))
    assert want.min() < 1e-15


@pytest.mark.parametrize(
    "eps,temps,gammas,first",
    [
        # later entries fail other checks; the first failing entry decides
        ([1.0, 1.0, -1.0, 1.0], [0.5, 0.5, 0.5, -1.0], [0.6, 0.2, 0.2, 0.2], 0),
        ([1.0, 1.0, 1.0, 1.0], [0.5, 1e-3, -1.0, 0.5], [0.2, 0.2, 0.7, np.nan], 1),
        ([1.0, 1.0, 1.0, 1.0], [0.5, 0.5, np.inf, 0.02], [0.2, 0.2, 0.2, 0.2], 2),
        ([1.0, 1.0, 1.0, np.nan], [0.5, 0.5, 0.5, 0.5], [0.2, 0.2, 0.2, 0.2], 3),
        # flat order of a two-axis array: row 0 ends before row 1 begins
        ([[1.0, 1.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]], [[0.2, 0.51], [0.2, 0.2]], 1),
    ],
)
def test_array_params_raise_what_the_first_failing_entry_raises(eps, temps, gammas, first):
    eps, temps, gammas = np.array(eps), np.array(temps), np.array(gammas)
    with pytest.raises(ContractViolation) as alone:
        ModelParams(eps.flat[first], temps.flat[first], gammas.flat[first])
    with pytest.raises(ContractViolation) as stacked:
        ModelParams(eps, temps, gammas)
    assert str(stacked.value) == str(alone.value)


def test_array_params_must_broadcast():
    with pytest.raises(ContractViolation, match="do not broadcast"):
        ModelParams(np.ones(2), np.ones(3), 0.2)


def test_hamiltonian_is_diagonal_with_split_epsilon():
    p = ModelParams(epsilon=2.5, temperature=1.0, gamma=0.0)
    h = site_hamiltonian(p)
    assert np.array_equal(h, np.diag([2.5, 0.0, 0.0, -2.5]).astype(complex))
    stack = site_hamiltonian(ModelParams(np.array([1.0, 2.5]), 1.0, 0.0))
    assert stack.shape == (2, 4, 4) and np.array_equal(stack[1], h)


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
    value = expectation(thermal_state(p), kron2(3, 0)).real
    assert abs(value - expected) < 1e-14
    assert abs(value + p.eta) < 1e-14


def test_thermal_state_is_normalized_positive_and_stationary():
    p = ModelParams(epsilon=1.4, temperature=0.3, gamma=0.0)
    rho = np.diag(thermal_state(p))
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.linalg.eigvalsh(rho).min() >= 0.0
    h = site_hamiltonian(p)
    assert np.abs(rho @ h - h @ rho).max() < 1e-14


def test_thermal_state_factorizes_over_the_two_chains():
    p = ModelParams(epsilon=0.8, temperature=0.25, gamma=0.0)
    weights = thermal_state(p)
    single = np.exp(-p.beta * 0.4 * np.array([1.0, -1.0]))
    single = single / single.sum()
    assert np.abs(weights - np.kron(single, single)).max() < 1e-15


def test_fluctuation_inner_on_the_first_chain_pair():
    p = ModelParams(epsilon=1.0, temperature=1.0, gamma=0.0)
    weights = thermal_state(p)
    x1, x2 = observables()[0], observables()[1]
    assert abs(fluctuation_inner(x1, x1, weights) - 1.0) < 1e-14
    assert abs(fluctuation_inner(x1, x2, weights) - (-1j * p.eta)) < 1e-14
    assert abs(fluctuation_inner(x2, x1, weights) - (1j * p.eta)) < 1e-14


def test_stacked_expectation_and_inner_form_match_scalar_calls():
    p = ModelParams(epsilon=1.3, temperature=0.4, gamma=0.2)
    weights = thermal_state(p)
    ops = mode_operators(p)
    stack = np.array(ops)
    table = fluctuation_inner(stack[:, None], stack[None, :], weights)
    values = expectation(weights, stack)
    assert table.shape == (4, 4) and values.shape == (4,)
    for i, x in enumerate(ops):
        assert abs(values[i] - expectation(weights, x)) <= 1e-15
        for j, y in enumerate(ops):
            assert abs(table[i, j] - fluctuation_inner(x, y, weights)) <= 1e-15
    assert type(expectation(weights, ops[0])) is complex
    assert type(fluctuation_inner(ops[0], ops[1], weights)) is complex


def test_fluctuation_inner_vanishes_across_chains():
    p = ModelParams(epsilon=1.0, temperature=0.5, gamma=0.0)
    weights = thermal_state(p)
    obs = observables()
    for i in range(4):
        for j in range(4, 8):
            assert abs(fluctuation_inner(obs[i], obs[j], weights)) < 1e-14


def test_observables_are_hermitian_traceless_involutions():
    for x in observables():
        assert np.abs(x - x.conj().T).max() == 0.0
        assert abs(np.trace(x)) == 0.0
        assert np.abs(x @ x - np.eye(4)).max() == 0.0


def test_complement_decouples_in_the_fluctuation_form():
    # the eight Pauli words that are not observables
    pairs = ((0, 0), (3, 0), (0, 3), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2))
    for temperature in (0.1, 1.0, 5.0):
        p = ModelParams(epsilon=1.0, temperature=temperature, gamma=0.0)
        weights = thermal_state(p)
        for y in (kron2(i, j) for i, j in pairs):
            for x in observables():
                assert abs(fluctuation_inner(y, x, weights)) < 1e-12
                assert abs(fluctuation_inner(x, y, weights)) < 1e-12


def _is_positive(gamma):
    """The complete-positivity verdict of check_dissipation_spectrum on one coupling."""
    return check_dissipation_spectrum((gamma,))[1] == ""


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25, 0.5])
def test_dissipation_spectrum(gamma):
    d = dissipation_matrix(gamma)
    expected = np.sort([1.0 - 2.0 * gamma, 1.0, 1.0, 1.0 + 2.0 * gamma])
    assert np.abs(np.linalg.eigvalsh(d) - expected).max() < 1e-12
    assert _is_positive(gamma)
    assert np.abs(d - d.T).max() == 0.0


def test_dissipation_positivity_flips_at_one_half():
    assert _is_positive(0.5)
    assert not _is_positive(0.5 + 1e-9)
    residuals, detail = check_dissipation_spectrum((0.6,))
    assert detail == "gamma = 0.6 is not completely positive: min eigenvalue -0.2"
    # the residual after the spectrum's is minus the smallest eigenvalue
    assert abs(-residuals[1] - (-0.2)) < 1e-12


def test_dissipation_matrix_at_zero_coupling_is_identity():
    assert np.array_equal(dissipation_matrix(0.0), np.eye(4, dtype=complex))
