"""Mode map, canonical commutators, drift generator, Gaussian propagation."""

from __future__ import annotations

import numpy as np
import pytest

from mesospin.errors import ContractViolation
from mesospin.modes import (
    GaussianState,
    drift_matrix,
    flow,
    initial_state,
    mode_map,
    mode_operators,
    propagate,
    thermal_moments,
)
from mesospin.sites import ModelParams, fluctuation_inner, observables, thermal_state

EPS_TEMP_GRID = [
    (eps, temp) for eps in (0.5, 1.0, 2.0) for temp in (0.1, 0.5, 1.0, 5.0)
]


def _stacked(sets) -> ModelParams:
    """The scalar parameter sets as one array-valued ModelParams of shape (len(sets),)."""
    return ModelParams(*np.array([(p.epsilon, p.temperature, p.gamma) for p in sets]).T)


def _reference(eta: float) -> np.ndarray:
    return np.eye(8, dtype=complex) / (2.0 * eta)


def test_mode_map_coefficients():
    p = ModelParams(1.0, 1.0, 0.0)
    r = mode_map(p).matrix
    c1 = 1.0 / (2.0 * np.sqrt(p.eta))
    c2 = np.sqrt(p.eta) / (2.0 * p.eta_perp)
    assert abs(r[0, 0] - c1) < 1e-15
    assert abs(r[0, 1] - (-1j * c1)) < 1e-15
    assert abs(r[1, 2] - c2 / p.eta) < 1e-15
    assert np.abs(r[4:, :] - r[:4, :].conj()).max() == 0.0
    # chain-two rows repeat the chain-one pattern four columns later
    assert np.abs(r[2:4, 4:] - r[0:2, 0:4]).max() == 0.0


@pytest.mark.parametrize("eps,temp", EPS_TEMP_GRID)
def test_mode_map_inverse_is_exact(eps, temp):
    mm = mode_map(ModelParams(eps, temp, 0.0))
    assert np.abs(mm.matrix @ mm.inverse - np.eye(8)).max() < 1e-12
    assert np.abs(mm.inverse @ mm.matrix - np.eye(8)).max() < 1e-12


def test_mode_operators_agree_with_the_map():
    p = ModelParams(1.0, 1.0, 0.0)
    r = mode_map(p).matrix
    obs = observables().ops
    for row, op in zip(r[:4], mode_operators(p)):
        combined = sum(row[k] * obs[k] for k in range(8))
        assert np.abs(combined - op).max() < 1e-13


@pytest.mark.parametrize("eps,temp", EPS_TEMP_GRID)
def test_canonical_commutators_via_fluctuation_form(eps, temp):
    p = ModelParams(eps, temp, 0.0)
    state = thermal_state(p)
    ops = mode_operators(p)
    for i, ai in enumerate(ops):
        for j, aj in enumerate(ops):
            with_dagger = fluctuation_inner(
                ai.conj().T, aj.conj().T, state
            ) - fluctuation_inner(aj, ai, state)
            assert abs(with_dagger - (1.0 if i == j else 0.0)) < 1e-12
            plain = fluctuation_inner(ai.conj().T, aj, state) - fluctuation_inner(
                aj.conj().T, ai, state
            )
            assert abs(plain) < 1e-12


def test_drift_matrix_structure():
    p = ModelParams(1.0, 1.0, 0.3)
    gen = drift_matrix(p)
    m, k = gen.matrix, gen.coupling
    assert abs(m[0, 2] - (-0.3 * p.eta)) < 1e-15
    assert abs(m[0, 3] - 0.3 * p.eta_perp) < 1e-15
    assert np.abs(m - m.T).max() == 0.0
    assert np.abs(k - k.T).max() == 0.0
    assert np.abs(k @ k - np.eye(4)).max() < 1e-14


def test_drift_matrix_zero_coupling():
    p = ModelParams(2.0, 1.0, 0.0)
    m = drift_matrix(p).matrix
    assert np.array_equal(m, -(1.0 + 2.0j) * np.eye(4, dtype=complex))


def test_drift_spectrum_is_two_pairs():
    p = ModelParams(1.0, 0.5, 0.4)
    values = np.sort_complex(np.linalg.eigvals(drift_matrix(p).matrix))
    expected = np.sort_complex(
        np.array([-1.0 - 1.0j + 0.4, -1.0 - 1.0j + 0.4, -1.0 - 1.0j - 0.4, -1.0 - 1.0j - 0.4])
    )
    assert np.abs(values - expected).max() < 1e-12


def test_propagator_norm_decays_at_the_slow_rate():
    # eta ~ 0.9999: the drift is normal, so the 2-norm is exactly exp(-(1-gamma)t)
    temp = 1.0 / (2.0 * np.arctanh(0.9999))
    p = ModelParams(1.0, temp, 0.3)
    gen = drift_matrix(p)
    for t in (0.5, 1.0, 3.0):
        norm = np.linalg.norm(flow(gen, t), 2)
        expected = np.exp(-0.7 * t)
        assert abs(norm - expected) < 1e-10 * expected


def test_initial_state_without_squeeze_is_the_fixed_point():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 0.0)
    assert np.array_equal(state.moment_matrix, _reference(p.eta))
    assert np.array_equal(thermal_moments(p.eta), _reference(p.eta))


def test_initial_state_reference_moments():
    p = ModelParams(1.0, 1.0, 0.5)
    g = initial_state(p, 1.0).moment_matrix
    assert abs(g[0, 0] - 4.070608104436637) < 1e-12
    assert abs(g[4, 0] - 3.92417848035706) < 1e-12
    assert abs(g[1, 1] - 1.0 / (2.0 * p.eta)) < 1e-15
    # product over the chains: no cross correlations anywhere
    assert np.abs(g[np.ix_([0, 1, 4, 5], [2, 3, 6, 7])]).max() == 0.0


def test_initial_state_squeeze_parity():
    p = ModelParams(1.0, 1.0, 0.5)
    plus = initial_state(p, 1.0).moment_matrix
    minus = initial_state(p, -1.0).moment_matrix
    assert abs(plus[0, 0] - minus[0, 0]) < 1e-15
    assert abs(plus[4, 0] + minus[4, 0]) < 1e-15


def test_gaussian_state_validation():
    p = ModelParams(1.0, 1.0, 0.5)
    good = initial_state(p, 1.0).moment_matrix
    broken = good.copy()
    broken[0, 1] += 0.1
    asymmetric = good.copy()
    asymmetric[1, 1] += 0.5  # Hermitian but breaks the mode-conjugate swap
    lopsided = good.copy()
    lopsided[0, 2] += 0.25j  # off the diagonal, Hermitian, and swap-asymmetric
    lopsided[2, 0] -= 0.25j
    for g, what in ((broken, "Hermitian"), (asymmetric, "swap"), (lopsided, "swap")):
        with pytest.raises(ContractViolation, match=what):
            GaussianState(moment_matrix=g, eta=p.eta)
        # one bad matrix anywhere in a stack is refused
        with pytest.raises(ContractViolation, match=what):
            GaussianState(moment_matrix=np.array([good, good, g]), eta=p.eta)


def test_gaussian_state_rejects_nan_moments():
    for g in (np.full((8, 8), np.nan), np.where(np.eye(8) > 0, np.nan, 0.0)):
        with pytest.raises(ContractViolation):
            GaussianState(moment_matrix=g, eta=0.5)
    stack = np.array([_reference(0.5)] * 3)
    stack[1, 2, 5] = stack[1, 5, 2] = np.nan
    with pytest.raises(ContractViolation):
        GaussianState(moment_matrix=stack, eta=0.5)
    # a NaN in the imaginary part alone, in the last matrix of the stack
    stack = np.array([_reference(0.5)] * 3)
    stack[2, 1, 3] = stack[2, 3, 1] = complex(0.0, np.nan)
    with pytest.raises(ContractViolation):
        GaussianState(moment_matrix=stack, eta=0.5)


def test_mode_builders_over_array_params_are_each_single_call():
    sets = [ModelParams(eps, temp, gamma) for eps, temp in EPS_TEMP_GRID for gamma in (0.0, 0.3)]
    sets += [ModelParams(0.3, 20.0, 0.37), ModelParams(5.0, 0.2, 0.5)]
    params = _stacked(sets)
    maps, ops, drift = mode_map(params), mode_operators(params), drift_matrix(params)
    assert maps.matrix.shape == maps.inverse.shape == (len(sets), 8, 8)
    assert ops.shape == (len(sets), 4, 4, 4)
    assert drift.matrix.shape == drift.coupling.shape == (len(sets), 4, 4)
    for i, p in enumerate(sets):
        single = mode_map(p)
        assert np.array_equal(maps.matrix[i], single.matrix)
        assert np.array_equal(maps.inverse[i], single.inverse)
        assert np.array_equal(ops[i], mode_operators(p))
        gen = drift_matrix(p)
        assert np.array_equal(drift.matrix[i], gen.matrix)
        assert np.array_equal(drift.coupling[i], gen.coupling)
        assert drift.epsilon[i] == gen.epsilon and drift.gamma[i] == gen.gamma
        assert drift.eta[i] == gen.eta
    # a two-axis ModelParams gives two leading axes
    grid = ModelParams(params.epsilon, params.temperature, np.array([[0.0], [0.45]]))
    assert mode_operators(grid).shape == (2, len(sets), 4, 4, 4)
    assert np.array_equal(mode_map(grid).matrix[1], maps.matrix)
    last = drift_matrix(ModelParams(5.0, 0.2, 0.45)).matrix
    assert np.array_equal(drift_matrix(grid).matrix[1, -1], last)
    # the stacked generator through the flow: every generator at every time
    times = np.array([0.0, 0.4, 1.7, 5.0])
    flows = flow(drift, times)
    assert flows.shape == (len(sets), len(times), 4, 4)
    for i, p in enumerate(sets):
        assert np.array_equal(flows[i], flow(drift_matrix(p), times))
        assert np.array_equal(flow(drift, 1.3)[i], flow(drift_matrix(p), 1.3))


def _start_stack(sets, squeezes):
    """One squeezed start per parameter set, as one state stack."""
    return initial_state(_stacked(sets), np.array(squeezes))


def test_initial_state_over_array_params_and_squeezes_is_each_single_call():
    sets = [ModelParams(eps, temp, 0.2) for eps, temp in EPS_TEMP_GRID]
    squeezes = np.linspace(-3.0, 3.0, 5)
    # parameter sets down, squeezes across
    stack = initial_state(_stacked(sets), squeezes[:, None])
    assert stack.moment_matrix.shape == (5, len(sets), 8, 8)
    assert stack.eta.shape == (5, len(sets))
    for k, r in enumerate(squeezes):
        for i, p in enumerate(sets):
            single = initial_state(p, r)
            assert np.array_equal(stack.moment_matrix[k, i], single.moment_matrix)
            assert stack.eta[k, i] == single.eta
    # one parameter set and one squeeze keep the scalar eta
    assert type(initial_state(sets[0], 1.0).eta) is float
    with pytest.raises(ContractViolation, match="must be finite"):
        initial_state(sets[0], np.array([1.0, np.inf]))


def test_propagate_over_a_generator_stack_is_each_single_call():
    sets = [
        ModelParams(eps, temp, gamma) for eps, temp in EPS_TEMP_GRID[::3] for gamma in (0.0, 0.45)
    ]
    squeezes = np.linspace(-2.0, 3.0, len(sets))
    start = _start_stack(sets, squeezes)
    times = np.array([[0.0, 0.3], [2.5, 5.0], [0.7, 0.0]])
    stack = propagate(start, drift_matrix(_stacked(sets)), times)
    assert stack.moment_matrix.shape == (len(sets), 3, 2, 8, 8)
    assert np.array_equal(stack.eta, start.eta)
    for i, (p, r) in enumerate(zip(sets, squeezes)):
        single = propagate(initial_state(p, r), drift_matrix(p), times).moment_matrix
        assert np.array_equal(stack.moment_matrix[i], single)
    # a scalar time gives one state per generator
    at = propagate(start, drift_matrix(_stacked(sets)), 1.1).moment_matrix
    assert at.shape == (len(sets), 8, 8)
    for i, (p, r) in enumerate(zip(sets, squeezes)):
        single = propagate(initial_state(p, r), drift_matrix(p), 1.1).moment_matrix
        assert np.array_equal(at[i], single)


def test_propagate_refuses_a_state_stack_that_does_not_match_the_generators():
    sets = [ModelParams(1.0, 0.1, 0.5), ModelParams(2.0, 0.5, 0.3), ModelParams(0.5, 5.0, 0.1)]
    gens = drift_matrix(_stacked(sets))
    start = _start_stack(sets, (1.0, 0.0, -1.0))
    # one entry from another temperature
    swapped = _start_stack([sets[0], ModelParams(2.0, 0.6, 0.3), sets[2]], (1.0, 0.0, -1.0))
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(swapped, gens, 1.0)
    # the stack in another order
    reordered = GaussianState(moment_matrix=start.moment_matrix[::-1], eta=start.eta[::-1])
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(reordered, gens, np.array([0.0, 1.0]))
    # one state for a stack of generators, and a stack of states for one generator
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(initial_state(sets[0], 1.0), drift_matrix(_stacked(sets[:1])), 1.0)
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(_start_stack(sets[:1], (1.0,)), drift_matrix(sets[0]), 1.0)
    # a stack of states per generator
    later = propagate(start, gens, np.array([0.5, 1.0, 2.0]))
    with pytest.raises(ContractViolation, match="one state each"):
        propagate(later, gens, 1.0)
    # a NaN eta matches nothing
    nan = GaussianState(moment_matrix=start.moment_matrix, eta=np.array([np.nan, *start.eta[1:]]))
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(nan, gens, 1.0)


def test_gaussian_state_takes_eta_over_its_leading_axes_only():
    g = np.broadcast_to(_reference(0.5), (3, 2, 8, 8))
    assert GaussianState(moment_matrix=g, eta=np.full(3, 0.5)).moment_matrix.shape == (3, 2, 8, 8)
    assert GaussianState(moment_matrix=g, eta=np.full((3, 2), 0.5)).eta.shape == (3, 2)
    for eta in (np.full(2, 0.5), np.full((3, 2, 8), 0.5), np.full(8, 0.5)):
        with pytest.raises(ContractViolation, match="does not lead"):
            GaussianState(moment_matrix=g, eta=eta)
    with pytest.raises(ContractViolation, match="does not lead"):
        GaussianState(moment_matrix=_reference(0.5), eta=np.full(8, 0.5))


def test_gaussian_state_stores_the_swap_symmetrised_stack():
    # The reference symmetrises with the permutation matrix written out.
    swap = np.block([[np.zeros((4, 4)), np.eye(4)], [np.eye(4), np.zeros((4, 4))]])
    rng = np.random.default_rng(17)
    g = rng.standard_normal((5, 8, 8)) + 1j * rng.standard_normal((5, 8, 8))
    g = g + g.conj().swapaxes(-1, -2)
    g = g + swap @ g.conj() @ swap
    g[:, 0, 4] += 1e-14  # a drift below the tolerance, which the symmetrising removes
    g[:, 4, 0] += 1e-14
    hermitian = 0.5 * (g + g.conj().swapaxes(-1, -2))
    expected = 0.5 * (hermitian + swap @ hermitian.conj() @ swap)
    assert np.array_equal(GaussianState(moment_matrix=g, eta=0.5).moment_matrix, expected)


def test_flow_is_the_exponential_of_the_drift_matrix():
    # flow() exponentiates only the coupling K; a 30-digit expm of the whole
    # drift matrix M pins that the split reproduces exp(tM) itself.
    mp = pytest.importorskip("mpmath").mp
    p = ModelParams(1.3, 0.4, 0.45)
    gen = drift_matrix(p)
    times = (0.0, 0.3, 1.7, 6.0)
    for t in times:
        with mp.workdps(30):
            reference = mp.expm(mp.mpf(t) * mp.matrix(gen.matrix.tolist()))
            expected = np.array(reference.tolist(), dtype=complex)
        assert np.abs(flow(gen, t) - expected).max() < 1e-13
    # A time array gives, entry for entry, the flows of the scalar calls.
    stack = flow(gen, np.array(times))
    assert stack.shape == (len(times), 4, 4)
    assert np.array_equal(stack[0], np.eye(4, dtype=complex))
    for t, u in zip(times, stack):
        assert np.array_equal(u, flow(gen, t))


def test_propagate_validates_time_and_parameters():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 1.0)
    gen = drift_matrix(p)
    with pytest.raises(ContractViolation):
        propagate(state, gen, -0.1)
    for bad in (-0.1, float("nan")):
        with pytest.raises(ContractViolation):
            propagate(state, gen, np.array([0.0, 1.0, bad, 2.0]))
        with pytest.raises(ContractViolation):
            flow(gen, np.array([bad, 0.5]))
    other = drift_matrix(ModelParams(1.0, 0.2, 0.5))
    with pytest.raises(ContractViolation):
        propagate(state, other, 1.0)


def test_propagate_zero_time_is_identity():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 1.0)
    gen = drift_matrix(p)
    assert np.array_equal(propagate(state, gen, 0.0).moment_matrix, state.moment_matrix)
    # A time array gives a state stack, entry for entry what scalar calls give.
    times = np.array([0.7, 0.0, 2.3, 5.0])
    stack = propagate(state, gen, times).moment_matrix
    assert stack.shape == (4, 8, 8)
    assert np.array_equal(stack[1], state.moment_matrix)
    for t, g in zip(times, stack):
        assert np.array_equal(g, propagate(state, gen, t).moment_matrix)


def test_propagation_semigroup():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 1.0)
    gen = drift_matrix(p)
    direct = propagate(state, gen, 1.7).moment_matrix
    stepped = propagate(propagate(state, gen, 0.8), gen, 0.9).moment_matrix
    assert np.abs(direct - stepped).max() < 1e-10


def test_fixed_point_is_exactly_stationary():
    p = ModelParams(1.0, 0.1, 0.5)
    gen = drift_matrix(p)
    state = initial_state(p, 0.0)
    for t in np.linspace(0.0, 5.0, 11):
        assert np.array_equal(propagate(state, gen, t).moment_matrix, _reference(p.eta))


def test_propagation_preserves_chain_exchange_symmetry():
    p = ModelParams(1.0, 0.1, 0.5)
    gen = drift_matrix(p)
    state = initial_state(p, 1.0)
    perm = [2, 3, 0, 1, 6, 7, 4, 5]
    for t in (0.0, 0.7, 2.3):
        g = propagate(state, gen, t).moment_matrix
        assert np.abs(g[np.ix_(perm, perm)] - g).max() < 1e-13


def test_propagation_contracts_toward_the_fixed_point():
    p = ModelParams(1.0, 0.1, 0.5)
    gen = drift_matrix(p)
    for t in np.linspace(0.0, 5.0, 21):
        assert np.linalg.norm(flow(gen, t), 2) <= 1.0 + 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5])
def test_envelope_relaxation_rate(gamma):
    p = ModelParams(1.0, 0.1, gamma)
    gen = drift_matrix(p)
    state = initial_state(p, 1.0)
    reference = _reference(p.eta)
    times = np.linspace(2.0, 5.0, 16)
    norms = [
        np.linalg.norm(propagate(state, gen, t).moment_matrix - reference, 2)
        for t in times
    ]
    slope = np.polyfit(times, np.log(norms), 1)[0]
    expected = -2.0 * (1.0 - gamma)
    assert abs(slope - expected) < 0.02 * abs(expected)
