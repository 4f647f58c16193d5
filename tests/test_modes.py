"""Mode operators, canonical commutators, drift generator, Gaussian propagation."""

from __future__ import annotations

import numpy as np
import pytest

from mesospin.errors import ContractViolation
from mesospin.modes import (
    GaussianState,
    coupling,
    drift_matrix,
    flow,
    initial_state,
    mode_operators,
    propagate,
    thermal_covariance,
)
from mesospin.sites import (
    SIGMA_MINUS,
    ModelParams,
    expectation,
    fluctuation_inner,
    observables,
    thermal_state,
)

EPS_TEMP_GRID = [
    (eps, temp) for eps in (0.5, 1.0, 2.0) for temp in (0.1, 0.5, 1.0, 5.0)
]


def _stacked(sets) -> ModelParams:
    """The scalar parameter sets as one array-valued ModelParams of shape (len(sets),)."""
    return ModelParams(*np.array([(p.epsilon, p.temperature, p.gamma) for p in sets]).T)


def _reference(eta: float) -> np.ndarray:
    return np.eye(8) / eta


def _coefficients(p: ModelParams) -> np.ndarray:
    """The modes' coefficients on the observables, rows (a1, a2, b1, b2, a1*, ..., b2*).

    The observables are Pauli words, orthonormal under Tr(x y)/4, so the
    coefficient of x_k in a mode is Tr(x_k a)/4.
    """
    ops = mode_operators(p)
    x = np.array(observables())
    r = np.einsum("kij,mji->mk", x, ops) / 4.0
    adj = np.einsum("kij,mji->mk", x, ops.conj().transpose(0, 2, 1)) / 4.0
    return np.concatenate([r, adj])


def test_mode_map_coefficients():
    p = ModelParams(1.0, 1.0, 0.0)
    r = _coefficients(p)
    c1 = 1.0 / (2.0 * np.sqrt(p.eta))
    c2 = np.sqrt(p.eta) / (2.0 * p.eta_perp)
    assert abs(r[0, 0] - c1) < 1e-15
    assert abs(r[0, 1] - (-1j * c1)) < 1e-15
    assert abs(r[1, 2] - c2 / p.eta) < 1e-15
    assert np.abs(r[4:, :] - r[:4, :].conj()).max() < 1e-15
    # the b rows repeat the pattern of the a rows four columns later
    assert np.abs(r[2:4, 4:] - r[0:2, 0:4]).max() < 1e-15


def test_mode_operators_agree_with_the_map():
    # The modes lie in the span of the eight observables: the combination of
    # the coefficients read off them rebuilds each mode.
    p = ModelParams(1.0, 1.0, 0.0)
    r = _coefficients(p)
    obs = observables()
    for row, op in zip(r[:4], mode_operators(p)):
        combined = sum(row[k] * obs[k] for k in range(8))
        assert np.abs(combined - op).max() < 1e-13


@pytest.mark.parametrize("eps,temp", EPS_TEMP_GRID)
def test_mode_operators_are_the_observable_combinations(eps, temp):
    p = ModelParams(eps, temp, 0.0)
    c1 = 1.0 / (2.0 * np.sqrt(p.eta))
    c2 = np.sqrt(p.eta) / (2.0 * p.eta_perp)
    x = observables()
    expected = np.array(
        [
            c1 * (x[0] - 1j * x[1]),
            c2 * (x[0] - 1j * x[1]) + (c2 / p.eta) * (x[2] - 1j * x[3]),
            c1 * (x[4] - 1j * x[5]),
            c2 * (x[4] - 1j * x[5]) + (c2 / p.eta) * (x[6] - 1j * x[7]),
        ]
    )
    ops = mode_operators(p)
    assert np.abs(ops - expected).max() <= 1e-15 * np.abs(expected).max()
    # The sum above cancels to 2 c2 (1 - 1/eta) in one entry of a2 and of b2,
    # read here against its own size with 1 - eta = 2/(e^{eps/T} + 1). The
    # rounded eta would put eps_mach/(1 - eta) into it, 9e-9 at eps/T = 20;
    # the carried delta keeps it to a few ulps.
    one_minus_eta = 2.0 / (np.exp(eps / temp) + 1.0)
    delicate = -2.0 * c2 * one_minus_eta / p.eta
    tolerance = 4 * np.finfo(float).eps
    for entry in (ops[1, 3, 1], ops[3, 3, 2]):
        assert abs(entry - delicate) <= tolerance * abs(delicate)


@pytest.mark.parametrize("eps,temp", EPS_TEMP_GRID)
def test_canonical_commutators_via_fluctuation_form(eps, temp):
    p = ModelParams(eps, temp, 0.0)
    weights = thermal_state(p)
    ops = mode_operators(p)
    for i, ai in enumerate(ops):
        for j, aj in enumerate(ops):
            with_dagger = fluctuation_inner(
                ai.conj().T, aj.conj().T, weights
            ) - fluctuation_inner(aj, ai, weights)
            assert abs(with_dagger - (1.0 if i == j else 0.0)) < 1e-12
            plain = fluctuation_inner(ai.conj().T, aj, weights) - fluctuation_inner(
                aj.conj().T, ai, weights
            )
            assert abs(plain) < 1e-12


@pytest.mark.parametrize("eps,temp", EPS_TEMP_GRID)
def test_only_the_first_modes_act_on_one_chain(eps, temp):
    # The site is |s1 s2>, chain one's spin first, so A x 1 acts on chain one alone.
    p = ModelParams(eps, temp, 0.0)
    a1, a2, b1, b2 = mode_operators(p)
    lower = SIGMA_MINUS / np.sqrt(p.eta)
    assert np.array_equal(a1, np.kron(lower, np.eye(2)))
    assert np.array_equal(b1, np.kron(np.eye(2), lower))
    # a2 = sigma_- x D and b2 = D x sigma_-, with D = 2 c2 d read off the one
    # nonzero block of each
    d_a, d_b = a2[2:, :2], b2[1::2, ::2]
    assert np.array_equal(a2, np.kron(SIGMA_MINUS, d_a))
    assert np.array_equal(b2, np.kron(d_b, SIGMA_MINUS))
    c2 = np.sqrt(p.eta) / (2.0 * p.eta_perp)
    d = np.diag([1.0 + 1.0 / p.eta, -p.delta / p.eta])
    populations = thermal_state(p).reshape(2, 2)
    chain_one, chain_two = populations.sum(axis=1), populations.sum(axis=0)
    for factor, other_chain in ((d_a, chain_two), (d_b, chain_one)):
        assert np.abs(factor - 2.0 * c2 * d).max() <= 4e-16 * np.abs(factor).max()
        # diagonal and not a multiple of the identity: its entries differ in sign
        assert factor[0, 1] == factor[1, 0] == 0.0
        assert factor[0, 0].real * factor[1, 1].real < 0.0
        # a zero-mean fluctuation of the other chain; at (0.5, 5) d holds
        # 1 + 1/eta = 21, whose ulp alone is 3.6e-15, so the bound is relative
        factor_d = factor / (2.0 * c2)
        assert abs(expectation(other_chain, factor_d)) <= 1e-15 * np.abs(factor_d).max()


def test_drift_matrix_structure():
    p = ModelParams(1.0, 1.0, 0.3)
    m, k = drift_matrix(p), coupling(p)
    assert abs(m[0, 2] - (-0.3 * p.eta)) < 1e-15
    assert abs(m[0, 3] - 0.3 * p.eta_perp) < 1e-15
    assert np.abs(m - m.T).max() == 0.0
    assert np.abs(k - k.T).max() == 0.0
    # flow() takes its projectors (I +/- K)/2 from K^2 = I, so that must hold
    # over the grid and near the cold refusal edge, where eta rounds near 1.
    sets = [(eps, temp, gamma) for eps, temp in EPS_TEMP_GRID + [(1.0, 0.027)]
            for gamma in (0.0, 0.25, 0.5)]
    k = coupling(ModelParams(*np.array(sets).T))
    assert np.abs(k - k.swapaxes(-1, -2)).max() == 0.0
    assert np.abs(k @ k - np.eye(4)).max() < 1e-14


def test_drift_matrix_zero_coupling():
    p = ModelParams(2.0, 1.0, 0.0)
    m = drift_matrix(p)
    assert np.array_equal(m, -(1.0 + 2.0j) * np.eye(4, dtype=complex))


def test_drift_spectrum_is_two_pairs():
    p = ModelParams(1.0, 0.5, 0.4)
    values = np.sort_complex(np.linalg.eigvals(drift_matrix(p)))
    expected = np.sort_complex(
        np.array([-1.0 - 1.0j + 0.4, -1.0 - 1.0j + 0.4, -1.0 - 1.0j - 0.4, -1.0 - 1.0j - 0.4])
    )
    assert np.abs(values - expected).max() < 1e-12


def test_propagator_norm_decays_at_the_slow_rate():
    # eta ~ 0.9999: the drift is normal, so the 2-norm is exactly exp(-(1-gamma)t)
    temp = 1.0 / (2.0 * np.arctanh(0.9999))
    p = ModelParams(1.0, temp, 0.3)
    for t in (0.5, 1.0, 3.0):
        norm = np.linalg.norm(flow(p, t), 2)
        expected = np.exp(-0.7 * t)
        assert abs(norm - expected) < 1e-10 * expected


def test_initial_state_without_squeeze_is_the_fixed_point():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 0.0)
    assert np.array_equal(state.covariance, _reference(p.eta))
    assert np.array_equal(thermal_covariance(p.eta), _reference(p.eta))


def test_initial_state_reference_moments():
    p = ModelParams(1.0, 1.0, 0.5)
    c = initial_state(p, 1.0).covariance
    assert abs(c[0, 0] - 0.29285924815915554) < 1e-12  # e^{-2}/eta on x of a1
    assert abs(c[1, 1] - 15.989573169587395) < 1e-12  # e^{2}/eta on p of a1
    assert np.array_equal(c[4:6, 4:6], c[0:2, 0:2])  # b1 squeezed alike
    assert abs(c[2, 2] - 1.0 / p.eta) < 1e-15
    # product over the chains, and x and p uncorrelated within each mode
    assert np.abs(c - np.diag(np.diag(c))).max() == 0.0


def test_initial_state_squeeze_parity():
    p = ModelParams(1.0, 1.0, 0.5)
    plus = initial_state(p, 1.0).covariance
    minus = initial_state(p, -1.0).covariance
    # r -> -r exchanges the variances of x and p
    assert np.array_equal(plus[[0, 1, 4, 5], [0, 1, 4, 5]], minus[[1, 0, 5, 4], [1, 0, 5, 4]])


def test_gaussian_state_validation():
    p = ModelParams(1.0, 1.0, 0.5)
    good = initial_state(p, 1.0).covariance
    broken = good.copy()
    broken[0, 1] += 0.1
    with pytest.raises(ContractViolation, match="symmetric"):
        GaussianState(covariance=broken, eta=p.eta)
    # one bad matrix anywhere in a stack is refused
    with pytest.raises(ContractViolation, match="symmetric"):
        GaussianState(covariance=np.array([good, good, broken]), eta=p.eta)


def test_gaussian_state_rejects_nan_moments():
    for c in (np.full((8, 8), np.nan), np.where(np.eye(8) > 0, np.nan, 0.0)):
        with pytest.raises(ContractViolation):
            GaussianState(covariance=c, eta=0.5)
    stack = np.array([_reference(0.5)] * 3)
    stack[1, 2, 5] = stack[1, 5, 2] = np.nan
    with pytest.raises(ContractViolation):
        GaussianState(covariance=stack, eta=0.5)


def test_mode_builders_over_array_params_are_each_single_call():
    sets = [ModelParams(eps, temp, gamma) for eps, temp in EPS_TEMP_GRID for gamma in (0.0, 0.3)]
    sets += [ModelParams(0.3, 20.0, 0.37), ModelParams(5.0, 0.2, 0.5)]
    params = _stacked(sets)
    ops, drift, k = mode_operators(params), drift_matrix(params), coupling(params)
    assert ops.shape == (len(sets), 4, 4, 4)
    assert drift.shape == k.shape == (len(sets), 4, 4)
    for i, p in enumerate(sets):
        assert np.array_equal(ops[i], mode_operators(p))
        assert np.array_equal(drift[i], drift_matrix(p))
        assert np.array_equal(k[i], coupling(p))
    # a two-axis ModelParams gives two leading axes
    grid = ModelParams(params.epsilon, params.temperature, np.array([[0.0], [0.45]]))
    assert mode_operators(grid).shape == (2, len(sets), 4, 4, 4)
    last = drift_matrix(ModelParams(5.0, 0.2, 0.45))
    assert np.array_equal(drift_matrix(grid)[1, -1], last)
    # the parameter sets through the flow: every set at every time
    times = np.array([0.0, 0.4, 1.7, 5.0])
    flows = flow(params, times)
    assert flows.shape == (len(sets), len(times), 4, 4)
    for i, p in enumerate(sets):
        assert np.array_equal(flows[i], flow(p, times))
        assert np.array_equal(flow(params, 1.3)[i], flow(p, 1.3))


def _start_stack(sets, squeezes):
    """One squeezed start per parameter set, as one state stack."""
    return initial_state(_stacked(sets), np.array(squeezes))


def test_initial_state_over_array_params_and_squeezes_is_each_single_call():
    sets = [ModelParams(eps, temp, 0.2) for eps, temp in EPS_TEMP_GRID]
    squeezes = np.linspace(-3.0, 3.0, 5)
    # parameter sets down, squeezes across
    stack = initial_state(_stacked(sets), squeezes[:, None])
    assert stack.covariance.shape == (5, len(sets), 8, 8)
    assert stack.eta.shape == (5, len(sets))
    for k, r in enumerate(squeezes):
        for i, p in enumerate(sets):
            single = initial_state(p, r)
            assert np.array_equal(stack.covariance[k, i], single.covariance)
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
    stack = propagate(start, _stacked(sets), times)
    assert stack.covariance.shape == (len(sets), 3, 2, 8, 8)
    assert np.array_equal(stack.eta, start.eta)
    for i, (p, r) in enumerate(zip(sets, squeezes)):
        single = propagate(initial_state(p, r), p, times).covariance
        assert np.array_equal(stack.covariance[i], single)
    # a scalar time gives one state per parameter set
    at = propagate(start, _stacked(sets), 1.1).covariance
    assert at.shape == (len(sets), 8, 8)
    for i, (p, r) in enumerate(zip(sets, squeezes)):
        single = propagate(initial_state(p, r), p, 1.1).covariance
        assert np.array_equal(at[i], single)


def test_propagate_refuses_a_state_stack_that_does_not_match_the_generators():
    sets = [ModelParams(1.0, 0.1, 0.5), ModelParams(2.0, 0.5, 0.3), ModelParams(0.5, 5.0, 0.1)]
    stacked = _stacked(sets)
    start = _start_stack(sets, (1.0, 0.0, -1.0))
    # one entry from another temperature
    swapped = _start_stack([sets[0], ModelParams(2.0, 0.6, 0.3), sets[2]], (1.0, 0.0, -1.0))
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(swapped, stacked, 1.0)
    # the stack in another order
    reordered = GaussianState(covariance=start.covariance[::-1], eta=start.eta[::-1])
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(reordered, stacked, np.array([0.0, 1.0]))
    # one state for a stack of parameter sets, and a stack of states for one set
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(initial_state(sets[0], 1.0), _stacked(sets[:1]), 1.0)
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(_start_stack(sets[:1], (1.0,)), sets[0], 1.0)
    # a stack of states per parameter set
    later = propagate(start, stacked, np.array([0.5, 1.0, 2.0]))
    with pytest.raises(ContractViolation, match="one state each"):
        propagate(later, stacked, 1.0)
    # a NaN eta matches nothing
    nan = GaussianState(covariance=start.covariance, eta=np.array([np.nan, *start.eta[1:]]))
    with pytest.raises(ContractViolation, match="different thermal parameters"):
        propagate(nan, stacked, 1.0)


def test_gaussian_state_takes_eta_over_its_leading_axes_only():
    g = np.broadcast_to(_reference(0.5), (3, 2, 8, 8))
    assert GaussianState(covariance=g, eta=np.full(3, 0.5)).covariance.shape == (3, 2, 8, 8)
    assert GaussianState(covariance=g, eta=np.full((3, 2), 0.5)).eta.shape == (3, 2)
    for eta in (np.full(2, 0.5), np.full((3, 2, 8), 0.5), np.full(8, 0.5)):
        with pytest.raises(ContractViolation, match="does not lead"):
            GaussianState(covariance=g, eta=eta)
    with pytest.raises(ContractViolation, match="does not lead"):
        GaussianState(covariance=_reference(0.5), eta=np.full(8, 0.5))


def test_gaussian_state_stores_the_swap_symmetrised_stack():
    # Symmetrised under the swap of the two matrix axes, the transpose.
    rng = np.random.default_rng(17)
    c = rng.standard_normal((5, 8, 8))
    c = c + c.swapaxes(-1, -2)
    c[:, 0, 4] += 1e-14  # a drift below the tolerance, which the symmetrising removes
    expected = 0.5 * (c + c.swapaxes(-1, -2))
    assert np.array_equal(GaussianState(covariance=c, eta=0.5).covariance, expected)


def test_flow_is_the_exponential_of_the_drift_matrix():
    # A 40-digit expm of the whole drift matrix M pins that the projector form
    # reproduces exp(tM) itself, to rounding of its slow envelope, out to long times.
    mp = pytest.importorskip("mpmath").mp
    times = (0.0, 0.3, 1.7, 6.0, 20.0, 60.0, 150.0)
    for p in (ModelParams(1.3, 0.4, 0.45), ModelParams(0.5, 5.0, 0.25)):
        for t in times:
            with mp.workdps(40):
                reference = mp.expm(mp.mpf(t) * mp.matrix(drift_matrix(p).tolist()))
                expected = np.array(reference.tolist(), dtype=complex)
            envelope = np.exp(-(1.0 - p.gamma) * t)
            assert np.abs(flow(p, t) - expected).max() < 1e-14 * envelope
        # A time array gives, entry for entry, the flows of the scalar calls.
        stack = flow(p, np.array(times))
        assert stack.shape == (len(times), 4, 4)
        assert np.array_equal(stack[0], np.eye(4, dtype=complex))
        for t, u in zip(times, stack):
            assert np.array_equal(u, flow(p, t))


def test_propagate_validates_time_and_parameters():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 1.0)
    with pytest.raises(ContractViolation):
        propagate(state, p, -0.1)
    for bad in (-0.1, float("nan")):
        with pytest.raises(ContractViolation):
            propagate(state, p, np.array([0.0, 1.0, bad, 2.0]))
        with pytest.raises(ContractViolation):
            flow(p, np.array([bad, 0.5]))
    with pytest.raises(ContractViolation):
        propagate(state, ModelParams(1.0, 0.2, 0.5), 1.0)


def test_propagate_zero_time_is_identity():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 1.0)
    assert np.array_equal(propagate(state, p, 0.0).covariance, state.covariance)
    # A time array gives a state stack, entry for entry what scalar calls give.
    times = np.array([0.7, 0.0, 2.3, 5.0])
    stack = propagate(state, p, times).covariance
    assert stack.shape == (4, 8, 8)
    assert np.array_equal(stack[1], state.covariance)
    for t, c in zip(times, stack):
        assert np.array_equal(c, propagate(state, p, t).covariance)


def test_propagation_semigroup():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 1.0)
    direct = propagate(state, p, 1.7).covariance
    stepped = propagate(propagate(state, p, 0.8), p, 0.9).covariance
    assert np.abs(direct - stepped).max() < 1e-10


def test_fixed_point_is_exactly_stationary():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 0.0)
    for t in np.linspace(0.0, 5.0, 11):
        assert np.array_equal(propagate(state, p, t).covariance, _reference(p.eta))


def test_propagation_preserves_chain_exchange_symmetry():
    p = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(p, 1.0)
    perm = [4, 5, 6, 7, 0, 1, 2, 3]
    for t in (0.0, 0.7, 2.3):
        c = propagate(state, p, t).covariance
        assert np.abs(c[np.ix_(perm, perm)] - c).max() < 1e-13


def test_propagation_contracts_toward_the_fixed_point():
    p = ModelParams(1.0, 0.1, 0.5)
    for t in (*np.linspace(0.0, 5.0, 21), 1500.0, 2000.0):
        assert np.linalg.norm(flow(p, t), 2) <= 1.0 + 1e-12
    # Long after every rate has underflowed, the state is the fixed point itself.
    for t in (1500.0, 2000.0):
        covariance = propagate(initial_state(p, 1.0), p, t).covariance
        assert np.array_equal(covariance, thermal_covariance(p.eta))


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5])
def test_envelope_relaxation_rate(gamma):
    p = ModelParams(1.0, 0.1, gamma)
    state = initial_state(p, 1.0)
    reference = _reference(p.eta)
    times = np.linspace(2.0, 5.0, 16)
    norms = [
        np.linalg.norm(propagate(state, p, t).covariance - reference, 2)
        for t in times
    ]
    slope = np.polyfit(times, np.log(norms), 1)[0]
    expected = -2.0 * (1.0 - gamma)
    assert abs(slope - expected) < 0.02 * abs(expected)
