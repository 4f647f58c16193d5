"""Microscopic generator, its restriction to the modes, and Weyl expectations."""

from __future__ import annotations

import numpy as np
import pytest

import mesospin.checks as checks
import mesospin.modes as modes
import mesospin.oracle as oracle
from mesospin.errors import ClosureError, ContractViolation
from mesospin.modes import drift_matrix, mode_operators
from mesospin.oracle import (
    clt_table,
    extract_mode_generator,
    generator_pieces,
    liouvillian,
    vec,
    weyl_expectation_finite,
    weyl_expectation_limit,
)
from mesospin.sites import (
    ModelParams,
    dissipation_matrix,
    expectation,
    kron2,
    lindblad_ops,
    observables,
    site_hamiltonian,
    thermal_state,
)

GRID = [
    ModelParams(eps, temp, gamma)
    for eps in (0.5, 1.0, 2.0)
    for temp in (0.1, 1.0, 5.0)
    for gamma in (0.0, 0.3, 0.5)
]

# Off-grid points for the affine generator: eps in (0.1, 5), gamma in [0, 1/2].
_OFF = np.random.default_rng(11)
OFF_GRID = [
    ModelParams(eps, temp, gamma)
    for eps, temp, gamma in zip(
        _OFF.uniform(0.1, 5.0, 6), _OFF.uniform(0.5, 5.0, 6), _OFF.uniform(0.0, 0.5, 6)
    )
]


def _apply(generator, x):
    """L[x] of one 16x16 generator, read back from the column-stacked image."""
    return (generator @ vec(x)).reshape(4, 4).T


def _extract(generator, p):
    """extract_mode_generator of the generator in the modes and thermal state of p."""
    return extract_mode_generator(generator, mode_operators(p), thermal_state(p))


def test_generator_is_unital_and_annihilates_the_hamiltonian():
    for p in (ModelParams(1.0, 1.0, 0.5), ModelParams(2.0, 0.1, 0.25)):
        generator = liouvillian(p)
        assert np.abs(_apply(generator, np.eye(4))).max() < 1e-14
        h = site_hamiltonian(p)
        assert np.abs(_apply(generator, h)).max() < 1e-13


def test_generator_matches_the_double_commutator_form():
    # Plain 4x4 products, independent of the vec identities behind the 16x16 matrix.
    rng = np.random.default_rng(7)
    for p in GRID + OFF_GRID:
        h = site_hamiltonian(p)
        d = dissipation_matrix(p.gamma)
        generator = liouvillian(p)
        for _ in range(3):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            expected = 1j * (h @ x - x @ h)
            for m, vm in enumerate(lindblad_ops()):
                for n, vn in enumerate(lindblad_ops()):
                    inner = vm @ x - x @ vm
                    vnd = vn.conj().T
                    expected = expected + 0.5 * d[m, n] * (inner @ vnd - vnd @ inner)
            assert np.abs(_apply(generator, x) - expected).max() < 1e-13


def test_shared_constant_arrays_are_read_only():
    shared = [
        *observables(),
        lindblad_ops()[0],
        *generator_pieces(),
        oracle._observable_basis(),
        checks._pauli_words(),
        modes._LOWER_ONE,
        modes._LOWER_TWO,
    ]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


def test_thermal_state_is_stationary_for_all_pauli_words():
    words = [kron2(i, j) for i in range(4) for j in range(4)]
    for p in GRID:
        weights = thermal_state(p)
        generator = liouvillian(p)
        worst = max(abs(expectation(weights, _apply(generator, w))) for w in words)
        assert worst < 1e-12


def test_observables_close_and_identity_components_vanish():
    # an identity component of an image would count in the residual
    for p in GRID:
        _, residual = _extract(liouvillian(p), p)
        assert residual < 1e-10


def test_a_nan_coupling_piece_is_not_unital(monkeypatch):
    l_h, l_0, l_1 = generator_pieces()
    monkeypatch.setattr(oracle, "generator_pieces", lambda: (l_h, l_0, np.nan * l_1))
    with pytest.raises(ClosureError, match="not unital"):
        liouvillian(ModelParams(1.0, 1.0, 0.3))


def test_extraction_over_temperatures_is_each_single_extraction():
    temps = (0.1, 0.5, 1.0, 5.0)
    for eps, gamma in ((0.5, 0.0), (1.0, 0.3), (2.0, 0.5)):
        generator = liouvillian(ModelParams(eps, temps[0], gamma))
        stacked, stacked_residual = _extract(generator, ModelParams(eps, np.array(temps), gamma))
        assert stacked.shape == (4, 8, 8)
        for i, temp in enumerate(temps):
            single, residual = _extract(generator, ModelParams(eps, temp, gamma))
            assert np.array_equal(stacked[i], single)
            assert np.array_equal(stacked[i, :4, :4], single[:4, :4])
            assert stacked_residual == residual


def test_a_generator_stack_is_each_single_generator():
    sets = GRID + OFF_GRID
    params = ModelParams(*np.array([(p.epsilon, p.temperature, p.gamma) for p in sets]).T)
    stack = liouvillian(params)
    assert stack.shape == (len(sets), 16, 16)
    for matrix, p in zip(stack, sets):
        assert np.array_equal(matrix, liouvillian(p))


def test_a_nan_coupling_piece_fails_the_whole_stack(monkeypatch):
    l_h, l_0, l_1 = generator_pieces()
    monkeypatch.setattr(oracle, "generator_pieces", lambda: (l_h, l_0, np.nan * l_1))
    # 0 * nan is nan, so no generator of the stack is unital
    with pytest.raises(ClosureError, match="= nan"):
        liouvillian(ModelParams(1.0, 1.0, np.array([0.0, 0.3])))


def test_extraction_of_a_generator_stack_is_each_single_extraction():
    gammas = np.array([[0.0], [0.3], [0.5]])
    temps = ModelParams(np.array([0.5, 1.0, 2.0]), np.array([0.1, 1.0, 5.0]), 0.0)
    # (gamma, (eps, T)) generators against the (eps, T) modes
    generators = liouvillian(ModelParams(temps.epsilon, temps.temperature, gammas))
    assert generators.shape == (3, 3, 16, 16)
    stacked, stacked_residual = _extract(generators, temps)
    assert stacked.shape == (3, 3, 8, 8)
    residuals = []
    for g, gamma in enumerate(gammas[:, 0]):
        for t, (eps, temp) in enumerate(zip(temps.epsilon, temps.temperature)):
            p = ModelParams(eps, temp, gamma)
            single, residual = _extract(liouvillian(p), p)
            assert np.array_equal(stacked[g, t], single)
            assert np.array_equal(stacked[g, t, :4, :4], single[:4, :4])
            residuals.append(residual)
    assert stacked_residual == max(residuals)


def test_weyl_rejects_a_nan_argument():
    weights = thermal_state(ModelParams(1.0, 1.0, 0.5))
    with pytest.raises(ContractViolation):
        weyl_expectation_limit(np.full((4, 4), np.nan), weights)


# sigma3 x 1 and the identity both lie outside the span of the observables
@pytest.mark.parametrize("leak", [kron2(3, 0), np.eye(4)], ids=["sigma3_x_1", "identity"])
def test_leak_onto_a_complement_word_breaks_closure(leak):
    p = ModelParams(1.0, 1.0, 0.3)
    x1 = observables()[0]
    # adds 1e-6 * leak to L[x1] and to no other observable's image
    matrix = liouvillian(p) + 1e-6 * np.outer(vec(leak), vec(x1).conj()) / 4.0
    with pytest.raises(ClosureError, match="do not close"):
        _extract(matrix, p)


def test_mode_generator_blocks_match_the_drift_matrix():
    for p in GRID:
        g, _ = _extract(liouvillian(p), p)
        m = drift_matrix(p)
        assert np.abs(g[:4, :4] - m.T).max() < 1e-10
        assert np.abs(g[4:, 4:] - m.conj().T).max() < 1e-10
        assert np.abs(g[:4, 4:]).max() < 1e-10
        assert np.abs(g[4:, :4]).max() < 1e-10


def test_drift_corner_entries_at_reference_parameters():
    p = ModelParams(1.0, 1.0, 0.3)
    g, _ = _extract(liouvillian(p), p)
    eta = float(np.tanh(0.5))
    w = float(1.0 / np.cosh(0.5))
    assert abs(g[0, 2] - (-0.3 * eta)) < 1e-12
    assert abs(g[0, 3] - 0.3 * w) < 1e-12


def test_mode_generator_spectrum():
    p = ModelParams(1.3, 0.7, 0.25)
    values = np.linalg.eigvals(_extract(liouvillian(p), p)[0])
    base = [
        -1.0 - 1.3j + 0.25,
        -1.0 - 1.3j - 0.25,
        -1.0 + 1.3j + 0.25,
        -1.0 + 1.3j - 0.25,
    ]
    assert values.shape == (8,)
    for root in base:
        assert np.sum(np.abs(values - root) < 1e-9) == 2


def test_zero_coupling_generator_is_diagonal_rotation():
    p = ModelParams(1.0, 1.0, 0.0)
    g, _ = _extract(liouvillian(p), p)
    expected = np.diag([-1.0 - 1.0j] * 4 + [-1.0 + 1.0j] * 4)
    assert np.abs(g - expected).max() < 1e-12


def test_weyl_expectation_anchor_values():
    p = ModelParams(1.0, 1.0, 0.5)
    weights = thermal_state(p)
    x1 = observables()[0]
    finite = weyl_expectation_finite(x1, 100, weights)
    assert abs(finite - 0.6060240772154118) < 1e-12
    assert abs(finite.imag) < 1e-14
    assert abs(weyl_expectation_limit(x1, weights) - 0.6065306597126334) < 1e-12
    zero = np.zeros((4, 4))
    # the populations sum to 1 with a 1 ulp deficit that the 500th power amplifies to 6e-14
    assert abs(weyl_expectation_finite(zero, 500, weights) - 1.0) < 1e-12


def test_weyl_errors_shrink_monotonically_for_every_observable():
    p = ModelParams(1.0, 1.0, 0.5)
    weights = thermal_state(p)
    for x in observables():
        limit = weyl_expectation_limit(x, weights)
        errors = [
            abs(weyl_expectation_finite(x, n, weights) - limit)
            for n in (100, 1000, 10000)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-2


def test_clt_table_is_each_single_weyl_expectation():
    for p in (ModelParams(1.0, 1.0, 0.0), ModelParams(2.0, 0.3, 0.0)):
        weights = thermal_state(p)
        sites = (7, 100, 1000, 10000)
        for x, (limit, finite, _, _) in zip(observables(), clt_table(weights, sites)):
            assert limit == weyl_expectation_limit(x, weights)
            assert finite == [weyl_expectation_finite(x, n, weights) for n in sites]


def test_clt_table_error_at_1e8_sites_is_the_exact_one():
    # Each x_a squares to 1 and is centred in the thermal state, so its exact
    # n-site value is cos(1/sqrt(n))^n.
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 40
    n = 10**8
    exact = mp.cos(1 / mp.sqrt(n)) ** n
    for limit, _, errors, _ in clt_table(thermal_state(ModelParams(1.0, 1.0, 0.0)), (100, n)):
        want = float(abs(exact - mp.mpf(limit)))  # 5.05e-10
        assert abs(errors[1] - want) <= 1e-2 * want


def test_clt_table_errors_up_to_1e20_sites_are_the_exact_ones():
    # Past n = 1e14 the difference of finite value and limit keeps no digit;
    # the cumulant series reads the error as limit |expm1(n R)|.
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 60
    sites = tuple(10**k for k in (12, 14, 16, 18, 20))
    for temperature in (1.0, 0.3):
        table = clt_table(thermal_state(ModelParams(1.0, temperature, 0.0)), sites)
        for _, _, errors, monotone in table:
            assert monotone
            for n, error in zip(sites, errors):
                exact = abs(mp.cos(1 / mp.sqrt(n)) ** n - mp.exp(mp.mpf(-0.5)))  # ~ 0.05/n
                assert abs(error - exact) <= 1e-10 * exact


def test_weyl_rejects_non_hermitian_and_bad_site_count():
    p = ModelParams(1.0, 1.0, 0.5)
    weights = thermal_state(p)
    lowering = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ContractViolation):
        weyl_expectation_finite(lowering, 10, weights)
    with pytest.raises(ContractViolation):
        weyl_expectation_limit(lowering, weights)
    with pytest.raises(ContractViolation):
        weyl_expectation_finite(observables()[0], 0, weights)

