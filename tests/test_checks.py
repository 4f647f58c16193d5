"""The batched self-checks still catch the faults they exist to catch."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import mesospin.checks as checks
import mesospin.cli as cli
import mesospin.modes as modes
import mesospin.negativity as negativity_module
import mesospin.oracle as oracle
from mesospin.experiments import run_curve
from mesospin.modes import (
    drift_matrix,
    initial_state,
    mode_operators,
    propagate,
    thermal_covariance,
)
from mesospin.negativity import negativity, symplectic_eigenvalues
from mesospin.oracle import (
    extract_mode_generator,
    liouvillian,
    vec,
    weyl_expectation_finite,
    weyl_expectation_limit,
)
from mesospin.sites import (
    ModelParams,
    dissipation_matrix,
    fluctuation_inner,
    kron2,
    observables,
    thermal_state,
)


def _check(name):
    """The result of the named check in run_checks()."""
    return next(r for r in checks.run_checks() if r.name == name)


def _a2_scaled(params):
    """mode_operators with a2 of every parameter set scaled by 1.001."""
    return mode_operators(params) * np.array([1.0, 1.001, 1.0, 1.0])[:, None, None]


def test_mode_ccr_fails_when_a_mode_is_mis_normalised(monkeypatch):
    monkeypatch.setattr(checks, "mode_operators", _a2_scaled)
    result = _check("mode-ccr")
    assert not result.passed
    # [a2, a2^dag] = 1.001^2
    assert abs(result.residual - 2.001e-3) < 1e-12


def test_thermal_invariance_fails_for_a_non_stationary_state(monkeypatch):
    # Not population-reversed: the flip-flop dynamics leave that state invariant.
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    monkeypatch.setattr(checks, "thermal_state", lambda params: weights)
    result = _check("thermal-invariance")
    assert not result.passed
    assert abs(result.residual - 0.2) < 1e-12


def test_thermal_covariance_fails_for_a_mis_scaled_fixed_point(monkeypatch):
    monkeypatch.setattr(
        checks, "thermal_covariance", lambda eta: (1.0 + 1e-6) * thermal_covariance(eta)
    )
    result = _check("thermal-covariance")
    assert not result.passed
    # the largest diagonal entry 1/eta sits at the hottest (eps, T)
    worst = max(1e-6 / ModelParams(e, t, 0.0).eta for e, t in checks.EPS_TEMPS)
    assert abs(result.residual - worst) < 1e-12


def test_generator_match_fails_for_a_mis_scaled_coupling_piece(monkeypatch):
    l_h, l_0, l_1 = oracle.generator_pieces()
    monkeypatch.setattr(oracle, "generator_pieces", lambda: (l_h, l_0, (1.0 + 1e-6) * l_1))
    results = {r.name: r for r in checks.run_checks()}
    assert not results["generator-match"].passed
    # gamma K gains 1e-6 gamma K; the largest |K| entry is max(eta, eta_perp)
    eps, temps = np.array(checks.EPS_TEMPS).T
    grid = ModelParams(eps[:, None], temps[:, None], np.array(checks.DEFAULT_GAMMAS))
    worst = np.max(1e-6 * grid.gamma * np.maximum(grid.eta, grid.eta_perp))
    assert abs(results["generator-match"].residual - worst) < 1e-12
    # L_1 alone maps the observables into their span and keeps the thermal state
    assert [name for name, r in results.items() if not r.passed] == ["generator-match"]


def test_thermal_covariance_fails_with_a_nan_residual_for_a_nan_fixed_point(monkeypatch):
    monkeypatch.setattr(checks, "thermal_covariance", lambda eta: np.full((8, 8), np.nan))
    result = _check("thermal-covariance")
    assert not result.passed
    assert np.isnan(result.residual)


def test_a_nan_thermal_state_fails_with_a_nan_residual(monkeypatch):
    monkeypatch.setattr(checks, "thermal_state", lambda params: np.full(4, np.nan))
    results = {r.name: r for r in checks.run_checks()}
    for name in ("thermal-invariance", "generator-match", "mode-ccr"):
        result = results[name]
        assert not result.passed
        assert np.isnan(result.residual)


def test_clt_convergence_fails_when_the_errors_of_an_observable_rise(monkeypatch):
    clt_table = checks.clt_table

    def rising(weights, sites):
        table = clt_table(weights, sites)
        limit, finite, errors, _ = table[2]
        table[2] = (limit, finite, errors[::-1], False)
        return table

    monkeypatch.setattr(checks, "clt_table", rising)
    result = _check("clt-convergence")
    assert not result.passed
    assert result.residual == float("inf")
    assert result.detail.startswith("observable 3: errors not monotone")


def test_a_nan_coupling_piece_fails_both_generator_checks(monkeypatch):
    l_h, l_0, l_1 = oracle.generator_pieces()
    monkeypatch.setattr(oracle, "generator_pieces", lambda: (l_h, l_0, np.nan * l_1))
    failed = [r for r in checks.run_checks() if not r.passed]
    assert [r.name for r in failed] == ["thermal-invariance", "generator-match"]
    for r in failed:
        assert r.residual == float("inf")
        assert r.detail == "generator is not unital: ||L[1]|| = nan"


def test_run_checks_keeps_nothing_from_a_tampered_call(monkeypatch):
    clean = checks.run_checks()
    assert all(r.passed for r in clean)
    with monkeypatch.context() as patch:
        patch.setattr(checks, "mode_operators", _a2_scaled)
        tampered = checks.run_checks()
    # generator-match reads the same shared modes as mode-ccr and thermal-covariance
    assert [r.name for r in tampered if not r.passed] == [
        "generator-match",
        "mode-ccr",
        "thermal-covariance",
    ]
    assert checks.run_checks() == clean


def test_a_full_run_builds_each_generator_and_reference_stack_once(monkeypatch):
    calls = Counter()

    def counted(module, name, key=None):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key or f"{module.__name__}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(checks, "liouvillian")
    counted(checks, "propagate")
    # the reference spectra, from checks or inside negativity
    counted(checks, "symplectic_eigenvalues", "spectra")
    counted(negativity_module, "symplectic_eigenvalues", "spectra")
    # the Weyl powers take one eigh of all their observables per call
    counted(oracle, "_weyl_powers")
    assert all(r.passed for r in checks.run_checks())
    # one generator stack shared by two checks, one reference covariance stack
    # for all curve configs and one eigendecomposition for all Weyl observables
    assert calls == {
        "mesospin.checks.liouvillian": 1,
        "mesospin.checks.propagate": 1,
        "spectra": 2,
        "mesospin.oracle._weyl_powers": 1,
    }


def test_a_full_run_builds_the_modes_once_and_the_thermal_state_twice(monkeypatch):
    calls = Counter()
    for module in (checks, oracle):
        for name in ("mode_operators", "thermal_state"):
            if hasattr(module, name):
                original = getattr(module, name)

                def wrapper(params, name=name, original=original):
                    calls[name] += 1
                    return original(params)

                monkeypatch.setattr(module, name, wrapper)
    assert all(r.passed for r in checks.run_checks())
    # the (eps, T) columns' modes and populations serve four checks; the
    # second thermal state is clt-convergence's own (1, 1) state
    assert calls == {"mode_operators": 1, "thermal_state": 2}


def test_a_nan_thermal_state_fails_checks_without_aborting_the_run(monkeypatch):
    monkeypatch.setattr(checks, "thermal_state", lambda params: np.full(4, np.nan))
    results = {r.name: r for r in checks.run_checks()}
    assert len(results) == 8
    clt = results["clt-convergence"]
    assert not clt.passed
    assert clt.residual == float("inf")
    assert clt.detail == "Weyl argument must be finite"


def _looped_residuals():
    """Every residual of run_checks(), one (eps, T, gamma) or grid point at a time."""
    words = np.column_stack([vec(kron2(i, j)) for i in range(4) for j in range(4)])
    spectrum, invariance, match, ccr, covariance = [], [], [], [], []
    for gamma in checks.DEFAULT_GAMMAS:
        expected = np.sort([1.0 - 2.0 * gamma, 1.0, 1.0, 1.0 + 2.0 * gamma])
        spectrum.append(np.abs(np.linalg.eigvalsh(dissipation_matrix(gamma)) - expected).max())
    for eps, temp in checks.EPS_TEMPS:
        thermal = ModelParams(eps, temp, 0.0)
        weights = thermal_state(thermal)
        for gamma in checks.DEFAULT_GAMMAS:
            p = ModelParams(eps, temp, gamma)
            generator = liouvillian(p)
            # rows 0, 5, 10, 15 of a column-stacked image are its diagonal
            invariance.append(np.abs(weights @ (generator @ words)[::5]).max())
            ext = extract_mode_generator(generator, mode_operators(p), thermal_state(p))
            g, m_t = ext.mode_generator, drift_matrix(p).T
            match += [
                ext.residual,
                np.abs(ext.identity_coeffs).max(),
                np.abs(g[:4, :4] - m_t).max(),
                np.abs(g[4:, 4:] - m_t.conj()).max(),
                np.abs(g[:4, 4:]).max(),
                np.abs(g[4:, :4]).max(),
            ]
        a = list(mode_operators(thermal))
        ad = [x.conj().T for x in a]
        a_a, ad_ad, ad_a = (
            np.array([[fluctuation_inner(x, y, weights) for y in ys] for x in xs])
            for xs, ys in ((a, a), (ad, ad), (ad, a))
        )
        ccr += [np.abs(ad_ad - a_a.T - np.eye(4)).max(), np.abs(ad_a - ad_a.T).max()]
        sym, pair = 0.5 * (a_a + ad_ad.T).conj(), 0.5 * (ad_a + ad_a.T)
        cov = np.empty((8, 8))
        cov[0::2, 0::2] = (sym + pair).real
        cov[0::2, 1::2] = pair.imag - sym.imag
        cov[1::2, 0::2] = pair.imag + sym.imag
        cov[1::2, 1::2] = (sym - pair).real
        covariance.append(np.abs(2.0 * cov - thermal_covariance(thermal.eta)).max())
    clt = []
    weights = thermal_state(ModelParams(1.0, 1.0, 0.0))
    for x in observables():
        limit = weyl_expectation_limit(x, weights)
        errors = [abs(weyl_expectation_finite(x, n, weights) - limit) for n in checks.CLT_SITES]
        if not all(e > f for e, f in zip(errors, errors[1:])):
            clt.append(float("inf"))
        clt.append(errors[-1])
    physicality, engine = [], []
    for config in checks.CURVE_CONFIGS:
        p = ModelParams(config.epsilon, config.temperature, config.gamma)
        start = initial_state(p, config.squeeze_r)
        curve = run_curve(config).nu_min
        times = np.linspace(0.0, config.t_max, config.t_steps)
        for t, nu in zip(times, curve):
            state = propagate(start, p, t)
            smallest = symplectic_eigenvalues(state.covariance)[0]
            physicality.append(max(0.0, 1.0 - smallest))
            reference = negativity(state).nu_min
            engine.append(abs(nu - reference) / reference)
    return [
        max(r)
        for r in (spectrum, invariance, match, ccr, clt, covariance, physicality, engine)
    ]


def test_the_mode_checks_read_to_a_few_ulps_on_the_full_grid():
    # The delicate mode entry -(1 - eta)/eta is read from the carried delta,
    # so the coldest (eps, T) = (2, 0.1) costs no digits.
    results = {r.name: r for r in checks.run_checks()}
    for name in ("mode-ccr", "generator-match", "thermal-covariance"):
        assert results[name].residual <= 1e-14, (name, results[name].residual)


@pytest.mark.parametrize("level", ["fast", "full"])
def test_each_residual_is_the_one_a_loop_over_the_grid_gives(level, monkeypatch, capsys):
    # --level is accepted for compatibility only: either value runs the one
    # full-grid suite, whose residuals a loop over that grid reproduces
    runs = []

    def recorded():
        runs.append(checks.run_checks())
        return runs[-1]

    monkeypatch.setattr(cli, "run_checks", recorded)
    assert cli.main(["verify", "--level", level]) == 0
    capsys.readouterr()
    assert len(runs) == 1
    stacked = [repr(r.residual) for r in runs[0]]
    assert stacked == [repr(float(r)) for r in _looped_residuals()]
