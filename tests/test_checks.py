"""The batched self-checks still catch the faults they exist to catch."""

from __future__ import annotations

import numpy as np
import pytest

import mesospin.checks as checks
import mesospin.oracle as oracle
from mesospin.modes import mode_operators, thermal_moments
from mesospin.sites import ModelParams, ThermalSiteState

# Each public check as a function of the level, in run_checks order.
ALONE = (
    lambda level: checks.check_dissipation_spectrum(),
    checks.check_thermal_invariance,
    checks.check_generator_match,
    checks.check_mode_ccr,
    checks.check_clt_convergence,
    checks.check_thermal_covariance,
    checks.check_physicality,
    checks.check_curve_engine,
)


def test_mode_ccr_fails_when_a_mode_is_mis_normalised(monkeypatch):
    def scaled(params):
        a1, a2, b1, b2 = mode_operators(params)
        return a1, 1.001 * a2, b1, b2

    monkeypatch.setattr(checks, "mode_operators", scaled)
    result = checks.check_mode_ccr("fast")
    assert not result.passed
    # [a2, a2^dag] = 1.001^2
    assert abs(result.residual - 2.001e-3) < 1e-12


def test_thermal_invariance_fails_for_a_non_stationary_state(monkeypatch):
    # Not population-reversed: the flip-flop dynamics leave that state invariant.
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    monkeypatch.setattr(checks, "thermal_state", lambda params: ThermalSiteState(rho=rho))
    result = checks.check_thermal_invariance("fast")
    assert not result.passed
    assert abs(result.residual - 0.2) < 1e-12


def test_thermal_covariance_fails_for_a_mis_scaled_fixed_point(monkeypatch):
    monkeypatch.setattr(
        checks, "thermal_moments", lambda eta: (1.0 + 1e-6) * thermal_moments(eta)
    )
    result = checks.check_thermal_covariance("fast")
    assert not result.passed
    # the largest diagonal entry 1/(2 eta) sits at the hottest (eps, T)
    worst = max(1e-6 / (2.0 * ModelParams(e, t, 0.0).eta) for e, t in checks.FAST_EPS_TEMPS)
    assert abs(result.residual - worst) < 1e-12


def test_generator_match_fails_for_a_mis_scaled_coupling_piece(monkeypatch):
    l_h, l_0, l_1 = oracle.generator_pieces()
    monkeypatch.setattr(oracle, "generator_pieces", lambda: (l_h, l_0, (1.0 + 1e-6) * l_1))
    results = {r.name: r for r in checks.run_checks("full")}
    assert not results["generator-match"].passed
    # gamma K gains 1e-6 gamma K; the largest |K| entry is max(eta, eta_perp)
    grid = [ModelParams(e, t, g) for e, t in checks.FULL_EPS_TEMPS for g in checks.DEFAULT_GAMMAS]
    worst = max(1e-6 * p.gamma * max(p.eta, p.eta_perp) for p in grid)
    assert abs(results["generator-match"].residual - worst) < 1e-12
    # L_1 alone maps the observables into their span and keeps the thermal state
    assert [name for name, r in results.items() if not r.passed] == ["generator-match"]


def test_thermal_covariance_fails_with_a_nan_residual_for_a_nan_fixed_point(monkeypatch):
    monkeypatch.setattr(checks, "thermal_moments", lambda eta: np.full((8, 8), np.nan))
    result = checks.check_thermal_covariance("fast")
    assert not result.passed
    assert np.isnan(result.residual)


def test_a_nan_thermal_state_fails_with_a_nan_residual(monkeypatch):
    rho = np.full((4, 4), np.nan, dtype=complex)
    monkeypatch.setattr(checks, "thermal_state", lambda params: ThermalSiteState(rho=rho))
    for check in (checks.check_thermal_invariance, checks.check_mode_ccr):
        result = check("fast")
        assert not result.passed
        assert np.isnan(result.residual)


def test_a_nan_coupling_piece_fails_both_generator_checks(monkeypatch):
    l_h, l_0, l_1 = oracle.generator_pieces()
    monkeypatch.setattr(oracle, "generator_pieces", lambda: (l_h, l_0, np.nan * l_1))
    failed = [r for r in checks.run_checks("fast") if not r.passed]
    assert [r.name for r in failed] == ["thermal-invariance", "generator-match"]
    for r in failed:
        assert r.residual == float("inf")
        assert r.detail == "generator is not unital: ||L[1]|| = nan"


@pytest.mark.parametrize("level", ["fast", "full"])
def test_each_check_alone_matches_its_result_in_run_checks(level):
    assert [check(level) for check in ALONE] == checks.run_checks(level)


def test_run_checks_keeps_nothing_from_a_tampered_call(monkeypatch):
    def scaled(params):
        a1, a2, b1, b2 = mode_operators(params)
        return a1, 1.001 * a2, b1, b2

    clean = checks.run_checks("fast")
    assert all(r.passed for r in clean)
    with monkeypatch.context() as patch:
        patch.setattr(checks, "mode_operators", scaled)
        tampered = checks.run_checks("fast")
    assert [r.name for r in tampered if not r.passed] == ["mode-ccr", "thermal-covariance"]
    assert checks.run_checks("fast") == clean


def test_a_full_run_builds_each_generator_and_reference_stack_once(monkeypatch):
    calls = {"liouvillian": 0, "propagate": 0, "expm": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(checks, "liouvillian")
    counted(checks, "propagate")
    counted(oracle, "expm")
    assert all(r.passed for r in checks.run_checks("full"))
    # one generator per (eps, gamma) in each of two checks, one stack per
    # curve config, one Weyl eigendecomposition per observable
    assert calls["liouvillian"] <= 2 * 3 * len(checks.DEFAULT_GAMMAS)
    assert calls["propagate"] <= 3
    assert calls["expm"] <= 8
