"""The batched self-checks still catch the faults they exist to catch."""

from __future__ import annotations

import numpy as np

import mesospin.checks as checks
import mesospin.oracle as oracle
from mesospin.modes import mode_operators, thermal_moments
from mesospin.sites import ModelParams, ThermalSiteState


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
    monkeypatch.setattr(
        checks, "thermal_state", lambda params: ThermalSiteState(rho=rho, params=params)
    )
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
