"""Self-verification suite: every structural identity the model rests on.

Each check recomputes one identity from scratch (complete positivity window,
thermal invariance, closure of the observable algebra, generator agreement
between the microscopic and mesoscopic routes, canonical commutation of the
collective modes, central-limit convergence, the thermal moment matrix
against the microscopic thermal state, physicality of propagated states,
agreement of the closed-form curve engine with the 8x8 reference path at
every grid point) and reports the worst residual against its tolerance.
The checks are pure functions of their parameter grids, so a harness can
inject out-of-window couplings or a tampered drift builder and watch the
corresponding check fail; nothing here is ever skipped or clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError
from .experiments import ExperimentConfig, run_curve
from .linalg import STRUCTURAL_TOL
from .modes import drift_matrix, initial_state, mode_operators, propagate, thermal_moments
from .negativity import negativity, quadrature_covariance, symplectic_eigenvalues
from .oracle import (
    CLOSURE_TOL,
    clt_table,
    extract_mode_generator,
    liouvillian,
    vec,
)
from .sites import ModelParams, dissipation_matrix, fluctuation_inner, frozen, kron2, thermal_state

DEFAULT_GAMMAS = (0.0, 0.1, 0.25, 0.5)
FULL_EPS_TEMPS = tuple(
    (eps, temp) for eps in (0.5, 1.0, 2.0) for temp in (0.1, 0.5, 1.0, 5.0)
)
FAST_EPS_TEMPS = ((1.0, 1.0), (1.0, 0.1), (2.0, 0.5))
CLT_SITES = (100, 1000, 10000)
CLT_TOL = 1e-2
PHYSICALITY_TOL = 1e-9
ENGINE_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _result(name: str, residual: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        detail=detail,
    )


def check_dissipation_spectrum(gammas: tuple[float, ...] = DEFAULT_GAMMAS) -> CheckResult:
    """Spectrum {1-2g, 1, 1, 1+2g} and positive semidefiniteness of D."""
    residual = 0.0
    detail = ""
    for gamma in gammas:
        d = dissipation_matrix(gamma)
        expected = np.sort(np.array([1.0 - 2.0 * gamma, 1.0, 1.0, 1.0 + 2.0 * gamma]))
        residual = max(residual, float(np.abs(d.eigenvalues - expected).max()))
        if not d.is_positive:
            residual = max(residual, -d.min_eigenvalue)
            detail = (
                f"gamma = {gamma:g} is not completely positive: "
                f"min eigenvalue {d.min_eigenvalue:.6g}"
            )
    return _result("dissipation-spectrum", residual, STRUCTURAL_TOL, detail)


def _eps_temps(level: str) -> tuple[tuple[float, float], ...]:
    return FULL_EPS_TEMPS if level == "full" else FAST_EPS_TEMPS


@lru_cache(maxsize=1)
def _pauli_words() -> np.ndarray:
    """Read-only 16x16 columns vec(sigma_i x sigma_j), every two-site Pauli word."""
    return frozen(np.column_stack([vec(kron2(i, j)) for i in range(4) for j in range(4)]))


def check_thermal_invariance(level: str = "fast") -> CheckResult:
    """The thermal state is stationary: w(L[P]) = 0 for all 16 Pauli words."""
    words = _pauli_words()
    residual = 0.0
    for eps, temp in _eps_temps(level):
        for gamma in DEFAULT_GAMMAS:
            params = ModelParams(eps, temp, gamma)
            # w(Y) = tr(rho Y) = vec(rho^T) . vec(Y), for all 16 images at once
            weights = vec(thermal_state(params).rho.T)
            images = liouvillian(params).matrix @ words
            residual = max(residual, float(np.abs(weights @ images).max()))
    return _result("thermal-invariance", residual, STRUCTURAL_TOL)


def check_generator_match(level: str = "fast") -> CheckResult:
    """Microscopic restriction equals the mesoscopic drift, block by block."""
    residual = 0.0
    for eps, temp in _eps_temps(level):
        for gamma in DEFAULT_GAMMAS:
            params = ModelParams(eps, temp, gamma)
            ext = extract_mode_generator(liouvillian(params), params)
            m = drift_matrix(params).matrix
            g = ext.mode_generator
            residual = max(
                residual,
                ext.residual,
                float(np.abs(ext.identity_coeffs).max()),
                float(np.abs(g[:4, :4] - m.T).max()),
                float(np.abs(g[4:, 4:] - m.conj().T).max()),
                float(np.abs(g[:4, 4:]).max()),
                float(np.abs(g[4:, :4]).max()),
            )
    return _result("generator-match", residual, CLOSURE_TOL)


def _thermal_mode_tables(level: str):
    """eta and the tables <a, a>, <a^dag, a^dag>, <a^dag, a> per (eps, T) of the level."""
    for eps, temp in _eps_temps(level):
        params = ModelParams(eps, temp, 0.0)
        state = thermal_state(params)
        a = np.array(mode_operators(params))
        ad = a.conj().transpose(0, 2, 1)
        x, y = np.array([a, ad, ad]), np.array([a, ad, a])
        yield (params.eta, *fluctuation_inner(x[:, :, None], y[:, None, :], state))


def check_mode_ccr(level: str = "fast") -> CheckResult:
    """Canonical commutators of all four modes through the fluctuation form."""
    residual = 0.0
    for _, a_a, ad_ad, ad_a in _thermal_mode_tables(level):
        # [a_i, a_j^dag] = delta_ij and [a_i, a_j] = 0, entry (i, j) of each table
        residual = max(
            residual,
            float(np.abs(ad_ad - a_a.T - np.eye(4)).max()),
            float(np.abs(ad_a - ad_a.T).max()),
        )
    return _result("mode-ccr", residual, STRUCTURAL_TOL)


def check_clt_convergence(level: str = "fast") -> CheckResult:
    """Weyl expectations approach their Gaussian limits monotonically."""
    state = thermal_state(ModelParams(1.0, 1.0, 0.0))
    residual = 0.0
    detail = ""
    for index, (_, _, errors, monotone) in enumerate(clt_table(state, CLT_SITES)):
        if not monotone:
            detail = f"observable {index + 1}: errors not monotone: {errors}"
            residual = max(residual, float("inf"))
        residual = max(residual, errors[-1])
    return _result("clt-convergence", residual, CLT_TOL, detail)


def check_thermal_covariance(level: str = "fast") -> CheckResult:
    """thermal_moments(eta) is the moment matrix of the microscopic thermal state.

    Upper-left block: the symmetric table (1/2)w(a_i^dag a_j + a_j a_i^dag);
    lower-left block: minus the anomalous table (1/2)w(a_i a_j + a_j a_i).
    """
    residual = 0.0
    for eta, a_a, ad_ad, ad_a in _thermal_mode_tables(level):
        sym, pair = 0.5 * (a_a + ad_ad.T), 0.5 * (ad_a + ad_a.T)
        moments = np.block([[sym, -pair.conj()], [-pair, sym.T]])
        residual = max(residual, float(np.abs(moments - thermal_moments(eta)).max()))
    return _result("thermal-covariance", residual, STRUCTURAL_TOL)


def _curve_configs(level: str) -> list[ExperimentConfig]:
    configs = [ExperimentConfig(t_steps=51)]
    if level == "full":
        configs.append(
            ExperimentConfig(gamma=0.3, temperature=0.5, squeeze_r=-2.0, t_steps=51)
        )
        configs.append(ExperimentConfig(gamma=0.1, temperature=1.0, t_steps=51))
    return configs


def _reference_states(config: ExperimentConfig):
    """The 8x8 reference path over the config's whole time grid, as one stack."""
    params = ModelParams(config.epsilon, config.temperature, config.gamma)
    times = np.linspace(0.0, config.t_max, config.t_steps)
    return propagate(initial_state(params, config.squeeze_r), drift_matrix(params), times)


def check_physicality(level: str = "fast") -> CheckResult:
    """Propagated covariances stay physical: symplectic spectrum >= 1."""
    residual = 0.0
    for config in _curve_configs(level):
        cov = quadrature_covariance(_reference_states(config).moment_matrix)
        smallest = symplectic_eigenvalues(cov)[:, 0]
        residual = max(residual, float(np.maximum(0.0, 1.0 - smallest).max()))
    return _result("state-physicality", residual, PHYSICALITY_TOL)


def check_curve_engine(level: str = "fast") -> CheckResult:
    """Closed-form curves match the 8x8 reference path at every grid point."""
    residual = 0.0
    for config in _curve_configs(level):
        reference = negativity(_reference_states(config)).nu_min
        error = np.abs(run_curve(config).nu_min - reference) / reference
        residual = max(residual, float(error.max()))
    return _result("curve-engine", residual, ENGINE_TOL)


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run every check in turn; a NumericError fails only the check that raised it."""
    if level not in ("fast", "full"):
        raise ValueError(f"verification level must be 'fast' or 'full', got {level!r}")
    suite = (
        ("dissipation-spectrum", STRUCTURAL_TOL, lambda: check_dissipation_spectrum()),
        ("thermal-invariance", STRUCTURAL_TOL, lambda: check_thermal_invariance(level)),
        ("generator-match", CLOSURE_TOL, lambda: check_generator_match(level)),
        ("mode-ccr", STRUCTURAL_TOL, lambda: check_mode_ccr(level)),
        ("clt-convergence", CLT_TOL, lambda: check_clt_convergence(level)),
        ("thermal-covariance", STRUCTURAL_TOL, lambda: check_thermal_covariance(level)),
        ("state-physicality", PHYSICALITY_TOL, lambda: check_physicality(level)),
        ("curve-engine", ENGINE_TOL, lambda: check_curve_engine(level)),
    )
    results = []
    for name, tolerance, check in suite:
        try:
            results.append(check())
        except NumericError as exc:
            results.append(_result(name, float("inf"), tolerance, str(exc)))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<24} residual {r.residual:10.3e}  "
            f"tolerance {r.tolerance:7.0e}  {status}"
        )
        if r.detail:
            lines.append(f"    {r.detail}")
    verdict = "all checks passed" if all(r.passed for r in results) else "FAILURES present"
    lines.append(verdict)
    return "\n".join(lines)
