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

Each oracle check evaluates its whole (eps, T, gamma) grid as one
array-valued ModelParams of shape (gammas, eps and T pairs), and every
builder broadcasts over it: one stack of generators, one stack of mode maps,
drift matrices and mode operators, one fluctuation_inner for the thermal
mode tables and one eigh for the Weyl observables. The 8x8 reference of the
last two checks propagates every curve config of the level as one stack over
their shared time grid and reads one quadrature covariance of it. Every
residual is the one a loop over the grid points gives, to the last bit. The
parameter grid and the curve configs hold only read-only values, so each is
built once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from .errors import ContractViolation, NumericError
from .experiments import ExperimentConfig, run_curve
from .linalg import STRUCTURAL_TOL
from .modes import (
    drift_matrix,
    initial_state,
    mode_operators,
    propagate,
    thermal_moments,
)
from .negativity import min_symplectic_pt, quadrature_covariance, symplectic_eigenvalues
from .oracle import (
    CLOSURE_TOL,
    Superoperator,
    clt_table,
    extract_mode_generator,
    liouvillian,
    vec,
)
from .sites import (
    ModelParams,
    ThermalSiteState,
    dissipation_matrix,
    fluctuation_inner,
    frozen,
    kron2,
    thermal_state,
)

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


def _result(name: str, residuals, tolerance: float, detail: str = "") -> CheckResult:
    """The check's result; its residual is the largest of residuals, or 0.

    numpy's max keeps a NaN, where the builtin max(0.0, nan) would drop it,
    and a NaN residual fails.
    """
    residual = float(np.max(residuals, initial=0.0))
    return CheckResult(
        name=name,
        residual=residual,
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        detail=detail,
    )


def check_dissipation_spectrum(gammas: tuple[float, ...] = DEFAULT_GAMMAS) -> CheckResult:
    """Spectrum {1-2g, 1, 1, 1+2g} and positive semidefiniteness of D."""
    residuals = []
    detail = ""
    for gamma in gammas:
        d = dissipation_matrix(gamma)
        expected = np.sort(np.array([1.0 - 2.0 * gamma, 1.0, 1.0, 1.0 + 2.0 * gamma]))
        residuals.append(np.abs(d.eigenvalues - expected).max())
        if not d.is_positive:
            residuals.append(-d.min_eigenvalue)
            detail = (
                f"gamma = {gamma:g} is not completely positive: "
                f"min eigenvalue {d.min_eigenvalue:.6g}"
            )
    return _result("dissipation-spectrum", residuals, STRUCTURAL_TOL, detail)


def _eps_temps(level: str) -> tuple[tuple[float, float], ...]:
    return FULL_EPS_TEMPS if level == "full" else FAST_EPS_TEMPS


@cache
def _parameter_grid(level: str) -> ModelParams:
    """The level's parameter sets, one row per gamma and one column per (eps, T)."""
    eps, temps = np.array(_eps_temps(level)).T
    return ModelParams(eps, temps, np.array(DEFAULT_GAMMAS)[:, None])


def _first_row(grid: ModelParams) -> ModelParams:
    """Row 0 of grid, one set per (eps, T): thermal states and modes do not read gamma."""
    return ModelParams(grid.epsilon[0], grid.temperature[0], grid.gamma[0])


@lru_cache(maxsize=1)
def _pauli_words() -> np.ndarray:
    """Read-only 16x16 columns vec(sigma_i x sigma_j), every two-site Pauli word."""
    return frozen(np.column_stack([vec(kron2(i, j)) for i in range(4) for j in range(4)]))


def check_thermal_invariance(level: str = "fast") -> CheckResult:
    """The thermal state is stationary: w(L[P]) = 0 for all 16 Pauli words."""
    grid = _parameter_grid(level)
    return _thermal_invariance(thermal_state(_first_row(grid)).rho, liouvillian(grid).matrix)


def _thermal_invariance(rho: np.ndarray, generators: np.ndarray) -> CheckResult:
    # w(Y) = tr(rho Y) = vec(rho^T) . vec(Y), and vec(rho^T) is rho read by rows
    weights = rho.reshape(rho.shape[:-2] + (1, -1))
    values = weights @ (generators @ _pauli_words())
    return _result("thermal-invariance", np.abs(values), STRUCTURAL_TOL)


def check_generator_match(level: str = "fast") -> CheckResult:
    """Microscopic restriction equals the mesoscopic drift, block by block."""
    grid = _parameter_grid(level)
    return _generator_match(grid, liouvillian(grid).matrix)


def _generator_match(grid: ModelParams, generators: np.ndarray) -> CheckResult:
    # every generator projected at once, then conjugated by its own mode map
    ext = extract_mode_generator(Superoperator(generators), grid)
    g = ext.mode_generator
    m_t = drift_matrix(grid).matrix.swapaxes(-1, -2)
    residuals = [
        ext.residual,
        np.abs(ext.identity_coeffs).max(),
        np.abs(g[..., :4, :4] - m_t).max(),
        np.abs(g[..., 4:, 4:] - m_t.conj()).max(),
        np.abs(g[..., :4, 4:]).max(),
        np.abs(g[..., 4:, :4]).max(),
    ]
    return _result("generator-match", residuals, CLOSURE_TOL)


def _thermal_mode_tables(params: ModelParams, rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """eta and the tables <a, a>, <a^dag, a^dag>, <a^dag, a> of every set of params.

    rho holds the thermal state of each set. For params of shape S, eta has
    shape S and each table S + (4, 4): every state and every mode pair from
    one fluctuation_inner.
    """
    a = mode_operators(params)
    ad = a.conj().swapaxes(-1, -2)
    x, y = np.stack([a, ad, ad], axis=-4), np.stack([a, ad, a], axis=-4)
    # states S + (1, 1, 1, 4, 4) against operator pairs S + (3, 4, 4, 4, 4)
    state = ThermalSiteState(rho=rho[..., None, None, None, :, :])
    tables = fluctuation_inner(x[..., :, None, :, :], y[..., None, :, :, :], state)
    return params.eta, tables[..., 0, :, :], tables[..., 1, :, :], tables[..., 2, :, :]


def check_mode_ccr(level: str = "fast") -> CheckResult:
    """Canonical commutators of all four modes through the fluctuation form."""
    columns = _first_row(_parameter_grid(level))
    return _mode_ccr(_thermal_mode_tables(columns, thermal_state(columns).rho))


def _mode_ccr(tables: tuple[np.ndarray, ...]) -> CheckResult:
    _, a_a, ad_ad, ad_a = tables
    # [a_i, a_j^dag] = delta_ij and [a_i, a_j] = 0, entry (i, j) of each table
    residuals = [
        np.abs(ad_ad - a_a.swapaxes(-1, -2) - np.eye(4)).max(),
        np.abs(ad_a - ad_a.swapaxes(-1, -2)).max(),
    ]
    return _result("mode-ccr", residuals, STRUCTURAL_TOL)


def check_clt_convergence(level: str = "fast") -> CheckResult:
    """Weyl expectations approach their Gaussian limits monotonically."""
    state = thermal_state(ModelParams(1.0, 1.0, 0.0))
    residuals = []
    detail = ""
    for index, (_, _, errors, monotone) in enumerate(clt_table(state, CLT_SITES)):
        if not monotone:
            detail = f"observable {index + 1}: errors not monotone: {errors}"
            residuals.append(float("inf"))
        residuals.append(errors[-1])
    return _result("clt-convergence", residuals, CLT_TOL, detail)


def check_thermal_covariance(level: str = "fast") -> CheckResult:
    """thermal_moments(eta) is the moment matrix of the microscopic thermal state.

    Upper-left block: the symmetric table (1/2)w(a_i^dag a_j + a_j a_i^dag);
    lower-left block: minus the anomalous table (1/2)w(a_i a_j + a_j a_i).
    """
    columns = _first_row(_parameter_grid(level))
    return _thermal_covariance(_thermal_mode_tables(columns, thermal_state(columns).rho))


def _thermal_covariance(tables: tuple[np.ndarray, ...]) -> CheckResult:
    eta, a_a, ad_ad, ad_a = tables
    sym = 0.5 * (a_a + ad_ad.swapaxes(-1, -2))
    pair = 0.5 * (ad_a + ad_a.swapaxes(-1, -2))
    moments = np.block([[sym, -pair.conj()], [-pair, sym.swapaxes(-1, -2)]])
    return _result(
        "thermal-covariance", np.abs(moments - thermal_moments(eta)), STRUCTURAL_TOL
    )


@cache
def _curve_configs(level: str) -> tuple[ExperimentConfig, ...]:
    """The level's curve configs; all share the 51-point time grid to t = 5."""
    configs = (ExperimentConfig(t_steps=51),)
    if level == "full":
        configs += (
            ExperimentConfig(gamma=0.3, temperature=0.5, squeeze_r=-2.0, t_steps=51),
            ExperimentConfig(gamma=0.1, temperature=1.0, t_steps=51),
        )
    return configs


# Rows and columns (x, p) of a1 and of b1 in the 8x8 quadrature covariance.
_FIRST_MODES = frozen(np.array([0, 1, 4, 5]))

# A level's curve configs and their reference covariance, (configs, times, 8, 8).
_Reference = tuple[tuple[ExperimentConfig, ...], np.ndarray]


def _reference_stacks(level: str) -> _Reference:
    """The level's curve configs and the 8x8 reference covariance of each over the time grid.

    Every config starts from its squeezed state and is propagated by its own
    generator in one propagate call over the shared time grid; the
    covariance has shape (configs, times, 8, 8).
    """
    configs = _curve_configs(level)
    fields = np.array([(c.epsilon, c.temperature, c.gamma, c.squeeze_r) for c in configs]).T
    params = ModelParams(*fields[:3])
    times = np.linspace(0.0, configs[0].t_max, configs[0].t_steps)
    states = propagate(initial_state(params, fields[3]), drift_matrix(params), times)
    return configs, quadrature_covariance(states.moment_matrix)


def check_physicality(level: str = "fast") -> CheckResult:
    """Propagated covariances stay physical: symplectic spectrum >= 1."""
    return _physicality(_reference_stacks(level))


def _physicality(stacks: _Reference) -> CheckResult:
    _, cov = stacks
    smallest = symplectic_eigenvalues(cov)[..., 0]
    return _result("state-physicality", np.maximum(0.0, 1.0 - smallest), PHYSICALITY_TOL)


def check_curve_engine(level: str = "fast") -> CheckResult:
    """Closed-form curves match the 8x8 reference path at every grid point."""
    return _curve_engine(_reference_stacks(level))


def _curve_engine(stacks: _Reference) -> CheckResult:
    # The covariance is assembled entry by entry, so the (a1, b1) block of the
    # full one is the covariance that negativity() builds from the moment block.
    configs, cov = stacks
    reference = min_symplectic_pt(cov[..., _FIRST_MODES[:, None], _FIRST_MODES])
    curves = np.array([run_curve(config).nu_min for config in configs])
    return _result("curve-engine", np.abs(curves - reference) / reference, ENGINE_TOL)


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run every check in turn; a NumericError or ContractViolation fails only its check.

    The failed check reports residual inf and the error's message. The
    generator stack, the thermal states, the mode tables and the reference
    stacks are each read by two checks, so each is built on first read and
    handed to the second. All live only for this call, and a build that
    raises is tried again, and fails, for each check that reads it.
    """
    if level not in ("fast", "full"):
        raise ValueError(f"verification level must be 'fast' or 'full', got {level!r}")
    grid = _parameter_grid(level)
    gens = cache(lambda: liouvillian(grid).matrix)
    columns = _first_row(grid)
    states = cache(lambda: thermal_state(columns).rho)
    tables = cache(lambda: _thermal_mode_tables(columns, states()))
    stacks = cache(partial(_reference_stacks, level))
    suite = (
        ("dissipation-spectrum", STRUCTURAL_TOL, lambda: check_dissipation_spectrum()),
        ("thermal-invariance", STRUCTURAL_TOL, lambda: _thermal_invariance(states(), gens())),
        ("generator-match", CLOSURE_TOL, lambda: _generator_match(grid, gens())),
        ("mode-ccr", STRUCTURAL_TOL, lambda: _mode_ccr(tables())),
        ("clt-convergence", CLT_TOL, lambda: check_clt_convergence(level)),
        ("thermal-covariance", STRUCTURAL_TOL, lambda: _thermal_covariance(tables())),
        ("state-physicality", PHYSICALITY_TOL, lambda: _physicality(stacks())),
        ("curve-engine", ENGINE_TOL, lambda: _curve_engine(stacks())),
    )
    results = []
    for name, tolerance, check in suite:
        try:
            results.append(check())
        except (NumericError, ContractViolation) as exc:
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
