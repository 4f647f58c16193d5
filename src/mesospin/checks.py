"""Self-verification suite: every structural identity the model rests on.

Each check recomputes one identity from scratch (complete positivity window,
thermal invariance, closure of the observable algebra, generator agreement
between the microscopic and mesoscopic routes, canonical commutation of the
collective modes, central-limit convergence, the thermal quadrature
covariance against the microscopic thermal state, physicality of propagated
states, agreement of the closed-form curve engine with the 8x8 reference path
at every grid point) and reports the worst residual against its tolerance.
There is one suite, with no level to choose: the (eps, T) pairs EPS_TEMPS
times DEFAULT_GAMMAS, and the curve configs CURVE_CONFIGS, built at import.

run_checks() is the one entry point. It runs the table _CHECKS of (name,
tolerance, body) in report order: each body takes the inputs that several
checks read, built at most once per call, and returns its residuals and its
detail. A harness injects a fault by replacing a builder that this module
reads (thermal_state, mode_operators, drift_matrix, thermal_covariance, ...),
or modes.coupling, which drift_matrix and propagate read, and reads the
check by name from run_checks; nothing here is ever skipped or clamped.
check_dissipation_spectrum(gammas), the body of the first check, owns the
Kossakowski spectrum and the complete-positivity verdict, so a caller can
probe the window with any couplings.

The grid is one array-valued ModelParams of shape (gammas, (eps, T) pairs),
and every builder broadcasts over it: one stack of generators, one of drift
matrices, one fluctuation_inner for the thermal mode tables and one eigh for
the Weyl observables. The mode operators and thermal populations of the
(eps, T) pairs are built once per call and read by thermal-invariance,
generator-match, mode-ccr and thermal-covariance; clt-convergence builds its
own one-set state. The 8x8 reference of the last two checks propagates every
curve config as one stack over their shared time grid, and reads its nu_min
through negativity() as a user does. Every residual is the one a loop over
the grid points gives, to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import STRUCTURAL_TOL, ContractViolation, NumericError
from .experiments import ExperimentConfig, run_curve
from .modes import (
    GaussianState,
    drift_matrix,
    initial_state,
    mode_operators,
    propagate,
    thermal_covariance,
)
from .negativity import negativity, symplectic_eigenvalues
from .oracle import CLOSURE_TOL, clt_table, extract_mode_generator, liouvillian, vec
from .sites import ModelParams, dissipation_matrix, fluctuation_inner, frozen, kron2, thermal_state

DEFAULT_GAMMAS = (0.0, 0.1, 0.25, 0.5)
EPS_TEMPS = tuple((eps, temp) for eps in (0.5, 1.0, 2.0) for temp in (0.1, 0.5, 1.0, 5.0))
CLT_SITES = (100, 1000, 10000)
# Every curve config shares the 51-point time grid to t = 5.
CURVE_CONFIGS = (
    ExperimentConfig(t_steps=51),
    ExperimentConfig(gamma=0.3, temperature=0.5, squeeze_r=-2.0, t_steps=51),
    ExperimentConfig(gamma=0.1, temperature=1.0, t_steps=51),
)
# One parameter set per gamma (rows) and (eps, T) pair (columns), and the
# columns alone: thermal states and modes do not read gamma.
_GRID = ModelParams(*np.array(EPS_TEMPS).T, np.array(DEFAULT_GAMMAS)[:, None])
_COLUMNS = ModelParams(*np.array(EPS_TEMPS).T, 0.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def check_dissipation_spectrum(gammas: tuple[float, ...] = DEFAULT_GAMMAS) -> tuple[list, str]:
    """Spectrum {1-2g, 1, 1, 1+2g} of D, and complete positivity: min eigenvalue >= -1e-12."""
    residuals = []
    detail = ""
    for gamma in gammas:
        eigenvalues = np.linalg.eigvalsh(dissipation_matrix(gamma))
        expected = np.sort(np.array([1.0 - 2.0 * gamma, 1.0, 1.0, 1.0 + 2.0 * gamma]))
        residuals.append(np.abs(eigenvalues - expected).max())
        smallest = float(eigenvalues[0])
        if not smallest >= -1e-12:
            residuals.append(-smallest)
            detail = f"gamma = {gamma:g} is not completely positive: min eigenvalue {smallest:.6g}"
    return residuals, detail


def check_clt_convergence() -> tuple[list, str]:
    """Weyl expectations approach their Gaussian limits monotonically."""
    weights = thermal_state(ModelParams(1.0, 1.0, 0.0))
    residuals = []
    detail = ""
    for index, (_, _, errors, monotone) in enumerate(clt_table(weights, CLT_SITES)):
        if not monotone:
            detail = f"observable {index + 1}: errors not monotone: {errors}"
            residuals.append(float("inf"))
        residuals.append(errors[-1])
    return residuals, detail


@lru_cache(maxsize=1)
def _pauli_words() -> np.ndarray:
    """Read-only 16x16 columns vec(sigma_i x sigma_j), every two-site Pauli word."""
    return frozen(np.column_stack([vec(kron2(i, j)) for i in range(4) for j in range(4)]))


class _Inputs:
    """The inputs that several checks of one run_checks call read.

    Each is built on first read and lives only for the call; a build that
    raises is tried again, and fails, for each check that reads it.
    """

    @cached_property
    def generators(self) -> np.ndarray:
        return liouvillian(_GRID)

    @cached_property
    def modes(self) -> np.ndarray:
        return mode_operators(_COLUMNS)

    @cached_property
    def weights(self) -> np.ndarray:
        return thermal_state(_COLUMNS)

    @cached_property
    def tables(self) -> tuple[np.ndarray, ...]:
        """eta and the tables <a, a>, <a^dag, a^dag>, <a^dag, a> of every (eps, T).

        eta has the shape S of the columns and each table S + (4, 4): every
        state and every mode pair from one fluctuation_inner.
        """
        a = self.modes
        ad = a.conj().swapaxes(-1, -2)
        x, y = np.stack([a, ad, ad], axis=-4), np.stack([a, ad, a], axis=-4)
        # populations S + (1, 1, 1, 4) against operator pairs S + (3, 4, 4, 4, 4)
        weights = self.weights[..., None, None, None, :]
        tables = fluctuation_inner(x[..., :, None, :, :], y[..., None, :, :, :], weights)
        return _COLUMNS.eta, tables[..., 0, :, :], tables[..., 1, :, :], tables[..., 2, :, :]

    @cached_property
    def reference(self) -> GaussianState:
        """The 8x8 reference state of every curve config over the time grid.

        Every config starts from its squeezed state and is propagated by its
        own parameter set in one propagate call over the shared time grid;
        the state stack has shape (configs, times).
        """
        configs = CURVE_CONFIGS
        fields = np.array([(c.epsilon, c.temperature, c.gamma, c.squeeze_r) for c in configs]).T
        params = ModelParams(*fields[:3])
        times = np.linspace(0.0, configs[0].t_max, configs[0].t_steps)
        return propagate(initial_state(params, fields[3]), params, times)


def _thermal_invariance(inputs: _Inputs) -> tuple[np.ndarray, str]:
    """The thermal state is stationary: w(L[P]) = 0 for all 16 Pauli words."""
    # column j of the images is vec(L[P_j]), stacked by columns, so rows
    # 0, 5, 10 and 15 are its diagonal, the only entries w reads
    diagonals = (inputs.generators @ _pauli_words())[..., ::5, :]
    return np.abs(inputs.weights[..., None, :] @ diagonals), ""


def _generator_match(inputs: _Inputs) -> tuple[list, str]:
    """Microscopic restriction equals the mesoscopic drift, block by block."""
    # every generator read at once in the modes of its own (eps, T)
    ext = extract_mode_generator(inputs.generators, inputs.modes, inputs.weights)
    g = ext.mode_generator
    m_t = drift_matrix(_GRID).swapaxes(-1, -2)
    residuals = [
        ext.residual,
        np.abs(ext.identity_coeffs).max(),
        np.abs(g[..., :4, :4] - m_t).max(),
        np.abs(g[..., 4:, 4:] - m_t.conj()).max(),
        np.abs(g[..., :4, 4:]).max(),
        np.abs(g[..., 4:, :4]).max(),
    ]
    return residuals, ""


def _mode_ccr(inputs: _Inputs) -> tuple[list, str]:
    """Canonical commutators of all four modes through the fluctuation form."""
    _, a_a, ad_ad, ad_a = inputs.tables
    # [a_i, a_j^dag] = delta_ij and [a_i, a_j] = 0, entry (i, j) of each table
    residuals = [
        np.abs(ad_ad - a_a.swapaxes(-1, -2) - np.eye(4)).max(),
        np.abs(ad_a - ad_a.swapaxes(-1, -2)).max(),
    ]
    return residuals, ""


def _thermal_covariance(inputs: _Inputs) -> tuple[np.ndarray, str]:
    """thermal_covariance(eta) is the quadrature covariance of the microscopic thermal state.

    It is assembled per mode pair from the symmetric table
    sym = (1/2)w(a_j^dag a_i + a_i a_j^dag) and the anomalous table
    pair = (1/2)w(a_i a_j + a_j a_i): twice [[Re(sym + pair), Im(pair - sym)],
    [Im(pair + sym), Re(sym - pair)]] over (x_i, p_i) and (x_j, p_j).
    """
    eta, a_a, ad_ad, ad_a = inputs.tables
    sym = 0.5 * (a_a + ad_ad.swapaxes(-1, -2)).conj()
    pair = 0.5 * (ad_a + ad_a.swapaxes(-1, -2))
    cov = np.empty(eta.shape + (8, 8))
    cov[..., 0::2, 0::2] = (sym + pair).real
    cov[..., 0::2, 1::2] = pair.imag - sym.imag
    cov[..., 1::2, 0::2] = pair.imag + sym.imag
    cov[..., 1::2, 1::2] = (sym - pair).real
    return np.abs(2.0 * cov - thermal_covariance(eta)), ""


def _physicality(inputs: _Inputs) -> tuple[np.ndarray, str]:
    """Propagated covariances stay physical: symplectic spectrum >= 1."""
    smallest = symplectic_eigenvalues(inputs.reference.covariance)[..., 0]
    return np.maximum(0.0, 1.0 - smallest), ""


def _curve_engine(inputs: _Inputs) -> tuple[np.ndarray, str]:
    """Closed-form curves match the 8x8 reference path at every grid point."""
    reference = negativity(inputs.reference).nu_min
    curves = np.array([run_curve(config).nu_min for config in CURVE_CONFIGS])
    return np.abs(curves - reference) / reference, ""


# Every check as (name, tolerance, body), in report order. The two public
# bodies are looked up by name at each call, so replacing one in this module
# takes effect.
_CHECKS = (
    ("dissipation-spectrum", STRUCTURAL_TOL, lambda inputs: check_dissipation_spectrum()),
    ("thermal-invariance", STRUCTURAL_TOL, _thermal_invariance),
    ("generator-match", CLOSURE_TOL, _generator_match),
    ("mode-ccr", STRUCTURAL_TOL, _mode_ccr),
    ("clt-convergence", 1e-2, lambda inputs: check_clt_convergence()),
    ("thermal-covariance", STRUCTURAL_TOL, _thermal_covariance),
    ("state-physicality", 1e-9, _physicality),
    ("curve-engine", 1e-12, _curve_engine),
)


def run_checks() -> list[CheckResult]:
    """Run every check in turn; a NumericError or ContractViolation fails only its check.

    A check's residual is the largest of its residuals, or 0; the failed
    check reports residual inf and the error's message.
    """
    inputs = _Inputs()
    results = []
    for name, tolerance, body in _CHECKS:
        try:
            residuals, detail = body(inputs)
        except (NumericError, ContractViolation) as exc:
            residuals, detail = float("inf"), str(exc)
        # numpy's max keeps a NaN, where the builtin max(0.0, nan) would drop
        # it, and a NaN residual fails
        residual = float(np.max(residuals, initial=0.0))
        results.append(CheckResult(name, residual, tolerance, residual <= tolerance, detail))
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
