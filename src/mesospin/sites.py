"""Single-site algebra for a pair of spin-1/2 chains in a common bath.

Each chain contributes one spin-1/2 per site; because the chains do not
interact and every site couples to the environment the same way, the whole
model is generated by one four-dimensional site algebra: the tensor product of
one spin from chain one with one spin from chain two. Basis ordering is
|s1 s2> with spin-up first, so sigma3 x 1 = diag(1, 1, -1, -1). Units are
k_B = hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ContractViolation

GAMMA_MAX = 0.5

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

_PAULI = (SIGMA0, SIGMA1, SIGMA2, SIGMA3)


def kron2(i: int, j: int) -> np.ndarray:
    """Two-site Pauli word sigma_i x sigma_j (indices 0..3, 0 = identity)."""
    return np.kron(_PAULI[i], _PAULI[j])


def frozen(x: np.ndarray) -> np.ndarray:
    """x made read-only, for arrays built once and shared by every caller."""
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class ModelParams:
    """Model parameters with derived thermal quantities.

    eta = tanh(epsilon*beta/2) is the single-site magnetization scale; it must
    lie strictly inside (0, 1). Parameters cold enough that eta rounds to 1.0
    in float are rejected, because every downstream normalization (mode
    commutators, stationary covariance 1/(2*eta)) degenerates there.
    eta_perp = sqrt(1 - eta**2) is always computed as sech(epsilon*beta/2);
    forming it from eta would lose half the digits for eta near 1.
    """

    epsilon: float = 1.0
    temperature: float = 1.0
    gamma: float = 0.5
    beta: float = field(init=False)
    eta: float = field(init=False)
    eta_perp: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("epsilon", "temperature", "gamma"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ContractViolation(f"{name} must be finite, got {value!r}")
        if self.epsilon <= 0:
            raise ContractViolation(f"epsilon must be positive, got {self.epsilon}")
        if self.temperature <= 0:
            raise ContractViolation(
                f"temperature must be positive, got {self.temperature}; at zero "
                "temperature the thermal fluctuation structure contracts "
                "(eta -> 1) and the model is undefined"
            )
        if not 0.0 <= self.gamma <= GAMMA_MAX:
            raise ContractViolation(
                f"gamma must lie in [0, {GAMMA_MAX}] for complete positivity, "
                f"got {self.gamma}"
            )
        beta = 1.0 / self.temperature
        u = 0.5 * self.epsilon * beta
        eta = float(np.tanh(u))
        if not 0.0 < eta < 1.0:
            raise ContractViolation(
                f"tanh(epsilon*beta/2) = {eta} must lie strictly in (0, 1); "
                "the temperature is too low for finite-precision thermal structure"
            )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta_perp", float(1.0 / np.cosh(u)))


def site_hamiltonian(params: ModelParams) -> np.ndarray:
    """One-site Hamiltonian (epsilon/2)(sigma3 x 1 + 1 x sigma3)."""
    return 0.5 * params.epsilon * (kron2(3, 0) + kron2(0, 3))


@dataclass(frozen=True)
class ThermalSiteState:
    """Gibbs state of a single site pair; rho is diagonal in the spin basis."""

    rho: np.ndarray

    def expectation(self, op: np.ndarray) -> complex | np.ndarray:
        """w(op) = tr(rho op), over the last two axes of op.

        One 4x4 operator gives a complex; a stack of shape S + (4, 4) gives
        an array of shape S.
        """
        # sum_a sum_b rho_ba op_ab, rows first. With rho diagonal each row sum
        # is one exact product and the four are added in order, as a trace
        # of rho @ op adds them: clt_table raises w(U) to the n-th power,
        # which magnifies any change in the last bit.
        value = (self.rho.T * op).sum(axis=-1).sum(axis=-1)
        return complex(value) if value.ndim == 0 else value


def thermal_state(params: ModelParams) -> ThermalSiteState:
    """Thermal state exp(-beta H)/Z of one site pair.

    Weights are exponentiated after shifting by the ground energy, so large
    beta*epsilon cannot overflow before normalization.
    """
    energies = 0.5 * params.epsilon * np.array([2.0, 0.0, 0.0, -2.0])
    shifted = np.exp(-params.beta * (energies - energies.min()))
    rho = np.diag(shifted / shifted.sum()).astype(complex)
    return ThermalSiteState(rho=rho)


def fluctuation_inner(
    x: np.ndarray, y: np.ndarray, state: ThermalSiteState
) -> complex | np.ndarray:
    """Covariance form <x, y> = w(x^dag y) - w(x^dag) w(y) in the given state.

    x and y broadcast as operator stacks (..., 4, 4), as in expectation.
    """
    xd = np.swapaxes(x.conj(), -1, -2)
    return state.expectation(xd @ y) - state.expectation(xd) * state.expectation(y)


@dataclass(frozen=True)
class ObservableSet:
    """The eight site observables whose fluctuations close under the dynamics.

    ops[0..3] act on chain one (sigma1 x 1, sigma2 x 1, sigma1 x sigma3,
    sigma2 x sigma3), ops[4..7] mirror them on chain two. complement holds the
    remaining eight Pauli words, which stay decoupled in the thermal state.
    """

    ops: tuple[np.ndarray, ...]
    complement: tuple[np.ndarray, ...]


@lru_cache(maxsize=1)
def observables() -> ObservableSet:
    """The shared, read-only observable set."""
    ops = tuple(
        frozen(kron2(i, j))
        for i, j in ((1, 0), (2, 0), (1, 3), (2, 3), (0, 1), (0, 2), (3, 1), (3, 2))
    )
    complement = tuple(
        frozen(kron2(i, j))
        for i, j in ((0, 0), (3, 0), (0, 3), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2))
    )
    return ObservableSet(ops=ops, complement=complement)


@lru_cache(maxsize=1)
def lindblad_ops() -> tuple[np.ndarray, ...]:
    """Environment coupling operators: collective flip-flop and dephasing (read-only)."""
    return tuple(
        frozen(v)
        for v in (
            np.kron(SIGMA_PLUS, SIGMA_MINUS),
            np.kron(SIGMA_MINUS, SIGMA_PLUS),
            0.5 * kron2(3, 0),
            0.5 * kron2(0, 3),
        )
    )


@dataclass(frozen=True)
class DissipationMatrix:
    """Kossakowski matrix over the coupling operators, with its spectrum.

    Completely positive dynamics requires the matrix to be positive
    semidefinite, which holds exactly for gamma in [0, 1/2]. Construction
    never raises outside that window; positivity is reported, not enforced.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    min_eigenvalue: float
    is_positive: bool


def dissipation_matrix(gamma: float) -> DissipationMatrix:
    gamma = float(gamma)
    if not np.isfinite(gamma):
        raise ContractViolation(f"gamma must be finite, got {gamma!r}")
    m = np.array(
        [
            [1.0, 0.0, gamma, gamma],
            [0.0, 1.0, gamma, gamma],
            [gamma, gamma, 1.0, 0.0],
            [gamma, gamma, 0.0, 1.0],
        ],
        dtype=complex,
    )
    eigenvalues = np.linalg.eigvalsh(m)
    min_eigenvalue = float(eigenvalues[0])
    return DissipationMatrix(
        matrix=m,
        eigenvalues=eigenvalues,
        min_eigenvalue=min_eigenvalue,
        is_positive=min_eigenvalue >= -1e-12,
    )
