"""Single-site algebra for a pair of spin-1/2 chains in a common bath.

Each chain contributes one spin-1/2 per site; because the chains do not
interact and every site couples to the environment the same way, the whole
model is generated by one four-dimensional site algebra: the tensor product of
one spin from chain one with one spin from chain two. Basis ordering is
|s1 s2> with spin-up first, so sigma3 x 1 = diag(1, 1, -1, -1). Units are
k_B = hbar = 1 throughout. ModelParams is the one carrier of the
parameters and of the thermal scales derived from them: it holds one
parameter set or, from arrays that broadcast to a shape S, parameter sets of
shape S, and every builder that reads it, flow and propagate included,
broadcasts over S. The thermal state, diagonal in the spin basis, is held
as its four populations, and the Kossakowski matrix as a plain 4x4 array.
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


_INPUTS = ("epsilon", "temperature", "gamma")


@dataclass(frozen=True)
class ModelParams:
    """Model parameters with derived thermal quantities.

    epsilon, temperature and gamma are scalars or arrays that broadcast to one
    shape S; every field then has shape S and entry i is what the parameter
    set of entry i gives on its own. Scalars give Python floats, arrays
    read-only float arrays. All entries are validated in one pass, and a
    failure raises the ContractViolation, message and field, that the first
    failing entry, in flat order, raises on its own.

    eta = tanh(epsilon*beta/2) is the single-site magnetization scale; it must
    lie strictly inside (0, 1). Parameters cold enough that eta rounds to 1.0
    in float are rejected, because every downstream normalization (mode
    commutators, stationary covariance 1/(2*eta)) degenerates there.
    eta_perp = sqrt(1 - eta**2) is always computed as sech(epsilon*beta/2),
    and delta = 1 - eta as 2/(exp(epsilon*beta) + 1): forming either from the
    rounded eta would lose digits for eta near 1, where one ulp of eta is a
    relative error of about eps_mach/delta in delta.
    """

    epsilon: float | np.ndarray = 1.0
    temperature: float | np.ndarray = 1.0
    gamma: float | np.ndarray = 0.5
    beta: float | np.ndarray = field(init=False)
    eta: float | np.ndarray = field(init=False)
    eta_perp: float | np.ndarray = field(init=False)
    delta: float | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        values = [getattr(self, name) for name in _INPUTS]
        try:
            shape = np.broadcast(*values).shape
        except ValueError:
            raise ContractViolation(
                f"parameters of shapes {[np.shape(v) for v in values]} do not broadcast"
            ) from None
        # Arrays are filled into new ones, so that no caller's array can change
        # them; one set stays in floats, whose numpy scalar arithmetic is cheap.
        epsilon, temperature, gamma = (
            [np.full(shape, v, dtype=float) for v in values] if shape else map(float, values)
        )
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            beta = np.divide(1.0, temperature)
            u = 0.5 * epsilon * beta
            eta = np.tanh(u)
            eta_perp = 1.0 / np.cosh(u)
            delta = 2.0 / (np.exp(2.0 * u) + 1.0)
        # For positive epsilon and temperature, eta lies in (0, 1) only if both
        # are finite, and a NaN gamma fails both of its bounds: this mask fails
        # exactly the entries that _refusal refuses.
        valid = (
            (epsilon > 0.0) & (temperature > 0.0) & (gamma >= 0.0) & (gamma <= GAMMA_MAX)
            & (eta > 0.0) & (eta < 1.0)
        )
        if not valid.all():
            k = int(np.argmin(valid))
            entry = (float(np.ravel(x)[k]) for x in (epsilon, temperature, gamma, eta))
            raise ContractViolation(*_refusal(*entry))
        fields = (epsilon, temperature, gamma, beta, eta, eta_perp, delta)
        for name, value in zip((*_INPUTS, "beta", "eta", "eta_perp", "delta"), fields):
            object.__setattr__(self, name, frozen(value) if shape else float(value))


def _refusal(epsilon: float, temperature: float, gamma: float, eta: float) -> tuple[str, str]:
    """Why ModelParams refuses one set, and the input at fault: eta's counts as temperature's."""
    for name, value in zip(_INPUTS, (epsilon, temperature, gamma)):
        if not np.isfinite(value):
            return f"{name} must be finite, got {value!r}", name
    if epsilon <= 0:
        return f"epsilon must be positive, got {epsilon}", "epsilon"
    if temperature <= 0:
        return (
            f"temperature must be positive, got {temperature}; at zero "
            "temperature the thermal fluctuation structure contracts "
            "(eta -> 1) and the model is undefined"
        ), "temperature"
    if not 0.0 <= gamma <= GAMMA_MAX:
        return (
            f"gamma must lie in [0, {GAMMA_MAX}] for complete positivity, "
            f"got {gamma}"
        ), "gamma"
    return (
        f"tanh(epsilon*beta/2) = {eta} must lie strictly in (0, 1); "
        "the temperature is too low for finite-precision thermal structure"
    ), "temperature"


def site_hamiltonian(params: ModelParams) -> np.ndarray:
    """One-site Hamiltonian (epsilon/2)(sigma3 x 1 + 1 x sigma3), shape S + (4, 4)."""
    return 0.5 * np.asarray(params.epsilon)[..., None, None] * (kron2(3, 0) + kron2(0, 3))


def thermal_state(params: ModelParams) -> np.ndarray:
    """Populations p of the thermal state diag(p) = exp(-beta H)/Z of one site pair, S + (4,).

    Weights are exponentiated after shifting by the ground energy, so large
    beta*epsilon cannot overflow before normalization.
    """
    energies = 0.5 * np.asarray(params.epsilon)[..., None] * np.array([2.0, 0.0, 0.0, -2.0])
    lowest = energies.min(axis=-1, keepdims=True)
    shifted = np.exp(-np.asarray(params.beta)[..., None] * (energies - lowest))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def expectation(weights: np.ndarray, op: np.ndarray) -> complex | np.ndarray:
    """w(op) = sum_a p_a op_aa in the diagonal state of populations p = weights.

    One 4x4 operator and one state give a complex; an operator stack of
    shape S + (4, 4) gives an array of shape S, and a stack of populations
    broadcasts against S.
    """
    # The products are added in order, as a trace of diag(p) @ op adds them.
    value = (weights * np.diagonal(op, axis1=-2, axis2=-1)).sum(axis=-1)
    return complex(value) if value.ndim == 0 else value


def fluctuation_inner(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> complex | np.ndarray:
    """Covariance form <x, y> = w(x^dag y) - w(x^dag) w(y) in the state of populations weights.

    x and y broadcast as operator stacks (..., 4, 4), as in expectation.
    """
    xd = np.swapaxes(x.conj(), -1, -2)
    return expectation(weights, xd @ y) - expectation(weights, xd) * expectation(weights, y)


@lru_cache(maxsize=1)
def observables() -> tuple[np.ndarray, ...]:
    """The eight read-only site observables whose fluctuations close under the dynamics.

    sigma1 x 1, sigma2 x 1, sigma1 x sigma3, sigma2 x sigma3 and their
    mirrors: the first two act on chain one alone, the fifth and sixth on
    chain two alone and the other four on both. The other eight Pauli words
    stay decoupled in the thermal state.
    """
    return tuple(
        frozen(kron2(i, j))
        for i, j in ((1, 0), (2, 0), (1, 3), (2, 3), (0, 1), (0, 2), (3, 1), (3, 2))
    )


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


def dissipation_matrix(gamma: float) -> np.ndarray:
    """Kossakowski matrix D over the four coupling operators, a 4x4 array.

    It is positive semidefinite exactly for gamma in [0, 1/2], but built for
    any finite gamma: checks.check_dissipation_spectrum gives the verdict.
    """
    gamma = float(gamma)
    if not np.isfinite(gamma):
        raise ContractViolation(f"gamma must be finite, got {gamma!r}")
    return np.array(
        [
            [1.0, 0.0, gamma, gamma],
            [0.0, 1.0, gamma, gamma],
            [gamma, gamma, 1.0, 0.0],
            [gamma, gamma, 0.0, 1.0],
        ],
        dtype=complex,
    )
