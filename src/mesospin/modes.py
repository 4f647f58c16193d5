"""Collective fluctuation modes and their Gaussian mesoscopic dynamics.

The eight site observables carry, in the large-size limit, a Gaussian
fluctuation field with two ladder modes per chain: a1, a2 for chain one and
b1, b2 for chain two. This module owns the change of basis between site
observables and modes, the quadratic drift generator of the dissipative
evolution, and the closed-form propagation of Gaussian moment matrices. No
time stepping is involved: the drift is linear, so the flow is an exact
matrix exponential conjugation toward the thermal fixed point.

Two propagators share that flow. propagate() conjugates the full 8x8 moment
matrix by exp(tM) from flow(), which diagonalises the coupling K numerically and
so does not rely on K^2 = I; it is the general reference. Given an array of
times, flow() and propagate() return stacks over its leading axes, entry for
entry what scalar calls return. The fixed point is thermal_moments().
normal_mode_variances() evaluates only the first modes, in closed form and over
a whole time grid at once, for one parameter set or a stack of them; it is
what curves are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .linalg import STRUCTURAL_TOL, expm
from .sites import SIGMA0, SIGMA_MINUS, ModelParams, frozen


@dataclass(frozen=True)
class ModeMap:
    """Invertible map from the eight site observables to ladder modes.

    Row order is (a1, a2, b1, b2, a1*, a2*, b1*, b2*). The inverse is the
    closed form obtained by solving the defining combinations, not a numerical
    inversion: the matrix becomes ill-conditioned for eta near 1 and the
    closed form keeps the round trip exact at the 1e-12 level there.
    """

    matrix: np.ndarray
    inverse: np.ndarray


def mode_map(params: ModelParams) -> ModeMap:
    eta, w = params.eta, params.eta_perp
    sq = np.sqrt(eta)
    c1 = 1.0 / (2.0 * sq)
    c2 = sq / (2.0 * w)

    r = np.zeros((8, 8), dtype=complex)
    r[0, 0], r[0, 1] = c1, -1.0j * c1
    r[1, 0], r[1, 1] = c2, -1.0j * c2
    r[1, 2], r[1, 3] = c2 / eta, -1.0j * c2 / eta
    r[2, 4], r[2, 5] = c1, -1.0j * c1
    r[3, 4], r[3, 5] = c2, -1.0j * c2
    r[3, 6], r[3, 7] = c2 / eta, -1.0j * c2 / eta
    r[4:, :] = r[:4, :].conj()

    inv = np.zeros((8, 8), dtype=complex)
    inv[0, 0], inv[0, 4] = sq, sq
    inv[1, 0], inv[1, 4] = 1.0j * sq, -1.0j * sq
    inv[2, 0], inv[2, 1] = -eta * sq, w * sq
    inv[2, 4], inv[2, 5] = -eta * sq, w * sq
    inv[3, 0], inv[3, 1] = -1.0j * eta * sq, 1.0j * w * sq
    inv[3, 4], inv[3, 5] = 1.0j * eta * sq, -1.0j * w * sq
    inv[4:, 2:4] = inv[:4, 0:2]
    inv[4:, 6:8] = inv[:4, 4:6]

    return ModeMap(matrix=r, inverse=inv)


# sigma_- x 1 and 1 x sigma_-, the constant Kronecker factors of the modes.
_LOWER_ONE = frozen(np.kron(SIGMA_MINUS, SIGMA0))
_LOWER_TWO = frozen(np.kron(SIGMA0, SIGMA_MINUS))


def mode_operators(params: ModelParams) -> tuple[np.ndarray, ...]:
    """The four annihilation modes assembled directly as site matrices.

    Equivalent to applying the mode map to the observable vector, but immune
    to the cancellation that plagues that route for eta near 1: the only
    delicate diagonal entry is formed as -(1-eta)/eta, which is exact for
    eta >= 1/2 and loses nothing below. The second modes sigma_- x d and
    d x sigma_- with d = diag(1 + 1/eta, -(1-eta)/eta) are the lowering
    factors with their columns scaled by the diagonal of 1 x d and d x 1.
    """
    eta, w = params.eta, params.eta_perp
    sq = np.sqrt(eta)
    c2 = sq / (2.0 * w)
    d = np.array([1.0 + 1.0 / eta, -(1.0 - eta) / eta])
    return (
        _LOWER_ONE / sq,
        2.0 * c2 * (_LOWER_ONE * np.tile(d, 2)),
        _LOWER_TWO / sq,
        2.0 * c2 * (_LOWER_TWO * np.repeat(d, 2)),
    )


@dataclass(frozen=True)
class MesoGenerator:
    """Drift matrix of the annihilation modes, -(1+i*eps)I + gamma*K.

    The bath-mediated coupling K is real symmetric with K^2 = I, so the
    spectrum is -(1+i*eps) +/- gamma, each twice: dissipation always wins for
    gamma < 1 and the slow envelope contracts at rate 1 - gamma per quadrature
    pair (2(1-gamma) for the moment matrix).
    """

    matrix: np.ndarray
    coupling: np.ndarray
    epsilon: float
    gamma: float
    eta: float


def drift_matrix(params: ModelParams) -> MesoGenerator:
    eta, w = params.eta, params.eta_perp
    k = np.zeros((4, 4))
    k[0, 2], k[0, 3] = -eta, w
    k[1, 2], k[1, 3] = w, eta
    k[2:, :2] = k[:2, 2:].T
    m = -(1.0 + 1.0j * params.epsilon) * np.eye(4, dtype=complex) + params.gamma * k
    return MesoGenerator(
        matrix=m,
        coupling=k,
        epsilon=params.epsilon,
        gamma=params.gamma,
        eta=eta,
    )


_SWAP = np.block(
    [[np.zeros((4, 4)), np.eye(4)], [np.eye(4), np.zeros((4, 4))]]
).astype(complex)


@dataclass(frozen=True)
class GaussianState:
    """Quasi-free fluctuation state, held as the 8x8 moment matrix Gamma.

    Gamma is ordered (modes; conjugate modes): the upper-left block holds the
    symmetrized second moments, the lower-left block the anomalous pair
    moments (negated), and conjugation symmetry Gamma = Swap conj(Gamma) Swap
    ties the halves together. A stack (..., 8, 8) holds one state per leading
    index. Construction enforces Hermiticity and the swap symmetry of every
    matrix, then stores the exactly symmetrized stack.
    """

    moment_matrix: np.ndarray
    eta: float

    def __post_init__(self) -> None:
        g = np.asarray(self.moment_matrix, dtype=complex)
        if g.shape[-2:] != (8, 8):
            raise ContractViolation(f"moment matrix must be (..., 8, 8), got {g.shape}")
        limit = STRUCTURAL_TOL * np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
        if np.any(np.abs(g - g.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > limit):
            raise ContractViolation("moment matrix must be Hermitian")
        if np.any(np.abs(g - _SWAP @ g.conj() @ _SWAP).max(axis=(-2, -1)) > limit):
            raise ContractViolation(
                "moment matrix must equal its conjugate under mode-conjugate swap"
            )
        g = 0.5 * (g + g.conj().swapaxes(-1, -2))
        g = 0.5 * (g + _SWAP @ g.conj() @ _SWAP)
        object.__setattr__(self, "moment_matrix", g)


def thermal_moments(eta: float) -> np.ndarray:
    """The thermal fixed point Gamma_th = I/(2*eta), the one place it is written."""
    return np.eye(8, dtype=complex) / (2.0 * eta)


def initial_state(params: ModelParams, squeeze_r: float = 0.0) -> GaussianState:
    """Thermal fluctuation state with both first modes squeezed by r.

    The squeeze acts independently on a1 and b1 with the same real parameter
    (alpha -> cosh(r) alpha - sinh(r) alpha*), so the state is a product over
    the two chains and carries no cross correlations: entanglement between
    the chains can only be generated by the common bath afterwards.
    r = 0 returns the exact fixed point thermal_moments(eta).
    """
    r = float(squeeze_r)
    if not np.isfinite(r):
        raise ContractViolation(f"squeeze parameter must be finite, got {squeeze_r!r}")
    eta = params.eta
    g = thermal_moments(eta)
    for i in (0, 2):  # a1 and b1, and their conjugates at i + 4
        thermal = g[i, i]
        g[i, i] = g[i + 4, i + 4] = np.cosh(2.0 * r) * thermal
        g[i + 4, i] = g[i, i + 4] = np.sinh(2.0 * r) * thermal
    return GaussianState(moment_matrix=g, eta=eta)


def flow(gen: MesoGenerator, t) -> np.ndarray:
    """The 4x4 mode flow exp(tM) = e^{-(1+i*eps)t} exp(gamma*t*K) for t >= 0.

    The identity part of M commutes with K and factors out as a scalar; the
    Hermitian exponential of the coupling is taken from its eigendecomposition.
    An array t of shape S gives shape S + (4, 4). t = 0 gives the exact identity.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ContractViolation(f"propagation time must be nonnegative, got {t!r}")
    phase = np.exp(-(1.0 + 1.0j * gen.epsilon) * t)
    return phase[..., None, None] * expm(gen.coupling, gen.gamma * t)


def propagate(state: GaussianState, gen: MesoGenerator, t) -> GaussianState:
    """Evolve the moment matrix for time t >= 0 in closed form.

    Gamma(t) = T(t)^dag (Gamma(0) - Gamma_th) T(t) + Gamma_th with
    T = exp(tM) (+) conj(exp(tM)) and Gamma_th = thermal_moments(eta); the
    deviation from the fixed point is conjugated by a strict contraction
    whenever gamma < 1. An array t of shape S gives a stack S + (8, 8).
    """
    if abs(state.eta - gen.eta) > 1e-15:
        raise ContractViolation(
            "state and generator were built from different thermal parameters"
        )
    u = flow(gen, t)
    transfer = np.zeros(u.shape[:-2] + (8, 8), dtype=complex)
    transfer[..., :4, :4] = u
    transfer[..., 4:, 4:] = u.conj()
    reference = thermal_moments(state.eta)
    g = transfer.conj().swapaxes(-1, -2) @ (state.moment_matrix - reference) @ transfer
    g += reference
    return GaussianState(moment_matrix=g, eta=state.eta)


def normal_mode_variances(
    params: ModelParams | Sequence[ModelParams], squeeze_r: float, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature variances of the modes (a1 +/- b1)/sqrt(2) over a time grid.

    K^2 = I puts exp(tM) in closed form, and only its (a1, b1) block
    e^{-(1+i*eps)t} [[c, -eta*s], [-eta*s, c]] (c = cosh gamma*t,
    s = sinh gamma*t) reaches the first modes. The phase e^{-i*eps*t} turns
    both modes alike, a local passive rotation that no entanglement measure
    sees, so it is dropped. The real remainder is diagonal on a1 +/- b1 with
    damping q_+/- = e^{-t}(c -/+ eta*s), and each quadrature of each normal
    mode relaxes toward the thermal variance: V(t) = q^2 V(0) + (1 - q^2)/eta.
    1 - q is summed from expm1 terms of one sign and 1 - eta comes from
    exp(2u), so no difference cancels at any r, t or temperature.

    Returns (x, p), each of shape (2, len(times)) with rows sigma = +, -:
    x starts anti-squeezed at e^{2|r|}/eta, p squeezed at e^{-2|r|}/eta.
    A sequence of V parameter sets gives shape (V, 2, len(times)), one curve
    per set on the shared grid; the arithmetic is elementwise, so each curve
    is bit for bit what its own call returns. The state depends on r only
    through |r|.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ContractViolation("propagation times must be finite and nonnegative")
    r = abs(float(squeeze_r))
    if not np.isfinite(r):
        raise ContractViolation(f"squeeze parameter must be finite, got {squeeze_r!r}")
    stack = not isinstance(params, ModelParams)
    sets = tuple(params) if stack else (params,)
    eta = np.array([[[s.eta]] for s in sets])
    low = [1.0 / (np.exp(s.epsilon * s.beta) + 1.0) for s in sets]  # (1 - eta) / 2
    high = [0.5 * (1.0 + s.eta) for s in sets]
    # Row sigma = + weighs the slow rate 1 - gamma by (1 - eta)/2.
    slow_weight = np.array([[[a], [b]] for a, b in zip(low, high)])
    fast_weight = np.array([[[b], [a]] for a, b in zip(low, high)])
    slow = np.array([[[-(1.0 - s.gamma)]] for s in sets]) * t
    fast = np.array([[[-(1.0 + s.gamma)]] for s in sets]) * t
    q = slow_weight * np.exp(slow) + fast_weight * np.exp(fast)
    one_minus_q = -(slow_weight * np.expm1(slow) + fast_weight * np.expm1(fast))
    w = q * q
    one_minus_w = one_minus_q * (1.0 + q)
    x = (1.0 + np.expm1(2.0 * r) * w) / eta
    p = (one_minus_w + np.exp(-2.0 * r) * w) / eta
    return (x, p) if stack else (x[0], p[0])
