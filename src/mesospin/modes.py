"""Collective fluctuation modes and their Gaussian mesoscopic dynamics.

The eight site observables carry, in the large-size limit, a Gaussian
fluctuation field with two ladder modes per chain: a1, a2 for chain one and
b1, b2 for chain two. This module owns the change of basis between site
observables and modes, the quadratic drift generator of the dissipative
evolution, and the closed-form propagation of Gaussian moment matrices.
Every builder broadcasts over the parameters: a ModelParams of shape S gives
arrays of shape S + (n, n), computed by array arithmetic, each entry bit for
bit what the call on its own parameter set returns. No time stepping is
involved: the drift is linear, so the flow is an exact matrix exponential
conjugation toward the thermal fixed point.

Two propagators share that flow. propagate() conjugates the full 8x8 moment
matrix by exp(tM) from flow(), which diagonalises the coupling K numerically and
so does not rely on K^2 = I; it is the general reference. Given an array of
times, or a stacked generator and a matching state stack, flow() and
propagate() return stacks over the generators and the times, entry for entry
what single calls return. The fixed point is thermal_moments().
normal_mode_variances() evaluates only the first modes, in closed form and over
a whole time grid at once, for every parameter set of a ModelParams; it is
what curves are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """The mode map of every parameter set, matrix and inverse of shape S + (8, 8).

    The stack is filled entry by entry from coefficient arrays of shape S;
    every entry is the same floating-point expression as for one set, so each
    matrix is bit for bit what the call on its own set returns.
    """
    eta, w = np.asarray(params.eta), np.asarray(params.eta_perp)
    sq = np.sqrt(eta)
    c1 = 1.0 / (2.0 * sq)
    c2 = sq / (2.0 * w)

    r = np.zeros(eta.shape + (8, 8), dtype=complex)
    r[..., 0, 0], r[..., 0, 1] = c1, -1.0j * c1
    r[..., 1, 0], r[..., 1, 1] = c2, -1.0j * c2
    # The quotient is real: numpy divides a complex array by a real one through
    # the reciprocal, which can round c2 / eta differently.
    r[..., 1, 2], r[..., 1, 3] = c2 / eta, -1.0j * (c2 / eta)
    r[..., 2, 4], r[..., 2, 5] = c1, -1.0j * c1
    r[..., 3, 4], r[..., 3, 5] = c2, -1.0j * c2
    r[..., 3, 6], r[..., 3, 7] = c2 / eta, -1.0j * (c2 / eta)
    r[..., 4:, :] = r[..., :4, :].conj()

    inv = np.zeros(eta.shape + (8, 8), dtype=complex)
    inv[..., 0, 0], inv[..., 0, 4] = sq, sq
    inv[..., 1, 0], inv[..., 1, 4] = 1.0j * sq, -1.0j * sq
    inv[..., 2, 0], inv[..., 2, 1] = -eta * sq, w * sq
    inv[..., 2, 4], inv[..., 2, 5] = -eta * sq, w * sq
    inv[..., 3, 0], inv[..., 3, 1] = -1.0j * eta * sq, 1.0j * w * sq
    inv[..., 3, 4], inv[..., 3, 5] = 1.0j * eta * sq, -1.0j * w * sq
    inv[..., 4:, 2:4] = inv[..., :4, 0:2]
    inv[..., 4:, 6:8] = inv[..., :4, 4:6]

    return ModeMap(matrix=r, inverse=inv)


# sigma_- x 1 and 1 x sigma_-, the constant Kronecker factors of the modes.
_LOWER_ONE = frozen(np.kron(SIGMA_MINUS, SIGMA0))
_LOWER_TWO = frozen(np.kron(SIGMA0, SIGMA_MINUS))


def mode_operators(params: ModelParams) -> np.ndarray:
    """The four annihilation modes a1, a2, b1, b2 assembled directly as site matrices.

    Equivalent to applying the mode map to the observable vector, but immune
    to the cancellation that plagues that route for eta near 1: the only
    delicate diagonal entry is formed as -(1-eta)/eta, which is exact for
    eta >= 1/2 and loses nothing below. The second modes sigma_- x d and
    d x sigma_- with d = diag(1 + 1/eta, -(1-eta)/eta) are the lowering
    factors with their columns scaled by the diagonal of 1 x d and d x 1.
    The result has shape S + (4, 4, 4), mode first, each entry bit for bit
    what its own call returns.
    """
    eta = np.asarray(params.eta)[..., None, None]
    w = np.asarray(params.eta_perp)[..., None, None]
    sq = np.sqrt(eta)
    c2 = sq / (2.0 * w)
    d = np.concatenate([1.0 + 1.0 / eta, -(1.0 - eta) / eta], axis=-1)  # S + (1, 2)
    ops = np.stack(
        [
            _LOWER_ONE / sq,
            2.0 * c2 * (_LOWER_ONE * np.tile(d, 2)),
            _LOWER_TWO / sq,
            2.0 * c2 * (_LOWER_TWO * np.repeat(d, 2, axis=-1)),
        ],
        axis=-3,
    )
    return ops


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
    epsilon: float | np.ndarray
    gamma: float | np.ndarray
    eta: float | np.ndarray


def drift_matrix(params: ModelParams) -> MesoGenerator:
    """The drift of every parameter set, as one generator or one stacked generator.

    matrix and coupling have shape S + (4, 4) and epsilon, gamma and eta are
    the fields of params, each entry bit for bit what its own call returns.
    flow() and propagate() take a stack as readily as one generator.
    """
    eta, w = np.asarray(params.eta), np.asarray(params.eta_perp)
    k = np.zeros(eta.shape + (4, 4))
    k[..., 0, 2], k[..., 0, 3] = -eta, w
    k[..., 1, 2], k[..., 1, 3] = w, eta
    k[..., 2:, :2] = k[..., :2, 2:].swapaxes(-1, -2)
    m = (
        -(1.0 + 1.0j * np.asarray(params.epsilon))[..., None, None] * np.eye(4, dtype=complex)
        + np.asarray(params.gamma)[..., None, None] * k
    )
    return MesoGenerator(
        matrix=m, coupling=k, epsilon=params.epsilon, gamma=params.gamma, eta=params.eta
    )


@dataclass(frozen=True)
class GaussianState:
    """Quasi-free fluctuation state, held as the 8x8 moment matrix Gamma.

    Gamma is ordered (modes; conjugate modes): the upper-left block holds the
    symmetrized second moments, the lower-left block the anomalous pair
    moments (negated), and conjugation symmetry Gamma = Swap conj(Gamma) Swap
    ties the halves together. A stack (..., 8, 8) holds one state per leading
    index. eta is a float shared by every state, or an array over the first
    leading axes: eta[i] belongs to every state of moment_matrix[i]. Construction
    enforces Hermiticity and the swap symmetry of every matrix, which a NaN
    entry fails, then stores the exactly symmetrized stack. It is the one
    place a moment matrix is checked: quadrature_covariance relies on it.
    """

    moment_matrix: np.ndarray
    eta: float | np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.moment_matrix, dtype=complex)
        if g.shape[-2:] != (8, 8):
            raise ContractViolation(f"moment matrix must be (..., 8, 8), got {g.shape}")
        lead = np.shape(self.eta)
        if len(lead) > g.ndim - 2 or g.shape[: len(lead)] != lead:
            raise ContractViolation(
                f"eta of shape {lead} does not lead the moment matrices {g.shape}"
            )
        limit = STRUCTURAL_TOL * np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
        # Written as not (x <= limit), so that a NaN fails.
        if not np.all(np.abs(g - g.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= limit):
            raise ContractViolation("moment matrix must be Hermitian")
        # Swap conj(g) Swap is a roll by four rows and four columns.
        if not np.all(np.abs(g - np.roll(g.conj(), 4, axis=(-2, -1))).max(axis=(-2, -1)) <= limit):
            raise ContractViolation(
                "moment matrix must equal its conjugate under mode-conjugate swap"
            )
        g = 0.5 * (g + g.conj().swapaxes(-1, -2))
        g = 0.5 * (g + np.roll(g.conj(), 4, axis=(-2, -1)))
        object.__setattr__(self, "moment_matrix", g)


def thermal_moments(eta) -> np.ndarray:
    """The thermal fixed point Gamma_th = I/(2*eta), the one place it is written.

    An array eta of shape S gives the stack S + (8, 8).
    """
    return np.eye(8, dtype=complex) / (2.0 * np.asarray(eta)[..., None, None])


def initial_state(params: ModelParams, squeeze_r=0.0) -> GaussianState:
    """Thermal fluctuation state with both first modes squeezed by r.

    The squeeze acts independently on a1 and b1 with the same real parameter
    (alpha -> cosh(r) alpha - sinh(r) alpha*), so the state is a product over
    the two chains and carries no cross correlations: entanglement between
    the chains can only be generated by the common bath afterwards.
    r = 0 returns the exact fixed point thermal_moments(eta). params of
    shape S and r, a scalar or an array, broadcast to one shape B; the state
    stack has shape B + (8, 8) and its eta shape B.
    """
    r = np.asarray(squeeze_r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ContractViolation(f"squeeze parameter must be finite, got {squeeze_r!r}")
    shape = np.broadcast_shapes(np.shape(params.eta), r.shape)
    eta = np.broadcast_to(params.eta, shape) if shape else params.eta
    g = thermal_moments(eta)
    for i in (0, 2):  # a1 and b1, and their conjugates at i + 4
        thermal = g[..., i, i].copy()
        g[..., i, i] = g[..., i + 4, i + 4] = np.cosh(2.0 * r) * thermal
        g[..., i + 4, i] = g[..., i, i + 4] = np.sinh(2.0 * r) * thermal
    return GaussianState(moment_matrix=g, eta=eta)


def flow(gen: MesoGenerator, t) -> np.ndarray:
    """The 4x4 mode flow exp(tM) = e^{-(1+i*eps)t} exp(gamma*t*K) for t >= 0.

    The identity part of M commutes with K and factors out as a scalar; the
    Hermitian exponential of the coupling is taken from its eigendecomposition.
    An array t of shape S gives shape S + (4, 4); a generator stack of shape
    G gives G + S + (4, 4), every generator at every time, each entry bit for
    bit the single call. t = 0 gives the exact identity.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ContractViolation(f"propagation time must be nonnegative, got {t!r}")
    # each generator's scalars and coupling meet every time
    at = (..., *(None,) * t.ndim)
    epsilon, gamma = np.asarray(gen.epsilon)[at], np.asarray(gen.gamma)[at]
    coupling = gen.coupling[at + (slice(None), slice(None))]
    phase = np.exp(-(1.0 + 1.0j * epsilon) * t)
    return phase[..., None, None] * expm(coupling, gamma * t)


def propagate(state: GaussianState, gen: MesoGenerator, t) -> GaussianState:
    """Evolve the moment matrix for time t >= 0 in closed form.

    Gamma(t) = T(t)^dag (Gamma(0) - Gamma_th) T(t) + Gamma_th with
    T = exp(tM) (+) conj(exp(tM)) and Gamma_th = thermal_moments(eta); the
    deviation from the fixed point is conjugated by a strict contraction
    whenever gamma < 1. An array t of shape S gives a stack S + (8, 8). A
    generator stack of shape G takes one state per generator, a G + (8, 8)
    stack whose eta matches each generator's, and gives G + S + (8, 8) with
    eta of shape G, each entry bit for bit the single call.
    """
    u = flow(gen, t)
    lead = np.shape(gen.eta)
    # Written as not (x <= limit), so that a NaN fails.
    if np.shape(state.eta) != lead or not np.all(np.abs(state.eta - gen.eta) <= 1e-15):
        raise ContractViolation(
            "state and generator were built from different thermal parameters"
        )
    if lead and state.moment_matrix.shape[:-2] != lead:
        raise ContractViolation(
            f"generators of shape {lead} take one state each, got {state.moment_matrix.shape}"
        )
    transfer = np.zeros(u.shape[:-2] + (8, 8), dtype=complex)
    transfer[..., :4, :4] = u
    transfer[..., 4:, 4:] = u.conj()
    # each generator's state and fixed point meet every time
    at = (..., *(None,) * np.ndim(t), slice(None), slice(None))
    reference = thermal_moments(state.eta)[at]
    deviation = state.moment_matrix[at] - reference
    g = transfer.conj().swapaxes(-1, -2) @ deviation @ transfer
    g += reference
    return GaussianState(moment_matrix=g, eta=state.eta)


def normal_mode_variances(
    params: ModelParams, squeeze_r: float, times: np.ndarray
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

    Returns (x, p), each of shape S + (2, len(times)) with rows sigma = +, -:
    x starts anti-squeezed at e^{2|r|}/eta, p squeezed at e^{-2|r|}/eta.
    Every parameter set gets one curve on the shared grid; the arithmetic is
    elementwise, so each curve is bit for bit what its own call returns. The
    state depends on r only through |r|.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ContractViolation("propagation times must be finite and nonnegative")
    r = abs(float(squeeze_r))
    if not np.isfinite(r):
        raise ContractViolation(f"squeeze parameter must be finite, got {squeeze_r!r}")
    eta = np.asarray(params.eta)[..., None, None]
    gamma = np.asarray(params.gamma)[..., None]
    low = 1.0 / (np.exp(np.asarray(params.epsilon * params.beta)) + 1.0)[..., None]  # (1 - eta)/2
    high = 0.5 * (1.0 + np.asarray(params.eta))[..., None]
    slow = -(1.0 - gamma) * t
    fast = -(1.0 + gamma) * t
    # Row sigma = + weighs the slow rate 1 - gamma by (1 - eta)/2, row - by (1 + eta)/2.
    def rows(at_slow: np.ndarray, at_fast: np.ndarray) -> np.ndarray:
        return np.stack([low * at_slow + high * at_fast, high * at_slow + low * at_fast], axis=-2)

    q = rows(np.exp(slow), np.exp(fast))
    one_minus_q = -rows(np.expm1(slow), np.expm1(fast))
    w = q * q
    one_minus_w = one_minus_q * (1.0 + q)
    x = (1.0 + np.expm1(2.0 * r) * w) / eta
    p = (one_minus_w + np.exp(-2.0 * r) * w) / eta
    return x, p
