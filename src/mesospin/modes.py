"""Collective fluctuation modes and their Gaussian mesoscopic dynamics.

The eight site observables carry, in the large-size limit, a Gaussian
fluctuation field with four ladder modes a1, a2, b1, b2. Only a1 and b1
belong to one chain each: a1 = sigma_- x 1/sqrt(eta) acts on chain one alone
and b1 = 1 x sigma_-/sqrt(eta) on chain two. a2 = 2 c2 sigma_- x d and
b2 = 2 c2 d x sigma_- act on both chains, through the zero-mean factor
d = diag(1 + 1/eta, -delta/eta) on the other chain's spin (c2 as in
mode_operators). This module owns the modes as site matrices, the
coupling K and the drift M = -(1+i*eps)I + gamma*K of the dissipative
evolution, each a plain array read off a ModelParams, and the closed-form
propagation of the quasi-free state, held as its real quadrature covariance
over (x_1, p_1, ..., x_4, p_4), vacuum = identity: a plain (8, 8) array, or a
(..., 8, 8) stack. symplectic_eigenvalues, which reads it, refuses one that
is not symmetric, NaN entries included.
Every builder broadcasts over the parameters: a ModelParams of shape S gives
arrays of shape S + (n, n), computed by array arithmetic, each entry bit for
bit what the call on its own parameter set returns. No time stepping is
involved: the drift is linear, so the flow is an exact matrix exponential
conjugation toward the thermal fixed point.

propagate() conjugates the full 8x8 covariance by the real form of exp(tM)
from flow(), which splits the modes by the spectral projectors (I +/- K)/2
of K (K^2 = I) and damps each at its own rate; it is the reference that the
curve engine, with its own expm1 variance rows, is checked against. Both take
the ModelParams itself. Given an array of times, or parameter sets of shape G
and a matching covariance stack, flow() and propagate() return stacks over the
parameter sets and the times, entry for entry what single calls return. The
fixed point is thermal_covariance().
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .sites import SIGMA0, SIGMA_MINUS, ModelParams, frozen


# sigma_- x 1 and 1 x sigma_-, the constant Kronecker factors of the modes.
_LOWER_ONE = frozen(np.kron(SIGMA_MINUS, SIGMA0))
_LOWER_TWO = frozen(np.kron(SIGMA0, SIGMA_MINUS))


def mode_operators(params: ModelParams) -> np.ndarray:
    """The four annihilation modes a1, a2, b1, b2 assembled directly as site matrices.

    This is the one definition of the modes. In the observables they read
    a1 = c1(x1 - i x2) and a2 = c2(x1 - i x2) + (c2/eta)(x3 - i x4) with
    c1 = 1/(2 sqrt(eta)) and c2 = sqrt(eta)/(2 eta_perp), and b1, b2 alike on
    x5..x8. Summing those Pauli words would cancel digits for eta near 1, so
    the matrices are built directly: the only delicate diagonal entry,
    -(1-eta)/eta, is formed as -delta/eta from the delta that params carries,
    so it keeps the accuracy of delta rather than of the rounded eta. The
    second modes sigma_- x d and d x sigma_- with
    d = diag(1 + 1/eta, -delta/eta) are the lowering factors with their
    columns scaled by the diagonal of 1 x d and d x 1. The result has shape
    S + (4, 4, 4), mode first, each entry bit for bit what its own call
    returns.
    """
    eta = np.asarray(params.eta)[..., None, None]
    w = np.asarray(params.eta_perp)[..., None, None]
    sq = np.sqrt(eta)
    c2 = sq / (2.0 * w)
    delta = np.asarray(params.delta)[..., None, None]
    d = np.concatenate([1.0 + 1.0 / eta, -delta / eta], axis=-1)  # S + (1, 2)
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


def coupling(params: ModelParams) -> np.ndarray:
    """The bath-mediated coupling K of every parameter set, shape S + (4, 4).

    K is real symmetric with K^2 = I, so the drift -(1+i*eps)I + gamma*K has
    the spectrum -(1+i*eps) +/- gamma, each twice: dissipation always wins
    for gamma < 1 and the slow envelope contracts at rate 1 - gamma per
    quadrature pair (2(1-gamma) for the covariance).
    """
    eta, w = np.asarray(params.eta), np.asarray(params.eta_perp)
    k = np.zeros(eta.shape + (4, 4))
    k[..., 0, 2], k[..., 0, 3] = -eta, w
    k[..., 1, 2], k[..., 1, 3] = w, eta
    k[..., 2:, :2] = k[..., :2, 2:].swapaxes(-1, -2)
    return k


def drift_matrix(params: ModelParams) -> np.ndarray:
    """The drift M = -(1+i*eps)I + gamma*K of the annihilation modes, shape S + (4, 4).

    Each entry is bit for bit what its own call returns.
    """
    return (
        -(1.0 + 1.0j * np.asarray(params.epsilon))[..., None, None] * np.eye(4, dtype=complex)
        + np.asarray(params.gamma)[..., None, None] * coupling(params)
    )


def thermal_covariance(eta) -> np.ndarray:
    """The thermal fixed point I/eta, the one place it is written.

    An array eta of shape S gives the stack S + (8, 8).
    """
    return np.eye(8) / np.asarray(eta)[..., None, None]


def initial_state(params: ModelParams, squeeze_r=0.0) -> np.ndarray:
    """Covariance of the thermal fluctuation state with both first modes squeezed by r.

    The squeeze acts independently on a1 and b1 with the same real parameter
    (alpha -> cosh(r) alpha - sinh(r) alpha*): x of each takes the variance
    e^{-2r}/eta and p the variance e^{2r}/eta, both written directly. The
    state is a product over the two chains and carries no cross
    correlations: entanglement between the chains can only be generated by
    the common bath afterwards. r = 0 returns the exact fixed point
    thermal_covariance(eta). params of shape S and r, a scalar or an array,
    broadcast to one shape B; the covariance stack has shape B + (8, 8).
    """
    r = np.asarray(squeeze_r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ContractViolation(f"squeeze parameter must be finite, got {squeeze_r!r}")
    eta = np.broadcast_to(params.eta, np.broadcast_shapes(np.shape(params.eta), r.shape))
    c = thermal_covariance(eta)
    # (x, p) of a1 are rows 0 and 1, those of b1 rows 4 and 5
    c[..., 0, 0] = c[..., 4, 4] = np.exp(-2.0 * r) / eta
    c[..., 1, 1] = c[..., 5, 5] = np.exp(2.0 * r) / eta
    return c


def flow(params: ModelParams, t) -> np.ndarray:
    """The 4x4 mode flow exp(tM) for t >= 0, from the spectral projectors of K.

    K^2 = I splits the modes into P+ = (I + K)/2 and P- = (I - K)/2, on which
    M acts as -(1+i*eps) + gamma and -(1+i*eps) - gamma, so
    exp(tM) = e^{-i*eps*t} (e^{-(1-gamma)t} P+ + e^{-(1+gamma)t} P-). Each rate
    has its own exponential, so nothing overflows at any t, and t = 0 gives
    the exact identity. An array t of shape S gives shape S + (4, 4);
    parameter sets of shape G give G + S + (4, 4), every set at every time,
    each entry bit for bit the single call.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ContractViolation(f"propagation time must be nonnegative, got {t!r}")
    # each parameter set's scalars and coupling meet every time
    at = (..., *(None,) * t.ndim)
    epsilon, gamma = np.asarray(params.epsilon)[at], np.asarray(params.gamma)[at]
    k = coupling(params)[at + (slice(None), slice(None))]
    rotation = np.exp(-1.0j * epsilon * t)[..., None, None]
    slow = 0.5 * np.exp(-(1.0 - gamma) * t)[..., None, None]
    fast = 0.5 * np.exp(-(1.0 + gamma) * t)[..., None, None]
    return rotation * ((slow + fast) * np.eye(4) + (slow - fast) * k)


def propagate(covariance: np.ndarray, params: ModelParams, t) -> np.ndarray:
    """Evolve the covariance for time t >= 0 in closed form.

    V(t) = R (V(0) - V_th) R^T + V_th with V_th = thermal_covariance(eta) and
    R the real form of the flow u = exp(tM): the block of mode pair (j, k) is
    [[Re u_jk, -Im u_jk], [Im u_jk, Re u_jk]]. The deviation from the fixed
    point is conjugated by a strict contraction whenever gamma < 1. An array
    t of shape S gives a stack S + (8, 8). Parameter sets of shape G take
    one covariance each, a G + (8, 8) stack, and give G + S + (8, 8), each
    entry bit for bit the single call. eta is read from params alone, and
    the result is symmetrised exactly under the swap of its matrix axes.
    """
    u = flow(params, t)
    covariance = np.asarray(covariance, dtype=float)
    if covariance.shape[-2:] != (8, 8):
        raise ContractViolation(f"covariance must be (..., 8, 8), got {covariance.shape}")
    lead = np.shape(params.eta)
    if lead and covariance.shape[:-2] != lead:
        raise ContractViolation(
            f"parameter sets of shape {lead} take one state each, got {covariance.shape}"
        )
    transfer = np.empty(u.shape[:-2] + (8, 8))
    transfer[..., 0::2, 0::2] = transfer[..., 1::2, 1::2] = u.real
    transfer[..., 0::2, 1::2] = -u.imag
    transfer[..., 1::2, 0::2] = u.imag
    # each parameter set's covariance and fixed point meet every time
    at = (..., *(None,) * np.ndim(t), slice(None), slice(None))
    reference = thermal_covariance(params.eta)[at]
    c = transfer @ (covariance[at] - reference) @ transfer.swapaxes(-1, -2)
    c += reference
    return 0.5 * (c + c.swapaxes(-1, -2))
