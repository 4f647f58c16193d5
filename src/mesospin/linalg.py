"""The generic tolerances and the one matrix exponential the package needs.

The matrix exponential of the model, that of the bath coupling K in the mode
drift, is of a Hermitian matrix times a scalar. expm() takes that structure
as its contract and evaluates it through numpy's Hermitian eigensolver, for
one matrix or a stack of them at one scalar or at scalars that broadcast
against the stack.
This module declares STRUCTURAL_TOL and SPECTRAL_TOL; a tolerance that
belongs to one routine or one check is declared beside it, in that routine's
or check's module.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

# Structural identities (symmetry, CCR, invariance) must hold to near machine
# precision; spectral quantities inherit eigensolver conditioning.
STRUCTURAL_TOL = 1e-12
SPECTRAL_TOL = 1e-9


def expm(h: np.ndarray, z) -> np.ndarray:
    """exp(z*h) for Hermitian h, or a stack of them, and finite complex z.

    With h = V diag(w) V^dag and V unitary, exp(z*h) = V diag(exp(z*w)) V^dag.
    h of shape H + (n, n) is diagonalised by one eigh; z, scalar or array,
    broadcasts against H as numpy broadcasts shapes, and the result has the
    broadcast shape + (n, n): a scalar z gives every matrix at that scalar, a
    z of shape H gives each matrix at its own scalar. To take every matrix at
    every scalar of an array S, give h the shape H + (1,) * len(S) + (n, n).
    Each entry is bit for bit what the call on its own matrix and scalar
    returns, and every z = 0 entry is the exact identity. Raises
    ContractViolation for a non-square h, for a z whose shape does not
    broadcast against H, for any non-finite entry of h or z, and for any
    matrix of h that is not Hermitian.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ContractViolation(f"expm argument must be (..., n, n), got shape {h.shape}")
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ContractViolation(f"expm scalar must be finite, got {z!r}")
    if not np.all(np.isfinite(h)):
        raise ContractViolation("expm argument must be finite")
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    asymmetry = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if not np.all(asymmetry <= STRUCTURAL_TOL * scale):
        raise ContractViolation("expm requires a Hermitian matrix")
    try:
        np.broadcast_shapes(h.shape[:-2], z.shape)
    except ValueError:
        raise ContractViolation(
            f"expm scalars of shape {z.shape} do not broadcast against matrices {h.shape}"
        ) from None
    w, v = np.linalg.eigh(h)
    out = (v * np.exp(z[..., None, None] * w[..., None, :])) @ v.conj().swapaxes(-1, -2)
    return np.where((z == 0)[..., None, None], np.eye(h.shape[-1]), out)
