"""The generic tolerances and the one matrix exponential the package needs.

Both exponentials in the model are of a Hermitian matrix times a scalar: the
bath coupling K of the mode drift, and the centred site observables of the
oracle's Weyl factors. expm() takes that structure as its contract and
evaluates it through numpy's Hermitian eigensolver. This module declares
STRUCTURAL_TOL and SPECTRAL_TOL; a tolerance that belongs to one routine or
one check is declared beside it, in that routine's or check's module.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

# Structural identities (symmetry, CCR, invariance) must hold to near machine
# precision; spectral quantities inherit eigensolver conditioning.
STRUCTURAL_TOL = 1e-12
SPECTRAL_TOL = 1e-9


def expm(h: np.ndarray, z) -> np.ndarray:
    """exp(z*h) for a Hermitian matrix h and finite complex z, scalar or array.

    With h = V diag(w) V^dag and V unitary, exp(z*h) = V diag(exp(z*w)) V^dag.
    h is diagonalised once; an array z of shape S gives a stack of shape
    S + h.shape, and a scalar z one matrix. Every z = 0 entry is the exact
    identity. Raises ContractViolation for a non-square or non-Hermitian h
    and for any non-finite z.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractViolation(f"expm argument must be a square matrix, got shape {h.shape}")
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ContractViolation(f"expm scalar must be finite, got {z!r}")
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if np.abs(h - h.conj().T).max(initial=0.0) > STRUCTURAL_TOL * scale:
        raise ContractViolation("expm requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    out = (v * np.exp(z[..., None, None] * w)) @ v.conj().T
    return np.where((z == 0)[..., None, None], np.eye(h.shape[0]), out)
