"""Logarithmic negativity between the first collective modes of the chains.

The pipeline is: read the (a1, b1) rows and columns of a state's real
quadrature covariance (vacuum = identity), partially transpose the second
mode, and read off the smallest symplectic eigenvalue. Entanglement is
E = max(0, -ln nu_min): positive exactly when the partial transpose fails to
be a physical state.

The smallest eigenvalue is computed twice, by two Hermitian routes that share
no factorisation. Both rest on the similarity of i*Omega*sigma to a Hermitian
matrix, which stays fully accurate at degenerate symplectic spectra where a
general eigensolver loses half its digits: i L^T Omega L with L the Cholesky
factor of sigma, and i S Omega S with S the symmetric square root of sigma
from its own eigendecomposition. The two routes must agree; disagreement is
reported as a numeric failure, never papered over.

Every step broadcasts over leading axes: a state stack gives nu_min and E as
arrays, a single state gives floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from .linalg import SPECTRAL_TOL
from .modes import GaussianState
from .sites import frozen

_BLOCK_TOL = 1e-10

# Rows and columns (x, p) of a1 and of b1 in the 8x8 quadrature covariance.
_FIRST_MODES = frozen(np.array([0, 1, 4, 5]))


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Ascending symplectic spectrum of a real symmetric positive covariance.

    Accepts one 2n x 2n matrix or a stack of shape (..., 2n, 2n) and returns
    shape (..., n). Uses the similarity i*Omega*cov ~ i L^T Omega L (L the
    Cholesky factor), whose right side is Hermitian: the Hermitian eigensolver
    keeps full accuracy even when the spectrum is degenerate. A covariance
    that is not symmetric, NaN entries included, raises ContractViolation.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] % 2:
        raise ContractViolation(f"covariance must be (..., 2n, 2n), got {cov.shape}")
    n = cov.shape[-1] // 2
    asymmetry = np.abs(cov - np.swapaxes(cov, -1, -2)).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(cov).max(axis=(-2, -1)))
    if not np.all(asymmetry <= _BLOCK_TOL * scale):
        raise ContractViolation("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError("covariance is not positive definite") from exc
    omega = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    herm = 1.0j * (np.swapaxes(chol, -1, -2) @ omega @ chol)
    spectrum = np.linalg.eigvalsh(herm)
    return np.sort(np.abs(spectrum), axis=-1)[..., ::2]


def min_symplectic_pt(cov: np.ndarray) -> float | np.ndarray:
    """Smallest symplectic eigenvalue after partial transposition of mode two.

    cov is the 4x4 quadrature covariance of two modes, vacuum-normalized (a
    float is returned), or a stack (..., 4, 4) (an array (...) is returned).
    Computed from symplectic_eigenvalues of the transposed matrix and again
    from the spectrum of i S Omega S, S its symmetric square root; the routes
    must agree within 1e-9, and the first is returned.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape[-2:] != (4, 4):
        raise ContractViolation(f"two-mode covariance must be (..., 4, 4), got {cov.shape}")
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    transposed = flip @ cov @ flip
    nu = symplectic_eigenvalues(transposed)[..., 0]

    w, v = np.linalg.eigh(transposed)
    root = (v * np.sqrt(w)[..., None, :]) @ v.swapaxes(-1, -2)
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    spectrum = np.linalg.eigvalsh(1.0j * (root @ omega @ root))
    nu_root = np.abs(spectrum).min(axis=-1)
    # Written as not (x <= limit), so that a NaN fails.
    bad = ~(np.abs(nu_root - nu) <= SPECTRAL_TOL * np.maximum(1.0, nu))
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        entry = f" at stack index {', '.join(str(int(i)) for i in k)}" if k else ""
        raise NumericError(
            f"symplectic eigenvalue routes disagree{entry}: "
            f"Cholesky {nu[k]:.12e} vs square root {nu_root[k]:.12e}"
        )
    return float(nu) if nu.ndim == 0 else nu


def log_negativity(nu_min: float | np.ndarray) -> float | np.ndarray:
    """E = -ln nu_min where nu_min < 1, else +0; a float for a scalar, else elementwise.

    Every nu_min must be finite and strictly positive (ContractViolation).
    """
    nu = np.asarray(nu_min, dtype=float)
    if not np.all(np.isfinite(nu) & (nu > 0.0)):
        raise ContractViolation(
            f"smallest symplectic eigenvalue must be positive, got {nu_min!r}"
        )
    e = np.where(nu < 1.0, -np.log(nu), 0.0)
    return float(e) if e.ndim == 0 else e


@dataclass(frozen=True)
class NegativityResult:
    nu_min: float | np.ndarray
    log_negativity: float | np.ndarray


def negativity(state: GaussianState) -> NegativityResult:
    """Logarithmic negativity between a1 and b1 in the given state or state stack.

    nu_min is read from the (a1, b1) rows and columns of state.covariance.
    """
    nu_min = min_symplectic_pt(state.covariance[..., _FIRST_MODES[:, None], _FIRST_MODES])
    return NegativityResult(nu_min=nu_min, log_negativity=log_negativity(nu_min))
