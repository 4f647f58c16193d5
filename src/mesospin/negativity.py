"""Logarithmic negativity between the first collective modes of the chains.

The pipeline is: select the (a1, b1) block of an eight-dimensional moment
matrix, rewrite it as a real quadrature covariance normalized so the vacuum is
the identity, partially transpose the second mode, and read off the smallest
symplectic eigenvalue. Entanglement is E = max(0, -ln nu_min): positive
exactly when the partial transpose fails to be a physical state.

The smallest eigenvalue is computed twice, by independent routes: the closed
two-mode determinant formula, and the spectrum of i*Omega*sigma. The spectral
route goes through a Cholesky similarity (i*Omega*sigma is similar to the
Hermitian matrix i L^T Omega L), which stays fully accurate at degenerate
symplectic spectra where a general eigensolver loses half its digits. The two
routes must agree; disagreement is reported as a numeric failure, never
papered over.

Every step broadcasts over leading axes: a state stack gives nu_min and E as
arrays, a single state gives floats.

Curves take a shorter road: min_symplectic_pt_grid reads nu_min of a whole
time grid, or a stack of such curves, from the normal-mode variances and holds
every point to the uncertainty bound x p >= 1 of each normal mode (Simon,
PRL 84, 2726 (2000)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from .linalg import SPECTRAL_TOL
from .modes import GaussianState

_BLOCK_TOL = 1e-10


def first_mode_block(state: GaussianState) -> np.ndarray:
    """Moment block of (a1, b1) and conjugates: rows/columns 0, 2, 4, 6."""
    idx = np.array([0, 2, 4, 6])
    return state.moment_matrix[..., idx[:, None], idx]


def quadrature_covariance(block: np.ndarray) -> np.ndarray:
    """Real covariance over (x_1, p_1, ..., x_n, p_n), vacuum = identity.

    Accepts a 2n x 2n complex moment block ordered (modes; conjugate modes),
    or a stack (..., 2n, 2n). Every block must be Hermitian and
    conjugation-symmetric within 1e-10; every assembled real matrix must be
    symmetric to the same tolerance. A NaN entry fails these tests
    (ContractViolation).
    """
    block = np.asarray(block, dtype=complex)
    if block.ndim < 2 or block.shape[-1] != block.shape[-2] or block.shape[-1] % 2:
        raise ContractViolation(f"moment block must be (..., 2n, 2n), got {block.shape}")
    n = block.shape[-1] // 2
    limit = _BLOCK_TOL * np.maximum(1.0, _max_abs(block))
    # Each tolerance test is not (x <= limit), which a NaN fails.
    if not np.all(_max_abs(block - block.conj().swapaxes(-1, -2)) <= limit):
        raise ContractViolation("moment block must be Hermitian")
    # Swap conj(block) Swap, Swap exchanging modes and conjugate modes, is a roll.
    if not np.all(_max_abs(block - np.roll(block.conj(), n, axis=(-2, -1))) <= limit):
        raise ContractViolation("moment block breaks mode-conjugate symmetry")

    sym = block[..., :n, :n].conj()
    pair = -block[..., n:, :n]
    cov = np.empty(block.shape, dtype=float)
    cov[..., 0::2, 0::2] = (sym + pair).real
    cov[..., 0::2, 1::2] = pair.imag - sym.imag
    cov[..., 1::2, 0::2] = pair.imag + sym.imag
    cov[..., 1::2, 1::2] = (sym - pair).real
    cov *= 2.0
    cov_t = cov.swapaxes(-1, -2)
    if not np.all(_max_abs(cov - cov_t) <= _BLOCK_TOL * np.maximum(1.0, _max_abs(cov))):
        raise ContractViolation("assembled quadrature covariance is not symmetric")
    return 0.5 * (cov + cov_t)


def _max_abs(a: np.ndarray) -> np.ndarray:
    return np.abs(a).max(axis=(-2, -1))


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
    Computed both from the closed determinant formula and from the symplectic
    spectrum of the transposed matrix; the routes must agree within 1e-9.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape[-2:] != (4, 4):
        raise ContractViolation(f"two-mode covariance must be (..., 4, 4), got {cov.shape}")
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    transposed = flip @ cov @ flip

    a_blk, b_blk, c_blk = cov[..., :2, :2], cov[..., 2:, 2:], cov[..., :2, 2:]
    a, b, c = np.linalg.det(a_blk), np.linalg.det(b_blk), np.linalg.det(c_blk)
    delta = a + b - 2.0 * c
    # delta^2 - 4 det(cov) cancels catastrophically near degenerate spectra
    # (product states would lose half the digits). The expanded form below is
    # algebraically identical and evaluates to exactly zero at C = 0, A = B.
    # adj(C) = [[c11, -c01], [-c10, c00]]: C rotated by a half turn, transposed, signed
    c_adj = c_blk[..., ::-1, ::-1].swapaxes(-1, -2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    product = a_blk @ c_adj.swapaxes(-1, -2) @ b_blk @ c_adj
    tau = np.trace(product, axis1=-2, axis2=-1)
    disc = np.maximum((a - b) ** 2 + 4.0 * (tau - c * (a + b)), 0.0)
    nu_formula = np.sqrt(np.maximum(0.5 * (delta - np.sqrt(disc)), 0.0))

    nu_spectral = symplectic_eigenvalues(transposed)[..., 0]
    bad = np.abs(nu_formula - nu_spectral) > SPECTRAL_TOL * np.maximum(1.0, nu_spectral)
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        entry = f" at stack index {', '.join(str(int(i)) for i in k)}" if k else ""
        raise NumericError(
            f"symplectic eigenvalue routes disagree{entry}: "
            f"formula {nu_formula[k]:.12e} vs spectrum {nu_spectral[k]:.12e}"
        )
    return float(nu_formula) if nu_formula.ndim == 0 else nu_formula


def min_symplectic_pt_grid(x: np.ndarray, p: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Smallest PT symplectic eigenvalue over a time grid, from normal modes.

    x and p have shape (..., 2, len(times)): the quadrature variances of the
    uncorrelated modes (a1 +/- b1)/sqrt(2) (see modes.normal_mode_variances),
    one curve per leading index. Flipping p2 swaps p_+ and p_-, so the
    transposed state pairs x_+ with p_- and x_- with p_+:
    nu_min = sqrt(min(x_+ p_-, x_- p_+)), of shape (..., len(times)).

    Every point is checked. nu_min must be finite and positive
    (ContractViolation). Each normal mode must be a physical state: x > 0,
    p > 0 and x p >= 1 - SPECTRAL_TOL (NumericError). The error is the one
    the first failing curve raises on its own: its first failing check, at
    its first bad time.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    times = np.asarray(times, dtype=float)
    if x.shape != p.shape or x.shape[-2:] != (2, len(times)):
        raise ContractViolation(
            f"variances must have shape (..., 2, {len(times)}), got {x.shape} and {p.shape}"
        )
    nu = np.sqrt(np.minimum(x[..., 0, :] * p[..., 1, :], x[..., 1, :] * p[..., 0, :]))
    unphysical = ~((x > 0.0) & (p > 0.0) & (x * p >= 1.0 - SPECTRAL_TOL)).all(axis=-2)
    nonpositive = ~(np.isfinite(nu) & (nu > 0.0))
    if nonpositive.any() or unphysical.any():
        failed = nonpositive.any(axis=-1) | unphysical.any(axis=-1)
        c = np.unravel_index(np.argmax(failed), failed.shape)
        for error, bad, what in (
            (ContractViolation, nonpositive[c], "nu_min must be positive"),
            (NumericError, unphysical[c], "normal modes break the uncertainty bound x p >= 1"),
        ):
            if bad.any():
                k = int(np.argmax(bad))
                raise error(
                    f"{what} at t = {float(times[k])!r}: nu_min = {float(nu[c][k])!r}, "
                    f"x = {x[c][:, k].tolist()}, p = {p[c][:, k].tolist()}"
                )
    return nu


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
    """Logarithmic negativity between a1 and b1 in the given state or state stack."""
    cov = quadrature_covariance(first_mode_block(state))
    nu_min = min_symplectic_pt(cov)
    return NegativityResult(nu_min=nu_min, log_negativity=log_negativity(nu_min))
