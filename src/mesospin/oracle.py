"""Exact microscopic dynamics of one site pair, used to certify the mode model.

Everything here works at the level of the full 16-dimensional operator space
of a single site pair: the Heisenberg generator as an explicit matrix, its
restriction to the eight closing observables, and finite-size Weyl
expectations whose central limit fixes the Gaussian fluctuation state. The
mesoscopic propagation never depends on this module; it exists so the two
routes can be compared.

liouvillian() builds the generator of every parameter set of an array-valued
ModelParams in one expression, as one plain S + (16, 16) array, and
extract_mode_generator() restricts such a stack in one product, so a
parameter grid costs a few array operations rather than a Python loop per
point. The thermal state enters every function here as its four populations
(sites.thermal_state), and the modes as the array that modes.mode_operators
returns: the caller builds each once and hands it in.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import STRUCTURAL_TOL, ClosureError, ContractViolation
from .sites import (
    ModelParams,
    dissipation_matrix,
    expectation,
    fluctuation_inner,
    frozen,
    lindblad_ops,
    observables,
    site_hamiltonian,
)

CLOSURE_TOL = 1e-10
# Site count from which clt_table reads the error off the cumulant series.
SERIES_SITES = 1e5

_DIM = 4


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacked vector of a 4x4 operator, the basis of the 16x16 generators.

    A stack S + (4, 4) gives S + (16,), one vector per operator.
    """
    x = np.asarray(x, dtype=complex)
    return x.swapaxes(-1, -2).reshape(x.shape[:-2] + (_DIM**2,))


def _commutator_part(h: np.ndarray) -> np.ndarray:
    """i[H, X] as a 16x16 matrix."""
    eye = np.eye(_DIM)
    return 1.0j * (np.kron(eye, h) - np.kron(h.T, eye))


def _dissipator_part(d: np.ndarray) -> np.ndarray:
    """(1/2) sum D_mn [[V_m, X], V_n^dag] as a 16x16 matrix, linear in D.

    Expanding the double commutator into V_m X V_n^dag + V_n^dag X V_m
    - X A - B X with A = sum D_mn V_m V_n^dag and B = sum D_mn V_n^dag V_m,
    every term is assembled in closed form from vec(AXB) = (B^T (x) A) vec(X).
    """
    v = np.array(lindblad_ops())
    vd = v.conj().transpose(0, 2, 1)
    eye = np.eye(_DIM)
    sandwich = np.einsum("mn,nji,mkl->ikjl", d, vd, v) + np.einsum(
        "mn,mji,nkl->ikjl", d, v, vd
    )
    a = np.einsum("mn,mij,njk->ik", d, v, vd)
    b = np.einsum("mn,nij,mjk->ik", d, vd, v)
    return 0.5 * (
        sandwich.reshape(_DIM**2, _DIM**2) - np.kron(a.T, eye) - np.kron(eye, b)
    )


@lru_cache(maxsize=1)
def generator_pieces() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (L_H, L_0, L_1) with L(eps, gamma) = eps L_H + L_0 + gamma L_1.

    The Hamiltonian is linear in epsilon and the Kossakowski matrix affine in
    gamma, and neither the generator nor its pieces depend on the temperature:
    L_H is the commutator part at epsilon = 1, L_0 the dissipator of D(0) and
    L_1 that of D(1) - D(0). Built on first use, once per process.
    """
    d0 = dissipation_matrix(0.0)
    d1 = dissipation_matrix(1.0) - d0
    h1 = site_hamiltonian(ModelParams(epsilon=1.0))
    return tuple(
        frozen(piece)
        for piece in (_commutator_part(h1), _dissipator_part(d0), _dissipator_part(d1))
    )


def liouvillian(params: ModelParams) -> np.ndarray:
    """Heisenberg generator L[X] = i[H,X] + (1/2) sum D_mn [[V_m,X],V_n^dag].

    L is a 16x16 matrix over column-stacked operators: vec(L[X]) = L @ vec(X).
    The half in front of the double commutator makes the generator agree with
    the standard completely positive form (sum over both Lindblad pairings);
    unitality L[1] = 0 holds exactly by construction and is checked. The
    matrix is eps L_H + L_0 + gamma L_1 from generator_pieces(). params of
    shape S gives the S + (16, 16) stack from the same one expression, each
    generator bit for bit its own call's; every one must be unital, and the
    error reports the largest ||L[1]||.
    """
    l_h, l_0, l_1 = generator_pieces()
    epsilon = np.asarray(params.epsilon)[..., None, None]
    gamma = np.asarray(params.gamma)[..., None, None]
    gen = epsilon * l_h + l_0 + gamma * l_1
    unital = np.abs(gen @ vec(np.eye(_DIM))).max(axis=-1)
    if not np.all(unital <= STRUCTURAL_TOL):
        raise ClosureError(f"generator is not unital: ||L[1]|| = {np.max(unital):.3e}")
    return gen


@lru_cache(maxsize=1)
def _observable_basis() -> np.ndarray:
    """Read-only 16x8 columns vec(x_1) .. vec(x_8)."""
    return frozen(np.column_stack([vec(x) for x in observables()]))


def extract_mode_generator(
    generator: np.ndarray, modes: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, float]:
    """Restrict the generator to the observables and read it in the given modes.

    Returns (mode_generator, residual). The closure test reads only the
    generator: residual is the largest entry of any L[x_a] minus its
    projection onto span(x_1 .. x_8). The fluctuation of the identity
    vanishes, so an identity component of L[x_a] is a leak like any word
    outside the span; above CLOSURE_TOL it raises ClosureError.
    mode_generator is the restriction in the ladder basis (a1, a2, b1, b2,
    and conjugates): entry (m, k) is the coefficient of mode k in the image
    of mode m, and its upper-left 4x4 block is the drift matrix of the
    mesoscopic propagation, transposed. It is read off the canonical
    commutators of the modes alpha = (a, a^dag), a = modes as
    modes.mode_operators returns them, in the thermal state w of populations
    weights, as sites.thermal_state returns them: with
    w([a_j, a_k^dag]) = delta_jk and w([a_j, a_k]) = 0, the coefficient of a_k
    in L[alpha_m] is w([L[alpha_m], a_k^dag]) and that of a_k^dag is
    w([a_k, L[alpha_m]]). The generator may be a stack of shape G + (16, 16)
    and modes and weights of one parameter grid M, shapes M + (4, 4, 4) and
    M + (4,): every entry comes from one product, G broadcast against M,
    mode_generator is the stack over the broadcast axes and residual the
    largest over all of it. One generator with the modes of several
    temperatures is thus read in each temperature's modes. Every matrix is
    bit for bit what the call on its own generator, modes and weights returns.
    """
    # Pauli words are orthogonal under tr(x^dag y) = 4 delta, so basis^H / 4 projects.
    basis = _observable_basis()
    images = generator @ basis
    residual = float(np.abs(images - basis @ (basis.conj().T @ images / 4.0)).max())
    if not residual <= CLOSURE_TOL:
        raise ClosureError(
            f"observables do not close under the generator: residual {residual:.3e}"
        )

    alpha = np.concatenate([modes, modes.conj().swapaxes(-1, -2)], axis=-3)
    # w([Y, d]) = tr(Y E) = vec(E^T) . vec(Y) with E = d rho - rho d, where d
    # is a_k^dag for an annihilation column and -a_k for a creation column.
    # rho = diag(weights), so E_ij is d_ij (w_j - w_i), one elementwise product.
    d = np.concatenate([alpha[..., 4:, :, :], -modes], axis=-3)
    e = d * (weights[..., None, None, :] - weights[..., None, :, None])
    mode_images = vec(alpha) @ generator.swapaxes(-1, -2)  # row m is vec(L[alpha_m])
    return mode_images @ vec(e.swapaxes(-1, -2)).swapaxes(-1, -2), residual


def _require_hermitian(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (_DIM, _DIM):
        raise ContractViolation(f"{name} must be 4x4, got shape {x.shape}")
    if not np.abs(x - x.conj().T).max(initial=0.0) <= STRUCTURAL_TOL:
        raise ContractViolation(f"{name} must be Hermitian")
    return x


def require_sites(n: float) -> int:
    """A site count as an int; raises ContractViolation unless a positive integer."""
    # n may be an int or a Decimal of any size, and int(n) != n compares it exactly;
    # the float range test keeps NaN, inf and a count beyond any float from int()
    if not 1 <= float(n) < np.inf or int(n) != n:
        raise ContractViolation(f"site count must be a positive integer, got {n}")
    return int(n)


def _centred(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """x - w(x) for an observable or a stack of them; ContractViolation unless finite."""
    centered = x - np.asarray(expectation(weights, x))[..., None, None] * np.eye(_DIM)
    if not np.all(np.isfinite(centered)):
        raise ContractViolation("Weyl argument must be finite")
    return centered


def _weyl_powers(centered: np.ndarray, n: int | np.ndarray, weights: np.ndarray) -> np.ndarray:
    """w(exp(i(x - w(x))/sqrt(n)))^n, the n-th power of one site's centred Weyl factor.

    With the eigenpairs (lambda_k, P_k) of the centred observable, the factor
    is f = 1 + z, z = sum_k w(P_k) expm1(i lambda_k/sqrt(n)), and f^n is taken
    as exp(n (log|f| + i arg f)) with log|f| = log1p(2a + a^2 + b^2)/2 for
    z = a + ib: no rounding of f itself is raised to the n-th power. centered
    may be a stack of observables and n an array of site counts: one eigh
    serves every count, and the result has shape centered.shape[:-2] + n.shape.
    """
    n = np.asarray(n, dtype=float)
    lam, vectors = np.linalg.eigh(centered)
    mass = (weights[..., None] * (vectors * vectors.conj()).real).sum(axis=-2)  # w(P_k)
    # one unit axis per axis of n, so that each observable meets every count
    shape = lam.shape[:-1] + (1,) * n.ndim + (_DIM,)
    z = (mass.reshape(shape) * np.expm1(1j * lam.reshape(shape) / np.sqrt(n)[..., None])).sum(-1)
    a, b = z.real, z.imag
    return np.exp(n * (0.5 * np.log1p(2.0 * a + a * a + b * b) + 1j * np.arctan2(b, 1.0 + a)))


def _series_errors(centered: np.ndarray, n: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """|f^n / limit - 1| = |expm1(n R)|, shaped as _weyl_powers, from cumulants kappa_3 .. kappa_6.

    log f^n = -kappa_2/2 + n R, n R = sum_k kappa_k i^k theta^(k-2)/k! with
    theta = n^(-1/2), and the moments w(x^k) of the centred x give the
    cumulants. The first omitted term is of order theta^6: from n = 1e5 the
    series is right to about 1e-11 relative, f^n - limit only to 2e-15 n.
    """
    n = np.asarray(n, dtype=float)
    shape = centered.shape[:-2] + (1,) * n.ndim
    mu2, mu3, mu4, mu5, mu6 = (
        expectation(weights, np.linalg.matrix_power(centered, k)).real.reshape(shape)
        for k in range(2, 7)
    )
    kappa = (mu3, mu4 - 3.0 * mu2**2, mu5 - 10.0 * mu3 * mu2,
             mu6 - 15.0 * mu4 * mu2 - 10.0 * mu3**2 + 30.0 * mu2**3)
    terms = (-1j / 6.0, 1.0 / 24.0, 1j / 120.0, -1.0 / 720.0)  # i^k / k!
    n_r = sum(c * k * n ** (-0.5 * (j + 1)) for j, (c, k) in enumerate(zip(terms, kappa)))
    return np.abs(np.expm1(n_r))


def weyl_expectation_finite(x: np.ndarray, n: int, weights: np.ndarray) -> complex:
    """Exact n-site expectation of the Weyl operator of the mean-centered sum.

    Every site is in the thermal state of populations weights. Sites are
    independent and identically prepared, so the expectation factorizes into
    the n-th power of one site factor.
    """
    x = _require_hermitian(x, "Weyl argument")
    return complex(_weyl_powers(_centred(x, weights), require_sites(n), weights))


def weyl_expectation_limit(x: np.ndarray, weights: np.ndarray) -> float:
    """Large-n limit exp(-<x,x>/2) of the single Weyl expectation."""
    return float(_gaussian_limit(_require_hermitian(x, "Weyl argument"), weights))


def _gaussian_limit(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """exp(-<x,x>/2) for an observable or a stack of them."""
    return np.exp(-0.5 * np.real(fluctuation_inner(x, x, weights)))


def clt_table(weights: np.ndarray, sites: tuple[float, ...]) -> list[tuple]:
    """(limit, finite-n values, |errors|, monotone) per observable x_1 .. x_8.

    monotone is the convergence test: every error below the one before it.
    It reads convergence only if n rises, so this is where the site counts
    are checked: positive integers, strictly increasing; ContractViolation
    otherwise. The eight observables are diagonalised by one eigh, for all
    site counts at once. From SERIES_SITES on, where the difference of finite
    value and limit loses more digits than the series, an error is
    limit |expm1(n R)|.
    """
    sites = tuple(require_sites(n) for n in sites)
    if any(a >= b for a, b in zip(sites, sites[1:])):
        raise ContractViolation(f"site counts must be strictly increasing, got {list(sites)}")
    ops = np.array(observables())
    centered = _centred(ops, weights)
    limits = _gaussian_limit(ops, weights)[:, None]
    finites = _weyl_powers(centered, sites, weights)
    series = limits * _series_errors(centered, sites, weights)
    errors = np.where(np.array(sites, dtype=float) < SERIES_SITES, abs(finites - limits), series)
    return [
        (limit, finite, error, all(a > b for a, b in zip(error, error[1:])))
        for limit, finite, error in zip(limits[:, 0].tolist(), finites.tolist(), errors.tolist())
    ]
