"""Exact microscopic dynamics of one site pair, used to certify the mode model.

Everything here works at the level of the full 16-dimensional operator space
of a single site pair: the Heisenberg generator as an explicit matrix, its
restriction to the eight closing observables, and finite-size Weyl
expectations whose central limit fixes the Gaussian fluctuation state. The
mesoscopic propagation never depends on this module; it exists so the two
routes can be compared.

liouvillian() builds the generator of every parameter set of an array-valued
ModelParams in one expression and extract_mode_generator() restricts a stack
in one product, so a parameter grid costs a few array operations rather than
a Python loop per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ClosureError, ContractViolation
from .linalg import STRUCTURAL_TOL, expm
from .modes import mode_map
from .sites import (
    ModelParams,
    ThermalSiteState,
    dissipation_matrix,
    fluctuation_inner,
    frozen,
    lindblad_ops,
    observables,
    site_hamiltonian,
)

CLOSURE_TOL = 1e-10

_DIM = 4


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacked vector of a 4x4 operator, the basis of the 16x16 generators."""
    return np.asarray(x, dtype=complex).flatten(order="F")


def _unvec(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((_DIM, _DIM), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Heisenberg generator as a 16x16 matrix over column-stacked operators.

    matrix may be a stack (..., 16, 16) of generators; apply() takes one.
    """

    matrix: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _unvec(self.matrix @ vec(x))


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
    d0 = dissipation_matrix(0.0).matrix
    d1 = dissipation_matrix(1.0).matrix - d0
    h1 = site_hamiltonian(ModelParams(epsilon=1.0))
    return tuple(
        frozen(piece)
        for piece in (_commutator_part(h1), _dissipator_part(d0), _dissipator_part(d1))
    )


def liouvillian(params: ModelParams) -> Superoperator:
    """Heisenberg generator L[X] = i[H,X] + (1/2) sum D_mn [[V_m,X],V_n^dag].

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
    return Superoperator(matrix=gen)


@dataclass(frozen=True)
class GeneratorExtraction:
    """Restriction of the generator to the span of the eight observables.

    identity_coeffs[a] is the identity component of L[x_a]; the observables
    are traceless and the dynamics unital, so every entry must vanish.
    residual is the largest entry of any L[x_a] minus its projection onto the
    span of the identity and the observables. mode_generator is the
    restriction in the ladder basis (a1, a2, b1, b2, and conjugates); its
    upper-left block, annihilation_block, is the drift matrix of the
    mesoscopic propagation, transposed. For a stack of generators or an
    array-valued ModelParams, identity_coeffs, mode_generator and annihilation_block
    are stacks over the broadcast leading axes, and residual is the largest
    over all of them.
    """

    identity_coeffs: np.ndarray
    residual: float
    mode_generator: np.ndarray
    annihilation_block: np.ndarray


@lru_cache(maxsize=1)
def _observable_basis() -> np.ndarray:
    """Read-only 16x9 columns vec(1), vec(x_1) .. vec(x_8)."""
    return frozen(np.column_stack([vec(x) for x in (np.eye(_DIM),) + observables().ops]))


def extract_mode_generator(sup: Superoperator, params: ModelParams) -> GeneratorExtraction:
    """Restrict sup to the observables and express it in the modes of params.

    The projection reads only sup; params fixes the mode basis. sup may hold
    a stack of generators of shape G + (16, 16) and params have shape M: all
    generators are projected in one product and then conjugated by the mode
    maps of shape M + (8, 8), G broadcast against M. One generator with
    params over temperatures is thus projected once and expressed in each
    temperature's modes. Every matrix is bit for bit what the call on its own
    generator and parameter set returns.
    """
    # Pauli words are orthogonal under tr(x^dag y) = 4 delta, so basis^H / 4 projects.
    basis = _observable_basis()
    images = sup.matrix @ basis[:, 1:]
    components = basis.conj().T @ images / 4.0
    residual = float(np.abs(images - basis @ components).max())
    if not residual <= CLOSURE_TOL:
        raise ClosureError(
            f"observables do not close under the generator: residual {residual:.3e}"
        )
    identity, coeffs = components[..., 0, :], components[..., 1:, :]

    mm = mode_map(params)
    mode_generator = mm.matrix @ coeffs.swapaxes(-1, -2) @ mm.inverse
    return GeneratorExtraction(
        identity_coeffs=identity,
        residual=residual,
        mode_generator=mode_generator,
        annihilation_block=mode_generator[..., :4, :4].copy(),
    )


def _require_hermitian(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (_DIM, _DIM):
        raise ContractViolation(f"{name} must be 4x4, got shape {x.shape}")
    if not np.abs(x - x.conj().T).max(initial=0.0) <= STRUCTURAL_TOL:
        raise ContractViolation(f"{name} must be Hermitian")
    return x


def require_sites(n: float) -> int:
    """A site count as an int; raises ContractViolation unless a positive integer."""
    # an int of any size compares exactly; the range test keeps NaN and inf from int()
    if not 1 <= n < np.inf or int(n) != n:
        raise ContractViolation(f"site count must be a positive integer, got {n!r}")
    return int(n)


def _site_weyl_unitary(
    x: np.ndarray, n: int | np.ndarray, state: ThermalSiteState
) -> np.ndarray:
    """One site's factor exp(i(x - w(x))/sqrt(n)) of the centred Weyl operator.

    x may be a stack of observables and n an array of site counts: one call
    of expm gives every observable's factor at every count, shape
    x.shape[:-2] + n.shape + (4, 4).
    """
    centered = x - np.asarray(state.expectation(x))[..., None, None] * np.eye(_DIM)
    # one unit axis per axis of n, so that each observable meets every count
    centered = centered.reshape(centered.shape[:-2] + (1,) * np.ndim(n) + (_DIM, _DIM))
    return expm(centered, 1.0j / np.sqrt(np.asarray(n, dtype=float)))


def weyl_expectation_finite(x: np.ndarray, n: int, state: ThermalSiteState) -> complex:
    """Exact n-site expectation of the Weyl operator of the mean-centered sum.

    Sites are independent and identically prepared, so the expectation
    factorizes into the n-th power of one site factor.
    """
    x = _require_hermitian(x, "Weyl argument")
    n = require_sites(n)
    return state.expectation(_site_weyl_unitary(x, n, state)) ** n


def weyl_expectation_limit(x: np.ndarray, state: ThermalSiteState) -> float:
    """Large-n limit exp(-<x,x>/2) of the single Weyl expectation."""
    return float(_gaussian_limit(_require_hermitian(x, "Weyl argument"), state))


def _gaussian_limit(x: np.ndarray, state: ThermalSiteState) -> np.ndarray:
    """exp(-<x,x>/2) for an observable or a stack of them."""
    return np.exp(-0.5 * np.real(fluctuation_inner(x, x, state)))


def clt_table(state: ThermalSiteState, sites: tuple[int, ...]) -> list[tuple]:
    """(limit, finite-n values, |errors|, monotone) per observable x_1 .. x_8.

    monotone is the convergence test: every error below the one before it.
    It reads convergence only if n rises, so the site counts must be strictly
    increasing; ContractViolation otherwise. The eight observables are
    diagonalised by one eigh, for all site counts at once.
    """
    if any(a >= b for a, b in zip(sites, sites[1:])):
        raise ContractViolation(f"site counts must be strictly increasing, got {list(sites)}")
    sites = tuple(require_sites(n) for n in sites)
    ops = np.array(observables().ops)
    limits = _gaussian_limit(ops, state)
    factors = state.expectation(_site_weyl_unitary(ops, np.array(sites), state))
    table = []
    for limit, row in zip(limits.tolist(), factors):
        # Python's complex ** int, as in weyl_expectation_finite: numpy's power
        # rounds differently at large n, and the errors read the last bits.
        finite = [complex(f) ** n for f, n in zip(row, sites)]
        errors = [abs(f - limit) for f in finite]
        table.append((limit, finite, errors, all(a > b for a, b in zip(errors, errors[1:]))))
    return table
