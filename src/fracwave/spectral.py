"""Spectral decomposition of the interior operator and the dual norms built on it.

The interior block A_int is symmetric positive definite; its eigenpairs
(lambda_k, phi_k) with the normalization h * phi_k^T phi_k = 1 give three
orthonormal families at once:

    {phi_k}                 in L^2      <u, v>   = h u^T v
    {lambda_k^-1/2 phi_k}   in H^s      <u, v>_s = h u^T A_int v
    {lambda_k^1/2 phi_k}    in H^-s     <G, H>_-s = h G^T A_int^-1 H

The dual norm therefore has the spectral form
||G||_-s = (sum_k lambda_k^-1 |G_k|^2)^(1/2) with G_k = h phi_k^T G, equal to
the variational value (h G^T A_int^-1 G)^(1/2).

Eigendecomposition is LAPACK's symmetric divide-and-conquer solver
(numpy.linalg.eigh).  At s = 1.5, n_int = 256 (condition number 2.2e6) its
L^2 Gram deviation is 2.0e-15 and its H^s Gram deviation 2.2e-10 with one
BLAS thread (1.1e-10 with two), inside the 1e-8 the identities above are
checked to.
Output is deterministic: eigenvalues ascending, each eigenvector's first
component above the noise floor positive.  Solvers read the basis of an
operator as `op.basis`, which calls `eigendecompose` once per operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fracop import FracOperator

__all__ = [
    "SpectralBasis",
    "eigendecompose",
    "project_l2",
    "reconstruct",
    "dual_norm",
    "dual_norm_variational",
]


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of the interior operator, L^2-normalized (h phi^T phi = 1)."""

    lambdas: np.ndarray  # (K,) ascending, positive
    modes: np.ndarray  # (n_int, K) columns
    h: float

    @property
    def n_modes(self) -> int:
        return self.lambdas.shape[0]

    @property
    def omegas(self) -> np.ndarray:
        return np.sqrt(self.lambdas)


def eigendecompose(op: FracOperator) -> SpectralBasis:
    """Spectral basis of the interior block (LAPACK, eigenvalues ascending);
    a non-positive eigenvalue raises np.linalg.LinAlgError."""
    lam, v = np.linalg.eigh(op.a_int)
    if lam[0] <= 0:
        raise np.linalg.LinAlgError(f"smallest eigenvalue {lam[0]:.3e} is not positive")
    # sign convention: first component above the noise floor made positive
    mag = np.abs(v)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    v = v * np.sign(v[lead, np.arange(v.shape[1])])
    # column-major, kept for its digests: the potential sweep builds its step
    # matrix from products with the modes once per sweep, and C-ordered modes
    # round those differently (every sweep digest moved) with no speed gain
    modes = np.asfortranarray(v / np.sqrt(op.h))
    lam.setflags(write=False)
    modes.setflags(write=False)
    return SpectralBasis(lambdas=lam, modes=modes, h=op.h)


def project_l2(field: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Modal coefficients <field, phi_k> = h phi_k^T field.

    Accepts one interior slice (n_int,) or a trajectory (..., n_int).
    """
    return basis.h * (np.asarray(field) @ basis.modes)


def reconstruct(coeffs: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Inverse of project_l2 on the span of the basis."""
    return np.asarray(coeffs) @ basis.modes.T


def dual_norm(g: np.ndarray, basis: SpectralBasis) -> float:
    """Spectral dual norm (sum_k lambda_k^-1 |G_k|^2)^(1/2)."""
    coeffs = project_l2(g, basis)
    return float(np.sqrt(np.sum(coeffs * coeffs / basis.lambdas)))


def dual_norm_variational(g: np.ndarray, op: FracOperator) -> float:
    """Dual norm through the Cholesky factor: sqrt(h) ||L^-1 g||.

    Independent of the spectral route; the solve on the factor only sees the
    square root of the interior condition number.
    """
    low = np.linalg.cholesky(op.a_int)
    z = np.linalg.solve(low, np.asarray(g, dtype=float))
    return float(np.sqrt(op.h) * np.linalg.norm(z))
