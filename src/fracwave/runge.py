"""Runge-type approximation by exterior controls.

Interior restrictions of exterior-controlled solutions are dense in
space-time L^2, so any target trajectory can be approached by fitting
control coefficients.  The fit is Tikhonov-regularized least squares over
a finite stack of control states u_a (the `forward_map` output),

    min_c  || sum_a c_a u_a - psi ||^2  +  alpha ||c||^2,

solved through the normal equations (G + alpha I) c = beta with the
space-time Gram matrix G_ab = <u_a, u_b> and moment vector
beta_a = <u_a, psi>.  One `approximate_target` call forms G, beta, the
spectrum of G and ||psi|| once and solves one Cholesky system per alpha.
The reported misfit is recomputed directly from the achieved
superposition, never inferred from the normal equations.

Two monotonicity facts matter downstream.  Shrinking alpha never increases
the misfit (exact for any fixed basis), and enlarging the basis never
increases the full objective (nested feasible sets).  An enrichment study
fits the prefixes states[:k] of one stack; there the misfit alone may move
either way at fixed alpha, so a study reports both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import _trajectory, st_gram, st_inner
from .grid import Grid

__all__ = [
    "st_norm",
    "RungeSolution",
    "approximate_target",
]


def st_norm(a: np.ndarray, grid: Grid) -> float:
    return np.sqrt(max(st_inner(a, a, grid), 0.0))


@dataclass(frozen=True)
class RungeSolution:
    """Fitted coefficients and directly recomputed fit quality."""

    coeffs: np.ndarray
    alpha: float
    misfit: float  # || achieved - target ||
    residual: float  # misfit / || target ||
    coeff_norm: float
    achieved: np.ndarray  # (n_t + 1, n_int)
    gram_cond: float

    @property
    def objective(self) -> float:
        return self.misfit**2 + self.alpha * self.coeff_norm**2


def _fit(gram: np.ndarray, beta: np.ndarray, alpha: float) -> np.ndarray:
    """Coefficients of (gram + alpha I) c = beta by Cholesky; raises
    LinAlgError where the system is not positive definite."""
    low = np.linalg.cholesky(gram + alpha * np.eye(gram.shape[0]))
    return np.linalg.solve(low.T, np.linalg.solve(low, beta))


def approximate_target(
    target: np.ndarray,
    states: np.ndarray,
    grid: Grid,
    alphas: tuple[float, ...],
) -> list[RungeSolution]:
    """Best approximation of an interior target trajectory (n_t+1, n_int)
    by a superposition of a state stack (B, n_t+1, n_int), one solution per
    alpha in the order given."""
    target = _trajectory(target, grid.n_int, grid)
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[0] == 0 or states.shape[1:] != target.shape:
        raise ValueError(f"states shape {states.shape} is not (B > 0, *{target.shape})")
    if len(alphas) == 0 or not all(a > 0 for a in alphas):
        raise ValueError(f"alphas must be positive and nonempty, got {alphas}")

    gram = st_gram(states, states, grid)
    beta = st_gram(states, target[None], grid)[:, 0]
    eigs = np.linalg.eigvalsh(gram)
    cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0 else np.inf
    scale = st_norm(target, grid)
    out = []
    for alpha in alphas:
        coeffs = _fit(gram, beta, alpha)
        achieved = np.einsum("a,atx->tx", coeffs, states)
        misfit = st_norm(achieved - target, grid)
        out.append(RungeSolution(
            coeffs=coeffs,
            alpha=float(alpha),
            misfit=misfit,
            residual=misfit / (scale + 1e-300),
            coeff_norm=float(np.linalg.norm(coeffs)),
            achieved=achieved,
            gram_cond=cond,
        ))
    return out
