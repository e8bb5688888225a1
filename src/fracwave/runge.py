"""Runge-type approximation by exterior controls.

Interior restrictions of exterior-controlled solutions are dense in
space-time L^2, so any target trajectory can be approached by fitting
control coefficients.  The fit is Tikhonov-regularized least squares over
a finite stack of control states u_a (the `forward_map` output),

    min_c  || sum_a c_a u_a - psi ||^2  +  alpha ||c||^2,

solved by filter factors on a factorization, never through the normal
equations.  Weighted by sqrt(h w_t) (the trapezoid weights of `st_gram`),
the states and the target are the columns of one tall matrix; its QR
triangle holds R_11 and Q^T psi, so Q is never formed.  With the SVD
R_11 = P diag(sigma) W^T, each alpha costs c = W diag(sigma / (sigma^2 +
alpha)) P^T Q^T psi.  sigma^2 are the eigenvalues of the Gram matrix
G_ab = <u_a, u_b>, so alpha keeps its Gram scale and cond(G) =
(sigma_max / sigma_min)^2, but G, which squares the condition number, is
never formed.  The misfit is read off the same factorization,

    misfit = hypot(|| alpha / (sigma^2 + alpha) P^T Q^T psi ||, |R_BB|),

R_BB being the target's part off the span (none with fewer rows than
states).  Recomputed from the superposition, whose ||c|| reaches 1e10 on
a wide window, it rose as alpha fell.

Two monotonicity facts matter downstream.  Shrinking alpha never increases
the misfit (exact for any fixed basis, and kept in floating point by the
filter factors alpha / (sigma^2 + alpha), which fall with alpha), and
enlarging the basis never increases the full objective (nested feasible
sets); the misfit alone of nested prefixes states[:k] may move either way
at fixed alpha.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import _trajectory, st_inner, trapezoid_weights
from .grid import Grid

__all__ = ["st_norm", "RungeSolution", "approximate_target"]


def st_norm(a: np.ndarray, grid: Grid) -> float:
    return np.sqrt(max(st_inner(a, a, grid), 0.0))


@dataclass(frozen=True)
class RungeSolution:
    """Fitted coefficients, their superposition and the fit quality read off
    the factorization (see the module docstring)."""

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
    if not np.isfinite(states).all():
        raise ValueError("states contain non-finite values")
    if len(alphas) == 0 or not all(0 < a < np.inf for a in alphas):
        raise ValueError(f"alphas must be positive and nonempty, got {alphas}")

    n_b = states.shape[0]
    root = np.sqrt(grid.h * trapezoid_weights(grid.n_t, grid.dt))[:, None]
    cols = np.empty((n_b + 1, *target.shape))  # the tall matrix, column-major
    np.multiply(states, root, out=cols[:-1])
    np.multiply(target, root, out=cols[-1])
    r = np.linalg.qr(cols.reshape(n_b + 1, -1).T, mode="r")
    off = abs(r[n_b, n_b]) if len(r) > n_b else 0.0  # the target off the span
    p, sig, wt = np.linalg.svd(r[:n_b, :-1], full_matrices=False)
    moments = p.T @ r[:n_b, -1]
    low = sig[-1] if len(sig) == n_b else 0.0  # fewer rows than states: singular
    cond = float((sig[0] / low) ** 2) if low > 0 else np.inf
    scale = st_norm(target, grid)
    out = []
    for alpha in alphas:
        coeffs = wt.T @ (sig / (sig**2 + alpha) * moments)
        misfit = float(np.hypot(np.linalg.norm(alpha / (sig**2 + alpha) * moments), off))
        out.append(RungeSolution(
            coeffs=coeffs,
            alpha=float(alpha),
            misfit=misfit,
            residual=misfit / (scale + 1e-300),
            coeff_norm=float(np.linalg.norm(coeffs)),
            achieved=np.einsum("a,atx->tx", coeffs, states),
            gram_cond=cond,
        ))
    return out
