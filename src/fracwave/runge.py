"""Runge-type approximation by exterior controls.

Interior restrictions of exterior-controlled solutions are dense in
space-time L^2, so any target trajectory can be approached by fitting
control coefficients.  The fit is Tikhonov-regularized least squares over
the states u_a that B exterior controls drive under a potential q,

    min_c  || sum_a c_a u_a - psi ||^2  +  alpha ||c||^2,

solved by filter factors on a factorization, never through the normal
equations.  Weighted by sqrt(h w_t) (the trapezoid weights of `st_gram`),
the states and the target are the columns of one tall matrix; its QR
triangle holds R_11 and Q^T psi, so Q is never formed.  The matrix is
never held either: the fit sweeps the controls itself (`forward._sweep`)
and folds each time slab of rows into a running triangle,
R <- qr([R; slab rows]).  R^T R stays the Gram matrix of the rows folded
so far, so the last R is the whole matrix's triangle up to the signs of
its rows.  With the SVD R_11 = P diag(sigma) W^T, each alpha costs
c = W diag(sigma / (sigma^2 + alpha)) P^T Q^T psi.  sigma^2 are the
eigenvalues of the Gram matrix G_ab = <u_a, u_b>, so alpha keeps its Gram
scale and cond(G) = (sigma_max / sigma_min)^2, but G, which squares the
condition number, is never formed.  The misfit is read off the same
factorization,

    misfit = hypot(|| alpha / (sigma^2 + alpha) P^T Q^T psi ||, |R_BB|),

R_BB being the target's part off the span (none with fewer rows than
states).  Recomputed from the superposition, whose ||c|| reaches 1e10 on
a wide window, it rose as alpha fell.

Two monotonicity facts matter downstream.  Shrinking alpha never increases
the misfit (exact for any fixed basis, and kept in floating point by the
filter factors alpha / (sigma^2 + alpha), which fall with alpha), and
enlarging the basis never increases the full objective (nested feasible
sets); the misfit alone of nested prefixes controls[:k] may move either
way at fixed alpha.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import _controls
from .forward import SWEEP_SLAB, _sweep, _trajectory, st_inner, trapezoid_weights
from .fracop import FracOperator
from .grid import Grid

__all__ = ["st_norm", "RungeSolution", "approximate_target"]


def st_norm(a: np.ndarray, grid: Grid) -> float:
    return np.sqrt(max(st_inner(a, a, grid), 0.0))


@dataclass(frozen=True)
class RungeSolution:
    """Fitted coefficients and the fit quality read off the factorization
    (see the module docstring).  The fit holds no states, so a caller that
    wants the superposition sum_a c_a u_a forms it from `forward_map`'s."""

    coeffs: np.ndarray
    alpha: float
    misfit: float  # || sum_a c_a u_a - target ||
    residual: float  # misfit / || target ||
    coeff_norm: float
    gram_cond: float

    @property
    def objective(self) -> float:
        return self.misfit**2 + self.alpha * self.coeff_norm**2


def approximate_target(
    target: np.ndarray,
    controls: np.ndarray,
    op: FracOperator,
    grid: Grid,
    alphas: tuple[float, ...],
    q: np.ndarray | None = None,
) -> list[RungeSolution]:
    """Best approximation of an interior target trajectory (n_t+1, n_int)
    by a superposition of the states that a control stack (B, n_t+1, n_ext)
    drives under the potential q (None: q = 0), one solution per alpha in
    the order given.  The controls are swept once, as a batch, and each
    time slab is folded into the running triangle as it arrives, so no
    state stack is held."""
    target = _trajectory(target, grid.n_int, grid)
    if len(alphas) == 0 or not all(0 < a < np.inf for a in alphas):
        raise ValueError(f"alphas must be positive and nonempty, got {alphas}")
    controls = _controls(controls, grid, (3,))
    n_b = len(controls)
    # slabs of at least B + 1 rows: each fold's QR adds as many rows as R has
    span = max(SWEEP_SLAB, -(-(n_b + 1) // grid.n_int))
    root = np.sqrt(grid.h * trapezoid_weights(grid.n_t, grid.dt))[:, None]
    r, t0 = np.empty((0, n_b + 1)), 0  # r: the running triangle, no rows yet
    for slab in _sweep(controls, q, op, grid, span):
        m = slab.shape[1]
        cols = np.empty((n_b + 1, len(r) + m * grid.n_int))  # [R; slab rows], column-major
        cols[:, : len(r)] = r.T
        rows = cols[:, len(r) :].reshape(n_b + 1, m, grid.n_int)
        np.multiply(slab, root[t0 : t0 + m], out=rows[:-1])
        np.multiply(target[t0 : t0 + m], root[t0 : t0 + m], out=rows[-1])
        r = np.linalg.qr(cols.T, mode="r")
        t0 += m

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
            gram_cond=cond,
        ))
    return out
