"""Runge-type approximation by exterior controls.

Interior restrictions of exterior-controlled solutions are dense in
space-time L^2, so any target trajectory can be approached by fitting
control coefficients.  The fit is Tikhonov-regularized least squares over
a finite control basis,

    min_c  || sum_a c_a u_a - psi ||^2  +  alpha ||c||^2,

solved through the normal equations (G + alpha I) c = beta with the
space-time Gram matrix G_ab = <u_a, u_b> and moment vector
beta_a = <u_a, psi>.  The reported misfit is recomputed directly from the
achieved superposition, never inferred from the normal equations.

Two monotonicity facts matter downstream.  Shrinking alpha never increases
the misfit (exact for any fixed basis), and enlarging the basis never
increases the full objective (nested feasible sets); the misfit alone may
move either way under enrichment at fixed alpha, so sweeps report both.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .fields import ExteriorControl
from .dnmap import _control_states
from .forward import st_gram, st_inner
from .fracop import FracOperator
from .grid import Grid

__all__ = [
    "st_norm",
    "forward_map",
    "RungeSolution",
    "approximate_target",
    "sweep_alpha",
    "sweep_enrichment",
    "dump_sweep_csv",
]


def st_norm(a: np.ndarray, grid: Grid) -> float:
    return np.sqrt(max(st_inner(a, a, grid), 0.0))


def forward_map(
    controls: list[ExteriorControl],
    op: FracOperator,
    grid: Grid,
    q: np.ndarray | None = None,
) -> np.ndarray:
    """Interior trajectories of the controlled states, stacked
    (n_controls, n_t + 1, n_int).  This is the expensive step; reuse its
    output across alpha sweeps and nested-basis studies."""
    return _control_states(controls, op, grid, q)


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


def _fit(
    states: np.ndarray,
    target: np.ndarray,
    alpha: float,
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    gram = st_gram(states, states, grid)
    beta = st_gram(states, target[None], grid)[:, 0]
    system = gram + alpha * np.eye(gram.shape[0])
    coeffs = cho_solve(cho_factor(system), beta)
    return coeffs, gram


def approximate_target(
    target: np.ndarray,
    controls: list[ExteriorControl],
    op: FracOperator,
    grid: Grid,
    q: np.ndarray | None = None,
    *,
    alpha: float = 1e-8,
    states: np.ndarray | None = None,
) -> RungeSolution:
    """Best controlled approximation of an interior target trajectory.

    target is (n_t + 1, n_int).  Pass precomputed `states` (the forward_map
    output for these controls) to amortize solves across sweeps.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    target = np.asarray(target, dtype=float)
    if target.shape != (grid.n_t + 1, grid.n_int):
        raise ValueError(f"target shape {target.shape} != {(grid.n_t + 1, grid.n_int)}")
    if states is None:
        states = forward_map(controls, op, grid, q)
    elif states.shape != (len(controls), grid.n_t + 1, grid.n_int):
        raise ValueError("states do not match the control list and grid")

    coeffs, gram = _fit(states, target, alpha, grid)
    achieved = np.einsum("a,atx->tx", coeffs, states)
    misfit = st_norm(achieved - target, grid)
    scale = st_norm(target, grid)
    eigs = np.linalg.eigvalsh(gram)
    cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0 else np.inf
    return RungeSolution(
        coeffs=coeffs,
        alpha=float(alpha),
        misfit=misfit,
        residual=misfit / (scale + 1e-300),
        coeff_norm=float(np.linalg.norm(coeffs)),
        achieved=achieved,
        gram_cond=cond,
    )


def sweep_alpha(
    target: np.ndarray,
    controls: list[ExteriorControl],
    op: FracOperator,
    grid: Grid,
    q: np.ndarray | None = None,
    *,
    alphas: tuple[float, ...] = tuple(10.0**-k for k in range(2, 11)),
) -> list[RungeSolution]:
    """Regularization sweep at a fixed basis; states are solved once."""
    states = forward_map(controls, op, grid, q)
    return [
        approximate_target(target, controls, op, grid, q, alpha=a, states=states)
        for a in alphas
    ]


def sweep_enrichment(
    target: np.ndarray,
    controls: list[ExteriorControl],
    op: FracOperator,
    grid: Grid,
    q: np.ndarray | None = None,
    *,
    alpha: float = 1e-8,
    sizes: tuple[int, ...] | None = None,
) -> list[tuple[int, RungeSolution]]:
    """Nested-basis study: fit with the first k controls for each k."""
    states = forward_map(controls, op, grid, q)
    if sizes is None:
        sizes = tuple(range(1, len(controls) + 1))
    out = []
    for k in sizes:
        if not 1 <= k <= len(controls):
            raise ValueError(f"basis size {k} out of range 1..{len(controls)}")
        sol = approximate_target(
            target, controls[:k], op, grid, q, alpha=alpha, states=states[:k]
        )
        out.append((k, sol))
    return out


def dump_sweep_csv(path: str | Path, rows: list[RungeSolution]) -> None:
    lines = ["alpha,misfit,residual,coeff_norm,objective,gram_cond"]
    for r in rows:
        lines.append(
            f"{float(r.alpha)!r},{float(r.misfit)!r},{float(r.residual)!r},"
            f"{float(r.coeff_norm)!r},{float(r.objective)!r},{float(r.gram_cond)!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
