"""Exterior measurement maps.

For an exterior control phi the state u solves the wave equation with
u = phi on the exterior collar; the measurement is the exterior trace of
A u, observed wherever the paired test function is supported.  Pairings are
space-time sums with the package-wide trapezoid weights,

    <L phi, psi> = sum_t w_t h sum_(j exterior) (A u)(t, x_j) psi(t, x_j),

so the control-to-measurement operator is exactly reciprocal under time
reversal at the discrete level: pairing a solution driven by phi against
the reversal of psi equals pairing the solution driven by psi against the
reversal of phi.  The integral identity used for potential recovery pairs
controls with time-reversed tests, the orientation of `dn_matrix`.

Controls and tests are plain float arrays (see `fields`): `solve_exterior`
takes one (n_t+1, n_ext) control, `dn_matrix` two (B, n_t+1, n_ext) stacks.
A single pairing of a trace with a test psi is
`st_inner(dn_trace(u_full, op, grid), psi, grid)`.  The `dn` pipeline of
the command line writes the matrix to dn.json; nothing reads it back.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .fields import _controls
from .forward import _trajectory, solve_newmark, solve_with_potential, st_gram
from .fracop import FracOperator
from .grid import Grid
from .nonlinearity import PolyNonlinearity

__all__ = [
    "dn_trace",
    "solve_exterior",
    "dn_matrix",
    "forward_map",
    "grid_signature",
]


def grid_signature(grid: Grid, s: float) -> str:
    """Hash tying a measurement to its discretization."""
    text = "|".join(
        [
            "fracwave-grid",
            repr(float(grid.x_min)),
            repr(float(grid.x_max)),
            str(grid.n_int),
            str(grid.m_collar),
            str(tuple(grid.w1)),
            str(tuple(grid.w2)),
            repr(float(grid.T)),
            str(grid.n_t),
            f"s={float(s)!r}",
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def dn_trace(u_full: np.ndarray, op: FracOperator, grid: Grid) -> np.ndarray:
    """Exterior trace of A u for a full-grid trajectory u (n_t + 1, n_nodes),
    shape (n_t + 1, n_ext)."""
    u_full = _trajectory(u_full, grid.n_nodes, grid)
    return (u_full @ op.a_full)[:, grid.exterior_indices]


def solve_exterior(
    control: np.ndarray,
    op: FracOperator,
    grid: Grid,
    model: PolyNonlinearity | np.ndarray | None = None,
) -> np.ndarray:
    """Full-grid state (n_t + 1, n_nodes) driven by an exterior control with
    zero Cauchy data: the interior from the batched state path every
    measurement uses, the control values on the exterior nodes."""
    u = forward_map(control[None], op, grid, model)[0]
    return grid.extend(u) + grid.scatter_exterior(control)


def forward_map(
    controls: np.ndarray,
    op: FracOperator,
    grid: Grid,
    model: PolyNonlinearity | np.ndarray | None = None,
) -> np.ndarray:
    """Interior displacements (n_controls, n_t+1, n_int) of a control
    stack (B, n_t+1, n_ext); a single control is refused on every model.
    A potential (an interior array, or None for q = 0) takes one batched
    sweep of `solve_with_potential`; a power-type nonlinearity marches all
    controls as one batch.  This is the expensive step of every measurement
    and fit; `runge.approximate_target` fits one output for every alpha."""
    controls = _controls(controls, grid, (3,))
    if isinstance(model, PolyNonlinearity):
        return grid.restrict(solve_newmark(op, grid, model=model, control=controls))
    q = np.zeros(grid.n_int) if model is None else model
    return solve_with_potential(controls, q, op, grid)


def _pairings(
    states: np.ndarray,
    controls: np.ndarray,
    tests: np.ndarray,
    op: FracOperator,
    grid: Grid,
) -> np.ndarray:
    """M[a, b] = h sum_t w_t <(A u_a)(t) on the exterior, psi_b(T - t)> for
    the control states u_a and a (n_tests, n_t+1, n_ext) test stack psi_b:
    the pairing against the time-reversed tests, made here alone."""
    ext = grid.exterior_indices
    a_ext = op.a_full[:, ext]
    trace = states @ a_ext[grid.interior_slice] + controls @ a_ext[ext]
    # reversed tests as a contiguous copy: a strided view raised peak memory
    return st_gram(trace, np.ascontiguousarray(tests[:, ::-1]), grid)


def dn_matrix(
    op: FracOperator,
    grid: Grid,
    controls: np.ndarray,
    tests: np.ndarray,
    model: PolyNonlinearity | np.ndarray | None = None,
) -> np.ndarray:
    """Pairing matrix M[a, b] = <L phi_a, psi_b*> against the time-reversed
    tests psi_b*, the orientation the recovery identity uses.  The control
    states are solved once, as a batch, and reused across all tests."""
    tests = _controls(tests, grid, (3,))
    states = forward_map(controls, op, grid, model)
    return _pairings(states, controls, tests, op, grid)
