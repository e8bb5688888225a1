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

Controls and tests are plain float arrays (see `fields`) and a model is a
potential q (an interior array, None for q = 0); every state comes from the
sweep `forward._sweep`.  `forward_map` returns a control stack's whole
state stack, for `verify` and `solve_exterior` (one control, full grid).
`dn_matrix` reduces the control states in time slabs as the sweep makes
them, so it holds no state stack, and `_born` reduces one sweep of a joined
control/test stack, half of it held, into the model pairings and their
derivative in q, the Born rows `inversion.recover_potential` fits.  The
`dn` pipeline of the command line writes the matrix to dn.json; nothing
reads it back.
"""
from __future__ import annotations

import numpy as np

from .fields import _controls
from .forward import SWEEP_SLAB, _sweep, trapezoid_weights
from .fracop import FracOperator
from .grid import Grid

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL for it
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
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
    return sha256(text.encode()).hexdigest()


def solve_exterior(
    control: np.ndarray,
    op: FracOperator,
    grid: Grid,
    q: np.ndarray | None = None,
) -> np.ndarray:
    """Full-grid state (n_t + 1, n_nodes) driven by one exterior control
    (n_t + 1, n_ext) under the potential q, zero Cauchy data: the interior
    from `forward_map`, the control values on the exterior nodes."""
    control = _controls(control, grid, (2,))
    u = forward_map(control[None], op, grid, q)[0]
    return grid.extend(u) + grid.scatter_exterior(control)


def forward_map(
    controls: np.ndarray,
    op: FracOperator,
    grid: Grid,
    q: np.ndarray | None = None,
) -> np.ndarray:
    """Interior displacements (B, n_t+1, n_int) of a control stack
    (B, n_t+1, n_ext) under the potential q (None: q = 0), one sweep's
    time-major buffer seen batch-major; a single control is refused."""
    (states,) = _sweep(controls, q, op, grid, grid.n_t + 1)
    return states


def _pairing(
    controls: np.ndarray,
    tests: np.ndarray,
    op: FracOperator,
    grid: Grid,
):
    """M[a, b] = h sum_t w_t <(A u_a)(t) on the exterior, psi_b(T - t)> for
    the states u_a of the controls and a (n_tests, n_t+1, n_ext) test stack
    psi_b: the pairing against the time-reversed tests, made here alone, as
    (fixed, pair).  fixed is the part of the controls themselves, which no
    model changes; pair(slab, t0) is the part of a state slab (B, m, n_int)
    holding slices t0 .. t0+m-1, rows past the controls' left out: the slab
    times the interior rows of A (exterior first, no slab-sized temporary)
    paired with the weighted reversed tests, so M is fixed plus pair summed
    over any tiling."""
    n_c, n_te = len(controls), len(tests)
    ext = grid.exterior_indices
    a_ext = op.a_full[:, ext]
    w = trapezoid_weights(grid.n_t, grid.dt)
    psi = np.ascontiguousarray(tests[:, ::-1]) * (grid.h * w)[:, None]
    fixed = (controls @ a_ext[ext]).reshape(n_c, -1) @ psi.reshape(n_te, -1).T
    a_ie = a_ext[grid.interior_slice]  # (n_int, n_ext)

    def pair(slab: np.ndarray, t0: int) -> np.ndarray:
        trace = np.matmul(slab[:n_c], a_ie)  # (n_c, m, n_ext)
        return trace.reshape(n_c, -1) @ psi[:, t0 : t0 + trace.shape[1]].reshape(n_te, -1).T

    return fixed, pair


def dn_matrix(
    op: FracOperator,
    grid: Grid,
    controls: np.ndarray,
    tests: np.ndarray,
    q: np.ndarray | None = None,
) -> np.ndarray:
    """Pairing matrix M[a, b] = <L phi_a, psi_b*> against the time-reversed
    tests psi_b*, the orientation the recovery identity uses, under the
    potential q (None for q = 0).  The control states are swept once, as a
    batch, and reduced in slabs of SWEEP_SLAB time slices as they arrive,
    so no state stack is held."""
    controls = _controls(controls, grid, (3,))
    tests = _controls(tests, grid, (3,))
    m, pair = _pairing(controls, tests, op, grid)
    t0 = 0
    for slab in _sweep(controls, q, op, grid, SWEEP_SLAB):
        m += pair(slab, t0)
        t0 += slab.shape[1]
    return m


def _born(stack, n_c, q, pairing, op, grid):
    """Born rows (n_c * n_te, n_int) and model pairing matrix (n_c, n_te) at
    the background q: the derivative of `dn_matrix` in q and its value,
    from one sweep of the joined stack (controls first) reduced slab by
    slab.  For the rows h sum_t w_t u_a(t) v_b(T - t) only slices
    0 .. n_t//2 are held, node-major and time-reversed, held[n_t//2 - t] =
    u(t), so a later slice t meets its mirror n_t - t at held[t - lag],
    lag = n_t - n_t//2, and the mirrors of a slab's later slices are one
    run of held rows.  The later slices are copied node-major once and
    weighted, and meet the run in both orientations (the weights are
    symmetric): two x-batched products per slab that read views.  The
    middle slice of an even n_t adds its own term."""
    fixed, pair = pairing
    n_t, half, n_te = grid.n_t, grid.n_t // 2, len(stack) - n_c
    lag = n_t - half
    w = trapezoid_weights(n_t, grid.dt)
    held = np.empty((half + 1, grid.n_int, len(stack)))
    later = np.empty((SWEEP_SLAB, grid.n_int, len(stack)))
    rows = np.zeros((grid.n_int, n_c, n_te))
    part = np.empty_like(rows)
    d_model, t0 = fixed.copy(), 0
    for slab in _sweep(stack, q, op, grid, SWEEP_SLAB):
        d_model += pair(slab, t0)
        nodal = slab.transpose(1, 2, 0)  # (m, n_int, B)
        m = len(nodal)
        k = min(m, max(half + 1 - t0, 0))  # held slices of this slab
        held[::-1][t0 : t0 + k] = nodal[:k]
        if k < m:  # later slices t0+k .. t0+m-1
            now = later[: m - k]
            now[...] = nodal[k:]  # then weight: a weighted transposing multiply is slower
            now *= w[t0 + k : t0 + m, None, None]
            now = now.transpose(1, 0, 2)  # (n_int, m-k, B)
            run = held[t0 + k - lag : t0 + m - lag].transpose(1, 0, 2)
            rows += np.matmul(now[..., :n_c].transpose(0, 2, 1), run[..., n_c:], out=part)
            rows += np.matmul(run[..., :n_c].transpose(0, 2, 1), now[..., n_c:], out=part)
        t0 += m
    if n_t % 2 == 0:
        mid = held[0]
        rows += w[half] * mid[:, :n_c, None] * mid[:, None, n_c:]
    return grid.h * rows.transpose(1, 2, 0).reshape(n_c * n_te, grid.n_int), d_model
