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
`st_inner(dn_trace(u_full, op, grid), psi, grid)`.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

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
    "DNMeasurement",
    "grid_signature",
]

FORMAT_TAG = "fracwave-dn/1"


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
    u = _control_states(control[None], op, grid, model)[0]
    return grid.extend(u) + grid.scatter_exterior(control)


def _control_states(
    controls: np.ndarray,
    op: FracOperator,
    grid: Grid,
    model: PolyNonlinearity | np.ndarray | None,
) -> np.ndarray:
    """Interior displacements (n_controls, n_t+1, n_int) of a control
    stack.  A potential (an interior array, or None for q = 0) takes one
    batched sweep of `solve_with_potential`; a power-type nonlinearity
    marches all controls as one batch."""
    if isinstance(model, PolyNonlinearity):
        return grid.restrict(solve_newmark(op, grid, model=model, control=controls))
    q = np.zeros(grid.n_int) if model is None else model
    return solve_with_potential(controls, q, op, grid)


def _pairings(
    states: np.ndarray,
    controls: np.ndarray,
    test_block: np.ndarray,
    op: FracOperator,
    grid: Grid,
) -> np.ndarray:
    """M[a, b] = h sum_t w_t <(A u_a)(t) on the exterior, test_b(t)> for the
    control states u_a and a (n_tests, n_t+1, n_ext) block of test values."""
    ext = grid.exterior_indices
    a_ext = op.a_full[:, ext]
    trace = states @ a_ext[grid.interior_slice] + controls @ a_ext[ext]
    return st_gram(trace, test_block, grid)


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
    # reversed tests as a contiguous copy: a strided view raised peak memory
    test_block = np.ascontiguousarray(_controls(tests, grid, (3,))[:, ::-1])
    states = _control_states(controls, op, grid, model)
    return _pairings(states, controls, test_block, op, grid)


@dataclass(frozen=True)
class DNMeasurement:
    """Serializable pairing matrix with enough context to refuse mismatched
    reuse: operator order, grid signature, control/test descriptors."""

    s: float
    grid_sig: str
    matrix: np.ndarray
    controls_meta: tuple[dict, ...]
    tests_meta: tuple[dict, ...]
    reversed_tests: bool
    version: str = FORMAT_TAG

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "controls_meta", tuple(dict(d) for d in self.controls_meta))
        object.__setattr__(self, "tests_meta", tuple(dict(d) for d in self.tests_meta))

    def save_json(self, path: str | Path) -> None:
        payload = {
            "format": self.version,
            "s": self.s,
            "grid_sig": self.grid_sig,
            "reversed_tests": self.reversed_tests,
            "controls": list(self.controls_meta),
            "tests": list(self.tests_meta),
            "matrix": [[float(v) for v in row] for row in self.matrix],
        }
        Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))

    @classmethod
    def load_json(cls, path: str | Path, *, expect_sig: str | None = None) -> "DNMeasurement":
        payload = json.loads(Path(path).read_text())
        version = payload.get("format")
        if version != FORMAT_TAG:
            raise ValueError(f"unsupported measurement format {version!r}")
        if expect_sig is not None and payload["grid_sig"] != expect_sig:
            raise ValueError(
                "measurement was taken on a different discretization: "
                f"{payload['grid_sig'][:12]} != {expect_sig[:12]}"
            )
        return cls(
            s=float(payload["s"]),
            grid_sig=payload["grid_sig"],
            matrix=np.array(payload["matrix"], dtype=float),
            controls_meta=tuple(payload["controls"]),
            tests_meta=tuple(payload["tests"]),
            reversed_tests=bool(payload["reversed_tests"]),
            version=version,
        )
