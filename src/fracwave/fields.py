"""Space-time data: Cauchy data and exterior controls.

Trajectories are plain float arrays, shape (n_t + 1, nodes), slice i at
time t_i = i * dt; the last axis is n_int (interior) or n_nodes (full
grid) and says which.  A control is a plain float array (n_t + 1, n_ext)
of values on the exterior-local nodes, and a control basis is one stack
(B, n_t + 1, n_ext) of them, so a combination is
`np.tensordot(coeffs, controls, 1)` and the time reversal of c is
`c[::-1]`.  The discrete stand-in for a smooth compactly supported control
is exact zeros on the first and last two time slices (zero value and zero
one-sided derivative at both endpoints); `_controls` checks that where a
control enters a solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

__all__ = [
    "CauchyData",
    "time_window",
    "tensor_control",
    "control_basis",
]

# time support of the controls, as fractions of T
_SUPPORT = (0.1, 0.9)


@dataclass(frozen=True)
class CauchyData:
    """Initial displacement (L^2) and velocity (H^-s), interior node values."""

    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self):
        u0 = np.asarray(self.u0, dtype=float)
        u1 = np.asarray(self.u1, dtype=float)
        if u0.shape != u1.shape or u0.ndim != 1:
            raise ValueError(f"u0/u1 must be matching vectors, got {u0.shape}, {u1.shape}")
        if not (np.isfinite(u0).all() and np.isfinite(u1).all()):
            raise ValueError("Cauchy data u0/u1 contain non-finite values")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)

    @classmethod
    def zero(cls, n: int) -> "CauchyData":
        return cls(np.zeros(n), np.zeros(n))


def _controls(
    values: np.ndarray, grid: Grid, ndims: tuple[int, ...] = (2, 3)
) -> np.ndarray:
    """One control (n_t+1, n_ext) or a stack (B, n_t+1, n_ext), as ndims
    allows, as a float array of finite values vanishing on the first and
    last two time slices."""
    values = np.asarray(values, dtype=float)
    shape = (grid.n_t + 1, grid.n_ext)
    if values.ndim not in ndims or values.shape[-2:] != shape:
        raise ValueError(
            f"control shape {values.shape} is not {'/'.join(map(str, ndims))}-d "
            f"ending in {shape}"
        )
    if values.size == 0:
        raise ValueError("need at least one control")
    if not np.isfinite(values).all():
        raise ValueError("control contains non-finite values")
    if np.any(values[..., [0, 1, -2, -1], :] != 0.0):
        raise ValueError(
            "control must vanish (value and discrete time derivative) "
            "at t = 0 and t = T"
        )
    return values


def time_window(grid: Grid, support: tuple[float, float] = _SUPPORT) -> np.ndarray:
    """Smooth bump in time: sin^2 ramp on support (fractions of T), exact
    zeros outside, including the first/last two slices for any n_t >= 20."""
    a, b = support
    if not 0.0 < a < b < 1.0:
        raise ValueError(f"support fractions must satisfy 0 < a < b < 1, got {support}")
    t = grid.times() / grid.T
    rho = (t - a) / (b - a)
    w = np.where((rho > 0.0) & (rho < 1.0), np.sin(np.pi * np.clip(rho, 0, 1)) ** 2, 0.0)
    return w


def tensor_control(
    grid: Grid,
    ext_index: int,
    freq: int,
    *,
    mask: np.ndarray | None = None,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Single-node control (n_t+1, n_ext): hat in space at one exterior node
    (which must lie in the window mask, when one is given), windowed sine in
    time (frequency counts half-periods over the window)."""
    if not 0 <= ext_index < grid.n_ext:
        raise ValueError(f"exterior index {ext_index} outside 0..{grid.n_ext - 1}")
    if mask is not None and not np.asarray(mask, dtype=bool)[ext_index]:
        raise ValueError(f"exterior index {ext_index} is outside the window mask")
    if freq < 1:
        raise ValueError(f"frequency must be >= 1, got {freq}")
    a, b = _SUPPORT
    t = grid.times() / grid.T
    rho = np.clip((t - a) / (b - a), 0.0, 1.0)
    values = np.zeros((grid.n_t + 1, grid.n_ext))
    values[:, ext_index] = amplitude * time_window(grid) * np.sin(freq * np.pi * rho)
    return _controls(values, grid)


def control_basis(grid: Grid, mask: np.ndarray, n_freqs: int) -> np.ndarray:
    """Tensor basis over a window, one (B, n_t+1, n_ext) stack: every masked
    node x frequencies 1..n_freqs.

    Ordered node-major (all frequencies of the first node first) so nested
    prefixes enrich the time resolution before moving to the next node.
    """
    if n_freqs < 1:
        raise ValueError(f"need at least one frequency, got n_freqs = {n_freqs}")
    mask = np.asarray(mask, dtype=bool)
    return np.stack([
        tensor_control(grid, int(idx), freq, mask=mask)
        for idx in np.flatnonzero(mask)
        for freq in range(1, n_freqs + 1)
    ])
