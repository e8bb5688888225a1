"""Space-time data: Cauchy data and exterior controls.

Trajectories are plain float arrays, shape (n_t + 1, nodes), slice i at
time t_i = i * dt; the last axis is n_int (interior) or n_nodes (full
grid) and says which.  Exterior controls carry values on all
exterior-local nodes plus the window mask they are allowed to touch; the
discrete stand-in for a smooth compactly supported control is exact zeros
on the first and last two time slices (zero value and zero one-sided
derivative at both endpoints).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

__all__ = [
    "CauchyData",
    "ExteriorControl",
    "reverse_control",
    "time_window",
    "tensor_control",
    "control_basis",
    "combine_controls",
]


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
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)

    @classmethod
    def zero(cls, n: int) -> "CauchyData":
        return cls(np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class ExteriorControl:
    """Control trajectory on the exterior collar, confined to a window."""

    values: np.ndarray  # (n_t + 1, n_ext)
    mask: np.ndarray  # (n_ext,) bool window
    dt: float
    T: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.mask, dtype=bool)
        if v.ndim != 2 or m.ndim != 1 or v.shape[1] != m.shape[0]:
            raise ValueError(f"control shape {v.shape} does not match mask {m.shape}")
        if v.shape[0] < 5:
            raise ValueError("control needs at least 5 time slices")
        if np.any(v[:, ~m] != 0.0):
            raise ValueError("control has nonzero values outside its window")
        for i in (0, 1, -2, -1):
            if np.any(v[i] != 0.0):
                raise ValueError(
                    "control must vanish (value and discrete time derivative) "
                    "at t = 0 and t = T"
                )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    @property
    def n_t(self) -> int:
        return self.values.shape[0] - 1


def reverse_control(c: ExteriorControl) -> ExteriorControl:
    return ExteriorControl(
        values=c.values[::-1].copy(), mask=c.mask.copy(), dt=c.dt, T=c.T
    )


def time_window(grid: Grid, support: tuple[float, float] = (0.1, 0.9)) -> np.ndarray:
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
    support: tuple[float, float] = (0.1, 0.9),
    amplitude: float = 1.0,
) -> ExteriorControl:
    """Single-node control: hat in space at one exterior node, windowed sine
    in time (frequency counts half-periods over the window)."""
    if not 0 <= ext_index < grid.n_ext:
        raise ValueError(f"exterior index {ext_index} outside 0..{grid.n_ext - 1}")
    if mask is None:
        mask = np.zeros(grid.n_ext, dtype=bool)
        mask[ext_index] = True
    mask = np.asarray(mask, dtype=bool)
    if not mask[ext_index]:
        raise ValueError(f"exterior index {ext_index} is outside the window mask")
    if freq < 1:
        raise ValueError(f"frequency must be >= 1, got {freq}")
    a, b = support
    t = grid.times() / grid.T
    rho = np.clip((t - a) / (b - a), 0.0, 1.0)
    w = time_window(grid, support)
    values = np.zeros((grid.n_t + 1, grid.n_ext))
    values[:, ext_index] = amplitude * w * np.sin(freq * np.pi * rho)
    return ExteriorControl(values=values, mask=mask, dt=grid.dt, T=grid.T)


def control_basis(
    grid: Grid,
    mask: np.ndarray,
    n_freqs: int,
    *,
    support: tuple[float, float] = (0.1, 0.9),
) -> list[ExteriorControl]:
    """Tensor basis over a window: every masked node x frequencies 1..n_freqs.

    Ordered node-major (all frequencies of the first node first) so nested
    prefixes enrich the time resolution before moving to the next node.
    """
    if n_freqs < 1:
        raise ValueError(f"need at least one frequency, got n_freqs = {n_freqs}")
    mask = np.asarray(mask, dtype=bool)
    out = []
    for idx in np.flatnonzero(mask):
        for freq in range(1, n_freqs + 1):
            out.append(
                tensor_control(grid, int(idx), freq, mask=mask, support=support)
            )
    return out


def combine_controls(
    controls: list[ExteriorControl], coeffs: np.ndarray
) -> ExteriorControl:
    """Linear combination sum_i c_i phi_i as a single control."""
    if len(controls) != len(coeffs):
        raise ValueError(f"{len(controls)} controls vs {len(coeffs)} coefficients")
    if not controls:
        raise ValueError("need at least one control")
    values = np.zeros_like(controls[0].values)
    mask = np.zeros_like(controls[0].mask)
    for c, a in zip(controls, coeffs):
        values += a * c.values
        mask |= c.mask
    return ExteriorControl(
        values=values, mask=mask, dt=controls[0].dt, T=controls[0].T
    )
