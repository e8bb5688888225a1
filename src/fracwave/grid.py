"""Uniform 1-D computational domain with an exterior collar.

The open interval (x_min, x_max) carries ``n_int`` interior nodes at spacing
h = (x_max - x_min)/(n_int + 1).  Each side is extended by ``m_collar``
exterior nodes at the same spacing; the innermost collar node of each side
sits exactly on the boundary point.  Exterior data (controls, observations)
live on two index windows W1 and W2 inside the collar, given as
exterior-local indices 0 .. 2*m_collar-1 (left collar first, ascending x).
Time is discretized uniformly on [0, T] with n_t steps (n_t + 1 slices).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "build_grid"]


@dataclass(frozen=True)
class Grid:
    """Immutable node layout shared by every operator and solver."""

    x_min: float
    x_max: float
    n_int: int
    m_collar: int
    w1: tuple[int, ...]
    w2: tuple[int, ...]
    T: float
    n_t: int

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_int + 1)

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def n_nodes(self) -> int:
        return self.n_int + 2 * self.m_collar

    @property
    def n_ext(self) -> int:
        return 2 * self.m_collar

    @property
    def integer_offsets(self) -> np.ndarray:
        """Node positions in units of h relative to x_min.

        Left collar: 1-m_collar .. 0, interior: 1 .. n_int,
        right collar: n_int+1 .. n_int+m_collar.  Consecutive, so adjacent
        nodes are exactly h apart.
        """
        m = self.m_collar
        return np.arange(1 - m, self.n_int + m + 1)

    @property
    def coords(self) -> np.ndarray:
        return self.x_min + self.h * self.integer_offsets

    @property
    def interior_slice(self) -> slice:
        return slice(self.m_collar, self.m_collar + self.n_int)

    @property
    def interior_coords(self) -> np.ndarray:
        return self.coords[self.interior_slice]

    @property
    def exterior_indices(self) -> np.ndarray:
        """Full-grid indices of the exterior nodes, exterior-local order."""
        m = self.m_collar
        return np.concatenate(
            [np.arange(m), np.arange(m + self.n_int, self.n_nodes)]
        )

    @property
    def exterior_coords(self) -> np.ndarray:
        return self.coords[self.exterior_indices]

    def w_mask(self, which: int) -> np.ndarray:
        """Boolean mask over exterior-local indices for window W1 or W2."""
        if which not in (1, 2):
            raise ValueError(f"window must be 1 or 2, got {which}")
        idx = self.w1 if which == 1 else self.w2
        mask = np.zeros(self.n_ext, dtype=bool)
        mask[list(idx)] = True
        return mask

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t + 1)

    def extend(self, interior: np.ndarray) -> np.ndarray:
        """Zero-extend interior node values to the full grid.

        Works on a single slice (n_int,) or a trajectory (..., n_int).
        """
        interior = np.asarray(interior)
        if interior.shape[-1] != self.n_int:
            raise ValueError(
                f"expected trailing dimension {self.n_int}, got {interior.shape}"
            )
        full = np.zeros(interior.shape[:-1] + (self.n_nodes,), dtype=interior.dtype)
        full[..., self.interior_slice] = interior
        return full

    def restrict(self, full: np.ndarray) -> np.ndarray:
        """Restrict full-grid node values to the interior."""
        full = np.asarray(full)
        if full.shape[-1] != self.n_nodes:
            raise ValueError(
                f"expected trailing dimension {self.n_nodes}, got {full.shape}"
            )
        return full[..., self.interior_slice]

    def scatter_exterior(self, exterior: np.ndarray) -> np.ndarray:
        """Place exterior-local values on the full grid (interior zero)."""
        exterior = np.asarray(exterior)
        if exterior.shape[-1] != self.n_ext:
            raise ValueError(
                f"expected trailing dimension {self.n_ext}, got {exterior.shape}"
            )
        full = np.zeros(exterior.shape[:-1] + (self.n_nodes,), dtype=exterior.dtype)
        full[..., self.exterior_indices] = exterior
        return full


def build_grid(
    x_min: float,
    x_max: float,
    n_int: int,
    m_collar: int,
    w1,
    w2,
    T: float,
    n_t: int,
) -> Grid:
    """Validate inputs and construct a Grid.

    w1/w2 are iterables of exterior-local indices.
    """
    if not x_max > x_min:
        raise ValueError(f"need x_max > x_min, got [{x_min}, {x_max}]")
    if n_int < 2:
        raise ValueError(f"n_int must be >= 2, got {n_int}")
    if m_collar < 1:
        raise ValueError(f"m_collar must be >= 1, got {m_collar}")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")

    n_ext = 2 * m_collar
    windows = []
    for name, w in (("w1", w1), ("w2", w2)):
        idx = tuple(sorted(int(i) for i in w))
        if len(idx) == 0:
            raise ValueError(f"{name} is empty")
        if len(set(idx)) != len(idx):
            raise ValueError(f"{name} has duplicate indices: {idx}")
        if idx[0] < 0 or idx[-1] >= n_ext:
            raise ValueError(f"{name} indices {idx} outside collar [0, {n_ext})")
        windows.append(idx)

    grid = Grid(
        x_min=float(x_min),
        x_max=float(x_max),
        n_int=int(n_int),
        m_collar=int(m_collar),
        w1=windows[0],
        w2=windows[1],
        T=float(T),
        n_t=int(n_t),
    )
    # n_t * dt must reproduce T to machine precision
    assert abs(grid.n_t * grid.dt - grid.T) <= 4 * np.finfo(float).eps * grid.T
    return grid
