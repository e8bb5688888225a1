"""Dense discretization of the integral fractional Laplacian on the grid.

The operator acts on functions extended by zero outside the grid.  On a
uniform mesh the fractional centered-difference weights

    g_j = (-1)^j Gamma(2s+1) / (Gamma(s-j+1) Gamma(s+j+1))

give (-Delta)^s u(x_i) ~ h^(-2s) sum_j g_|i-j| u(x_j), second order on
smooth functions but of observed order 1 + s (1.69 at s = 0.7) on the
Getoor profile (1 - y^2)_+^s, whose image is Gamma(2s+1) on (-1, 1) and
whose dist(x, boundary)^s edge the paper's solutions share.  The
generating symbol is (2 - 2 cos theta)^s, so the same formula serves every
order s > 0 that is not an integer above one.

All weights come from one rule, the recurrence of Celik and Duman (J.
Comput. Phys. 231 (2012) 1743-1750) for Ortigueira's fractional centred
difference (Int. J. Math. Math. Sci. 2006, 48391):

    g_0 = exp(lgamma(2s+1) - 2 lgamma(s+1)),   g_(j+1) = g_j (j - s) / (j + s + 1),

one cumulative product of the ratios.  The signs come out of the ratios:
each ratio with j < s is negative, so the weights alternate up to
g_(floor(s)+1) (g_0 > 0 > g_j for s < 1), and every later ratio lies in
(0, 1), so the tail keeps its sign and decays like j^(-1-2s).  g_0 is the
only Gamma evaluation, through log-Gamma at positive arguments; the
product involves no Gamma pole, no large intermediate and no difference
of nearly equal terms, so it neither overflows nor cancels.

An assembled operator carries its interior eigenbasis (`FracOperator.basis`):
the eigensolve runs on first use and its result is kept, so every solver
that needs the spectral form of A_int gets it from the operator itself and
a pipeline that never reads it never pays for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid

if TYPE_CHECKING:
    from .spectral import SpectralBasis

__all__ = [
    "FracOperator",
    "centered_weights",
    "assemble_operator",
]


def centered_weights(s: float, j_max: int) -> np.ndarray:
    """One-sided fractional centered-difference weights g_0 .. g_j_max.

    Any order s > 0 but the integers above one; s = 1 returns the exact
    3-point stencil [2, -1, 0, ...], the calibration path against the
    classical Laplacian.  For s < 1 the weights satisfy g_0 > 0 > g_j
    (j >= 1); for every s they decay like j^(-1-2s).
    """
    s = float(s)
    if not s > 0:
        raise ValueError(f"order s must be positive, got {s}")
    if s > 1 and s == math.floor(s):
        raise ValueError(f"integer order s = {s} is rejected; use s = 1 or s not in N")
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    if s == 1.0:
        w = np.zeros(j_max + 1)
        w[:2] = 2.0, -1.0
        return w
    j = np.arange(j_max)
    w = np.empty(j_max + 1)
    w[0] = math.exp(math.lgamma(2 * s + 1) - 2 * math.lgamma(s + 1))
    w[1:] = (j - s) / (j + s + 1)
    return np.cumprod(w, out=w)


@dataclass(frozen=True)
class FracOperator:
    """Assembled dense operator of order s on a specific grid.

    a_full acts on full-grid vectors (zero exterior extension built in);
    a_int is the interior principal submatrix.  weights holds the one-sided
    stencil g_0 .. g_j_max of `centered_weights`, unscaled.
    """

    s: float
    h: float
    weights: np.ndarray
    a_full: np.ndarray
    a_int: np.ndarray

    @cached_property
    def basis(self) -> SpectralBasis:
        """Eigenbasis of a_int (`spectral.eigendecompose`), computed on
        first use and kept."""
        from . import spectral  # spectral imports this module

        return spectral.eigendecompose(self)


def assemble_operator(grid: Grid, s: float) -> FracOperator:
    """Assemble the dense order-s operator for a grid.

    s must be positive and non-integer, except s = 1 which is permitted as
    the classical-Laplacian calibration path.  The assembled interior block
    is symmetric positive definite (checked by Cholesky).
    """
    s = float(s)
    offsets = grid.integer_offsets
    j_max = int(offsets[-1] - offsets[0])
    w = centered_weights(s, j_max)

    try:
        scale = grid.h ** (-2.0 * s)
    except OverflowError:
        raise ValueError(f"operator scale h^(-2s) overflows at s = {s}, h = {grid.h}") from None
    offs = np.abs(offsets[:, None] - offsets[None, :])
    a_full = scale * w[offs]  # symmetric bit for bit: entries depend on |i - j|
    a_int = a_full[grid.interior_slice, grid.interior_slice]
    try:
        np.linalg.cholesky(a_int)
    except np.linalg.LinAlgError as exc:
        raise ValueError("interior operator block is not positive definite") from exc

    for arr in (w, a_full, a_int):
        arr.setflags(write=False)
    return FracOperator(s=s, h=grid.h, weights=w, a_full=a_full, a_int=a_int)
