"""Dense discretization of the integral fractional Laplacian on the grid.

The operator acts on functions extended by zero outside the grid.  On a
uniform mesh the fractional centered-difference weights

    g_j = (-1)^j Gamma(2s+1) / (Gamma(s-j+1) Gamma(s+j+1))

give (-Delta)^s u(x_i) ~ h^(-2s) sum_j g_|i-j| u(x_j), second order on
smooth functions but of observed order 1 + s (1.69 at s = 0.7) on the
Getoor profile (1 - y^2)_+^s, whose image is Gamma(2s+1) on (-1, 1) and
whose dist(x, boundary)^s edge the paper's solutions share.  The
generating symbol is (2 - 2 cos theta)^s, so weights of order s1 and s2
convolve to weights of order s1+s2; orders above one are assembled by
composing the integer 3-point Laplacian stencil with the fractional part,
which on zero-extended data equals the direct order-s stencil.

For j >= 1 and s in (0, 1) the reflection formula removes the Gamma poles:

    g_j = -sin(pi s)/pi * exp(lgamma(2s+1) + lgamma(j-s) - lgamma(j+s+1))

so every Gamma evaluation happens through log-Gamma on positive arguments
(no overflow for any j).  g_0 = exp(lgamma(2s+1) - 2 lgamma(s+1)).

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

    Requires 0 < s <= 1; s = 1 returns the exact 3-point stencil [2, -1, 0,
    ...] and is intended as a calibration path against the classical
    Laplacian.  The weights satisfy g_0 > 0 > g_j (j >= 1) and decay like
    j^(-1-2s).
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"centered weights need s in (0, 1], got {s}")
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    w = np.zeros(j_max + 1)
    if s == 1.0:
        w[0] = 2.0
        w[1] = -1.0
        return w
    lg_top = math.lgamma(2 * s + 1)
    w[0] = math.exp(lg_top - 2 * math.lgamma(s + 1))
    log_mag = [
        lg_top + math.lgamma(j - s) - math.lgamma(j + s + 1) for j in range(1, j_max + 1)
    ]
    w[1:] = -math.sin(math.pi * s) / math.pi * np.exp(log_mag)
    return w


def _composed_weights(s: float, j_max: int) -> np.ndarray:
    """Weights for arbitrary order s > 0 via stencil composition.

    For s <= 1 this is centered_weights directly.  For s > 1, not an
    integer, the fractional part alpha = s - floor(s) is convolved with
    floor(s) copies of the 3-point integer Laplacian stencil; on
    zero-extended grid data the composition is exact and symmetric.
    """
    k = int(math.floor(s))
    if s <= 1.0:
        return centered_weights(s, j_max)
    alpha = s - k
    # extra reach so the convolution is exact up to offset j_max
    reach = j_max + k
    galpha = centered_weights(alpha, reach)
    two_sided = np.concatenate([galpha[:0:-1], galpha])
    lap = np.array([-1.0, 2.0, -1.0])
    for _ in range(k):
        two_sided = np.convolve(two_sided, lap)
    center = reach + k
    return two_sided[center : center + j_max + 1]


@dataclass(frozen=True)
class FracOperator:
    """Assembled dense operator of order s on a specific grid.

    a_full acts on full-grid vectors (zero exterior extension built in);
    a_int is the interior principal submatrix.  weights holds the composed
    one-sided stencil.
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
    if not s > 0:
        raise ValueError(f"order s must be positive, got {s}")
    if s > 1 and s == math.floor(s):
        raise ValueError(f"integer order s = {s} is rejected; use s = 1 or s not in N")

    offsets = grid.integer_offsets
    j_max = int(offsets[-1] - offsets[0])
    w = _composed_weights(s, j_max)

    scale = grid.h ** (-2.0 * s)
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
