"""Odd power-type nonlinearities, and the discrete L^p norm.

A potential needs no type of its own: it is a float array with one finite
value per interior node, checked where a solver takes it.  The semilinear
term has the polyhomogeneous form

    f(x, z) = sum_k b_k(x) |z|^(r_k) z,      0 < r_1 < r_2 < ... ,

each term odd in z and homogeneous of degree 1 + r_k, with bounded nodal
coefficient profiles.  The forward march evaluates f, and expansion
recovery peels it one term at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolyNonlinearity",
    "lp_norm",
]


@dataclass(frozen=True)
class PolyNonlinearity:
    """f(x, z) = sum_k coeffs[k](x) |z|^(exponents[k]) z.

    exponents are finite, positive and strictly increasing; coeffs rows are nodal
    coefficient profiles, one per exponent.
    """

    exponents: tuple[float, ...]
    coeffs: np.ndarray

    def __post_init__(self):
        exps = tuple(float(r) for r in self.exponents)
        if not exps:
            raise ValueError("at least one term is required")
        if not all(0 < r < np.inf for r in exps):
            raise ValueError(f"exponents must be finite and positive, got {exps}")
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError(f"exponents must be strictly increasing, got {exps}")
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if c.shape[0] != len(exps):
            raise ValueError(
                f"{len(exps)} exponents but {c.shape[0]} coefficient rows"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients contain non-finite values")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def single(cls, exponent: float, coeff: np.ndarray | float,
               n_nodes: int | None = None) -> "PolyNonlinearity":
        c = np.asarray(coeff, dtype=float)
        if c.ndim == 0:
            if n_nodes is None:
                raise ValueError("scalar coefficient needs n_nodes")
            c = np.full(n_nodes, float(c))
        return cls((float(exponent),), c[None, :])

    def term(self, k: int) -> "PolyNonlinearity":
        return PolyNonlinearity((self.exponents[k],), self.coeffs[k][None, :])

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """f(x, u) nodewise; u is (..., n_nodes).

        Each term b |u|^r u is built in a buffer of its own, in place, and the
        terms are summed in order.  The result is bitwise equal to the sum
        0.0 + term_1 + term_2 + ..., signs of zero included: the first term
        gets + 0.0, which turns a -0.0 into +0.0.  u is left unchanged.
        """
        u = np.asarray(u, dtype=float)
        au = np.abs(u)
        out = None
        for r, b in zip(self.exponents, self.coeffs):
            term = au**r
            term *= b
            term *= u
            if out is None:
                out = term
                out += 0.0
            else:
                out += term
        return out


def lp_norm(v: np.ndarray, p: float, h: float) -> float:
    """Discrete L^p norm (h sum |v|^p)^(1/p) on a uniform grid."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    v = np.asarray(v, dtype=float)
    if np.isinf(p):
        return float(np.max(np.abs(v)))
    return float((h * np.sum(np.abs(v) ** p)) ** (1.0 / p))
