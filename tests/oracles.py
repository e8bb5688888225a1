"""Reference routes that only the tests use: each recomputes, the plain way,
something a package function computes another way, and tests compare the two."""

import numpy as np

from fracwave.fields import _controls
from fracwave.inversion import _regressors, _solve_nodes


def lift_exterior(control, op, grid):
    """Interior source -chi_Omega A (extension of the control), (n_t+1, n_int):
    v = u - phi then solves v'' + A v = source with zero Cauchy data and
    zero exterior values, which drives the Picard oracle of the sweep."""
    control = _controls(control, grid)
    a_ie = op.a_full[grid.interior_slice, :][:, grid.exterior_indices]
    return -(control @ a_ie.T)


def fit_profile(s_limit, v_rows, r, *, floor_rel=1e-3):
    """Nodewise least squares for b(x) in s_limit ~ b(x) |v|^r v on the full
    samples, the route recover_expansion takes from moments instead.

    Rows where |v| falls below floor_rel * max|v| carry no information and
    are masked out; nodes with no informative rows inherit the estimate of
    the nearest informative node and are flagged False in the mask.
    """
    if s_limit.shape != v_rows.shape:
        raise ValueError("sample and response shapes differ")
    g = _regressors(v_rows, (r,), floor_rel)[0]
    return _solve_nodes(np.einsum("tx,tx->x", g, s_limit), np.einsum("tx,tx->x", g, g))
