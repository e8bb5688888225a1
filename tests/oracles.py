"""Reference routes that only the tests use: each recomputes, the plain way,
something a package function computes another way, and tests compare the two."""

import numpy as np

from fracwave.fields import _controls
from fracwave.forward import _potential, _trajectory, st_gram, st_inner, trapezoid_weights
from fracwave.inversion import _regressors, _solve_nodes


def dn_trace(u_full, op, grid):
    """Exterior trace of A u for a full-grid trajectory u (n_t + 1, n_nodes),
    shape (n_t + 1, n_ext): one pairing with a test psi is
    st_inner(dn_trace(u_full, op, grid), psi, grid)."""
    u_full = _trajectory(u_full, grid.n_nodes, grid)
    return (u_full @ op.a_full)[:, grid.exterior_indices]


def stack_pairings(states, controls, tests, op, grid):
    """The pairing matrix of `dn_matrix` from the whole control state stack
    (B, n_t+1, n_int): st_gram of the full exterior traces against the
    time-reversed tests."""
    full = grid.extend(states) + grid.scatter_exterior(controls)
    trace = np.stack([dn_trace(u, op, grid) for u in full])
    return st_gram(trace, np.ascontiguousarray(tests[:, ::-1]), grid)


def stack_born_rows(states, n_c, grid):
    """Born rows h sum_t w_t u_a(t) v_b(T - t), (n_c * n_te, n_int), from the
    whole joined state stack (controls first): one einsum over all slices."""
    w = trapezoid_weights(grid.n_t, grid.dt)
    tests = states[n_c:] * w[::-1, None]
    rows = grid.h * np.einsum("atx,btx->abx", states[:n_c], tests[:, ::-1])
    return rows.reshape(-1, grid.n_int)


def stack_fit(target, states, grid, alphas):
    """The Tikhonov fit of `runge.approximate_target` from the whole state
    stack (B, n_t+1, n_int): one QR of the weighted (n_t+1)·n_int × (B+1)
    matrix [states | target], the route the fit takes slab by slab.
    Returns (coeffs, misfit, gram_cond) per alpha."""
    target = _trajectory(target, grid.n_int, grid)
    n_b = len(states)
    root = np.sqrt(grid.h * trapezoid_weights(grid.n_t, grid.dt))[:, None]
    cols = np.concatenate([states * root, (target * root)[None]])
    r = np.linalg.qr(cols.reshape(n_b + 1, -1).T, mode="r")
    off = abs(r[n_b, n_b]) if len(r) > n_b else 0.0
    p, sig, wt = np.linalg.svd(r[:n_b, :-1], full_matrices=False)
    moments = p.T @ r[:n_b, -1]
    low = sig[-1] if len(sig) == n_b else 0.0
    cond = float((sig[0] / low) ** 2) if low > 0 else np.inf
    out = []
    for alpha in alphas:
        coeffs = wt.T @ (sig / (sig**2 + alpha) * moments)
        misfit = float(np.hypot(np.linalg.norm(alpha / (sig**2 + alpha) * moments), off))
        out.append((coeffs, misfit, cond))
    return out


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
    g = _regressors(v_rows, (r,), floor_rel * np.max(np.abs(v_rows)))[0]
    return _solve_nodes(np.einsum("tx,tx->x", g, s_limit), np.einsum("tx,tx->x", g, g))


def distributional_residual(u, data, source, q, phi, op, grid):
    """Defect of int u (phi'' + A phi + q phi) against
    int <F, phi> + <u0, phi'(0)> - <u1, phi(0)> for an interior trajectory u
    (n_t+1, n_int) and a smooth interior test function phi vanishing near
    t = T.  Second-order differencing in time, so the residual of a true
    solution is O(dt^2)."""
    u = _trajectory(u, grid.n_int, grid)
    phi = _trajectory(phi, grid.n_int, grid)
    if source is not None:
        source = _trajectory(source, grid.n_int, grid)
    if q is not None:
        q = _potential(q, grid)
    if np.any(phi[-2:] != 0.0):
        raise ValueError("phi must vanish on the last two time slices")

    dt = grid.dt
    d2 = np.empty_like(phi)
    d2[1:-1] = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dt**2
    d2[0] = (phi[0] - 2.0 * phi[1] + phi[2]) / dt**2
    d2[-1] = (phi[-1] - 2.0 * phi[-2] + phi[-3]) / dt**2

    waveop = d2 + phi @ op.a_int
    if q is not None:
        waveop = waveop + q[None, :] * phi
    lhs = st_inner(u, waveop, grid)

    dphi0 = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / (2.0 * dt)
    rhs = grid.h * float(data.u0 @ dphi0) - grid.h * float(data.u1 @ phi[0])
    if source is not None:
        rhs += st_inner(source, phi, grid)
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def lp_norm(v, p, h):
    """Discrete L^p norm (h sum |v|^p)^(1/p) on a uniform grid."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    v = np.asarray(v, dtype=float)
    if np.isinf(p):
        return float(np.max(np.abs(v)))
    return float((h * np.sum(np.abs(v) ** p)) ** (1.0 / p))
