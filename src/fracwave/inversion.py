"""Coefficient recovery from exterior measurements.

Potential recovery rests on the exact discrete integral identity

    <(L_1 - L_2) phi, psi*>  =  sum_t w_t h sum_x (q_1 - q_2)(x)
                                  u_2^phi(t, x) v_1^psi(T - t, x),

where L_i are the measurement maps of the two potentials, psi* is the
time-reversed test function, u_2^phi is the state driven by phi under the
known q_2 and v_1^psi the state driven by psi under the unknown q_1.  The
identity is bilinear in (phi, psi), so pairing matrices taken once over a
control/test basis (two (B, n_t+1, n_ext) stacks, see `fields`) extend to
every fitted superposition for free.  Replacing v_1 by v_2 linearizes in
dq = q_1 - q_2 (a Born step), turning each pairing into a moment of dq
against a product of computable fields, both on the known background: one
sweep of the joined control/test stack gives them and the model's pairing
matrix.  The moment system is severely ill-posed (its singular values decay
by many orders over a few dozen modes), so the update is the equilibrated
truncated-SVD least squares solution.  Passes beyond the first repeat the
construction around the updated background while reusing the measured data,
a Newton iteration on the measurement map; the spectral cutoff tightens
along a continuation schedule as the linearization error shrinks.

Expansion recovery peels a polyhomogeneous nonlinearity
f(x, z) = sum_k b_k(x) |z|^(r_k) z from small-amplitude responses.  The
explicit march makes the reaction samples f(x, u^n) recoverable exactly by
residual differencing, so the scaled reaction

    S_k(eps) = [f(x, u_eps) - sum_(j<k) bhat_j |u_eps|^(r_j) u_eps] / eps^(1 + r_k)

converges to b_k |v|^(r_k) v with known contamination powers: eps^(r_j - r_k)
from earlier-stage estimation error and eps^(r_1), eps^(r_(k+1) - r_k) from
nonlinear feedback and the next term.  A small least-squares extrapolation
in exactly those powers removes them, and b_k follows from a nodewise least
squares fit against |v|^(r_k) v on sufficiently excited rows.  Both steps
are linear in the samples: the limit is a fixed combination of the rungs
and the fit a time sum, in which the earlier profiles bhat_j(x) factor
out.  The ladder, eps * control for each rung, is measured in one call
that returns all rungs in time slabs; each slab is reduced, as it
arrives, to per-node moments against the masked regressors (of its
reaction and of |u_eps|^(r_j) u_eps), and extrapolation and peeling run
on (rungs, nodes) arrays, so no trajectory stack is held.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .dnmap import _pairings, forward_map
from .fields import _controls
from .forward import _trajectory, solve_newmark, trapezoid_weights
from .fracop import FracOperator
from .grid import Grid

__all__ = [
    "PotentialRecovery",
    "recover_potential",
    "linear_response",
    "reaction_from_march",
    "extrapolate_powers",
    "ExpansionEstimate",
    "recover_expansion",
]


# ---------------------------------------------------------------- potentials


def _tsvd_solve(
    rows: np.ndarray, rhs: np.ndarray, cutoff: float
) -> tuple[np.ndarray, float, int]:
    """Equilibrated truncated-SVD least squares.

    Rows are scaled to unit norm (right-hand entries alongside), singular
    values below cutoff * s_max are discarded, and the minimum-norm solution
    on the retained subspace is returned with the relative residual of the
    equilibrated system and the retained rank.  A system with no nonzero
    row, or none above the cutoff, raises np.linalg.LinAlgError.
    """
    norms = np.linalg.norm(rows, axis=1)
    live = norms > 0.0
    if not live.any():
        raise np.linalg.LinAlgError("moment system has no nonzero rows")
    r = rows[live] / norms[live, None]
    m = rhs[live] / norms[live]
    u, sv, vt = np.linalg.svd(r, full_matrices=False)
    rank = int(np.sum(sv >= cutoff * sv[0])) if sv[0] > 0.0 else 0
    if rank == 0:
        raise np.linalg.LinAlgError("moment system vanished below the spectral cutoff")
    sol = vt[:rank].T @ ((u[:, :rank].T @ m) / sv[:rank])
    resid = float(np.linalg.norm(r @ sol - m) / (np.linalg.norm(m) + 1e-300))
    return sol, resid, rank


@dataclass(frozen=True)
class PotentialRecovery:
    """Recovered potential and per-pass diagnostics.

    All per-pass tuples cover accepted passes only; a trial update that
    fails to shrink the data mismatch is discarded and stops the iteration.
    data_misfits holds the relative measurement mismatch before pass 1 and
    after every accepted pass (length = passes + 1, strictly decreasing).
    """

    q_est: np.ndarray
    increments: tuple[np.ndarray, ...]
    moment_residuals: tuple[float, ...]  # ||m - M dq|| / ||m|| per pass
    ranks: tuple[int, ...]  # retained spectral rank per pass
    cutoffs: tuple[float, ...]
    data_misfits: tuple[float, ...]


def recover_potential(
    measured: np.ndarray,
    controls: np.ndarray,
    tests: np.ndarray,
    op: FracOperator,
    grid: Grid,
    q_start: np.ndarray | None = None,
    *,
    cutoff: float | tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5),
) -> PotentialRecovery:
    """Reconstruct a potential from one measured pairing matrix.

    measured is the matrix <L_1 phi_a, psi_b*> over the control/test basis,
    paired against time-reversed tests as `dn_matrix` returns it.  The basis
    pairings are used directly: the moments are the entries of the data
    mismatch and the rows the weighted products of the computed control and
    reversed test states, which carries the entire measurement with no
    fitting stage.  Each background model is one `forward_map` sweep of the
    controls and tests joined.  cutoff is the relative spectral cutoff of
    the truncated-SVD update, one value per pass (a scalar means one pass).
    """
    controls = _controls(controls, grid, (3,))
    tests = _controls(tests, grid, (3,))
    n_c, n_te = len(controls), len(tests)
    d_meas = np.asarray(measured, dtype=float)
    if d_meas.shape != (n_c, n_te):
        raise ValueError(f"measured matrix is {d_meas.shape}, basis is {(n_c, n_te)}")
    schedule = tuple(float(c) for c in np.atleast_1d(cutoff))
    if not schedule:
        raise ValueError("cutoff schedule is empty")
    if any(c <= 0.0 or c >= 1.0 for c in schedule):
        raise ValueError(f"cutoffs must lie in (0, 1), got {schedule}")

    q2 = np.zeros(grid.n_int) if q_start is None else np.array(q_start, dtype=float)

    w = trapezoid_weights(grid.n_t, grid.dt)
    stack = np.concatenate([controls, tests])

    def _bundle(q_model) -> tuple[np.ndarray, np.ndarray]:
        """States of the joined stack at one background, from one sweep,
        and the pairing matrix of its control half."""
        states = forward_map(stack, op, grid, q_model)
        return states, _pairings(states[:n_c], controls, tests, op, grid)

    increments: list[np.ndarray] = []
    moment_residuals: list[float] = []
    ranks: list[int] = []
    accepted_cutoffs: list[float] = []

    denom = np.linalg.norm(d_meas) + 1e-300
    states, d_model = _bundle(q2)
    delta = d_meas - d_model
    data_misfits = [float(np.linalg.norm(delta) / denom)]

    for cut in schedule:
        # weight the test states in place (w reversed: the rows read them
        # reversed), so the row einsum has two operands and no copy of the
        # stack is made; numpy runs three-operand einsums on a slower loop
        states[n_c:] *= w[::-1, None]
        rows = grid.h * np.einsum(
            "atx,btx->abx", states[:n_c], states[n_c:, ::-1]
        ).reshape(n_c * n_te, grid.n_int)
        del states  # the rows are all this pass needs: free it before the trial
        dq, resid, rank = _tsvd_solve(rows, delta.reshape(-1), cut)

        q_trial = q2 + dq
        states, d_trial = _bundle(q_trial)
        misfit_trial = float(np.linalg.norm(d_meas - d_trial) / denom)
        if misfit_trial >= data_misfits[-1]:
            break  # update would not improve the data fit: discard and stop

        q2 = q_trial
        delta = d_meas - d_trial
        data_misfits.append(misfit_trial)
        increments.append(dq)
        moment_residuals.append(resid)
        ranks.append(rank)
        accepted_cutoffs.append(cut)

    return PotentialRecovery(
        q_est=q2,
        increments=tuple(increments),
        moment_residuals=tuple(moment_residuals),
        ranks=tuple(ranks),
        cutoffs=tuple(accepted_cutoffs),
        data_misfits=tuple(data_misfits),
    )


# ------------------------------------------------------------- nonlinearity


def linear_response(
    control: np.ndarray,
    op: FracOperator,
    grid: Grid,
) -> np.ndarray:
    """Interior trajectory of the linear (f = 0) problem driven by the
    control: the first-order term of the small-amplitude expansion.

    The explicit stepper matches the discretization of marched measurements
    exactly, so remainders and peeling stages see no integrator mismatch
    (for dyadic amplitudes the linear march scales bitwise).
    """
    return grid.restrict(solve_newmark(op, grid, control=control))


def _readback(v: np.ndarray, op: FracOperator, grid: Grid) -> np.ndarray:
    """-d2 v - A v at the interior slices 1 .. m-2 of full-grid slices
    v (m, ..., n_nodes), in the march's order of operations, bitwise."""
    vi = v[..., grid.interior_slice]
    out = vi[2:] - 2.0 * vi[1:-1]
    out += vi[:-2]
    out /= grid.dt**2
    np.negative(out, out=out)
    out -= v[1:-1] @ op.a_full[:, grid.interior_slice]
    return out


def reaction_from_march(
    u_full: np.ndarray,
    op: FracOperator,
    grid: Grid,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Bulk reaction samples implied by a full-grid central-difference
    trajectory u_full (n_t + 1, n_nodes).

    For a trajectory produced by the explicit march the returned rows equal
    q u + f(x, u) at steps n = 1 .. n_t - 1 exactly, because the march
    defined u^(n+1) through the same relation.  Endpoint rows are not
    recoverable and are omitted.
    """
    out = _readback(_trajectory(u_full, grid.n_nodes, grid), op, grid)
    if source is not None:
        out += _trajectory(source, grid.n_int, grid)[1:-1]
    return out


def extrapolate_powers(
    eps_values: np.ndarray,
    samples: np.ndarray,
    powers: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares fit samples(eps) ~ sum_p c_p eps^p, elementwise over
    the trailing axes; returns (c_0, rms residual, condition of the design).

    powers must contain 0; that coefficient is the extrapolated limit.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if 0.0 not in powers:
        raise ValueError("powers must include 0 (the limit term)")
    if len(set(powers)) != len(powers):
        raise ValueError(f"duplicate powers in {powers}")
    if eps_values.ndim != 1 or eps_values.size < len(powers):
        raise ValueError(
            f"need at least {len(powers)} ladder points for powers {powers}"
        )
    if samples.shape[0] != eps_values.size:
        raise ValueError("samples leading axis must match the ladder")
    design = np.stack([eps_values**p for p in powers], axis=1)
    flat = samples.reshape(eps_values.size, -1)
    # one SVD of the small design serves every right-hand side; the cut is
    # lstsq's rcond=None: singular values <= eps * max(shape) * s_max are 0
    u, sing, vt = np.linalg.svd(design, full_matrices=False)
    keep = sing > np.finfo(float).eps * max(design.shape) * sing[0]
    coef = vt[keep].T @ ((u[:, keep].T @ flat) / sing[keep, None])
    resid = design @ coef - flat
    rms = np.sqrt(np.mean(resid**2, axis=0)).reshape(samples.shape[1:])
    limit = coef[powers.index(0.0)].reshape(samples.shape[1:])
    cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf
    return limit, rms, cond


def _regressors(
    v_rows: np.ndarray, exponents: tuple[float, ...], floor_rel: float
) -> np.ndarray:
    """Masked regressors |v|^r v, one per exponent, stacked on a leading
    axis; zero on rows where |v| falls below floor_rel * max|v|."""
    mag = np.abs(v_rows)
    active = mag >= floor_rel * np.max(mag)
    g = np.empty((len(exponents), *v_rows.shape))
    for k, r in enumerate(exponents):
        np.multiply(mag**r, v_rows, out=g[k])
    g[:, ~active] = 0.0
    return g


def _solve_nodes(sg: np.ndarray, gsq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodewise normal equations b = sg / gsq from the fit moments
    sg = sum_t g s and gsq = sum_t g^2; nodes with gsq = 0 inherit the
    estimate of the nearest informative node and are flagged False; with
    no informative node it raises np.linalg.LinAlgError."""
    informative = gsq > 0.0
    if not informative.any():
        raise np.linalg.LinAlgError("control never excites the domain above the floor")
    b = np.zeros(gsq.shape)
    b[informative] = sg[informative] / gsq[informative]
    if not informative.all():
        idx = np.where(informative)[0]
        for j in np.where(~informative)[0]:
            b[j] = b[idx[np.argmin(np.abs(idx - j))]]
    return b, informative


@dataclass(frozen=True)
class ExpansionEstimate:
    """Per-term coefficient profiles with self-reported accuracy.

    errors holds, for each term, the max-norm discrepancy between fits on
    the even- and odd-indexed sub-ladders; resolved marks terms whose
    extrapolation had enough ladder points.
    """

    exponents: tuple[float, ...]
    coeffs: np.ndarray  # (n_terms, n_int)
    errors: tuple[float, ...]
    masks: np.ndarray  # (n_terms, n_int) bool
    resolved: tuple[bool, ...]
    extrap_conds: tuple[float, ...]
    eps_ladder: tuple[float, ...]


def recover_expansion(
    measure: Callable[[np.ndarray], Iterable[np.ndarray]],
    control: np.ndarray,
    exponents: tuple[float, ...],
    op: FracOperator,
    grid: Grid,
    *,
    eps_ladder: tuple[float, ...],
    floor_rel: float = 1e-3,
) -> ExpansionEstimate:
    """Peel the coefficient profiles of a polyhomogeneous nonlinearity from
    measured small-amplitude responses.

    control is one (n_t + 1, n_ext) array.  measure takes the
    (rungs, n_t + 1, n_ext) stack of ladder controls (the control scaled by
    each rung, largest first) and returns the full-grid trajectories of the
    unknown model as an iterable of time-major slabs (m, rungs, n_nodes),
    rungs in the same order; it is called once.  Each slab after the first
    starts with the last two slices of the one before and the last ends at
    slice n_t, as `forward.march_slabs` yields them for a synthetic study (a
    list of the whole time-major stack is one slab); each is checked and
    reduced to per-node fit moments as it arrives, and not kept.  The
    stage-k extrapolation basis is {0} + {r_j - r_k : j < k} + {r_1} +
    {r_(k+1) - r_k}; a stage whose basis outgrows the ladder is reported
    unresolved (zero profile, error inf) rather than extrapolated badly.
    Stage-1 scaled reactions that grow along the whole ladder and end more
    than ten times above the first rung mean the ladder has fallen below
    the solver noise floor, and raise np.linalg.LinAlgError; so does a
    control that excites no node above floor_rel (in [0, 1)) of its peak.
    """
    exps = tuple(float(r) for r in exponents)
    if any(b <= a for a, b in zip(exps, exps[1:])) or not exps:
        raise ValueError(f"exponents must be strictly increasing, got {exps}")
    rungs = tuple(float(e) for e in eps_ladder)
    if len(rungs) < 2 or not all(0 < e < np.inf for e in rungs):
        raise ValueError(
            f"eps_ladder needs at least two finite positive values, got {rungs}"
        )
    if not 0.0 <= floor_rel < 1.0:
        raise ValueError(f"floor_rel must lie in [0, 1), got {floor_rel}")
    eps_arr = np.asarray(sorted(rungs, reverse=True))
    if np.any(eps_arr[1:] == eps_arr[:-1]):  # sorted: repeats are neighbours
        raise ValueError(
            f"eps_ladder repeats a rung: {tuple(float(e) for e in eps_arr)}"
        )

    control = _controls(control, grid, (2,))
    n_rungs, n_terms = eps_arr.size, len(exps)
    g = _regressors(linear_response(control, op, grid)[1:-1], exps, floor_rel)
    gram = np.einsum("ktx,ktx->kx", g, g)

    # fit moments per rung i: fits[k, i] = sum_t g_k reaction_i and
    # peels[k, j, i] = sum_t g_k |s_i|^(r_j) s_i for j < k, summed slab by slab
    fits = np.zeros((n_terms, n_rungs, grid.n_int))
    peels = np.zeros((n_terms, n_terms, n_rungs, grid.n_int))
    sq = np.zeros(n_rungs)  # squared norms of the stage-1 reactions
    t0, tail = 0, None  # t0: the slice the next slab starts at
    for slab in measure(eps_arr[:, None, None] * control):
        slab = np.asarray(slab, dtype=float)
        m = slab.shape[0] if slab.ndim == 3 else 0
        if slab.shape[1:] != (n_rungs, grid.n_nodes) or not 2 < m <= grid.n_t + 1 - t0:
            raise ValueError(f"measured trajectory slab at slice {t0} has shape "
                             f"{slab.shape}, rungs {n_rungs}, nodes {grid.n_nodes}")
        if not np.isfinite(slab).all():
            raise ValueError(f"measured trajectory slab at slice {t0} is not finite")
        if tail is not None and not np.array_equal(slab[:2], tail):
            raise ValueError(f"measured trajectory slab at slice {t0} breaks the overlap")
        reaction = _readback(slab, op, grid)  # (m - 2, rungs, n_int)
        rows = g[:, t0 : t0 + m - 2]
        sq += np.einsum("tix,tix->i", reaction, reaction)
        fits += np.einsum("ktx,tix->kix", rows, reaction)
        s = slab[1:-1, :, grid.interior_slice]
        for j, r_j in enumerate(exps[:-1]):
            peels[j + 1 :, j] += np.einsum("ktx,tix->kix", rows[j + 1 :], np.abs(s) ** r_j * s)
        tail = slab[-2:].copy()
        t0 += m - 2
    if t0 + 1 != grid.n_t:
        raise ValueError(f"measured trajectory slabs stop before slice n_t = {grid.n_t}")
    norms = np.sqrt(sq) / eps_arr ** (1.0 + exps[0])
    if np.all(np.diff(norms) > 0.0) and norms[-1] > 10.0 * max(norms[0], 1e-300):
        pretty = ", ".join(f"{n:.3e}" for n in norms)
        raise np.linalg.LinAlgError(
            f"scaled reactions diverge as the amplitude shrinks (noise floor "
            f"exceeded): norms [{pretty}] over ladder {tuple(float(e) for e in eps_arr)}"
        )

    coeffs = np.zeros((n_terms, grid.n_int))
    masks = np.zeros((n_terms, grid.n_int), dtype=bool)
    errors: list[float] = []
    resolved: list[bool] = []
    conds: list[float] = []

    even, odd = np.arange(0, n_rungs, 2), np.arange(1, n_rungs, 2)
    for k, r_k in enumerate(exps):
        powers = {0.0, exps[0]}
        powers.update(r_j - r_k for r_j in exps[:k])
        if k + 1 < n_terms:
            powers.add(exps[k + 1] - r_k)
        powers = tuple(sorted(powers))
        if n_rungs < len(powers):
            errors.append(np.inf)
            resolved.append(False)
            conds.append(np.inf)
            continue

        # the extrapolated limit is a fixed combination of the rungs and the
        # fit a time sum, so both act on the moments of the peeled reactions
        peeled = fits[k] - np.einsum("jx,jix->ix", coeffs[:k], peels[k, :k])
        scaled = peeled / (eps_arr ** (1.0 + r_k))[:, None]
        limit, _, cond = extrapolate_powers(eps_arr, scaled, powers)
        b_k, mask = _solve_nodes(limit, gram[k])

        err = np.inf
        if min(even.size, odd.size) >= len(powers):
            b_parts = []
            for sel in (even, odd):
                lim_s, _, _ = extrapolate_powers(eps_arr[sel], scaled[sel], powers)
                b_parts.append(_solve_nodes(lim_s, gram[k])[0])
            err = float(np.max(np.abs(b_parts[0] - b_parts[1])))

        coeffs[k] = b_k
        masks[k] = mask
        errors.append(err)
        resolved.append(True)
        conds.append(cond)

    return ExpansionEstimate(
        exponents=exps,
        coeffs=coeffs,
        errors=tuple(errors),
        masks=masks,
        resolved=tuple(resolved),
        extrap_conds=tuple(conds),
        eps_ladder=tuple(float(e) for e in eps_arr),
    )
