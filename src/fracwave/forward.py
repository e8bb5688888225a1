"""Wave solvers: modal Duhamel, exterior lifting, potentials (exact sweep and
Picard oracle), explicit time stepping, and the weak-form residual checks.

Trajectories are plain float arrays, (n_t+1, n_int) or (n_t+1, n_nodes);
`_trajectory` checks one that enters from outside, as `_potential` does a
potential.

Modal route.  Expanding in the interior eigenbasis, each coefficient obeys
c_k'' + lambda_k c_k = F_k, solved in closed form plus a Duhamel convolution:

    c_k(t) = u0_k cos(w t) + u1_k sin(w t)/w
             + 1/w * int_0^t F_k(tau) sin(w (t - tau)) dtau,   w = sqrt(lambda_k)

The convolution is evaluated by splitting sin(w(t - tau)) into sin/cos parts
and accumulating the two cumulative trapezoid integrals, which is identical
to node-wise trapezoid quadrature of the original integrand and costs
O(n_t) per mode.  Initial velocity and forcing act through their L^2
pairings with the modes, so rough (dual-space) data is admissible.

Potential route.  The trapezoid Duhamel sum gives the forcing at t_j zero
weight in c_k(t_j) (its sin/cos parts cancel), so the Picard fixed point
u = S(F - q u) is lower triangular in time and one forward sweep solves it.

Every space-time pairing in this package goes through `st_gram`, with the
same trapezoid weights; that choice makes the discrete solution operator
exactly self-adjoint under time reversal, which the transposition-style
residual identities below inherit.

Time stepping route.  An explicit central-difference (Stormer-Verlet) march
on the full grid doubles as an independent oracle for the modal solver and
as the workhorse for semilinear models, under the usual CFL restriction
dt <= 2 / sqrt(lambda_max (1 + CFL_MARGIN)).  The march always advances a
batch: the states of B exterior controls live in one (n_t+1, B, n_nodes)
buffer and each step costs one (B, n_nodes) product with the interior rows
of A, so an amplitude ladder or a control basis is one march, not one per
control; the march returns the (B, n_t+1, n_nodes) view of that buffer.
The last two interior states roll through contiguous (B, n_int) buffers
and each step works in place in one force buffer

    g = dt^2 (A u + q u + f(x, u) - F),    u_new = 2 u - u_prev - g,

which is bit for bit the textbook step 2 u - u_prev + dt^2 (-A u - q u - f + F),
since negation is exact: fl(-x - y) = -fl(x + y) up to the sign of an exact
zero.  `inversion.reaction_from_march` reads
q u + f(x, u) back off a trajectory through that relation, so it recovers f
exactly only while the march keeps this order of operations; a fused step
matrix 2I - dt^2 A changes it (see `solve_newmark`).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fields import CauchyData, ExteriorControl
from .fracop import FracOperator
from .grid import Grid
from .nonlinearity import PolyNonlinearity
from .spectral import SpectralBasis, project_l2, reconstruct

__all__ = [
    "WaveSolution",
    "PicardReport",
    "PicardError",
    "SolverBlowupError",
    "duhamel_coefficient",
    "solve_linear_modal",
    "lift_exterior",
    "solve_with_potential",
    "solve_with_potential_picard",
    "solve_newmark",
    "newmark_dt_bound",
    "very_weak_residual",
    "distributional_residual",
    "trapezoid_weights",
    "st_gram",
    "st_inner",
    "sup_energy",
    "data_energy",
]

# relative headroom of the march's CFL bound over the Gershgorin lambda_max
CFL_MARGIN = 0.25


@dataclass(frozen=True)
class WaveSolution:
    """Displacement and velocity trajectories on interior nodes."""

    u: np.ndarray  # (n_t + 1, n_int)
    udot: np.ndarray  # (n_t + 1, n_int)


class PicardError(RuntimeError):
    """Fixed-point iteration failed; carries the diagnostic report."""

    def __init__(self, message: str, report: "PicardReport"):
        super().__init__(message)
        self.report = report


class SolverBlowupError(RuntimeError):
    """Time march produced non-finite values."""


def _potential(q: np.ndarray, grid: Grid) -> np.ndarray:
    """A potential as a float array of finite values, one per interior node."""
    q = np.asarray(q, dtype=float)
    if q.shape != (grid.n_int,):
        raise ValueError(f"potential shape {q.shape} != ({grid.n_int},)")
    if not np.isfinite(q).all():
        raise ValueError("potential contains non-finite values")
    return q


def _trajectory(u: np.ndarray, n_nodes: int, grid: Grid) -> np.ndarray:
    """A trajectory as a float array of finite values, shape (n_t+1, n_nodes):
    n_nodes is grid.n_int for an interior and grid.n_nodes for a full-grid one."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_t + 1, n_nodes):
        raise ValueError(f"trajectory shape {u.shape} != {(grid.n_t + 1, n_nodes)}")
    if not np.isfinite(u).all():
        raise ValueError("trajectory contains non-finite values")
    return u


def trapezoid_weights(n_t: int, dt: float) -> np.ndarray:
    w = np.full(n_t + 1, dt)
    w[0] = 0.5 * dt
    w[-1] = 0.5 * dt
    return w


def st_gram(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """Space-time pairing matrix G[i, j] = h sum_t w_t <a_i(t), b_j(t)> of two
    trajectory stacks (A, n_t+1, n) and (B, n_t+1, n), trapezoid weights w."""
    w = trapezoid_weights(grid.n_t, grid.dt)
    weighted = (a * w[:, None]).reshape(a.shape[0], -1)
    return grid.h * (weighted @ b.reshape(b.shape[0], -1).T)


def st_inner(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """Space-time inner product h int_0^T <a, b> dt of two trajectories."""
    return float(st_gram(a[None], b[None], grid)[0, 0])


def _modal_coefficients(
    lambdas: np.ndarray,
    u0k: np.ndarray,
    u1k: np.ndarray,
    fk: np.ndarray | None,
    tgrid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient trajectories (K, n_t+1) for all modes at once."""
    om = np.sqrt(lambdas)[:, None]
    phase = om * tgrid[None, :]
    cos_t = np.cos(phase)
    sin_t = np.sin(phase)
    c = u0k[:, None] * cos_t + (u1k[:, None] / om) * sin_t
    cdot = -om * u0k[:, None] * sin_t + u1k[:, None] * cos_t
    if fk is not None:
        dt = tgrid[1] - tgrid[0]
        # cumulative trapezoid integrals of F cos and F sin, starting at 0
        y = np.stack([fk * cos_t, fk * sin_t])  # fk is (K, n_t + 1)
        icos, isin = np.zeros_like(y)
        icos[:, 1:], isin[:, 1:] = np.cumsum(dt * (y[..., 1:] + y[..., :-1]) / 2.0, -1)
        c = c + (sin_t * icos - cos_t * isin) / om
        cdot = cdot + cos_t * icos + sin_t * isin
    return c, cdot


def duhamel_coefficient(
    lam: float,
    u0k: float,
    u1k: float,
    fk: np.ndarray | None,
    tgrid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-mode solution (c, c') on a uniform time grid.

    fk, when given, holds the forcing coefficient sampled on tgrid.  The
    Duhamel term uses composite trapezoid quadrature on the same grid.
    """
    if not lam > 0:
        raise ValueError(f"modal frequency needs lambda > 0, got {lam}")
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.ndim != 1 or tgrid.shape[0] < 2:
        raise ValueError("tgrid must hold at least two nodes")
    steps = np.diff(tgrid)
    if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
        raise ValueError("tgrid must be uniform")
    f = None if fk is None else np.asarray(fk, dtype=float)[None, :]
    if f is not None and f.shape[1] != tgrid.shape[0]:
        raise ValueError(f"fk has {f.shape[1]} samples, tgrid has {tgrid.shape[0]}")
    c, cdot = _modal_coefficients(
        np.array([lam]), np.array([float(u0k)]), np.array([float(u1k)]), f, tgrid
    )
    return c[0], cdot[0]


def solve_linear_modal(
    basis: SpectralBasis,
    data: CauchyData,
    source: np.ndarray | None,
    grid: Grid,
) -> WaveSolution:
    """Very-weak solution of u'' + A u = F with Cauchy data, zero exterior.

    source is an interior trajectory (n_t+1, n_int) or None.  Velocity data
    and forcing enter through modal pairings h phi_k^T (.), their natural
    dual-space reading.
    """
    if data.u0.shape[0] != grid.n_int:
        raise ValueError(
            f"data has {data.u0.shape[0]} nodes, grid interior is {grid.n_int}"
        )
    tgrid = grid.times()
    u0k = project_l2(data.u0, basis)
    u1k = project_l2(data.u1, basis)
    fk = None
    if source is not None:
        source = np.asarray(source, dtype=float)
        if source.shape != (grid.n_t + 1, grid.n_int):
            raise ValueError(
                f"source shape {source.shape} != {(grid.n_t + 1, grid.n_int)}"
            )
        fk = project_l2(source, basis).T  # (K, n_t + 1)
    c, cdot = _modal_coefficients(basis.lambdas, u0k, u1k, fk, tgrid)
    return WaveSolution(u=reconstruct(c.T, basis), udot=reconstruct(cdot.T, basis))


def lift_exterior(control: ExteriorControl, op: FracOperator, grid: Grid) -> np.ndarray:
    """Interior source -chi_Omega A (extension of the control), (n_t+1, n_int):
    v = u - phi then solves v'' + A v = source with zero Cauchy data and
    zero exterior values."""
    if control.n_t != grid.n_t:
        raise ValueError(f"control has n_t={control.n_t}, grid has {grid.n_t}")
    a_ie = op.a_full[grid.interior_slice, :][:, grid.exterior_indices]
    return -(control.values @ a_ie.T)


def solve_with_potential(
    values: np.ndarray,
    q: np.ndarray,
    op: FracOperator,
    grid: Grid,
) -> np.ndarray:
    """Interior displacements (B, n_t+1, n_int) of u'' + A u + q u = 0 driven
    by a stack of exterior control values (B, n_t+1, n_ext), zero Cauchy data.

    One forward sweep in the eigenbasis `op.basis` (see the module
    docstring): step j rebuilds c_j from running cos/sin sums of the earlier
    forcing, then forms its own forcing f_j = lift_j - c_j M_q,
    M_q = h Phi^T diag(q) Phi.  Exact for any q, also where A_int + diag(q)
    is indefinite.
    """
    q = _potential(q, grid)
    values = np.asarray(values, dtype=float)
    if values.shape[1:] != (grid.n_t + 1, grid.n_ext):
        raise ValueError(
            f"control values {values.shape} != (B, {grid.n_t + 1}, {grid.n_ext})"
        )
    dt, h, phi, om = grid.dt, grid.h, op.basis.modes, op.basis.omegas
    phase = grid.times()[:, None] * om[None, :]
    # trig[:, j]: (cos, sin) of the phases at t_j, broadcasting over (2, B, K)
    trig = np.empty((2, grid.n_t + 1, 1, om.size))
    np.cos(phase, out=trig[0, :, 0])
    np.sin(phase, out=trig[1, :, 0])
    a_ie = op.a_full[grid.interior_slice, :][:, grid.exterior_indices]
    to_modes = -h * (a_ie.T @ phi)  # control values straight to modes, (n_ext, K)
    m_q = h * (phi.T * q) @ phi  # (K, K)

    states = np.zeros((values.shape[0], grid.n_t + 1, grid.n_int))
    f = values[:, 0] @ to_modes
    acc = 0.5 * dt * f * trig[:, 0]  # running (cos, sin) sums, (2, B, K)
    # the sums omit the current step's half weight, which cancels in c_j
    for j in range(1, grid.n_t + 1):
        trig_j = trig[:, j]
        c = (trig_j[1] * acc[0] - trig_j[0] * acc[1]) / om
        states[:, j] = c @ phi.T
        f = values[:, j] @ to_modes - c @ m_q
        acc += dt * f * trig_j
    return states


@dataclass(frozen=True)
class PicardReport:
    theta: float
    contraction: float  # max observed successive-update ratio
    iterations: int
    final_update: float
    thetas_tried: tuple[float, ...]


def _theta_norm(values: np.ndarray, theta: float, tgrid: np.ndarray, h: float) -> float:
    slice_norms = np.sqrt(h) * np.linalg.norm(values, axis=1)
    return float(np.max(np.exp(-theta * tgrid) * slice_norms))


def solve_with_potential_picard(
    basis: SpectralBasis,
    q: np.ndarray | None,
    data: CauchyData,
    source: np.ndarray | None,
    grid: Grid,
    *,
    tol: float = 1e-12,
    max_iter: int = 256,
    theta0: float = 1.0,
    theta_cap: float = 2.0**20,
    ratio_bound: float = 0.9,
) -> tuple[WaveSolution, PicardReport]:
    """Fixed point of u -> S(F - q u) in the weighted norm
    sup_t e^(-theta t) ||u(t)||_L2.

    theta starts at theta0 and doubles whenever the observed update ratio
    exceeds ratio_bound (restarting the iteration), up to theta_cap; beyond
    the cap a PicardError carries the diagnostic report.  tol is relative to
    the size of the first iterate.
    """
    if q is not None:
        q = _potential(q, grid)
    tgrid = grid.times()
    base = solve_linear_modal(basis, data, source, grid)
    if q is None or not np.any(q):
        report = PicardReport(theta0, 0.0, 1, 0.0, (theta0,))
        return base, report

    thetas: list[float] = []
    theta = float(theta0)
    last_report = None
    while True:
        thetas.append(theta)
        scale = max(_theta_norm(base.u, theta, tgrid, grid.h), 1e-300)
        current = base
        contraction = 0.0
        prev_update = None
        converged = False
        needs_larger_theta = False
        iterations = 0
        update = np.inf
        for iterations in range(1, max_iter + 1):
            src = -q[None, :] * current.u
            if source is not None:
                src = src + source
            nxt = solve_linear_modal(basis, data, src, grid)
            update = _theta_norm(nxt.u - current.u, theta, tgrid, grid.h)
            if prev_update is not None and prev_update > 1e3 * np.finfo(float).eps * scale:
                ratio = update / prev_update
                contraction = max(contraction, ratio)
                if ratio > ratio_bound and update > 10 * tol * scale:
                    needs_larger_theta = True
            current = nxt
            if update <= tol * scale:
                converged = True
                break
            if needs_larger_theta:
                break
            prev_update = update
        last_report = PicardReport(
            theta=theta,
            contraction=contraction,
            iterations=iterations,
            final_update=update,
            thetas_tried=tuple(thetas),
        )
        if converged and not needs_larger_theta:
            return current, last_report
        if theta >= theta_cap:
            raise PicardError(
                f"no contraction below ratio {ratio_bound} up to theta = {theta:g}",
                last_report,
            )
        theta *= 2.0


def newmark_dt_bound(op: FracOperator) -> float:
    """Stable step bound 2 / sqrt(lambda_max (1 + CFL_MARGIN)); lambda_max is
    the Gershgorin row-sum bound of the interior block (safe overestimate)."""
    lam_max = float(np.abs(op.a_int).sum(axis=1).max())
    return 2.0 / np.sqrt(lam_max * (1.0 + CFL_MARGIN))


def solve_newmark(
    op: FracOperator,
    grid: Grid,
    model: PolyNonlinearity | np.ndarray | None = None,
    control: ExteriorControl | Sequence[ExteriorControl] | None = None,
    data: CauchyData | None = None,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Explicit central-difference march of
    u'' + A u + q u + f(x, u) = F on the full grid; model is the potential
    q (an interior array) or the nonlinearity f.

    Exterior nodes follow the control (zero when absent); interior nodes
    start from the Cauchy data with a second-order startup step.  One
    control (or None) returns its full-grid trajectory (n_t+1, n_nodes); a
    sequence of B controls is marched as one batch, sharing the model, data
    and source, and returns the (B, n_t+1, n_nodes) trajectories in control
    order, a view of the batch buffer.  Raises on CFL violation and aborts
    with the step index and the batch rows when the march produces
    non-finite values.

    Each step forms the force g = A u + q u + f(x, u) - F of the current
    interior rows u in one preallocated buffer, scales it by dt^2 and sets
    u_new = 2 u - u_prev - g; u and u_prev are rolling contiguous (B, n_int)
    buffers and u_new is copied once into the full-grid buffer.  This is
    bitwise the step 2 u - u_prev + dt^2 accel with accel = -A u - q u - f + F,
    negation being exact.  That floating-point order is a contract with
    `inversion.reaction_from_march`, which inverts it to read q u + f back.
    A fused step matrix 2I - dt^2 A is cheaper but not the same arithmetic:
    at n_int = 48, n_t = 8192 it moved the trajectories by a few 1e-12 and
    the recovered second term of f (invert-f, two terms) from 2.0e-4 to
    3.7e-3 relative error, because the amplitude ladder divides the
    reaction's roundoff by small rungs.
    """
    dt = grid.dt
    bound = newmark_dt_bound(op)
    if dt > bound:
        raise ValueError(
            f"CFL violation: dt = {dt:.6e} exceeds stable bound {bound:.6e} "
            f"(Gershgorin lambda_max {(2.0 / bound) ** 2 / (1 + CFL_MARGIN):.6e}, "
            f"margin {CFL_MARGIN})"
        )

    q = nonlin = None
    if isinstance(model, PolyNonlinearity):
        nonlin = model
    elif model is not None:
        q = _potential(model, grid)

    if data is None:
        data = CauchyData.zero(grid.n_int)
    if source is not None:
        source = np.asarray(source, dtype=float)
        if source.shape != (grid.n_t + 1, grid.n_int):
            raise ValueError(
                f"source shape {source.shape} != {(grid.n_t + 1, grid.n_int)}"
            )
    single = control is None or isinstance(control, ExteriorControl)
    controls = [control] if single else list(control)
    if not controls:
        raise ValueError("need at least one control")
    for c in controls:
        if c is not None and c.n_t != grid.n_t:
            raise ValueError(f"control has n_t={c.n_t}, grid has {grid.n_t}")

    n_t = grid.n_t
    full = np.zeros((n_t + 1, len(controls), grid.n_nodes))
    for b, c in enumerate(controls):
        if c is not None:
            full[:, b, grid.exterior_indices] = c.values
    interior = grid.interior_slice
    stiff_t = op.a_full[interior].T  # (n_nodes, n_int): rows of A on the interior

    full[0, :, interior] = data.u0
    u_prev = full[0, :, interior].copy()  # rolling contiguous (B, n_int) rows
    g = np.empty_like(u_prev)

    def force(n: int, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        """A u + q u + f(x, u) - F at step n on the interior rows, into g."""
        np.matmul(full[n], stiff_t, out=g)
        if q is not None:
            g += q * u
        if nonlin is not None:
            g += nonlin.evaluate(u)
        if source is not None:
            g -= source[n]
        return g

    u = data.u0 + dt * data.u1 - 0.5 * dt * dt * force(0, u_prev, g)
    full[1, :, interior] = u
    new = np.empty_like(u)
    for n in range(1, n_t):
        force(n, u, g)
        g *= dt * dt
        np.multiply(u, 2.0, out=new)
        new -= u_prev
        new -= g
        if not np.isfinite(new).all():
            rows = np.flatnonzero(~np.isfinite(new).all(axis=1)).tolist()
            raise SolverBlowupError(
                f"non-finite values at step {n + 1} (t = {(n + 1) * dt:.6g}) "
                f"in batch rows {rows}"
            )
        full[n + 1, :, interior] = new
        u_prev, u, new = u, new, u_prev
    return full[:, 0] if single else full.transpose(1, 0, 2)


def very_weak_residual(
    u: np.ndarray,
    data: CauchyData,
    source: np.ndarray | None,
    q: np.ndarray | None,
    g: np.ndarray,
    basis: SpectralBasis,
    grid: Grid,
) -> float:
    """Transposition-identity defect of an interior trajectory u
    (n_t+1, n_int) against a test source.

    Solves the backward problem v'' + A v + q v = G, v(T) = v'(T) = 0 by
    time reversal and compares int <u, G> with
    int <F, v> + <u1, v(0)> - <u0, v'(0)>, normalized by the two sides.
    A trajectory produced by the solvers in this module satisfies the
    identity to roundoff; independently produced fields are checked at face
    value.
    """
    u = _trajectory(u, grid.n_int, grid)
    if q is not None:
        q = _potential(q, grid)
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.n_t + 1, grid.n_int):
        raise ValueError(f"test source shape {g.shape} != {(grid.n_t + 1, grid.n_int)}")

    g_rev = g[::-1].copy()
    zero = CauchyData.zero(grid.n_int)
    if q is None or not np.any(q):
        back = solve_linear_modal(basis, zero, g_rev, grid)
    else:
        back, _ = solve_with_potential_picard(basis, q, zero, g_rev, grid)
    v = back.u[::-1]
    v0 = back.u[-1]
    vdot0 = -back.udot[-1]  # chain rule under t -> T - t

    lhs = st_inner(u, g, grid)
    rhs = grid.h * float(data.u1 @ v0) - grid.h * float(data.u0 @ vdot0)
    if source is not None:
        rhs += st_inner(np.asarray(source, dtype=float), v, grid)
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def distributional_residual(
    u: np.ndarray,
    data: CauchyData,
    source: np.ndarray | None,
    q: np.ndarray | None,
    phi: np.ndarray,
    op: FracOperator,
    grid: Grid,
) -> float:
    """Defect of int u (phi'' + A phi + q phi) against
    int <F, phi> + <u0, phi'(0)> - <u1, phi(0)> for an interior trajectory u
    (n_t+1, n_int) and a smooth interior test function phi vanishing near
    t = T.  Second-order differencing in time, so the residual of a true
    solution is O(dt^2)."""
    u = _trajectory(u, grid.n_int, grid)
    if q is not None:
        q = _potential(q, grid)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (grid.n_t + 1, grid.n_int):
        raise ValueError(f"phi shape {phi.shape} != {(grid.n_t + 1, grid.n_int)}")
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
        rhs += st_inner(np.asarray(source, dtype=float), phi, grid)
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def sup_energy(sol: WaveSolution, basis: SpectralBasis, grid: Grid) -> float:
    """sup_t ( ||u(t)||_L2 + ||u'(t)||_H^-s )."""
    l2 = np.sqrt(grid.h) * np.linalg.norm(sol.u, axis=1)
    coeffs = project_l2(sol.udot, basis)
    dual = np.sqrt(np.sum(coeffs * coeffs / basis.lambdas[None, :], axis=1))
    return float(np.max(l2 + dual))


def data_energy(
    data: CauchyData,
    source: np.ndarray | None,
    basis: SpectralBasis,
    grid: Grid,
) -> float:
    """||u0||_L2 + ||u1||_H^-s + ||F||_L2(0,T;H^-s)."""
    l2_u0 = np.sqrt(grid.h) * np.linalg.norm(data.u0)
    c1 = project_l2(data.u1, basis)
    dual_u1 = np.sqrt(np.sum(c1 * c1 / basis.lambdas))
    f_term = 0.0
    if source is not None:
        cf = project_l2(np.asarray(source, dtype=float), basis)
        dual_sq = np.sum(cf * cf / basis.lambdas[None, :], axis=1)
        w = trapezoid_weights(grid.n_t, grid.dt)
        f_term = np.sqrt(np.sum(w * dual_sq))
    return float(l2_u0 + dual_u1 + f_term)
