"""Wave solvers: modal Duhamel, potentials (exact sweep and Picard oracle),
explicit time stepping, and the weak-form residual checks.

Trajectories are plain float arrays, (n_t+1, n_int) or (n_t+1, n_nodes);
`_trajectory` checks one that enters from outside (a state, a source, a
test function or a target), as `_potential` does a potential.

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
Per mode, with theta = w dt and g = dt sin(theta) / w, that sum obeys

    c_{j+1} - 2 cos(theta) c_j + c_{j-1} = g f_j  (j >= 1),  c_0 = 0,  c_1 = g f_0 / 2,

a Gautschi-type two-step trigonometric integrator (Hochbruck & Lubich,
Numer. Math. 83 (1999) 403-426).  It is stepped in Reinsch's difference
form d_{j+1} = d_j - 4 sin^2(theta/2) c_j + g f_j, c_{j+1} = c_j + d_{j+1}
(Gentleman, Comput. J. 12 (1969) 160-165): the plain form rounds
2 cos(theta) near 2 and the low modes drift in phase as n_t^2, 1.1e-9 off
a long-double run of the cos/sin sums at n_int = 48, n_t = 4096, where the
difference form is 3.3e-15 off.  The basis is complete (h Phi Phi^T = I),
so the sweep runs the recurrence on nodal states (`solve_with_potential`).

Every space-time pairing in this package uses the trapezoid weights of
`st_gram` (the Runge fit applies them to its design matrix directly); that
choice makes the discrete solution operator exactly self-adjoint under time
reversal, which the transposition-style residual identities below inherit.

Time stepping route.  An explicit central-difference (Stormer-Verlet) march
on the full grid doubles as an independent oracle for the modal solver and
as the workhorse for semilinear models, under the usual CFL restriction
dt <= 2 / sqrt(lambda_max (1 + CFL_MARGIN)).  The march always advances a
batch: the states of B exterior controls live in one time-major
(slices, B, n_nodes) buffer and each step costs one (B, n_nodes) product
with the interior rows of A, so an amplitude ladder or a control basis is
one march, not one per control.  `solve_newmark` gives it n_t+1 slices;
`march_slabs` gives it MARCH_SLAB + 2 and hands them over each time they
fill, keeping the two the next step needs, so a time reduction streams.
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

from dataclasses import dataclass

import numpy as np

from .fields import CauchyData, _controls
from .fracop import FracOperator
from .grid import Grid
from .nonlinearity import PolyNonlinearity
from .spectral import SpectralBasis, project_l2, reconstruct

__all__ = [
    "WaveSolution",
    "PicardReport",
    "PicardError",
    "SolverBlowupError",
    "solve_linear_modal",
    "solve_with_potential",
    "solve_with_potential_picard",
    "solve_newmark",
    "march_slabs",
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
# time steps per slab of `march_slabs` (each slab also repeats two slices)
MARCH_SLAB = 256
# Picard stops once an update falls below PICARD_TOL times the first
# iterate's size, and raises after PICARD_MAX_ITER updates
PICARD_TOL = 1e-12
PICARD_MAX_ITER = 256


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
        fk = project_l2(_trajectory(source, grid.n_int, grid), basis).T  # (K, n_t + 1)
    c, cdot = _modal_coefficients(basis.lambdas, u0k, u1k, fk, tgrid)
    return WaveSolution(u=reconstruct(c.T, basis), udot=reconstruct(cdot.T, basis))


def solve_with_potential(
    values: np.ndarray,
    q: np.ndarray,
    op: FracOperator,
    grid: Grid,
) -> np.ndarray:
    """Interior displacements (B, n_t+1, n_int) of u'' + A u + q u = 0 driven
    by a stack of exterior control values (B, n_t+1, n_ext), zero Cauchy data.

    One sweep of the difference form of the module docstring on nodal rows
    u_j, with v_j = u_j - u_{j-1}:

        v_{j+1} = v_j + u_j D + drive_j,    u_{j+1} = u_j + v_{j+1},

    from u_0 = 0 and u_1 = v_1 = drive_0 / 2, where
    D = -h (Phi diag(4 sin^2(theta/2)) + diag(q) Phi diag(g)) Phi^T,
    drive_j = values_j L and L = -h a_ie^T Phi diag(g) Phi^T.  Each step is
    one (B, n_int) x (n_int, n_int) product, and 4 sin^2(theta/2) stands
    for 2 - 2 cos(theta) without its cancellation.  Exact for any q, also
    where A_int + diag(q) is indefinite.  Slot j+1 of the output holds
    drive_j until step j overwrites it, so no second state-sized array exists.
    """
    q = _potential(q, grid)
    values = _controls(values, grid, (3,))
    h, phi, om = grid.h, op.basis.modes, op.basis.omegas
    theta = grid.dt * om
    g = grid.dt * np.sin(theta) / om
    a_ie = op.a_full[grid.interior_slice, :][:, grid.exterior_indices]
    lift = -h * ((a_ie.T @ phi) * g) @ phi.T  # L, (n_ext, n_int)
    gap = 4.0 * np.sin(0.5 * theta) ** 2
    step = -h * ((phi * gap + (q[:, None] * phi) * g) @ phi.T)  # D, (n_int, n_int)

    states = np.empty((values.shape[0], grid.n_t + 1, grid.n_int))
    states[:, 0] = 0.0
    np.matmul(values[:, :-1], lift, out=states[:, 1:])  # slot j+1: drive_j
    states[:, 1] *= 0.5
    v = states[:, 1].copy()
    dv = np.empty_like(v)
    for j in range(1, grid.n_t):
        np.matmul(states[:, j], step, out=dv)
        dv += states[:, j + 1]
        v += dv
        np.add(states[:, j], v, out=states[:, j + 1])
    return states


@dataclass(frozen=True)
class PicardReport:
    theta: float
    contraction: float  # max observed successive-update ratio
    iterations: int
    final_update: float
    thetas_tried: tuple[float, ...]  # always (theta,)


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
    theta: float = 1.0,
) -> tuple[WaveSolution, PicardReport]:
    """Fixed point of u -> S(F - q u), iterated from the modal solve S F.

    theta only sets the norm sup_t e^(-theta t) ||u(t)||_L2 of the stopping
    test; the iterates do not depend on it.  The iteration stops once an
    update is at most PICARD_TOL times the size of the first iterate, and
    raises a PicardError carrying its report when that has not happened
    after PICARD_MAX_ITER updates (a NaN update never passes the test).  A q
    that is None or all zero returns the plain modal solve, bit for bit.
    """
    theta = float(theta)
    if q is not None:
        q = _potential(q, grid)
    current = solve_linear_modal(basis, data, source, grid)
    if q is None or not np.any(q):
        return current, PicardReport(theta, 0.0, 1, 0.0, (theta,))

    tgrid = grid.times()
    scale = max(_theta_norm(current.u, theta, tgrid, grid.h), 1e-300)
    contraction, prev_update = 0.0, np.inf  # the first update has ratio 0
    for iterations in range(1, PICARD_MAX_ITER + 1):
        src = -q[None, :] * current.u
        if source is not None:
            src = src + source
        nxt = solve_linear_modal(basis, data, src, grid)
        update = _theta_norm(nxt.u - current.u, theta, tgrid, grid.h)
        if prev_update > 1e3 * np.finfo(float).eps * scale:
            contraction = max(contraction, update / prev_update)
        current = nxt
        report = PicardReport(theta, contraction, iterations, update, (theta,))
        if update <= PICARD_TOL * scale:
            return current, report
        prev_update = update
    raise PicardError(
        f"no convergence in {PICARD_MAX_ITER} updates at theta = {theta:g}", report
    )


def newmark_dt_bound(op: FracOperator) -> float:
    """Stable step bound 2 / sqrt(lambda_max (1 + CFL_MARGIN)); lambda_max is
    the Gershgorin row-sum bound of the interior block (safe overestimate)."""
    lam_max = float(np.abs(op.a_int).sum(axis=1).max())
    return 2.0 / np.sqrt(lam_max * (1.0 + CFL_MARGIN))


def _march(op, grid, model, control, data, source, span):
    """The march of `solve_newmark`'s arguments through a reused buffer of
    span time slices, as a generator; its checks run on the first slab."""
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
    if data.u0.shape[0] != grid.n_int:
        raise ValueError(
            f"data has {data.u0.shape[0]} nodes, grid interior is {grid.n_int}"
        )
    if source is not None:
        source = _trajectory(source, grid.n_int, grid)
    if control is None:
        control = np.zeros((grid.n_t + 1, grid.n_ext))
    values = _controls(control, grid)
    values = values.reshape(-1, *values.shape[-2:]).transpose(1, 0, 2)  # time-major

    n_t, interior, ext = grid.n_t, grid.interior_slice, grid.exterior_indices
    buf = np.empty((min(span, n_t + 1), values.shape[1], grid.n_nodes))
    stiff_t = op.a_full[interior].T  # (n_nodes, n_int): rows of A on the interior

    def force(r: int, n: int, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        """A u + q u + f(x, u) - F at step n, buffer row r, into g."""
        np.matmul(buf[r], stiff_t, out=g)
        if q is not None:
            g += q * u
        if nonlin is not None:
            g += nonlin.evaluate(u)
        if source is not None:
            g -= source[n]
        return g

    t0 = 0  # the step held in buffer row 0
    buf[:, :, ext] = values[: len(buf)]
    buf[0, :, interior] = data.u0
    u_prev = buf[0, :, interior].copy()  # rolling contiguous (B, n_int) rows
    g = np.empty_like(u_prev)
    u = data.u0 + dt * data.u1 - 0.5 * dt * dt * force(0, 0, u_prev, g)
    buf[1, :, interior] = u
    new = np.empty_like(u)
    for n in range(1, n_t):
        r = n - t0
        force(r, n, u, g)
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
        buf[r + 1, :, interior] = new
        u_prev, u, new = u, new, u_prev
        if r + 2 == len(buf) and n + 1 < n_t:  # full: hand over, keep two
            yield buf
            buf[:2] = buf[-2:]
            t0 = n
            buf[2 : n_t + 1 - n, :, ext] = values[n + 2 : n + len(buf)]
    yield buf[: n_t + 1 - t0]


def march_slabs(op, grid, model=None, control=None, data=None, source=None):
    """`solve_newmark`'s march (same arguments) as time-major (m, B, n_nodes)
    views of one reused (MARCH_SLAB + 2, B, n_nodes) buffer, B = 1 for one
    control or none.  Each slab after the first starts with the last two
    slices of the one before, the last ends at slice n_t, and joined without
    the repeats they are `solve_newmark`'s output bit for bit.  The checks
    run when the first slab is asked for, and a slab is overwritten when the
    next is."""
    return _march(op, grid, model, control, data, source, MARCH_SLAB + 2)


def solve_newmark(
    op: FracOperator,
    grid: Grid,
    model: PolyNonlinearity | np.ndarray | None = None,
    control: np.ndarray | None = None,
    data: CauchyData | None = None,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Explicit central-difference march of
    u'' + A u + q u + f(x, u) = F on the full grid; model is the potential
    q (an interior array) or the nonlinearity f.

    Exterior nodes follow the control (zero when absent); interior nodes
    start from the Cauchy data with a second-order startup step.  One
    control (n_t+1, n_ext), or None, returns its full-grid trajectory
    (n_t+1, n_nodes); a stack of B controls (B, n_t+1, n_ext) is marched as
    one batch, sharing the model, data and source, and returns the
    (B, n_t+1, n_nodes) trajectories in control order, a view of the batch
    buffer.  Raises on CFL violation and on Cauchy data or controls that do
    not fit the grid, and aborts with the step index and the batch rows when
    the march produces non-finite values.

    The step arithmetic of the module docstring is a contract with
    `inversion.reaction_from_march`, which inverts it to read q u + f back.
    A fused step matrix 2I - dt^2 A is cheaper but not the same arithmetic:
    at n_int = 48, n_t = 8192 it moved the trajectories by a few 1e-12 and
    the recovered second term of f (invert-f, two terms) from 2.0e-4 to
    3.7e-3 relative error, because the amplitude ladder divides the
    reaction's roundoff by small rungs.
    """
    (full,) = _march(op, grid, model, control, data, source, grid.n_t + 1)
    return full[:, 0] if np.ndim(control) < 3 else full.transpose(1, 0, 2)


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
    g = _trajectory(g, grid.n_int, grid)
    if source is not None:
        source = _trajectory(source, grid.n_int, grid)

    # Picard returns the plain modal solve when q is None or zero
    back, _ = solve_with_potential_picard(
        basis, q, CauchyData.zero(grid.n_int), g[::-1].copy(), grid
    )
    v = back.u[::-1]
    v0 = back.u[-1]
    vdot0 = -back.udot[-1]  # chain rule under t -> T - t

    lhs = st_inner(u, g, grid)
    rhs = grid.h * float(data.u1 @ v0) - grid.h * float(data.u0 @ vdot0)
    if source is not None:
        rhs += st_inner(source, v, grid)
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
        cf = project_l2(_trajectory(source, grid.n_int, grid), basis)
        dual_sq = np.sum(cf * cf / basis.lambdas[None, :], axis=1)
        w = trapezoid_weights(grid.n_t, grid.dt)
        f_term = np.sqrt(np.sum(w * dual_sq))
    return float(l2_u0 + dual_u1 + f_term)
