"""Self-contained invariant checks.

Each check builds its own small configuration, exercises one structural
property the rest of the package relies on, and returns a flat dict of
scalar diagnostics.  `run_checks` executes a deterministic batch from a
seed, in which the checks share one operator (and eigenbasis) per order
and size; the CLI serializes the result, and reruns with the same seed
must produce identical bytes.  Each check gets a fresh `random.Random(seed)`
and draws its test vectors through `_normals`: 53-bit uniforms from the
generator's `randbytes`, turned into standard normals by Box-Muller.  The
standard library's generator is used so that no run loads `numpy.random`.
The two sides of the energy estimate that the `energy` check compares,
`sup_energy` and `data_energy`, live here.
"""
from __future__ import annotations

import random
from typing import Callable

import numpy as np

from .fields import CauchyData, control_basis, tensor_control
from .forward import (
    WaveSolution,
    _modal_coefficients,
    _trajectory,
    solve_linear_modal,
    solve_newmark,
    solve_with_potential_picard,
    trapezoid_weights,
    very_weak_residual,
)
from .dnmap import dn_matrix, forward_map
from .fracop import FracOperator, assemble_operator, centered_weights
from .grid import Grid, build_grid
from .inversion import reaction_from_march
from .nonlinearity import PolyNonlinearity
from .runge import approximate_target, st_norm
from .spectral import SpectralBasis, dual_norm, dual_norm_variational, project_l2

__all__ = ["CHECKS", "THRESHOLDS", "run_checks", "report_lines", "sup_energy", "data_energy"]


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


# (s, n_int, n_t, T) -> (grid, op); a check takes a seeded stdlib generator
# and the setup factory of its batch
Setup = Callable[..., tuple]
CHECKS: dict[str, Callable[[random.Random, Setup], dict]] = {}


def _register(name: str):
    def deco(fn):
        CHECKS[name] = fn
        return fn

    return deco


def _normals(rng: random.Random, shape) -> np.ndarray:
    """Standard normal draws of `shape` from the stdlib generator, with no
    Python loop over elements: `randbytes` gives 53-bit uniforms, and
    Box-Muller turns each pair of them into a cos and a sin draw."""
    n = int(np.prod(shape))
    half = (n + 1) // 2
    u = (np.frombuffer(rng.randbytes(16 * half), "<u8") >> 11) * 2.0**-53  # [0, 1)
    radius = np.sqrt(-2.0 * np.log1p(-u[:half]))
    angle = 2.0 * np.pi * u[half:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(shape)


def _setups() -> Setup:
    """Small-configuration factory for one batch of checks.  Grids are built
    per call; the operator depends only on s and the spatial grid, so one
    operator (and with it one eigensolve) per (s, n_int) is shared."""
    ops: dict[tuple[float, int], FracOperator] = {}

    def setup(s: float = 0.7, n_int: int = 24, n_t: int = 128, T: float = 1.0):
        grid = build_grid(
            x_min=0.0, x_max=1.0, n_int=n_int, m_collar=3,
            w1=(0, 1, 2), w2=(3, 4, 5), T=T, n_t=n_t,
        )
        if (s, n_int) not in ops:
            ops[s, n_int] = assemble_operator(grid, s)
        return grid, ops[s, n_int]

    return setup


@_register("weights")
def check_weights(rng: random.Random, setup: Setup) -> dict:
    w = centered_weights(0.5, 40)
    closed_form_gap = abs(w[0] - 4.0 / np.pi)
    # three-term recurrence g_{j+1} = g_j (j - s) / (j + s + 1)
    rec_gap = 0.0
    for s in (0.3, 0.5, 0.8):
        g = centered_weights(s, 60)
        j = np.arange(1, 59)
        rec = g[j] * (j - s) / (j + s + 1.0)
        rec_gap = max(rec_gap, float(np.max(np.abs(rec - g[j + 1]))))
    return {"closed_form_gap": closed_form_gap, "recurrence_gap": rec_gap}


@_register("operator_symmetry")
def check_operator_symmetry(rng: random.Random, setup: Setup) -> dict:
    out = {}
    for s in (0.4, 1.0, 1.5):
        _, op = setup(s, n_int=20, n_t=8)
        a = op.a_full
        out[f"asymmetry_s{s}"] = float(np.abs(a - a.T).max() / np.abs(a).max())
    return out


@_register("gram")
def check_gram(rng: random.Random, setup: Setup) -> dict:
    grid, op = setup()
    basis = op.basis
    g_l2 = grid.h * basis.modes.T @ basis.modes
    dev_l2 = float(np.max(np.abs(g_l2 - np.eye(basis.n_modes))))
    scaled = basis.modes / np.sqrt(basis.lambdas)[None, :]
    g_hs = grid.h * scaled.T @ op.a_int @ scaled
    dev_hs = float(np.max(np.abs(g_hs - np.eye(basis.n_modes))))
    return {"l2_gram_dev": dev_l2, "hs_gram_dev": dev_hs}


@_register("dual_norm")
def check_dual_norm(rng: random.Random, setup: Setup) -> dict:
    grid, op = setup()
    worst = 0.0
    for _ in range(10):
        g = _normals(rng, grid.n_int)
        a = dual_norm(g, op.basis)
        b = dual_norm_variational(g, op)
        worst = max(worst, abs(a - b) / max(a, b))
    return {"relative_gap": worst}


@_register("duhamel")
def check_duhamel(rng: random.Random, setup: Setup) -> dict:
    t = np.linspace(0.0, 1.0, 257)
    # one mode: c'' + 4 c = 0, c(0) = 1, c'(0) = 2, and c'' + c = 1 from rest
    (c,), _ = _modal_coefficients(np.array([4.0]), np.array([1.0]), np.array([2.0]), None, t)
    exact = np.cos(2 * t) + np.sin(2 * t)
    free_gap = float(np.max(np.abs(c - exact)))
    zero = np.array([0.0])
    (c2,), _ = _modal_coefficients(np.array([1.0]), zero, zero, np.ones((1, t.size)), t)
    forced_gap = float(np.max(np.abs(c2 - (1.0 - np.cos(t)))))
    return {"free_gap": free_gap, "forced_gap": forced_gap}


@_register("energy")
def check_energy(rng: random.Random, setup: Setup) -> dict:
    grid, op = setup()
    basis = op.basis
    bound = np.sqrt(3.0) * max(1.0, np.sqrt(grid.T))
    worst = -np.inf
    for _ in range(8):
        data = CauchyData(_normals(rng, grid.n_int), _normals(rng, grid.n_int))
        src = _normals(rng, (grid.n_t + 1, grid.n_int))
        sol = solve_linear_modal(basis, data, src, grid)
        lhs = sup_energy(sol, basis, grid)
        rhs = data_energy(data, src, basis, grid)
        worst = max(worst, lhs / rhs - bound)
    return {"worst_slack": worst, "bound": bound}


@_register("picard")
def check_picard(rng: random.Random, setup: Setup) -> dict:
    grid, op = setup(n_t=256, T=0.5)
    basis = op.basis
    q0 = 2.0
    q = np.full(grid.n_int, q0)
    mode1 = basis.modes[:, 0]
    data = CauchyData(mode1.copy(), np.zeros(grid.n_int))
    sol, report = solve_with_potential_picard(basis, q, data, None, grid)
    t = grid.times()
    exact = np.cos(np.sqrt(basis.lambdas[0] + q0) * t)[:, None] * mode1[None, :]
    gap = float(np.max(np.abs(sol.u - exact)))
    return {
        "closed_form_gap": gap,
        "contraction": report.contraction,
        "theta": report.theta,
    }


@_register("transposition")
def check_transposition(rng: random.Random, setup: Setup) -> dict:
    grid, op = setup()
    basis = op.basis
    data = CauchyData(_normals(rng, grid.n_int), _normals(rng, grid.n_int))
    src = _normals(rng, (grid.n_t + 1, grid.n_int))
    g = _normals(rng, (grid.n_t + 1, grid.n_int))
    sol = solve_linear_modal(basis, data, src, grid)
    res = very_weak_residual(sol.u, data, src, None, g, basis, grid)
    return {"residual": res}


@_register("reciprocity")
def check_reciprocity(rng: random.Random, setup: Setup) -> dict:
    grid, op = setup(n_t=96)
    controls = control_basis(grid, grid.w_mask(1), 2)
    tests = control_basis(grid, grid.w_mask(2), 2)
    m12 = dn_matrix(op, grid, controls, tests)
    m21 = dn_matrix(op, grid, tests, controls)
    gap = float(np.max(np.abs(m12 - m21.T)))
    scale = float(np.max(np.abs(m12)))
    return {"asymmetry": gap / max(scale, 1e-300)}


@_register("runge")
def check_runge(rng: random.Random, setup: Setup) -> dict:
    grid, op = setup(n_t=96)
    # one node, three time frequencies: independent states, benign Gram;
    # amplitudes sized so the states are O(1) and alpha is not scale-starved
    controls = 100.0 * control_basis(grid, grid.w_mask(1), 3)[:3]
    states = forward_map(controls, op, grid)
    target = np.einsum("a,atx->tx", np.array([1.0, -0.5, 0.25]), states)
    sols = approximate_target(target, controls, op, grid, (1e-2, 1e-6, 1e-10))
    # recomputed from forward_map's states, not read off the streamed fit
    scale = st_norm(target, grid)
    residuals = [
        st_norm(np.einsum("a,atx->tx", sol.coeffs, states) - target, grid) / scale
        for sol in sols
    ]
    drops = all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    return {
        "residual_alpha_small": residuals[-1],
        "alpha_monotone": bool(drops),
    }


@_register("reaction")
def check_reaction(rng: random.Random, setup: Setup) -> dict:
    grid, op = setup(n_t=512, T=0.5)
    model = PolyNonlinearity.single(1.0, 0.3, n_nodes=grid.n_int)
    control = tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    full = solve_newmark(op, grid, model=model, control=control)
    reaction = reaction_from_march(full, op, grid)
    u_int = grid.restrict(full)[1:-1]
    expected = model.evaluate(u_int)
    gap = float(np.max(np.abs(reaction - expected)))
    return {"differencing_gap": gap}


def _pyify(value):
    """Plain-python scalars only: diagnostic payloads are serialized and
    printed, so numpy scalar types must not leak through."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def run_checks(names: list[str] | None = None, seed: int = 0) -> dict:
    """Run the named checks (all by default) with a fresh seeded generator
    per check, so the batch composition never shifts the draws; the checks
    of one call share their operators.  An empty list or an unknown name
    raises ValueError: a verification that checks nothing cannot pass."""
    if names is None:
        names = sorted(CHECKS)
    if not names:
        raise ValueError("no checks named")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; known: {sorted(CHECKS)}")
    setup = _setups()
    results = {}
    for name in names:
        rng = random.Random(seed)
        results[name] = {k: _pyify(v) for k, v in CHECKS[name](rng, setup).items()}
    return {"seed": seed, "checks": results}


# Pass bounds per diagnostic.  Keys not listed are informational.  A prefix
# entry ("key*") bounds every diagnostic whose name starts with it; True
# means the value itself must be truthy.
THRESHOLDS: dict[str, dict[str, float | bool]] = {
    "weights": {"closed_form_gap": 1e-12, "recurrence_gap": 1e-12},
    "operator_symmetry": {"asymmetry*": 1e-10},
    "gram": {"l2_gram_dev": 1e-8, "hs_gram_dev": 1e-8},
    "dual_norm": {"relative_gap": 1e-10},
    "duhamel": {"free_gap": 1e-6, "forced_gap": 1e-6},
    "energy": {"worst_slack": 1e-6},
    "picard": {"closed_form_gap": 1e-6, "contraction": 1.0},
    "transposition": {"residual": 1e-6},
    "reciprocity": {"asymmetry": 1e-8},
    "runge": {"residual_alpha_small": 1e-6, "alpha_monotone": True},
    "reaction": {"differencing_gap": 1e-9},
}


def _bound_for(name: str, key: str) -> float | bool | None:
    table = THRESHOLDS.get(name, {})
    if key in table:
        return table[key]
    for pattern, bound in table.items():
        if pattern.endswith("*") and key.startswith(pattern[:-1]):
            return bound
    return None


def report_lines(payload: dict) -> tuple[bool, list[str]]:
    """Render a run_checks payload as one line per check with PASS/FAIL
    verdicts; returns (all_passed, lines)."""
    lines = [f"invariant suite, seed {payload['seed']}"]
    all_ok = True
    for name in sorted(payload["checks"]):
        diags = payload["checks"][name]
        ok = True
        parts = []
        for key in sorted(diags):
            value = diags[key]
            bound = _bound_for(name, key)
            if bound is True:
                ok = ok and bool(value)
            elif bound is not None:
                ok = ok and (value <= bound)
            parts.append(f"{key}={value!r}")
        all_ok = all_ok and ok
        verdict = "PASS" if ok else "FAIL"
        lines.append(f"[{verdict}] {name}: " + " ".join(parts))
    lines.append("result: " + ("ALL PASS" if all_ok else "FAILURES PRESENT"))
    return all_ok, lines
