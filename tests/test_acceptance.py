"""Acceptance battery.

One test per required behavior; each prints a single pass/fail line under
pytest -v.  Every tolerance below is asserted at the stated level, with
configurations at desk scale (n_int <= 128, n_t <= 1024).
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import fracwave as fw
from fracwave.fields import CauchyData, control_basis, tensor_control, time_window
from fracwave.forward import (data_energy, distributional_residual,
                              march_slabs, solve_linear_modal, solve_newmark,
                              solve_with_potential_picard, sup_energy,
                              very_weak_residual)
from fracwave.dnmap import dn_matrix, forward_map
from fracwave.inversion import (linear_response, reaction_from_march,
                                recover_expansion, recover_potential)
from fracwave.runge import approximate_target, st_norm
from fracwave.spectral import dual_norm, dual_norm_variational

from conftest import case

SUITE_ORDERS = (0.3, 0.5, 0.8, 1.5)
SUITE_SIZES = (32, 64, 128)


@pytest.fixture(scope="module")
def suite_bases():
    """The twelve spectral configurations shared by the basis-quality and
    dual-norm criteria."""
    out = {}
    for s in SUITE_ORDERS:
        for n in SUITE_SIZES:
            out[(s, n)] = case(n_int=n, s=s, n_t=8)
    return out


def test_c01_triple_basis_grams_are_identity(suite_bases):
    """L2, fractional-energy, and dual Gram matrices of the eigenbasis all
    match the identity to 1e-8 in max-entry norm, for every order and size."""
    for (s, n), (grid, op, basis) in suite_bases.items():
        eye = np.eye(basis.n_modes)
        v = basis.modes
        lam = basis.lambdas

        g_l2 = grid.h * v.T @ v
        w = v / np.sqrt(lam)[None, :]
        g_hs = grid.h * w.T @ op.a_int @ w
        u = v * np.sqrt(lam)[None, :]
        g_dual = grid.h * u.T @ np.linalg.solve(op.a_int, u)

        for name, gram in (("l2", g_l2), ("hs", g_hs), ("dual", g_dual)):
            dev = np.max(np.abs(gram - eye))
            assert dev <= 1e-8, f"s={s} n={n} {name} gram deviation {dev:.3e}"


def test_c02_dual_norm_routes_agree(suite_bases):
    """Spectral-sum and variational evaluations of the dual norm agree to
    1e-10 relative on 50 random functionals per configuration."""
    for (s, n), (grid, op, basis) in suite_bases.items():
        rng = np.random.default_rng(1000 + n + round(100 * s))
        for _ in range(50):
            g = rng.standard_normal(grid.n_int)
            a = dual_norm(g, basis)
            b = dual_norm_variational(g, op)
            assert abs(a - b) <= 1e-10 * a, f"s={s} n={n}: {a} vs {b}"


def test_c03_duhamel_closed_forms_and_newmark_slope():
    """Single-mode free, constant-forced, and resonant evolutions match
    their closed forms to 1e-6 at n_t=1024; the modal-vs-Newmark gap
    shrinks at second order under dt halving (slope 2.0 +- 0.3)."""
    grid, op, basis = case(n_int=24, s=0.7, n_t=1024, T=1.0)
    lam = basis.lambdas[0]
    om = np.sqrt(lam)
    mode = basis.modes[:, 0]
    t = grid.times()

    def gap(sol, exact):
        return np.max(np.sqrt(grid.h)
                      * np.linalg.norm(sol.u - exact, axis=1))

    sol = solve_linear_modal(basis, CauchyData(mode, np.zeros_like(mode)),
                             None, grid)
    assert gap(sol, np.cos(om * t)[:, None] * mode[None, :]) <= 1e-6

    src = np.ones((grid.n_t + 1, 1)) * mode[None, :]
    sol = solve_linear_modal(basis, CauchyData.zero(grid.n_int), src, grid)
    exact = ((1 - np.cos(om * t)) / lam)[:, None] * mode[None, :]
    assert gap(sol, exact) <= 1e-6

    src = np.sin(om * t)[:, None] * mode[None, :]
    sol = solve_linear_modal(basis, CauchyData.zero(grid.n_int), src, grid)
    exact = (((np.sin(om * t) - om * t * np.cos(om * t)) / (2 * lam))
             [:, None] * mode[None, :])
    assert gap(sol, exact) <= 1e-6

    rng = np.random.default_rng(5)
    gaps = []
    nts = [64, 128, 256, 512, 1024]
    for n_t in nts:
        g2, o2, b2 = case(n_int=24, s=0.7, n_t=n_t, T=1.0)
        c0 = rng.standard_normal(6) / (1 + np.arange(6)) ** 2
        c1 = rng.standard_normal(6) / (1 + np.arange(6)) ** 2
        data = CauchyData(b2.modes[:, :6] @ c0, b2.modes[:, :6] @ c1)
        sm = solve_linear_modal(b2, data, None, g2)
        sn_int = g2.restrict(solve_newmark(o2, g2, data=data))
        gaps.append(np.max(np.sqrt(g2.h)
                           * np.linalg.norm(sm.u - sn_int, axis=1)))
    slope = -np.polyfit(np.log(nts), np.log(gaps), 1)[0]
    assert 1.7 <= slope <= 2.3, f"integrator slope {slope:.3f}, gaps {gaps}"


def test_c04_energy_estimate_holds_on_random_data():
    """sup_t(||u|| + ||du/dt||_dual) stays below
    sqrt(3) max(1, sqrt(T)) (||u0|| + ||u1||_dual + ||F||) on 50 random
    data/source triples across three horizons, with 1e-6 slack."""
    rng = np.random.default_rng(7)
    worst = -np.inf
    for T, n_runs in ((0.25, 17), (1.0, 17), (4.0, 16)):
        grid, op, basis = case(n_int=24, s=0.7, n_t=128, T=T)
        for _ in range(n_runs):
            u0 = rng.standard_normal(grid.n_int)
            u1 = rng.standard_normal(grid.n_int)
            src = rng.standard_normal((grid.n_t + 1, grid.n_int))
            data = CauchyData(u0, u1)
            sol = solve_linear_modal(basis, data, src, grid)
            lhs = sup_energy(sol, basis, grid)
            rhs = (np.sqrt(3) * max(1, np.sqrt(T))
                   * data_energy(data, src, basis, grid))
            worst = max(worst, lhs - rhs)
    assert worst <= 1e-6, f"worst energy slack {worst:.3e}"


def test_c05_picard_matches_shifted_eigenvalue_and_contracts():
    """Constant potentials reproduce the frequency-shifted closed form to
    1e-6; the Picard iteration contracts (<1) on every run and the
    contraction factor drops when the damping weight doubles."""
    grid, op, basis = case(n_int=24, s=0.7, n_t=1024, T=0.5)
    mode = basis.modes[:, 0]
    data = CauchyData(mode.copy(), np.zeros(grid.n_int))
    t = grid.times()
    for q0 in (0.5, 2.0, 10.0):
        q = np.full(grid.n_int, q0)
        sol, report = solve_with_potential_picard(basis, q, data, None, grid)
        exact = (np.cos(np.sqrt(basis.lambdas[0] + q0) * t)[:, None]
                 * mode[None, :])
        gap = np.max(np.abs(sol.u - exact))
        assert gap <= 1e-6, f"q0={q0}: closed-form gap {gap:.3e}"
        assert report.contraction < 1.0

    q = np.full(grid.n_int, 10.0)
    _, slow = solve_with_potential_picard(basis, q, data, None, grid,
                                          theta=20.0)
    _, fast = solve_with_potential_picard(basis, q, data, None, grid,
                                          theta=40.0)
    assert fast.contraction < slow.contraction < 1.0


def test_c06_residuals_accept_truth_and_flag_impostors():
    """On a semilinear-free (potential) solve with data, source, and
    exterior control all active, the very-weak residual is below 1e-6 and
    the distributional residual below 1e-4; fields perturbed by 1% in
    space-time norm score above 1e-3 on both."""
    grid, op, basis = case(n_int=24, s=0.7, n_t=512, T=1.0)
    x = grid.interior_coords
    tt = grid.times()
    q = 1.0 + 0.5 * np.cos(np.pi * x)
    data = CauchyData(np.sin(np.pi * x), 0.3 * np.sin(2 * np.pi * x))
    src = np.outer(np.sin(2 * tt), np.sin(2 * np.pi * x))
    sol, _ = solve_with_potential_picard(basis, q, data, src, grid)

    g = np.outer(np.sin(3 * tt), np.cos(np.pi * x / 2) * x)
    phi = np.outer(time_window(grid, (0.1, 0.8)),
                   np.sin(2 * np.pi * x) + 0.5 * np.sin(np.pi * x))

    r_vw = very_weak_residual(sol.u, data, src, q, g, basis, grid)
    r_d = distributional_residual(sol.u, data, src, q, phi, op, grid)
    assert r_vw <= 1e-6, f"very-weak residual on truth {r_vw:.3e}"
    assert r_d <= 1e-4, f"distributional residual on truth {r_d:.3e}"

    amp = 0.01 * st_norm(sol.u, grid)
    for direction, which in ((g, "vw"), (phi, "dist")):
        bad = sol.u + amp * direction / st_norm(direction, grid)
        if which == "vw":
            r = very_weak_residual(bad, data, src, q, g, basis, grid)
        else:
            r = distributional_residual(bad, data, src, q, phi, op, grid)
        assert r >= 1e-3, f"{which} residual on impostor only {r:.3e}"


def test_c07_dn_reciprocity_under_shared_potential():
    """With identical potentials on both sides, the pairing matrix of
    controls-vs-tests equals the transpose of tests-vs-controls to 1e-8
    relative over an 8x8 battery."""
    grid, op, basis = case(n_int=24, s=0.7, n_t=128, T=1.0)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    controls = control_basis(grid, grid.w_mask(1), 3)[:8]
    probes = control_basis(grid, grid.w_mask(2), 3)[:8]
    m12 = dn_matrix(op, grid, controls, probes, q)
    m21 = dn_matrix(op, grid, probes, controls, q)
    asym = np.max(np.abs(m12 - m21.T)) / np.max(np.abs(m12))
    assert asym <= 1e-8, f"reciprocity asymmetry {asym:.3e}"


def test_c08_runge_sweeps_monotone_and_span_target_reached():
    """Control-fit residuals never increase under regularization decrease
    or basis enrichment (1e-12 slack), and a target inside the reachable
    span is matched below 1e-6 as alpha drops to 1e-10."""
    grid, op, basis = case(n_int=32, s=0.7, n_t=256, T=1.0)
    controls = control_basis(grid, grid.w_mask(1), 3)
    x = grid.interior_coords
    target = np.outer(time_window(grid), np.sin(np.pi * x))

    states = forward_map(controls, op, grid)
    rows = approximate_target(target, states, grid,
                              tuple(10.0 ** -k for k in range(2, 11)))
    res_a = np.array([r.residual for r in rows])
    assert np.all(np.diff(res_a) <= 1e-12), f"alpha sweep {res_a}"

    enr = [approximate_target(target, states[:k], grid, (1e-8,))[0]
           for k in range(1, len(states) + 1)]
    res_e = np.array([r.residual for r in enr])
    assert np.all(np.diff(res_e) <= 1e-12), f"enrichment sweep {res_e}"

    amp_controls = 100.0 * controls[:4]
    states = forward_map(amp_controls, op, grid)
    coeffs = np.array([1.0, -0.5, 0.25, 0.1])
    span_target = np.einsum("a,atx->tx", coeffs, states)
    residuals = [r.residual for r in approximate_target(
        span_target, states, grid, (1e-2, 1e-6, 1e-10))]
    assert residuals[2] <= residuals[1] <= residuals[0]
    assert residuals[2] < 1e-6, f"in-span residual {residuals[2]:.3e}"


def test_c09_potential_recovered_within_ten_percent():
    """A smooth potential is recovered within 10% relative L2 from
    noiseless synthetic pairing data at n_int=64, n_t=256."""
    grid, op, basis = case(n_int=64, s=0.7, n_t=256, T=1.0)
    q_true = np.sin(np.pi * grid.interior_coords)
    controls = control_basis(grid, grid.w_mask(1), 4)
    probes = control_basis(grid, grid.w_mask(2), 4)
    measured = dn_matrix(op, grid, controls, probes, q_true)
    rec = recover_potential(measured, controls, probes, op, grid)
    rel = np.linalg.norm(rec.q_est - q_true) / np.linalg.norm(q_true)
    assert rel <= 0.10, f"potential recovery error {rel:.4f}"


@pytest.fixture(scope="module")
def expansion_setup():
    grid, op, basis = case(n_int=48, s=0.7, n_t=256, T=1.0)
    x = grid.interior_coords
    xh = (x - x[0]) / (x[-1] - x[0])
    profiles = np.stack([1.0 * (1 + 0.3 * np.cos(np.pi * xh)),
                         0.8 * (1 + 0.3 * np.cos(2 * np.pi * xh))])
    model = fw.PolyNonlinearity((0.5, 1.0), profiles)
    control = tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    return grid, op, basis, model, control, profiles


def test_c10_amplitude_scaling_laws(expansion_setup):
    """Over the amplitude ladder 2^-3 .. 2^-9 the remainder norm scales
    with log-log slope r1 + 1 (+- 0.2) and the leading-term extraction
    error with slope r2 - r1 (+- 20%)."""
    grid, op, basis, model, control, profiles = expansion_setup
    ladder = tuple(2.0 ** -k for k in range(3, 10))
    v = linear_response(control, op, grid)
    truth1 = model.term(0).evaluate(v[1:-1])

    rem_norms, ext_errs = [], []
    for eps in ladder:
        u_full = solve_newmark(op, grid, model=model, control=eps * control)
        u_int = grid.restrict(u_full)
        rem_norms.append(st_norm(u_int - eps * v, grid))
        scaled = reaction_from_march(u_full, op, grid) / eps ** 1.5
        ext_errs.append(np.max(np.abs(scaled - truth1)))

    le = np.log(np.asarray(ladder))
    slope_rem = np.polyfit(le, np.log(rem_norms), 1)[0]
    slope_ext = np.polyfit(le, np.log(ext_errs), 1)[0]
    assert 1.3 <= slope_rem <= 1.7, f"remainder slope {slope_rem:.4f}"
    assert 0.4 <= slope_ext <= 0.6, f"extraction slope {slope_ext:.4f}"


def test_c11_two_term_expansion_recovered(expansion_setup):
    """Both coefficient profiles of a two-term expansion are recovered
    (leading within 5%, second within 15%, sup-norm relative), and two
    independent amplitude ladders agree within the sum of their reported
    per-term errors."""
    grid, op, basis, model, control, profiles = expansion_setup
    measure = lambda c: march_slabs(op, grid, model=model, control=c)
    ladder_a = tuple(2.0 ** -k for k in range(3, 10))
    ladder_b = tuple(0.75 * 2.0 ** -k for k in range(3, 10))
    est_a = recover_expansion(measure, control, (0.5, 1.0), op, grid,
                              eps_ladder=ladder_a)
    est_b = recover_expansion(measure, control, (0.5, 1.0), op, grid,
                              eps_ladder=ladder_b)
    assert est_a.resolved == (True, True)
    assert est_b.resolved == (True, True)
    for k, tol in ((0, 0.05), (1, 0.15)):
        rel = (np.max(np.abs(est_a.coeffs[k] - profiles[k]))
               / np.max(np.abs(profiles[k])))
        assert rel <= tol, f"term {k + 1} error {rel:.4e} > {tol}"
        agree = np.max(np.abs(est_a.coeffs[k] - est_b.coeffs[k]))
        budget = est_a.errors[k] + est_b.errors[k]
        assert agree <= budget, (
            f"term {k + 1}: ladder disagreement {agree:.3e} "
            f"exceeds reported {budget:.3e}")


def test_c12_verify_rerun_is_byte_identical(tmp_path):
    """Two self-check runs with the same seed produce byte-identical
    reports and identical artifact hashes."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fracwave", "verify",
             "--out", str(out), "--seed", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    rep_a = (outs[0] / "verify_report.txt").read_bytes()
    rep_b = (outs[1] / "verify_report.txt").read_bytes()
    assert rep_a == rep_b
    man_a = json.loads((outs[0] / "manifest.json").read_text())
    man_b = json.loads((outs[1] / "manifest.json").read_text())
    assert man_a["artifacts"] == man_b["artifacts"]
    assert man_a["config_sha256"] == man_b["config_sha256"]
