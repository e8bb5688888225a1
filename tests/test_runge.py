import numpy as np
import pytest

import fracwave as fw
from fracwave.runge import (
    approximate_target,
    dump_sweep_csv,
    forward_map,
    st_inner,
    st_norm,
    sweep_alpha,
    sweep_enrichment,
)
from conftest import case


def setup(n_t=128):
    grid, op, basis = case(n_int=20, s=0.7, n_t=n_t)
    controls = fw.control_basis(grid, grid.w_mask(1), 2)
    return grid, op, basis, controls


def test_st_inner_matches_manual(rng):
    grid, _, _, _ = setup(n_t=16)
    a = rng.standard_normal((grid.n_t + 1, grid.n_int))
    b = rng.standard_normal((grid.n_t + 1, grid.n_int))
    w = fw.trapezoid_weights(grid.n_t, grid.dt)
    manual = grid.h * np.sum(w[:, None] * a * b)
    assert st_inner(a, b, grid) == pytest.approx(manual, rel=1e-13)
    assert st_norm(a, grid) == pytest.approx(np.sqrt(st_inner(a, a, grid)), rel=1e-13)
    stack_a = rng.standard_normal((3, grid.n_t + 1, grid.n_int))
    stack_b = rng.standard_normal((2, grid.n_t + 1, grid.n_int))
    gram = fw.st_gram(stack_a, stack_b, grid)
    assert gram.shape == (3, 2)
    for i, u in enumerate(stack_a):
        for j, v in enumerate(stack_b):
            assert gram[i, j] == pytest.approx(st_inner(u, v, grid), rel=1e-13)


def test_forward_map_linearity():
    grid, op, basis, controls = setup()
    states = forward_map(controls, op, grid)
    assert states.shape == (len(controls), grid.n_t + 1, grid.n_int)
    combo = fw.combine_controls(controls[:2], [1.5, -2.0])
    combo_state = forward_map([combo], op, grid)[0]
    np.testing.assert_allclose(
        combo_state, 1.5 * states[0] - 2.0 * states[1], atol=1e-11
    )


def test_in_span_target_recovered():
    grid, op, basis, _ = setup()
    # large controls keep the state Gram well above the regularization floor
    controls = [
        fw.tensor_control(grid, 0, f, mask=grid.w_mask(1), amplitude=100.0)
        for f in (1, 2, 3)
    ]
    states = forward_map(controls, op, grid)
    truth = np.array([1.0, -0.5, 0.25])
    target = np.einsum("a,atx->tx", truth, states)
    sol = approximate_target(
        target, controls, op, grid, alpha=1e-12, states=states
    )
    np.testing.assert_allclose(sol.coeffs, truth, atol=1e-6)
    assert sol.residual <= 1e-8
    np.testing.assert_allclose(
        sol.achieved, np.einsum("a,atx->tx", sol.coeffs, states), atol=1e-12
    )


def test_solution_diagnostics_consistent():
    grid, op, basis, controls = setup()
    target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
    sol = approximate_target(target, controls, op, grid, alpha=1e-6)
    assert sol.residual == pytest.approx(sol.misfit / st_norm(target, grid), rel=1e-12)
    assert sol.objective == pytest.approx(
        sol.misfit**2 + sol.alpha * sol.coeff_norm**2, rel=1e-12
    )
    assert sol.gram_cond >= 1.0


def test_approximate_target_validations():
    grid, op, basis, controls = setup(n_t=16)
    target = np.zeros((grid.n_t + 1, grid.n_int))
    with pytest.raises(ValueError):
        approximate_target(target, controls, op, grid, alpha=0.0)
    with pytest.raises(ValueError):
        approximate_target(target[:-1], controls, op, grid)
    bad_states = np.zeros((1, grid.n_t + 1, grid.n_int))
    with pytest.raises(ValueError):
        approximate_target(target, controls, op, grid, states=bad_states)


def test_alpha_sweep_monotone():
    grid, op, basis, controls = setup()
    target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
    alphas = tuple(10.0**-k for k in range(2, 9))
    rows = sweep_alpha(target, controls, op, grid, alphas=alphas)
    resid = np.array([r.residual for r in rows])
    coeff = np.array([r.coeff_norm for r in rows])
    assert np.all(np.diff(resid) <= 1e-12)
    # shrinking alpha can only let the coefficients grow
    assert np.all(np.diff(coeff) >= -1e-12)


def test_enrichment_lowers_objective():
    grid, op, basis, controls = setup()
    target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
    rows = sweep_enrichment(target, controls, op, grid, alpha=1e-8)
    sizes = [k for k, _ in rows]
    assert sizes == list(range(1, len(controls) + 1))
    objectives = np.array([r.objective for _, r in rows])
    assert np.all(np.diff(objectives) <= 1e-12)
    with pytest.raises(ValueError):
        sweep_enrichment(target, controls, op, grid, sizes=(0,))


def test_sweep_csv_roundtrip(tmp_path):
    grid, op, basis, controls = setup(n_t=32)
    target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
    rows = sweep_alpha(target, controls, op, grid, alphas=(1e-4, 1e-6))
    path = tmp_path / "sweep.csv"
    dump_sweep_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("alpha,")
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == rows[0].alpha
    assert first[1] == rows[0].misfit
    assert first[2] == rows[0].residual
