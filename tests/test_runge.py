import tracemalloc

import numpy as np
import pytest

import fracwave as fw
from fracwave import cli, runge
from fracwave.dnmap import forward_map
from fracwave.forward import SWEEP_SLAB
from fracwave.runge import approximate_target, st_inner, st_norm
from conftest import case
from oracles import stack_fit


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
    combo = np.tensordot([1.5, -2.0], controls[:2], 1)
    combo_state = forward_map(combo[None], op, grid)[0]
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
    rows = approximate_target(target, controls, op, grid, (1e-12, 1e-6, 1e-2))
    np.testing.assert_allclose(rows[0].coeffs, truth, atol=1e-6)
    assert rows[0].residual <= 1e-8
    # the misfit read off the factorization is that of the superposition;
    # at 1e-12 it is 3e-12 of the target, and recomputing it from the
    # superposition leaves roundoff of the target's own size
    scale = st_norm(target, grid)
    for sol in rows:
        gap = st_norm(np.einsum("a,atx->tx", sol.coeffs, states) - target, grid)
        tol = 1e-10 * sol.misfit if sol.alpha >= 1e-6 else 1e-14 * scale
        assert abs(gap - sol.misfit) <= tol


def test_solution_diagnostics_consistent():
    grid, op, basis, controls = setup()
    target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
    sol, = approximate_target(target, controls, op, grid, (1e-6,))
    assert sol.residual == pytest.approx(sol.misfit / st_norm(target, grid), rel=1e-12)
    assert sol.objective == pytest.approx(
        sol.misfit**2 + sol.alpha * sol.coeff_norm**2, rel=1e-12
    )
    assert sol.gram_cond >= 1.0


def test_approximate_target_validations():
    grid, op, basis, controls = setup(n_t=16)
    target = np.zeros((grid.n_t + 1, grid.n_int))
    for alphas in ((1e-6, 0.0), (-1e-6,), (float("nan"),), (np.inf,), ()):
        with pytest.raises(ValueError, match="alphas must be positive"):
            approximate_target(target, controls, op, grid, alphas)
    with pytest.raises(ValueError, match="trajectory shape"):
        approximate_target(target[:-1], controls, op, grid, (1e-6,))
    # one control is refused: the fit takes a stack, as dn_matrix does
    with pytest.raises(ValueError, match="control shape"):
        approximate_target(target, controls[0], op, grid, (1e-6,))
    with pytest.raises(ValueError, match="need at least one control"):
        approximate_target(target, controls[:0], op, grid, (1e-6,))


@pytest.mark.parametrize(
    "span, n_int, n_freqs, n_t",
    [(3, 20, 2, 130), (SWEEP_SLAB, 20, 2, 130), (None, 20, 2, 130), (None, 4, 24, 16)],
    ids=["3-tall", "SWEEP_SLAB-tall", "array-tall", "array-wide"],
)
def test_streamed_fit_matches_stack_oracle(span, n_int, n_freqs, n_t, monkeypatch):
    """Sweep slabs folded into the running triangle give the whole-stack
    fit, also where n_t + 1 is no multiple of the span and where there are
    more states (72) than space-time rows (17 x 4): misfits within 1e-12
    relative for alpha >= 1e-14, coefficients within 1e-12 for alpha >=
    1e-6 (about 5e-5 of the Gram's top eigenvalue).  Below that the wide
    fit's coefficients are conditioned as sigma_max^2 / alpha (they moved
    1.2e-11 at 1e-10 and 1e-8 at 1e-14), and the bound grows as 1/alpha.  A
    span of n_t + 1 or more hands the fit forward_map's whole state array
    as one slab, the stack fit's own arithmetic.  The wide stack has one
    case: the slab rule keeps B + 1 rows per slab, which lifts every span
    to ceil(73 / 4) = 19 >= 17 slices, so spans 3 and SWEEP_SLAB ran the
    same one-slab fit again."""
    monkeypatch.setattr(runge, "SWEEP_SLAB", n_t + 1 if span is None else span)
    grid, op, basis = case(n_int=n_int, s=0.7, n_t=n_t)
    controls = fw.control_basis(grid, grid.w_mask(1), n_freqs)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    target = cli._runge_target({"runge.target": "bump"}, grid, op)
    states = forward_map(controls, op, grid, q)
    alphas = (1e-2, 1e-6, 1e-10, 1e-14)
    rows = approximate_target(target, controls, op, grid, alphas, q)
    for sol, (coeffs, misfit, cond) in zip(rows, stack_fit(target, states, grid, alphas)):
        if span is None:
            assert np.array_equal(sol.coeffs, coeffs) and sol.misfit == misfit
        assert abs(sol.misfit - misfit) <= 1e-12 * misfit
        bound = 1e-12 * max(1.0, 1e-6 / sol.alpha) * np.max(np.abs(coeffs))
        assert np.max(np.abs(sol.coeffs - coeffs)) <= bound
        assert sol.gram_cond == pytest.approx(cond, rel=1e-9)
    assert (rows[0].gram_cond == np.inf) == (len(controls) > (n_t + 1) * n_int)


def test_sweep_fed_fit_streams():
    """The fit sweeps its controls in slabs and allocates less than 0.3 of
    the control state stack it never builds."""
    grid, op, basis = case(n_int=128, s=0.7, n_t=512)
    controls = fw.control_basis(grid, grid.w_mask(1), 8)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    target = cli._runge_target({"runge.target": "bump"}, grid, op)
    stack = controls.shape[0] * (grid.n_t + 1) * grid.n_int * 8  # bytes
    tracemalloc.start()
    try:
        approximate_target(target, controls, op, grid, (1e-6,), q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * stack, f"peak {peak / stack:.2f}x the control state stack"


def test_coefficients_solve_normal_equations():
    """The factorized fit is the Tikhonov solution: (G + alpha I) c = beta,
    with the Gram G and the moments beta formed directly as an oracle."""
    # the second stack has more states (72) than space-time rows (17 x 4)
    for n_int, n_freqs in ((20, 2), (4, 24)):
        grid, op, basis = case(n_int=n_int, s=0.7, n_t=16)
        controls = fw.control_basis(grid, grid.w_mask(1), n_freqs)
        states = forward_map(controls, op, grid)
        target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
        gram = fw.st_gram(states, states, grid)
        beta = fw.st_gram(states, target[None], grid)[:, 0]
        rows = approximate_target(target, controls, op, grid, (1e-2, 1e-6))
        for sol in rows:
            system = gram + sol.alpha * np.eye(len(gram))
            np.testing.assert_allclose(system @ sol.coeffs, beta, rtol=1e-9, atol=1e-12)
    assert rows[0].gram_cond == np.inf


def test_alpha_sweep_monotone():
    grid, op, basis, controls = setup()
    target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
    alphas = tuple(10.0**-k for k in range(2, 9))
    rows = approximate_target(target, controls, op, grid, alphas)
    assert [r.alpha for r in rows] == list(alphas)
    resid = np.array([r.residual for r in rows])
    coeff = np.array([r.coeff_norm for r in rows])
    assert np.all(np.diff(resid) <= 1e-12)
    # shrinking alpha can only let the coefficients grow
    assert np.all(np.diff(coeff) >= -1e-12)


def test_enrichment_lowers_objective():
    grid, op, basis, controls = setup()
    target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
    rows = [approximate_target(target, controls[:k], op, grid, (1e-8,))[0]
            for k in range(1, len(controls) + 1)]
    assert [len(r.coeffs) for r in rows] == list(range(1, len(controls) + 1))
    objectives = np.array([r.objective for r in rows])
    assert np.all(np.diff(objectives) <= 1e-12)


def test_sweep_csv_roundtrip(tmp_path):
    """The runge pipeline's sweep CSV carries every fit figure exactly: the
    pipeline fits the window controls under its potential, q = 0 here."""
    grid, op, basis, controls = setup(n_t=32)
    sets = ["domain.n_int=20", "time.n_t=32", "runge.freqs=2", "runge.alphas=1e-4,1e-6"]
    args = ["runge", "--out", str(tmp_path)]
    assert cli.main(args + [a for kv in sets for a in ("--set", kv)]) == 0
    # the default target: the first mode oscillating at its own frequency
    om = np.sqrt(basis.lambdas[0])
    target = np.cos(om * grid.times())[:, None] * basis.modes[:, 0][None, :]
    rows = approximate_target(target, controls, op, grid, (1e-4, 1e-6), np.zeros(grid.n_int))
    lines = (tmp_path / "runge_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,misfit,residual,coeff_norm,objective,gram_cond"
    assert len(lines) == 1 + len(rows)
    for line, r in zip(lines[1:], rows):
        expect = (r.alpha, r.misfit, r.residual, r.coeff_norm, r.objective, r.gram_cond)
        assert [float(v) for v in line.split(",")] == list(expect)


def test_one_factorization_per_fit(monkeypatch):
    """One QR per sweep slab, of the running triangle over the slab's rows,
    and one small SVD per call, for any number of alphas."""
    grid, op, basis, controls = setup(n_t=16)
    states = forward_map(controls, op, grid)
    target = states[0] - 0.5 * states[-1]
    calls = []

    def counting(name):
        inner = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            calls.append((name, a.shape))
            return inner(a, *args, **kwargs)

        return wrapped

    for name in ("qr", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    alphas = tuple(10.0**-k for k in range(2, 11))
    rows = approximate_target(target, controls, op, grid, alphas)
    assert len(rows) == 9
    n_b = len(controls)
    # 17 slices: one slab of SWEEP_SLAB = 16 and one of 1
    assert calls == [("qr", (16 * grid.n_int, n_b + 1)),
                     ("qr", (n_b + 1 + grid.n_int, n_b + 1)), ("svd", (n_b, n_b))]


def test_wide_window_reaches_small_alphas():
    """Every exterior node of an 8-node collar as the window, 8 frequencies
    (B = 128) and the CLI's bump target.  Through the Gram's normal
    equations this fit stalls at 0.326 and its Cholesky fails below
    alpha = 1e-20 sigma_max^2; the factorized fit keeps descending."""
    grid = fw.build_grid(x_min=0.0, x_max=1.0, n_int=32, m_collar=8,
                         w1=tuple(range(16)), w2=(0,), T=1.0, n_t=128)
    op = fw.assemble_operator(grid, 0.7)
    controls = fw.control_basis(grid, grid.w_mask(1), 8)
    states = forward_map(controls, op, grid)
    target = cli._runge_target({"runge.target": "bump"}, grid, op)
    assert len(states) == 128
    top = np.linalg.eigvalsh(fw.st_gram(states, states, grid))[-1]
    alphas = tuple(top * 10.0**-k for k in range(2, 32, 2))
    rows = approximate_target(target, controls, op, grid, alphas)
    resid = np.array([r.residual for r in rows])
    assert np.all(np.diff(resid) <= 1e-12)
    assert resid.min() <= 0.25
    assert all(np.isfinite(r.gram_cond) for r in rows)


def test_wide_window_cli_sweep(tmp_path):
    sets = ["domain.n_int=32", "time.n_t=128", "domain.m_collar=8",
            "domain.w1=" + ",".join(map(str, range(16))), "domain.w2=0",
            "runge.freqs=8", "runge.target=bump", "runge.alphas=1e-2,1e-10,1e-22"]
    args = ["runge", "--out", str(tmp_path)]
    assert cli.main(args + [a for kv in sets for a in ("--set", kv)]) == 0
    lines = (tmp_path / "runge_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 3
    assert all(np.isfinite(float(line.split(",")[-1])) for line in lines[1:])
