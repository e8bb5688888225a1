import tracemalloc

import numpy as np
import pytest

import fracwave as fw
from fracwave import cli
from fracwave.dnmap import forward_map
from fracwave.forward import SWEEP_SLAB, _sweep
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
    rows = approximate_target(target, states, grid, (1e-12, 1e-6, 1e-2))
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
    sol, = approximate_target(target, forward_map(controls, op, grid), grid, (1e-6,))
    assert sol.residual == pytest.approx(sol.misfit / st_norm(target, grid), rel=1e-12)
    assert sol.objective == pytest.approx(
        sol.misfit**2 + sol.alpha * sol.coeff_norm**2, rel=1e-12
    )
    assert sol.gram_cond >= 1.0


def test_approximate_target_validations():
    grid, op, basis, controls = setup(n_t=16)
    states = forward_map(controls, op, grid)
    target = np.zeros((grid.n_t + 1, grid.n_int))
    for alphas in ((1e-6, 0.0), (-1e-6,), (float("nan"),), (np.inf,), ()):
        with pytest.raises(ValueError, match="alphas must be positive"):
            approximate_target(target, states, grid, alphas)
    with pytest.raises(ValueError, match="trajectory shape"):
        approximate_target(target[:-1], states, grid, (1e-6,))
    for bad_states in (states[:0], states[:, :-1], states[0], states[..., :-1]):
        with pytest.raises(ValueError, match="states shape"):
            approximate_target(target, bad_states, grid, (1e-6,))
    nan_states = states.copy()
    nan_states[1, 3, 4] = np.nan
    with pytest.raises(ValueError, match="states contain non-finite values"):
        approximate_target(target, nan_states, grid, (1e-6,))


def _spoil(s, index, value):
    s = s.copy()
    s[index] = value
    return s


@pytest.mark.parametrize(
    "slabs, message",
    [
        (lambda s: [s[:, :5], s[:-1, 5:]], "states shape"),  # the batch changes
        (lambda s: [s[:, :5], s[:, 5:, :-1]], "states shape"),  # the node count changes
        (lambda s: [s[:, :10], s[:, 5:]], "states shape"),  # past slice n_t
        (lambda s: [s[:, :10]], "states shape"),  # stops before slice n_t
        (lambda s: [s[:, :5], s[:, 5:5], s[:, 5:]], "states shape"),  # an empty slab
        (lambda s: [s[:, :5], s[0, 5:], s[:, 5:]], "states shape"),  # no batch axis
        (lambda s: [], "states shape"),
        (lambda s: [s[:, :5], _spoil(s, (1, 12, 4), np.inf)[:, 5:]], "non-finite"),
    ],
    ids=["batch", "nodes", "overrun", "short", "empty_slab", "two_dims", "no_slabs", "inf"],
)
def test_slab_validations(slabs, message):
    """Slabs are checked as they arrive, each against the first and the
    time slices still to come."""
    grid, op, basis, controls = setup(n_t=16)
    states = forward_map(controls, op, grid)
    with pytest.raises(ValueError, match=message):
        approximate_target(states[0], iter(slabs(states)), grid, (1e-6,))


@pytest.mark.parametrize(
    "n_int, n_freqs, n_t", [(20, 2, 130), (4, 24, 16)], ids=["tall", "wide"]
)
@pytest.mark.parametrize("span", [3, SWEEP_SLAB, None], ids=["3", "SWEEP_SLAB", "array"])
def test_streamed_fit_matches_stack_oracle(n_int, n_freqs, n_t, span):
    """Sweep slabs folded into the running triangle give the whole-stack
    fit, also where n_t + 1 is no multiple of the span and where there are
    more states (72) than space-time rows (17 x 4): misfits within 1e-12
    relative for alpha >= 1e-14, coefficients within 1e-12 for alpha >=
    1e-6 (about 5e-5 of the Gram's top eigenvalue).  Below that the wide
    fit's coefficients are conditioned as sigma_max^2 / alpha (they moved
    1.2e-11 at 1e-10 and 1e-8 at 1e-14), and the bound grows as 1/alpha.  A
    state stack given as one array is one slab, the stack fit's own
    arithmetic."""
    grid, op, basis = case(n_int=n_int, s=0.7, n_t=n_t)
    controls = fw.control_basis(grid, grid.w_mask(1), n_freqs)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    target = cli._runge_target({"runge.target": "bump"}, grid, op)
    states = forward_map(controls, op, grid, q)
    alphas = (1e-2, 1e-6, 1e-10, 1e-14)
    slabs = states if span is None else _sweep(controls, q, op, grid, span)
    rows = approximate_target(target, slabs, grid, alphas)
    for sol, (coeffs, misfit, cond) in zip(rows, stack_fit(target, states, grid, alphas)):
        if span is None:
            assert np.array_equal(sol.coeffs, coeffs) and sol.misfit == misfit
        assert abs(sol.misfit - misfit) <= 1e-12 * misfit
        bound = 1e-12 * max(1.0, 1e-6 / sol.alpha) * np.max(np.abs(coeffs))
        assert np.max(np.abs(sol.coeffs - coeffs)) <= bound
        assert sol.gram_cond == pytest.approx(cond, rel=1e-9)
    assert (rows[0].gram_cond == np.inf) == (len(controls) > (n_t + 1) * n_int)


def test_sweep_fed_fit_streams():
    """Fed by the sweep's slabs, the fit allocates less than 0.3 of the
    control state stack it never builds."""
    grid, op, basis = case(n_int=128, s=0.7, n_t=512)
    controls = fw.control_basis(grid, grid.w_mask(1), 8)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    target = cli._runge_target({"runge.target": "bump"}, grid, op)
    stack = controls.shape[0] * (grid.n_t + 1) * grid.n_int * 8  # bytes
    tracemalloc.start()
    try:
        approximate_target(target, _sweep(controls, q, op, grid, SWEEP_SLAB), grid, (1e-6,))
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
        states = forward_map(fw.control_basis(grid, grid.w_mask(1), n_freqs), op, grid)
        target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
        gram = fw.st_gram(states, states, grid)
        beta = fw.st_gram(states, target[None], grid)[:, 0]
        rows = approximate_target(target, states, grid, (1e-2, 1e-6))
        for sol in rows:
            system = gram + sol.alpha * np.eye(len(gram))
            np.testing.assert_allclose(system @ sol.coeffs, beta, rtol=1e-9, atol=1e-12)
    assert rows[0].gram_cond == np.inf


def test_alpha_sweep_monotone():
    grid, op, basis, controls = setup()
    target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
    alphas = tuple(10.0**-k for k in range(2, 9))
    rows = approximate_target(target, forward_map(controls, op, grid), grid, alphas)
    assert [r.alpha for r in rows] == list(alphas)
    resid = np.array([r.residual for r in rows])
    coeff = np.array([r.coeff_norm for r in rows])
    assert np.all(np.diff(resid) <= 1e-12)
    # shrinking alpha can only let the coefficients grow
    assert np.all(np.diff(coeff) >= -1e-12)


def test_enrichment_lowers_objective():
    grid, op, basis, controls = setup()
    target = np.outer(fw.time_window(grid), np.sin(np.pi * grid.interior_coords))
    states = forward_map(controls, op, grid)
    rows = [approximate_target(target, states[:k], grid, (1e-8,))[0]
            for k in range(1, len(states) + 1)]
    assert [len(r.coeffs) for r in rows] == list(range(1, len(controls) + 1))
    objectives = np.array([r.objective for r in rows])
    assert np.all(np.diff(objectives) <= 1e-12)


def test_sweep_csv_roundtrip(tmp_path):
    """The runge pipeline's sweep CSV carries every fit figure exactly: the
    pipeline feeds the fit the sweep's slabs, SWEEP_SLAB slices each for
    a basis this narrow."""
    grid, op, basis, controls = setup(n_t=32)
    sets = ["domain.n_int=20", "time.n_t=32", "runge.freqs=2", "runge.alphas=1e-4,1e-6"]
    args = ["runge", "--out", str(tmp_path)]
    assert cli.main(args + [a for kv in sets for a in ("--set", kv)]) == 0
    # the default target: the first mode oscillating at its own frequency
    om = np.sqrt(basis.lambdas[0])
    target = np.cos(om * grid.times())[:, None] * basis.modes[:, 0][None, :]
    slabs = _sweep(controls, np.zeros(grid.n_int), op, grid, SWEEP_SLAB)
    rows = approximate_target(target, slabs, grid, (1e-4, 1e-6))
    lines = (tmp_path / "runge_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,misfit,residual,coeff_norm,objective,gram_cond"
    assert len(lines) == 1 + len(rows)
    for line, r in zip(lines[1:], rows):
        expect = (r.alpha, r.misfit, r.residual, r.coeff_norm, r.objective, r.gram_cond)
        assert [float(v) for v in line.split(",")] == list(expect)


def test_one_factorization_per_fit(monkeypatch):
    """One QR and one small SVD per call, for any number of alphas."""
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
    rows = approximate_target(target, states, grid, alphas)
    assert len(rows) == 9
    n_b = len(states)
    assert calls == [("qr", (target.size, n_b + 1)), ("svd", (n_b, n_b))]
    # in slabs, one QR per slab of the running triangle over the slab's rows
    calls.clear()
    approximate_target(target, [states[:, :10], states[:, 10:]], grid, alphas)
    assert calls == [("qr", (10 * grid.n_int, n_b + 1)),
                     ("qr", (n_b + 1 + 7 * grid.n_int, n_b + 1)), ("svd", (n_b, n_b))]


def test_wide_window_reaches_small_alphas():
    """Every exterior node of an 8-node collar as the window, 8 frequencies
    (B = 128) and the CLI's bump target.  Through the Gram's normal
    equations this fit stalls at 0.326 and its Cholesky fails below
    alpha = 1e-20 sigma_max^2; the factorized fit keeps descending."""
    grid = fw.build_grid(x_min=0.0, x_max=1.0, n_int=32, m_collar=8,
                         w1=tuple(range(16)), w2=(0,), T=1.0, n_t=128)
    op = fw.assemble_operator(grid, 0.7)
    states = forward_map(fw.control_basis(grid, grid.w_mask(1), 8), op, grid)
    target = cli._runge_target({"runge.target": "bump"}, grid, op)
    assert len(states) == 128
    top = np.linalg.eigvalsh(fw.st_gram(states, states, grid))[-1]
    alphas = tuple(top * 10.0**-k for k in range(2, 32, 2))
    rows = approximate_target(target, states, grid, alphas)
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
