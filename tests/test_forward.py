import numpy as np
import pytest

import fracwave as fw
from fracwave import CauchyData, PolyNonlinearity
from fracwave.forward import MARCH_SLAB, PICARD_MAX_ITER
from conftest import case
from oracles import lift_exterior


def mode_data(basis, k, a=1.0, b=0.0):
    mode = basis.modes[:, k]
    return CauchyData(a * mode, b * mode), mode, basis.lambdas[k]


def sup_l2_gap(a, b, h):
    return float(np.max(np.sqrt(h) * np.linalg.norm(a - b, axis=1)))


def test_trapezoid_weights():
    w = fw.trapezoid_weights(8, 0.25)
    assert w.shape == (9,)
    assert w[0] == w[-1] == 0.125
    assert np.all(w[1:-1] == 0.25)
    assert w.sum() == pytest.approx(8 * 0.25, rel=1e-15)


def test_free_mode_is_exact():
    # the modal propagator stores sin/cos factors, so free evolution is exact
    grid, op, basis = case(n_int=24, s=0.7, n_t=64)
    data, mode, lam = mode_data(basis, 2)
    sol = fw.solve_linear_modal(basis, data, None, grid)
    t = grid.times()
    exact = np.cos(np.sqrt(lam) * t)[:, None] * mode[None, :]
    assert sup_l2_gap(sol.u, exact, grid.h) <= 1e-12
    exact_dot = -np.sqrt(lam) * np.sin(np.sqrt(lam) * t)[:, None] * mode[None, :]
    assert sup_l2_gap(sol.udot, exact_dot, grid.h) <= 1e-11


def test_forced_mode_quadrature():
    grid, op, basis = case(n_int=24, s=0.7, n_t=256)
    _, mode, lam = mode_data(basis, 0)
    t = grid.times()
    source = np.ones_like(t)[:, None] * mode[None, :]
    sol = fw.solve_linear_modal(basis, CauchyData.zero(grid.n_int), source, grid)
    exact = ((1 - np.cos(np.sqrt(lam) * t)) / lam)[:, None] * mode[None, :]
    assert sup_l2_gap(sol.u, exact, grid.h) <= 1e-5


def test_modal_superposition(rng):
    grid, op, basis = case(n_int=24, s=0.7, n_t=48)
    d1 = CauchyData(rng.standard_normal(grid.n_int), rng.standard_normal(grid.n_int))
    d2 = CauchyData(rng.standard_normal(grid.n_int), rng.standard_normal(grid.n_int))
    f1 = rng.standard_normal((grid.n_t + 1, grid.n_int))
    f2 = rng.standard_normal((grid.n_t + 1, grid.n_int))
    a, b = 0.7, -1.3
    mixed = CauchyData(a * d1.u0 + b * d2.u0, a * d1.u1 + b * d2.u1)
    s1 = fw.solve_linear_modal(basis, d1, f1, grid)
    s2 = fw.solve_linear_modal(basis, d2, f2, grid)
    s12 = fw.solve_linear_modal(basis, mixed, a * f1 + b * f2, grid)
    np.testing.assert_allclose(
        s12.u, a * s1.u + b * s2.u, atol=1e-11
    )


def test_free_evolution_time_reversible():
    grid, op, basis = case(n_int=24, s=0.7, n_t=64)
    data, mode, lam = mode_data(basis, 1, a=1.0, b=0.5)
    sol = fw.solve_linear_modal(basis, data, None, grid)
    back_data = CauchyData(sol.u[-1], -sol.udot[-1])
    back = fw.solve_linear_modal(basis, back_data, None, grid)
    assert sup_l2_gap(back.u, sol.u[::-1], grid.h) <= 1e-10


@pytest.mark.parametrize(
    "u0, u1",
    [([0.0, np.nan, 0.0], [0.0, 0.0, 0.0]), ([0.0, 0.0, 0.0], [0.0, np.inf, 0.0])],
    ids=["nan_u0", "inf_u1"],
)
def test_cauchy_data_rejects_non_finite(u0, u1):
    with pytest.raises(ValueError, match="Cauchy data u0/u1 contain non-finite"):
        CauchyData(u0, u1)


def test_modal_shape_checks(rng):
    grid, op, basis = case(n_int=24, s=0.7, n_t=16)
    data = CauchyData.zero(grid.n_int)
    with pytest.raises(ValueError):
        fw.solve_linear_modal(basis, data, np.zeros((grid.n_t, grid.n_int)), grid)
    with pytest.raises(ValueError):
        fw.solve_linear_modal(
            basis, CauchyData.zero(grid.n_int + 1), None, grid
        )


def test_newmark_close_to_modal(rng):
    grid, op, basis = case(n_int=24, s=0.7, n_t=256)
    c = rng.standard_normal(6) / (1 + np.arange(6)) ** 2
    data = CauchyData(basis.modes[:, :6] @ c, np.zeros(grid.n_int))
    modal = fw.solve_linear_modal(basis, data, None, grid)
    marched = fw.solve_newmark(op, grid, data=data)
    gap = sup_l2_gap(modal.u, grid.restrict(marched), grid.h)
    assert gap <= 1e-4


def test_newmark_cfl_guard():
    grid, op, basis = case(n_int=48, s=1.5, n_t=8)
    assert grid.dt > fw.newmark_dt_bound(op)
    with pytest.raises(ValueError, match="CFL"):
        fw.solve_newmark(op, grid, data=CauchyData.zero(grid.n_int))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_newmark_blowup_abort():
    # a strongly defocusing cubic term pumps energy until the march sees
    # non-finite values and aborts with the step index
    grid, op, basis = case(n_int=16, s=0.7, n_t=512)
    bad = PolyNonlinearity.single(2.0, -1e8, n_nodes=grid.n_int)
    data = CauchyData(np.sin(np.pi * grid.interior_coords), np.zeros(grid.n_int))
    with pytest.raises(fw.SolverBlowupError, match="step"):
        fw.solve_newmark(op, grid, model=bad, data=data)


def test_newmark_shape_checks():
    grid, op, basis = case(n_int=16, s=0.7, n_t=128)
    with pytest.raises(ValueError, match="potential shape"):
        fw.solve_newmark(op, grid, model=np.zeros(grid.n_int + 1))
    with pytest.raises(ValueError, match="non-finite"):
        fw.solve_newmark(op, grid, model=np.full(grid.n_int, np.nan))
    with pytest.raises(ValueError):
        fw.solve_newmark(op, grid, source=np.zeros((grid.n_t, grid.n_int)))


def test_newmark_rejects_short_cauchy_data():
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    with pytest.raises(ValueError, match="data has 1 nodes, grid interior is 16"):
        fw.solve_newmark(op, grid, data=CauchyData([0.5], [0.0]))


def ladder_controls(grid, n):
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    return [2.0**-k * control for k in range(n)]


def test_newmark_batch_rows_match_single_marches():
    grid, op, basis = case(n_int=24, s=0.7, n_t=512)
    x = grid.interior_coords
    model = PolyNonlinearity((0.5, 1.0), np.stack([2.0 + np.cos(np.pi * x), 1.0 + x]))
    controls = ladder_controls(grid, 9)
    batch = fw.solve_newmark(op, grid, model=model, control=controls)
    assert batch.shape == (len(controls), grid.n_t + 1, grid.n_nodes)
    for field, c in zip(batch, controls):
        single = fw.solve_newmark(op, grid, model=model, control=c)
        assert field.shape == single.shape == (grid.n_t + 1, grid.n_nodes)
        gap = np.max(np.abs(field - single))
        assert gap <= 1e-12 * np.max(np.abs(single))


def test_newmark_one_element_batch_equals_single_call():
    grid, op, basis = case(n_int=16, s=0.7, n_t=128)
    model = PolyNonlinearity.single(1.0, 1.0, n_nodes=grid.n_int)
    (control,) = ladder_controls(grid, 1)
    (batched,) = fw.solve_newmark(op, grid, model=model, control=[control])
    single = fw.solve_newmark(op, grid, model=model, control=control)
    assert np.array_equal(batched, single)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_newmark_batch_keeps_guards():
    grid, op, basis = case(n_int=16, s=0.7, n_t=512)
    controls = ladder_controls(grid, 3)
    with pytest.raises(ValueError, match="at least one control"):
        fw.solve_newmark(op, grid, control=np.zeros((0, grid.n_t + 1, grid.n_ext)))
    (short,) = ladder_controls(case(n_int=16, s=0.7, n_t=64)[0], 1)
    with pytest.raises(ValueError, match=r"control shape \(1, 65, "):
        fw.solve_newmark(op, grid, control=short[None])
    bad = PolyNonlinearity.single(2.0, -1e8, n_nodes=grid.n_int)
    data = CauchyData(np.sin(np.pi * grid.interior_coords), np.zeros(grid.n_int))
    with pytest.raises(fw.SolverBlowupError, match="step"):
        fw.solve_newmark(op, grid, model=bad, control=controls, data=data)
    # only the loud row leaves the finite range, and the message names it alone
    (control,) = ladder_controls(grid, 1)
    mixed = [a * control for a in (1e-6, 1.0, 1e-6)]
    with pytest.raises(fw.SolverBlowupError, match=r"step \d+ .* batch rows \[1\]$"):
        fw.solve_newmark(op, grid, model=bad, control=mixed)
    grid, op, basis = case(n_int=48, s=1.5, n_t=8)
    with pytest.raises(ValueError, match="CFL"):
        fw.solve_newmark(op, grid, control=np.zeros((2, grid.n_t + 1, grid.n_ext)))


def march_by_old_step(op, grid, model, controls, data, source):
    """The march written as 2 u - u_prev + dt^2 accel(n) on strided views,
    the form that `inversion.reaction_from_march` inverts."""
    dt, interior = grid.dt, grid.interior_slice
    full = np.zeros((grid.n_t + 1, len(controls), grid.n_nodes))
    for b, c in enumerate(controls):
        if c is not None:
            full[:, b, grid.exterior_indices] = c
    stiff_t = op.a_full[interior].T

    def accel(n):
        a = -(full[n] @ stiff_t)
        u_int = full[n, :, interior]
        if isinstance(model, PolyNonlinearity):
            a = a - model.evaluate(u_int)
        elif model is not None:
            a = a - model * u_int
        if source is not None:
            a = a + source[n]
        return a

    full[0, :, interior] = data.u0
    full[1, :, interior] = data.u0 + dt * data.u1 + 0.5 * dt * dt * accel(0)
    for n in range(1, grid.n_t):
        u, u_prev = full[n, :, interior], full[n - 1, :, interior]
        full[n + 1, :, interior] = 2.0 * u - u_prev + dt * dt * accel(n)
    return full


def test_newmark_matches_old_step_exactly():
    grid, op, basis = case(n_int=24, s=0.7, n_t=512)
    x = grid.interior_coords
    rng = np.random.default_rng(7)
    two_term = PolyNonlinearity((0.5, 1.0), np.stack([2.0 + np.cos(np.pi * x), 1.0 + x]))
    data = CauchyData(0.1 * np.sin(np.pi * x), 0.2 * np.cos(3.0 * x))
    source = 0.05 * rng.standard_normal((grid.n_t + 1, grid.n_int))
    (control,) = ladder_controls(grid, 1)
    zero = CauchyData.zero(grid.n_int)
    cases = [
        (1.0 + 0.5 * np.sin(3.0 * x), control, data, source),
        (two_term, ladder_controls(grid, 9), zero, None),
        (two_term, None, data, None),
    ]
    for model, controls, cauchy, src in cases:
        marched = fw.solve_newmark(op, grid, model=model, control=controls, data=cauchy,
                                   source=src)
        single = not isinstance(controls, list)
        rows = [controls] if single else controls
        expected = march_by_old_step(op, grid, model, rows, cauchy, src)
        fields = [marched] if single else marched
        assert len(fields) == len(rows)
        for b, field in enumerate(fields):
            assert np.array_equal(field, expected[:, b])


@pytest.mark.parametrize(
    "n_t", [2 * MARCH_SLAB, 2 * MARCH_SLAB + 37, MARCH_SLAB + 1],
    ids=["multiple", "remainder", "one_slab"],
)
def test_march_slabs_tile_solve_newmark(n_t):
    """The slabs are views of one buffer of MARCH_SLAB + 2 slices; each
    after the first repeats the last two slices of the one before, the
    last ends at slice n_t, and joined they are solve_newmark's
    trajectories bit for bit."""
    grid, op, basis = case(n_int=16, s=0.7, n_t=n_t)
    x = grid.interior_coords
    two_term = PolyNonlinearity((0.5, 1.0), np.stack([2.0 + np.cos(np.pi * x), 1.0 + x]))
    data = CauchyData(0.1 * np.sin(np.pi * x), 0.2 * np.cos(3.0 * x))
    source = 0.05 * np.random.default_rng(3).standard_normal((n_t + 1, grid.n_int))
    (control,) = ladder_controls(grid, 1)
    cases = [
        dict(model=1.0 + 0.5 * np.sin(3.0 * x), control=control),
        dict(model=two_term, control=ladder_controls(grid, 5)),
        dict(model=two_term, data=data, source=source),
    ]
    for kwargs in cases:
        full = fw.solve_newmark(op, grid, **kwargs)
        full = full[:, None] if full.ndim == 2 else full.transpose(1, 0, 2)
        slabs, bases = [], set()
        for slab in fw.march_slabs(op, grid, **kwargs):
            bases.add(slab.__array_interface__["data"][0])  # one buffer
            assert slab.shape[1:] == full.shape[1:]
            assert 2 < len(slab) <= MARCH_SLAB + 2
            if slabs:
                assert np.array_equal(slab[:2], slabs[-1][-2:])
            slabs.append(slab.copy())
        assert len(bases) == 1 and len(slabs) == -(-(n_t - 1) // MARCH_SLAB)
        joined = np.concatenate([slabs[0]] + [slab[2:] for slab in slabs[1:]])
        assert np.array_equal(joined, full)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_march_slabs_keep_guards():
    """Guards raise when the first slab is asked for, and a blowup raised
    while the slabs are read names the step and the batch rows."""
    grid, op, basis = case(n_int=16, s=0.7, n_t=512)
    with pytest.raises(ValueError, match="potential shape"):
        next(fw.march_slabs(op, grid, model=np.zeros(grid.n_int + 1)))
    bad = PolyNonlinearity.single(2.0, -1e8, n_nodes=grid.n_int)
    (control,) = ladder_controls(grid, 1)
    mixed = [a * control for a in (1e-6, 1.0, 1e-6)]
    with pytest.raises(fw.SolverBlowupError, match=r"step \d+ .* batch rows \[1\]$"):
        for _ in fw.march_slabs(op, grid, model=bad, control=mixed):
            pass


def test_picard_zero_potential_short_circuits():
    grid, op, basis = case(n_int=24, s=0.7, n_t=64)
    data, _, _ = mode_data(basis, 0)
    base = fw.solve_linear_modal(basis, data, None, grid)
    sol, report = fw.solve_with_potential_picard(basis, None, data, None, grid)
    assert np.array_equal(sol.u, base.u)
    assert report.iterations == 1 and report.contraction == 0.0
    sol0, _ = fw.solve_with_potential_picard(
        basis, np.zeros(grid.n_int), data, None, grid
    )
    assert np.array_equal(sol0.u, base.u)


def test_picard_constant_shift():
    # constant q shifts every eigenvalue, so the fixed point has a closed form
    grid, op, basis = case(n_int=24, s=0.7, n_t=256, T=0.5)
    q0 = 2.0
    data, mode, lam = mode_data(basis, 0)
    sol, report = fw.solve_with_potential_picard(
        basis, np.full(grid.n_int, q0), data, None, grid
    )
    t = grid.times()
    exact = np.cos(np.sqrt(lam + q0) * t)[:, None] * mode[None, :]
    assert sup_l2_gap(sol.u, exact, grid.h) <= 2e-6
    assert report.contraction < 1.0


def test_picard_weight_doubling_shrinks_contraction():
    grid, op, basis = case(n_int=24, s=0.7, n_t=128, T=0.5)
    data, _, _ = mode_data(basis, 0)
    q = np.full(grid.n_int, 4.0)
    _, slow = fw.solve_with_potential_picard(
        basis, q, data, None, grid, theta=8.0
    )
    _, fast = fw.solve_with_potential_picard(
        basis, q, data, None, grid, theta=16.0
    )
    assert slow.contraction < 1.0
    assert fast.contraction < slow.contraction


def test_picard_reports_failure():
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    data = CauchyData(np.sin(np.pi * grid.interior_coords), np.zeros(grid.n_int))
    q = np.full(grid.n_int, 1000.0)
    with pytest.raises(fw.PicardError) as err:
        fw.solve_with_potential_picard(basis, q, data, None, grid)
    assert err.value.report.iterations == PICARD_MAX_ITER
    assert err.value.report.thetas_tried == (1.0,)


def test_picard_matches_sweep_or_raises():
    # the weight of the stopping norm never changes the iterates, so Picard
    # either reaches the exact sweep's answer or raises; it must not report
    # an unconverged iterate as converged
    grid, op, basis = case(n_int=24, s=0.7, n_t=256, T=1.0)
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    source = lift_exterior(control, op, grid)
    zero = CauchyData.zero(grid.n_int)
    q = np.full(grid.n_int, 300.0)
    exact = fw.solve_with_potential(control[None], q, op, grid)[0]
    sol, _ = fw.solve_with_potential_picard(basis, q, zero, source, grid)
    assert np.max(np.abs(sol.u - exact)) <= 1e-10 * np.max(np.abs(exact))
    with pytest.raises(fw.PicardError):
        fw.solve_with_potential_picard(
            basis, np.full(grid.n_int, 1000.0), zero, source, grid
        )


def test_picard_rejects_bad_potential_shape():
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    zero = CauchyData.zero(grid.n_int)
    with pytest.raises(ValueError, match="potential shape"):
        fw.solve_with_potential_picard(basis, np.zeros(grid.n_int + 3), zero, None, grid)
    with pytest.raises(ValueError, match="non-finite"):
        fw.solve_with_potential_picard(basis, np.full(grid.n_int, np.inf), zero, None, grid)


def _smooth(x):
    return 1.0 + 0.5 * np.cos(np.pi * x)


@pytest.mark.parametrize(
    "profile, n_t",
    [
        (_smooth, 128),
        (lambda x: 20.0 * np.sin(3 * np.pi * x), 128),
        (lambda x: np.full_like(x, -10.0), 128),  # makes A_int + q indefinite
        (np.zeros_like, 128),  # Picard returns the modal solve itself
        # a long horizon: the plain two-step form u_{j+1} = u_j P - u_{j-1} + drive,
        # which rounds 2 cos(theta) near 2, drifts in phase to 7e-11 here
        (_smooth, 1024),
    ],
    ids=["smooth", "oscillating", "indefinite", "zero", "smooth_long"],
)
def test_potential_sweep_matches_picard(profile, n_t):
    grid, op, basis = case(n_int=24, s=0.7, n_t=n_t)
    q = profile(grid.interior_coords)
    controls = fw.control_basis(grid, grid.w_mask(1), 2)
    states = fw.solve_with_potential(controls, q, op, grid)
    zero = CauchyData.zero(grid.n_int)
    for control, u in zip(controls, states):
        source = lift_exterior(control, op, grid)
        ref, _ = fw.solve_with_potential_picard(basis, q, zero, source, grid)
        scale = np.max(np.abs(ref.u))
        assert np.max(np.abs(u - ref.u)) <= 1e-12 * scale


def test_potential_sweep_batch_matches_single():
    grid, op, basis = case(n_int=24, s=0.7, n_t=128)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    values = fw.control_basis(grid, grid.w_mask(2), 3)
    batch = fw.solve_with_potential(values, q, op, grid)
    for v, u in zip(values, batch):
        single = fw.solve_with_potential(v[None], q, op, grid)[0]
        assert np.max(np.abs(u - single)) <= 1e-12 * np.max(np.abs(single))
    # a joined stack sweeps bit for bit like its parts, so recovery passes
    # that sweep controls and tests together repeat the separate sweeps
    tests = fw.control_basis(grid, grid.w_mask(1), 2)
    joined = fw.solve_with_potential(np.concatenate([values, tests]), q, op, grid)
    assert np.array_equal(joined[: len(values)], batch)
    assert np.array_equal(
        joined[len(values) :], fw.solve_with_potential(tests, q, op, grid)
    )


def test_potential_sweep_shape_checks():
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    values = np.zeros((1, grid.n_t + 1, grid.n_ext))
    with pytest.raises(ValueError, match="potential shape"):
        fw.solve_with_potential(values, np.zeros(grid.n_int + 1), op, grid)
    with pytest.raises(ValueError, match="non-finite"):
        fw.solve_with_potential(values, np.array([np.nan] * grid.n_int), op, grid)
    with pytest.raises(ValueError, match="control shape"):
        fw.solve_with_potential(values[0], np.zeros(grid.n_int), op, grid)


def _set(c, index, value):
    c = c.copy()
    c[index] = value
    return c


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda c: c[:-1], "control shape"),
        (lambda c: c[:, 1:], "control shape"),
        (lambda c: c[0], "control shape"),
        (lambda c: c[None, None], "control shape"),
        (lambda c: _set(c, (len(c) // 2, 0), np.nan), "non-finite"),
        (lambda c: _set(c, (1, 0), 1e-3), "must vanish"),
        (lambda c: _set(c, (-2, 0), 1e-3), "must vanish"),
    ],
    ids=["n_t_short", "n_ext", "one_dim", "four_dim", "nan", "slice_1", "slice_-2"],
)
def test_control_guards(spoil, message):
    """Every place a control enters a solver checks its shape, its values
    and that it vanishes on the first and last two time slices."""
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    good = fw.control_basis(grid, grid.w_mask(1), 1)
    bad = spoil(good[0])
    entries = [
        lambda: fw.solve_newmark(op, grid, control=bad),
        lambda: fw.solve_newmark(op, grid, control=bad[None]),
        lambda: fw.solve_with_potential(bad[None], np.zeros(grid.n_int), op, grid),
        lambda: next(fw.march_slabs(op, grid, control=bad)),
        lambda: fw.dn_matrix(op, grid, good, bad[None]),
        lambda: fw.recover_expansion(lambda cs: pytest.fail("measured"), bad, (1.0,),
                                     op, grid, eps_ladder=(0.5, 0.25)),
    ]
    for enter in entries:
        with pytest.raises(ValueError, match=message):
            enter()


def test_residuals_accept_true_reject_perturbed(rng):
    grid, op, basis = case(n_int=24, s=0.7, n_t=256)
    x = grid.interior_coords
    t = grid.times()
    q = 1.0 + 0.5 * np.cos(np.pi * x)
    data = CauchyData(np.sin(np.pi * x), 0.3 * np.sin(2 * np.pi * x))
    source = np.outer(np.sin(2 * t), np.sin(2 * np.pi * x))
    sol, _ = fw.solve_with_potential_picard(basis, q, data, source, grid)

    g = np.outer(np.sin(3 * t), x * np.cos(np.pi * x / 2))
    r_true = fw.very_weak_residual(sol.u, data, source, q, g, basis, grid)
    assert r_true <= 1e-10

    w = fw.time_window(grid, (0.1, 0.8))
    phi = np.outer(w, np.sin(2 * np.pi * x) + 0.5 * np.sin(np.pi * x))
    r_dist = fw.distributional_residual(sol.u, data, source, q, phi, op, grid)
    assert r_dist <= 1e-4

    bump = sol.u + 0.02 * np.max(np.abs(sol.u)) * np.outer(
        np.sin(np.pi * t), np.sin(np.pi * x)
    )
    assert fw.very_weak_residual(bump, data, source, q, g, basis, grid) > 1e-4
    assert fw.distributional_residual(bump, data, source, q, phi, op, grid) > 1e-4


def test_residual_shape_guards():
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    data = CauchyData.zero(grid.n_int)
    u = np.zeros((grid.n_t + 1, grid.n_int))
    with pytest.raises(ValueError):
        fw.very_weak_residual(
            u, data, None, None, np.zeros((grid.n_t, grid.n_int)), basis, grid
        )
    phi_bad = np.ones((grid.n_t + 1, grid.n_int))
    with pytest.raises(ValueError, match="last two"):
        fw.distributional_residual(u, data, None, None, phi_bad, op, grid)


@pytest.mark.parametrize(
    "residual, q",
    [("distributional", np.array([2.0])), ("very_weak", np.zeros(5))],
    ids=["distributional", "very_weak"],
)
def test_residuals_reject_wrong_shaped_potential(residual, q):
    """A one-entry q must not broadcast, and an all-zero q of the wrong
    length must not slip past the q = 0 shortcut."""
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    data = CauchyData.zero(grid.n_int)
    u = np.zeros((grid.n_t + 1, grid.n_int))
    test = np.zeros_like(u)
    with pytest.raises(ValueError, match="potential shape"):
        if residual == "distributional":
            fw.distributional_residual(u, data, None, q, test, op, grid)
        else:
            fw.very_weak_residual(u, data, None, q, test, basis, grid)


@pytest.mark.parametrize(
    "guard",
    [
        "reaction_interior",
        "dn_trace_interior",
        "very_weak_full",
        "distributional_full",
        "wrong_n_t",
        "nan_entry",
        "measure_interior",
    ],
)
def test_trajectory_guards(guard):
    """Trajectories entering from outside are checked for their node set
    (the last axis), their number of time slices and finiteness."""
    grid, op, basis = case(n_int=16, s=0.7, n_t=128)
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    full = fw.solve_newmark(op, grid, control=control)
    interior = grid.restrict(full)
    data = CauchyData.zero(grid.n_int)
    test = np.zeros_like(interior)
    holed = full.copy()
    holed[grid.n_t // 2, grid.interior_slice.start] = np.nan
    calls = {
        "reaction_interior": lambda: fw.reaction_from_march(interior, op, grid),
        "dn_trace_interior": lambda: fw.dn_trace(interior, op, grid),
        "very_weak_full": lambda: fw.very_weak_residual(
            full, data, None, None, test, basis, grid
        ),
        "distributional_full": lambda: fw.distributional_residual(
            full, data, None, None, test, op, grid
        ),
        "wrong_n_t": lambda: fw.reaction_from_march(full[:-1], op, grid),
        "nan_entry": lambda: fw.dn_trace(holed, op, grid),
        "measure_interior": lambda: fw.recover_expansion(
            lambda cs: (grid.restrict(s) for s in fw.march_slabs(op, grid, control=cs)),
            control, (0.5,), op, grid, eps_ladder=(0.25, 0.125),
        ),
    }
    with pytest.raises(ValueError, match="trajectory"):
        calls[guard]()


@pytest.mark.parametrize(
    "spoil",
    [lambda a: a[0], lambda a: a[:-1], lambda a: np.where(a == a.max(), np.nan, a)],
    ids=["one_slice", "n_t_short", "nan"],
)
@pytest.mark.parametrize(
    "entry",
    [
        "modal_source",
        "newmark_source",
        "very_weak_source",
        "very_weak_test",
        "distributional_source",
        "distributional_test",
        "runge_target",
        "energy_source",
    ],
)
def test_interior_array_guards(entry, spoil):
    """Every (n_t+1, n_int) array entering from outside is checked like a
    trajectory: a single slice must not broadcast over time, and one NaN
    must not spread through a solve."""
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    x = grid.interior_coords
    good = np.outer(fw.time_window(grid), np.sin(np.pi * x))
    bad = spoil(good)
    data = CauchyData.zero(grid.n_int)
    states = good[None]
    calls = {
        "modal_source": lambda: fw.solve_linear_modal(basis, data, bad, grid),
        "newmark_source": lambda: fw.solve_newmark(op, grid, source=bad),
        "very_weak_source": lambda: fw.very_weak_residual(
            good, data, bad, None, good, basis, grid
        ),
        "very_weak_test": lambda: fw.very_weak_residual(
            good, data, None, None, bad, basis, grid
        ),
        "distributional_source": lambda: fw.distributional_residual(
            good, data, bad, None, good, op, grid
        ),
        "distributional_test": lambda: fw.distributional_residual(
            good, data, None, None, bad, op, grid
        ),
        "runge_target": lambda: fw.approximate_target(bad, states, grid, (1e-6,)),
        "energy_source": lambda: fw.data_energy(data, bad, basis, grid),
    }
    with pytest.raises(ValueError, match="trajectory"):
        calls[entry]()


def test_energy_bound_single_mode():
    # free single mode: sup_t (|cos wt| + |sin wt|), data energy exactly one
    grid, op, basis = case(n_int=24, s=0.7, n_t=128)
    data, mode, lam = mode_data(basis, 3)
    sol = fw.solve_linear_modal(basis, data, None, grid)
    t = grid.times()
    om = np.sqrt(lam)
    expected = np.max(np.abs(np.cos(om * t)) + np.abs(np.sin(om * t)))
    assert fw.sup_energy(sol, basis, grid) == pytest.approx(expected, rel=1e-10)
    assert fw.data_energy(data, None, basis, grid) == pytest.approx(1.0, rel=1e-10)
