import numpy as np
import pytest

import fracwave as fw
from fracwave import CauchyData, PolyNonlinearity
from conftest import case


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


def test_duhamel_coefficient_rejects():
    t = np.linspace(0, 1, 9)
    f = np.zeros(9)
    with pytest.raises(ValueError):
        fw.duhamel_coefficient(-1.0, 1.0, 0.0, f, t)
    with pytest.raises(ValueError):
        fw.duhamel_coefficient(1.0, 1.0, 0.0, f, t[:1])
    with pytest.raises(ValueError):
        fw.duhamel_coefficient(1.0, 1.0, 0.0, f, t**2)
    with pytest.raises(ValueError):
        fw.duhamel_coefficient(1.0, 1.0, 0.0, f[:5], t)


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


def ladder_controls(grid, n):
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    return [fw.combine_controls([control], [2.0**-k]) for k in range(n)]


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
        fw.solve_newmark(op, grid, control=[])
    (short,) = ladder_controls(case(n_int=16, s=0.7, n_t=64)[0], 1)
    with pytest.raises(ValueError, match="n_t=64"):
        fw.solve_newmark(op, grid, control=[*controls, short])
    bad = PolyNonlinearity.single(2.0, -1e8, n_nodes=grid.n_int)
    data = CauchyData(np.sin(np.pi * grid.interior_coords), np.zeros(grid.n_int))
    with pytest.raises(fw.SolverBlowupError, match="step"):
        fw.solve_newmark(op, grid, model=bad, control=controls, data=data)
    # only the loud row leaves the finite range, and the message names it alone
    (control,) = ladder_controls(grid, 1)
    mixed = [fw.combine_controls([control], [a]) for a in (1e-6, 1.0, 1e-6)]
    with pytest.raises(fw.SolverBlowupError, match=r"step \d+ .* batch rows \[1\]$"):
        fw.solve_newmark(op, grid, model=bad, control=mixed)
    grid, op, basis = case(n_int=48, s=1.5, n_t=8)
    still = fw.ExteriorControl(np.zeros((grid.n_t + 1, grid.n_ext)), grid.w_mask(1),
                               grid.dt, grid.T)
    with pytest.raises(ValueError, match="CFL"):
        fw.solve_newmark(op, grid, control=[still, still])


def march_by_old_step(op, grid, model, controls, data, source):
    """The march written as 2 u - u_prev + dt^2 accel(n) on strided views,
    the form that `inversion.reaction_from_march` inverts."""
    dt, interior = grid.dt, grid.interior_slice
    full = np.zeros((grid.n_t + 1, len(controls), grid.n_nodes))
    for b, c in enumerate(controls):
        if c is not None:
            full[:, b, grid.exterior_indices] = c.values
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
        basis, q, data, None, grid, theta0=8.0, ratio_bound=1.0
    )
    _, fast = fw.solve_with_potential_picard(
        basis, q, data, None, grid, theta0=16.0, ratio_bound=1.0
    )
    assert slow.contraction < 1.0
    assert fast.contraction < slow.contraction


def test_picard_reports_failure():
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    data = CauchyData(np.sin(np.pi * grid.interior_coords), np.zeros(grid.n_int))
    q = np.full(grid.n_int, 50.0)
    with pytest.raises(fw.PicardError) as err:
        fw.solve_with_potential_picard(
            basis, q, data, None, grid, theta0=1.0, theta_cap=1.0, ratio_bound=1e-6
        )
    assert err.value.report.thetas_tried == (1.0,)


def test_picard_rejects_bad_potential_shape():
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    zero = CauchyData.zero(grid.n_int)
    with pytest.raises(ValueError, match="potential shape"):
        fw.solve_with_potential_picard(basis, np.zeros(grid.n_int + 3), zero, None, grid)
    with pytest.raises(ValueError, match="non-finite"):
        fw.solve_with_potential_picard(basis, np.full(grid.n_int, np.inf), zero, None, grid)


@pytest.mark.parametrize(
    "profile",
    [
        lambda x: 1.0 + 0.5 * np.cos(np.pi * x),
        lambda x: 20.0 * np.sin(3 * np.pi * x),
        lambda x: np.full_like(x, -10.0),  # makes A_int + q indefinite
        np.zeros_like,  # Picard returns the modal solve itself
    ],
    ids=["smooth", "oscillating", "indefinite", "zero"],
)
def test_potential_sweep_matches_picard(profile):
    grid, op, basis = case(n_int=24, s=0.7, n_t=128)
    q = profile(grid.interior_coords)
    controls = fw.control_basis(grid, grid.w_mask(1), 2)
    states = fw.solve_with_potential(
        np.stack([c.values for c in controls]), q, op, grid
    )
    zero = CauchyData.zero(grid.n_int)
    for control, u in zip(controls, states):
        source = fw.lift_exterior(control, op, grid)
        ref, _ = fw.solve_with_potential_picard(basis, q, zero, source, grid)
        scale = np.max(np.abs(ref.u))
        assert np.max(np.abs(u - ref.u)) <= 1e-12 * scale


def test_potential_sweep_batch_matches_single():
    grid, op, basis = case(n_int=24, s=0.7, n_t=128)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    values = np.stack([c.values for c in fw.control_basis(grid, grid.w_mask(2), 3)])
    batch = fw.solve_with_potential(values, q, op, grid)
    for v, u in zip(values, batch):
        single = fw.solve_with_potential(v[None], q, op, grid)[0]
        assert np.max(np.abs(u - single)) <= 1e-12 * np.max(np.abs(single))


def test_potential_sweep_shape_checks():
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    values = np.zeros((1, grid.n_t + 1, grid.n_ext))
    with pytest.raises(ValueError, match="potential shape"):
        fw.solve_with_potential(values, np.zeros(grid.n_int + 1), op, grid)
    with pytest.raises(ValueError, match="non-finite"):
        fw.solve_with_potential(values, np.array([np.nan] * grid.n_int), op, grid)
    with pytest.raises(ValueError, match="control values"):
        fw.solve_with_potential(values[0], np.zeros(grid.n_int), op, grid)


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
            lambda cs: grid.restrict(fw.solve_newmark(op, grid, control=cs)),
            control, (0.5,), op, grid, eps_ladder=(0.25, 0.125),
        ),
    }
    with pytest.raises(ValueError, match="trajectory"):
        calls[guard]()


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
