"""Tests for potential recovery and nonlinearity-expansion recovery."""

import tracemalloc

import numpy as np
import pytest

import fracwave as fw
from fracwave import inversion as inv
from fracwave.dnmap import dn_matrix, solve_exterior
from fracwave.forward import march_slabs, solve_newmark, trapezoid_weights

from conftest import case
from oracles import fit_profile


@pytest.fixture(scope="module")
def small():
    return case(n_int=20, s=0.7, n_t=128)


@pytest.fixture(scope="module")
def battery(small):
    grid, op, basis = small
    controls = fw.control_basis(grid, grid.w_mask(1), 2)
    probes = fw.control_basis(grid, grid.w_mask(2), 2)
    return controls, probes


# ------------------------------------------------- product identity oracle


def test_pairing_difference_equals_weighted_product_integral(small, battery):
    """The mismatch between two pairing matrices equals the space-time
    integral of (q1 - q2) against mixed-state products, in both
    orientations: states of one potential against reversed test states of
    the other."""
    grid, op, basis = small
    controls, probes = battery
    x = grid.interior_coords
    q1 = 1.0 + 0.5 * np.cos(np.pi * x)
    q2 = 1.0 + 0.2 * np.sin(np.pi * x)

    lhs = (dn_matrix(op, grid, controls, probes, q1)
           - dn_matrix(op, grid, controls, probes, q2))

    w = trapezoid_weights(grid.n_t, grid.dt)
    def states(family, q):
        return np.stack([grid.restrict(solve_exterior(c, op, grid, q))
                         for c in family])

    u1, u2 = states(controls, q1), states(controls, q2)
    v1, v2 = states(probes, q1), states(probes, q2)
    dq = q1 - q2

    scale = np.max(np.abs(lhs))
    for ua, vb in ((u1, v2), (u2, v1)):
        rhs = grid.h * np.einsum("t,atx,btx,x->ab", w, ua, vb[:, ::-1, :], dq)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


# ----------------------------------------------------------- TSVD kernel


def test_tsvd_solves_well_conditioned_system_exactly(rng):
    a = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
    x = rng.standard_normal(6)
    sol, resid, rank = inv._tsvd_solve(a, a @ x, 1e-10)
    assert rank == 6
    assert resid <= 1e-10
    np.testing.assert_allclose(sol, x, atol=1e-8)


def test_tsvd_is_invariant_under_row_scaling(rng):
    a = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    sol_plain, _, rank_plain = inv._tsvd_solve(a, b, 1e-8)
    scale = 10.0 ** rng.uniform(-6, 6, size=8)
    sol_scaled, _, rank_scaled = inv._tsvd_solve(scale[:, None] * a,
                                                 scale * b, 1e-8)
    assert rank_scaled == rank_plain
    np.testing.assert_allclose(sol_scaled, sol_plain, atol=1e-8)


def test_tsvd_rejects_all_zero_rows():
    with pytest.raises(ValueError, match="no nonzero rows"):
        inv._tsvd_solve(np.zeros((3, 4)), np.zeros(3), 1e-3)


# --------------------------------------------- recover_potential contracts


def test_recover_potential_rejects_shape_mismatch(small, battery):
    grid, op, basis = small
    controls, probes = battery
    with pytest.raises(ValueError, match="basis is"):
        inv.recover_potential(np.zeros((3, 2)), controls, probes,
                              op, grid)
    # a test stack one time slice short is named as such, not left to the
    # pairing's matmul
    with pytest.raises(ValueError, match="control shape"):
        inv.recover_potential(np.zeros((len(controls), len(probes))),
                              controls, probes[:, 1:], op, grid)


def test_recover_potential_rejects_bad_cutoffs(small, battery):
    grid, op, basis = small
    controls, probes = battery
    m = np.zeros((len(controls), len(probes)))
    for bad in (0.0, 1.0, -0.5, (1e-2, 2.0)):
        with pytest.raises(ValueError, match="cutoffs must lie"):
            inv.recover_potential(m, controls, probes, op, grid,
                                  cutoff=bad)


def test_recover_potential_stops_at_consistent_start(small, battery):
    """Starting from the true potential, the baseline already fits the
    data; no update can improve it and the estimate stays put."""
    grid, op, basis = small
    controls, probes = battery
    x = grid.interior_coords
    q_true = 0.8 + 0.3 * np.cos(np.pi * x)
    meas = dn_matrix(op, grid, controls, probes, q_true)
    rec = inv.recover_potential(meas, controls, probes, op, grid,
                                q_start=q_true)
    assert rec.data_misfits[0] <= 1e-12
    assert np.max(np.abs(rec.q_est - q_true)) <= 1e-8


def test_recover_potential_pairs_closed_loop(small, battery):
    grid, op, basis = small
    controls, probes = battery
    x = grid.interior_coords
    q_true = 0.4 * np.sin(np.pi * x)
    meas = dn_matrix(op, grid, controls, probes, q_true)
    rec = inv.recover_potential(meas, controls, probes, op, grid)
    rel = np.linalg.norm(rec.q_est - q_true) / np.linalg.norm(q_true)
    assert rel <= 0.08
    misfits = np.asarray(rec.data_misfits)
    assert np.all(np.diff(misfits) < 0)
    assert len(rec.increments) == len(rec.data_misfits) - 1
    assert len(rec.increments) == len(rec.ranks) == len(rec.cutoffs)
    assert np.allclose(rec.q_est, sum(rec.increments))


def test_one_sweep_per_background(small, battery, monkeypatch):
    """Every background model costs one forward_map call, on controls and
    tests joined: the first model and one trial per attempted pass."""
    grid, op, basis = small
    controls, probes = battery
    q_true = 0.4 * np.sin(np.pi * grid.interior_coords)
    meas = dn_matrix(op, grid, controls, probes, q_true)
    rows = []

    def counted(stack, *args):
        rows.append(len(stack))
        return fw.forward_map(stack, *args)

    monkeypatch.setattr(inv, "forward_map", counted)
    schedule = tuple(10.0 ** -np.arange(2, 10))
    rec = inv.recover_potential(meas, controls, probes, op, grid,
                                cutoff=schedule)
    # the schedule ends early, on a discarded trial: one more pass attempted
    # than accepted
    assert len(rec.increments) < len(schedule)
    attempted = len(rec.increments) + 1
    assert rows == [len(controls) + len(probes)] * (1 + attempted)


# ------------------------------------------------------- linear response


def test_linear_response_scales_bitwise_for_dyadic_factor(small):
    grid, op, basis = small
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    half = 0.5 * control
    v_full = inv.linear_response(control, op, grid)
    v_half = inv.linear_response(half, op, grid)
    assert np.array_equal(v_half, 0.5 * v_full)


def test_linear_response_routes_agree(small):
    grid, op, basis = small
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    v_march = inv.linear_response(control, op, grid)
    v_sweep = grid.restrict(solve_exterior(control, op, grid, None))
    gap = np.max(np.abs(v_march - v_sweep)) / np.max(np.abs(v_march))
    assert gap <= 1e-3


# -------------------------------------------------- reaction differencing


def test_reaction_rows_match_potential_term_exactly(small):
    grid, op, basis = small
    x = grid.interior_coords
    q = 1.0 + 0.5 * np.cos(np.pi * x)
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    u_full = solve_newmark(op, grid, model=q, control=control)
    rows = inv.reaction_from_march(u_full, op, grid)
    u_int = grid.restrict(u_full)
    truth = q[None, :] * u_int[1:-1]
    assert rows.shape == (grid.n_t - 1, grid.n_int)
    assert np.max(np.abs(rows - truth)) <= 1e-10


def test_reaction_rows_match_nonlinearity_with_source(small):
    grid, op, basis = small
    x = grid.interior_coords
    model = fw.PolyNonlinearity.single(0.5, 2.0, n_nodes=grid.n_int)
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    source = (np.sin(3.0 * grid.times())[:, None]
              * np.sin(2 * np.pi * x)[None, :])
    u_full = solve_newmark(op, grid, model=model, control=control,
                           source=source)
    rows = inv.reaction_from_march(u_full, op, grid, source=source)
    u_int = grid.restrict(u_full)
    assert np.max(np.abs(rows - model.evaluate(u_int[1:-1]))) <= 1e-10


@pytest.mark.parametrize(
    "spoil", [lambda f: f[:, :1], lambda f: np.where(f == f.max(), np.nan, f)],
    ids=["one_column", "nan"],
)
def test_reaction_checks_source(small, spoil):
    """The march's forcing is checked like a trajectory: a single column
    must not broadcast over the nodes, and a NaN must not pass."""
    grid, op, basis = small
    x = grid.interior_coords
    source = np.sin(3.0 * grid.times())[:, None] * np.sin(2 * np.pi * x)[None, :]
    u_full = solve_newmark(op, grid, source=source)
    with pytest.raises(ValueError, match="trajectory"):
        inv.reaction_from_march(u_full, op, grid, source=spoil(source))


# --------------------------------------------------------- profile fitting


def test_fit_profile_exact_on_synthetic_samples():
    v_rows = np.linspace(0.5, 1.5, 5)[:, None] * np.ones((5, 4))
    coeff = np.array([1.0, 2.0, 3.0, 4.0])
    s_limit = coeff[None, :] * np.abs(v_rows) ** 0.5 * v_rows
    fitted, mask = fit_profile(s_limit, v_rows, 0.5)
    np.testing.assert_allclose(fitted, coeff, atol=1e-12)
    assert mask.all()


def test_fit_profile_masks_and_inherits_unexcited_nodes():
    v_rows = np.linspace(0.5, 1.5, 5)[:, None] * np.ones((5, 4))
    v_rows[:, 3] = 1e-9
    coeff = np.array([1.0, 2.0, 3.0, 40.0])
    s_limit = coeff[None, :] * np.abs(v_rows) ** 0.5 * v_rows
    fitted, mask = fit_profile(s_limit, v_rows, 0.5)
    assert list(mask) == [True, True, True, False]
    np.testing.assert_allclose(fitted[:3], coeff[:3], atol=1e-12)
    assert fitted[3] == pytest.approx(coeff[2])


def test_fit_profile_rejects_fully_silent_response():
    with pytest.raises(ValueError, match="never excites"):
        fit_profile(np.zeros((3, 4)), np.zeros((3, 4)), 0.5)


def test_fit_profile_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        fit_profile(np.zeros((3, 4)), np.zeros((3, 5)), 0.5)


# -------------------------------------------------- power-law extrapolation


def test_extrapolate_powers_recovers_exact_expansion(rng):
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    c0 = rng.standard_normal((3, 2))
    c1 = rng.standard_normal((3, 2))
    samples = c0[None] + eps[:, None, None] ** 0.5 * c1[None]
    limit, rms, cond = inv.extrapolate_powers(eps, samples, (0.0, 0.5))
    np.testing.assert_allclose(limit, c0, atol=1e-10)
    assert np.max(rms) <= 1e-12
    assert cond >= 1.0


@pytest.mark.parametrize("eps, powers", [
    (2.0 ** -np.arange(3, 12), (0.0, 0.5, 1.0)),
    (2.0 ** -np.arange(3, 12), (0.0, 0.5, 1.0, 1.5)),
    (np.array([0.5, 0.5, 0.25, 0.125]), (0.0, 0.5, 1.0, 1.5)),  # rank 3
])
def test_extrapolate_powers_matches_lstsq(rng, eps, powers):
    samples = rng.standard_normal((eps.size, 40, 7))
    limit, rms, cond = inv.extrapolate_powers(eps, samples, powers)
    design = np.stack([eps**p for p in powers], axis=1)
    flat = samples.reshape(eps.size, -1)
    coef, _, _, sing = np.linalg.lstsq(design, flat, rcond=None)
    ref_limit = coef[powers.index(0.0)].reshape(limit.shape)
    ref_rms = np.sqrt(np.mean((design @ coef - flat) ** 2, axis=0)).reshape(rms.shape)
    assert np.max(np.abs(limit - ref_limit)) <= 1e-12 * np.max(np.abs(ref_limit))
    assert np.max(np.abs(rms - ref_rms)) <= 1e-12 * np.max(ref_rms)
    assert cond == pytest.approx(sing[0] / sing[-1], rel=1e-12)


@pytest.mark.parametrize("powers, eps_n, message", [
    ((0.5, 1.0), 4, "must include 0"),
    ((0.0, 0.5, 0.5), 4, "duplicate"),
    ((0.0, 0.5, 1.0), 2, "at least 3"),
])
def test_extrapolate_powers_validates_design(powers, eps_n, message):
    eps = 2.0 ** -np.arange(1, eps_n + 1)
    samples = np.ones((eps_n, 2))
    with pytest.raises(ValueError, match=message):
        inv.extrapolate_powers(eps, samples, powers)


def test_extrapolate_powers_rejects_axis_mismatch():
    with pytest.raises(ValueError, match="leading axis"):
        inv.extrapolate_powers(np.array([0.5, 0.25]), np.ones((3, 2)),
                               (0.0, 0.5))


# ------------------------------------------------------ expansion recovery


@pytest.fixture(scope="module")
def fast_case():
    return case(n_int=20, s=0.7, n_t=256, T=0.5)


def test_recover_expansion_single_term(fast_case):
    grid, op, basis = fast_case
    x = grid.interior_coords
    profile = 2.0 * (1 + 0.3 * np.cos(np.pi * x))
    model = fw.PolyNonlinearity((0.5,), profile[None, :])
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    measure = lambda c: march_slabs(op, grid, model=model, control=c)
    ladder = tuple(2.0**-k for k in range(3, 9))
    est = inv.recover_expansion(measure, control, (0.5,), op, grid,
                                eps_ladder=ladder)
    assert est.exponents == (0.5,)
    assert est.resolved == (True,)
    assert est.masks.all()
    rel = np.max(np.abs(est.coeffs[0] - profile)) / np.max(np.abs(profile))
    assert rel <= 1e-4
    assert est.errors[0] <= 1e-3
    assert np.all(np.isfinite(est.extrap_conds))
    assert est.eps_ladder == ladder


def test_recover_expansion_reports_unresolved_stages(fast_case):
    """A two-rung ladder can separate at most two powers; later stages in
    a three-term expansion must come back unresolved with zeroed rows and
    infinite error estimates."""
    grid, op, basis = fast_case
    x = grid.interior_coords
    model = fw.PolyNonlinearity((0.5,), (2.0 * (1 + 0.3 * np.cos(np.pi * x)))[None, :])
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    measure = lambda c: march_slabs(op, grid, model=model, control=c)
    est = inv.recover_expansion(measure, control, (0.5, 1.0, 1.5),
                                op, grid, eps_ladder=(0.125, 0.0625))
    assert est.resolved == (True, False, False)
    assert np.all(est.coeffs[1] == 0)
    assert np.all(est.coeffs[2] == 0)
    assert est.errors[1] == np.inf and est.errors[2] == np.inf


def test_recover_expansion_zero_model_yields_zero_coefficients(fast_case):
    grid, op, basis = fast_case
    model = fw.PolyNonlinearity((0.5,), np.zeros((1, grid.n_int)))
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    measure = lambda c: march_slabs(op, grid, model=model, control=c)
    ladder = tuple(2.0**-k for k in range(3, 9))
    est = inv.recover_expansion(measure, control, (0.5,), op, grid,
                                eps_ladder=ladder)
    assert np.max(np.abs(est.coeffs)) <= 1e-6


def test_recover_expansion_validates_arguments(fast_case):
    grid, op, basis = fast_case
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    measure = lambda c: march_slabs(op, grid, control=c)
    with pytest.raises(ValueError, match="strictly increasing"):
        inv.recover_expansion(measure, control, (1.0, 0.5), op, grid,
                              eps_ladder=(0.25, 0.125))
    with pytest.raises(ValueError, match="at least two"):
        inv.recover_expansion(measure, control, (0.5,), op, grid,
                              eps_ladder=(0.25,))
    for bad in ((0.25, np.nan, 0.125), (np.inf, 0.25, 0.125), (0.25, -0.125)):
        with pytest.raises(ValueError, match="eps_ladder needs at least two finite"):
            inv.recover_expansion(measure, control, (0.5,), op, grid,
                                  eps_ladder=bad)
    for bad in (2.0, np.nan):
        with pytest.raises(ValueError, match="floor_rel must lie"):
            inv.recover_expansion(measure, control, (0.5,), op, grid,
                                  eps_ladder=(0.25, 0.125), floor_rel=bad)


@pytest.mark.parametrize(
    "ladder", [(0.125, 0.125), (0.125, 0.125, 0.0625, 0.0625), (0.0625, 0.125, 0.0625)]
)
def test_recover_expansion_rejects_repeated_rungs(fast_case, ladder):
    """Repeated amplitudes make the extrapolation singular and the even/odd
    sub-ladders identical, so the self-reported error would read 0."""
    grid, op, basis = fast_case
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    measure = lambda cs: march_slabs(op, grid, control=cs)
    with pytest.raises(ValueError, match="repeats a rung"):
        inv.recover_expansion(measure, control, (0.5,), op, grid,
                              eps_ladder=ladder)


def test_recover_expansion_detects_noise_floor(fast_case):
    """A response that does not shrink with the amplitude makes the scaled
    reactions blow up along the ladder, which must abort."""
    grid, op, basis = fast_case
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    frozen = solve_newmark(op, grid, control=control)
    measure = lambda cs: [np.stack([frozen] * len(cs), axis=1)]  # one slab
    ladder = tuple(2.0**-k for k in range(3, 8))
    with pytest.raises(ValueError, match="diverge"):
        inv.recover_expansion(measure, control, (0.5,), op, grid,
                              eps_ladder=ladder)


def _tiles(stack, step):
    """A time-major stack cut into slabs of step + 2 slices that overlap by two."""
    return [stack[t0 : t0 + step + 2] for t0 in range(0, len(stack) - 2, step)]


@pytest.mark.parametrize("spoil, message", [
    (lambda tiles: [t[:, :1] for t in tiles], "shape"),
    (lambda tiles: [t[:, :, 1:] for t in tiles], "shape"),
    (lambda tiles: tiles[:-1], "stop before slice n_t"),
    (lambda tiles: tiles[:1] + tiles[2:], "breaks the overlap"),
    (lambda tiles: tiles[:1] + [np.concatenate([tiles[1][:1], tiles[1][2:]])] + tiles[2:],
     "breaks the overlap"),
    (lambda tiles: tiles + tiles[-1:], "shape"),
    (lambda tiles: tiles[:2] + [np.where(tiles[2] == tiles[2].max(), np.inf, tiles[2])]
     + tiles[3:], "not finite"),
], ids=["rungs", "nodes", "short", "gap", "no_overlap", "overrun", "inf"])
def test_recover_expansion_checks_measured_slabs(fast_case, spoil, message):
    """A wrong rung or node count, slabs that stop short of n_t, overrun it
    or break the overlap, and a non-finite slab raise ValueError."""
    grid, op, basis = fast_case
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    stack = lambda cs: solve_newmark(op, grid, control=cs).transpose(1, 0, 2)
    with pytest.raises(ValueError, match=message):
        inv.recover_expansion(lambda cs: spoil(_tiles(stack(cs), 60)), control,
                              (0.5,), op, grid, eps_ladder=(0.25, 0.125))


def test_recover_expansion_any_overlapping_tiling(fast_case):
    """Slabs of any length that keep the overlap give the recovery of one
    whole time-major slab to roundoff."""
    grid, op, basis = fast_case
    model = fw.PolyNonlinearity((0.5,), _profiles(grid, 1))
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    ladder = tuple(2.0 ** -k for k in range(3, 9))
    stack = lambda cs: solve_newmark(op, grid, model=model,
                                     control=cs).transpose(1, 0, 2)
    run = lambda measure: inv.recover_expansion(measure, control, (0.5,), op,
                                                grid, eps_ladder=ladder)
    whole = run(lambda cs: [stack(cs)])
    for step in (1, 60, grid.n_t - 2):
        tiled = run(lambda cs: _tiles(stack(cs), step))
        np.testing.assert_allclose(tiled.coeffs, whole.coeffs, rtol=1e-12, atol=0.0)
        assert tiled.errors == pytest.approx(whole.errors, rel=1e-9)


# --------------------------------------- moment route against sample route


def _sample_route(model, control, exps, op, grid, ladder, floor_rel=1e-3):
    """Expansion recovery on the full (n_rungs, n_t - 1, n_int) samples of
    one batched solve_newmark call: every reaction is kept, peeled term by
    term, scaled, extrapolated sample by sample and fitted with
    fit_profile.  Returns (coeffs, errors, masks, extrap_conds)."""
    eps_arr = np.asarray(sorted(ladder, reverse=True))
    v_rows = inv.linear_response(control, op, grid)[1:-1]
    fields = solve_newmark(op, grid, model=model,
                           control=eps_arr[:, None, None] * control)
    peeled = np.stack([inv.reaction_from_march(u, op, grid) for u in fields])
    states = np.stack([grid.restrict(u)[1:-1] for u in fields])
    coeffs = np.zeros((len(exps), grid.n_int))
    masks = np.zeros((len(exps), grid.n_int), dtype=bool)
    errors, conds = [], []
    even, odd = np.arange(0, eps_arr.size, 2), np.arange(1, eps_arr.size, 2)
    for k, r_k in enumerate(exps):
        powers = {0.0, exps[0], *(r_j - r_k for r_j in exps[:k])}
        if k + 1 < len(exps):
            powers.add(exps[k + 1] - r_k)
        powers = tuple(sorted(powers))
        scaled = peeled / (eps_arr ** (1.0 + r_k))[:, None, None]
        limit, _, cond = inv.extrapolate_powers(eps_arr, scaled, powers)
        coeffs[k], masks[k] = fit_profile(limit, v_rows, r_k,
                                              floor_rel=floor_rel)
        parts = [fit_profile(inv.extrapolate_powers(eps_arr[sel], scaled[sel],
                                                        powers)[0],
                                 v_rows, r_k, floor_rel=floor_rel)[0]
                 for sel in (even, odd)]
        errors.append(float(np.max(np.abs(parts[0] - parts[1]))))
        conds.append(cond)
        peeled = peeled - coeffs[k] * np.abs(states) ** r_k * states
    return coeffs, errors, masks, conds


def _profiles(grid, n_terms):
    x = grid.interior_coords
    xh = (x - x[0]) / (x[-1] - x[0])
    return np.stack([(1.0 - 0.2 * k) * (1 + 0.3 * np.cos((k + 1) * np.pi * xh))
                     for k in range(n_terms)])


@pytest.mark.parametrize("exps, n_t, ladder, floor_rel", [
    ((0.5, 1.0), 256, tuple(2.0 ** -k for k in range(3, 10)), 1e-3),
    ((0.5, 1.0), 256, tuple(0.75 * 2.0 ** -k for k in range(3, 10)), 1e-3),
    ((0.5, 1.0, 1.5), 512, tuple(2.0 ** -k for k in range(3, 11)), 1e-3),
    ((0.5, 1.0), 256, tuple(2.0 ** -k for k in range(3, 10)), 0.05),
])
def test_recover_expansion_moments_match_sample_route(exps, n_t, ladder,
                                                      floor_rel):
    """recover_expansion fits per-node moments of the ladder; by linearity
    it equals the route that extrapolates and fits the full samples.  The
    high floor leaves the far nodes unexcited, so both fill them from the
    nearest informative node."""
    grid, op, basis = case(n_int=48, s=0.7, n_t=n_t, T=1.0)
    model = fw.PolyNonlinearity(exps, _profiles(grid, len(exps)))
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    measure = lambda cs: march_slabs(op, grid, model=model, control=cs)
    est = inv.recover_expansion(measure, control, exps, op, grid,
                                eps_ladder=ladder, floor_rel=floor_rel)
    coeffs, errors, masks, conds = _sample_route(model, control, exps, op,
                                                 grid, ladder, floor_rel)
    assert est.resolved == (True,) * len(exps)
    assert est.masks.all() == (floor_rel < 0.01)
    for k in range(len(exps)):
        gap = np.max(np.abs(est.coeffs[k] - coeffs[k]))
        assert gap <= 1e-8 * np.max(np.abs(coeffs[k])), f"term {k + 1}"
    np.testing.assert_allclose(est.errors, errors, rtol=1e-6, atol=0.0)
    assert np.array_equal(est.masks, masks)
    assert est.extrap_conds == tuple(conds)


def test_recover_expansion_streams_the_ladder():
    """The whole recovery, the batched march of the ladder included,
    allocates less than one (n_rungs, n_t - 1, n_int) sample array: the
    march hands its trajectories over in time slabs and each slab is
    reduced to fit moments as it arrives."""
    grid, op, basis = case(n_int=48, s=0.7, n_t=4096, T=1.0)
    model = fw.PolyNonlinearity((0.5, 1.0), _profiles(grid, 2))
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    ladder = tuple(2.0 ** -k for k in range(3, 10))
    budget = len(ladder) * (grid.n_t - 1) * grid.n_int * 8
    tracemalloc.start()
    try:
        est = inv.recover_expansion(
            lambda cs: march_slabs(op, grid, model=model, control=cs),
            control, (0.5, 1.0), op, grid, eps_ladder=ladder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.resolved == (True, True)
    assert peak <= budget, f"peak {peak / budget:.2f}x one sample array"
