import tracemalloc

import numpy as np
import pytest

import fracwave as fw
from fracwave.dnmap import _pairing, dn_matrix, grid_signature, solve_exterior
from fracwave.forward import SWEEP_SLAB, _sweep, st_inner
from conftest import case
from oracles import dn_trace, stack_pairings


def batteries(grid, n_freqs=2):
    controls = fw.control_basis(grid, grid.w_mask(1), n_freqs)
    tests = fw.control_basis(grid, grid.w_mask(2), n_freqs)
    return controls, tests


def test_grid_signature_discriminates():
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    sig = grid_signature(grid, 0.7)
    assert sig == grid_signature(grid, 0.7)
    assert sig != grid_signature(grid, 0.8)
    other, _, _ = case(n_int=18, s=0.7, n_t=32)
    assert sig != grid_signature(other, 0.7)


def test_dn_trace_shape():
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    full = solve_exterior(control, op, grid)
    assert full.shape == (grid.n_t + 1, grid.n_nodes)
    trace = dn_trace(full, op, grid)
    assert trace.shape == (grid.n_t + 1, grid.n_ext)


def test_zero_control_zero_state():
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    zero = 0.0 * fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    full = solve_exterior(zero, op, grid)
    assert np.max(np.abs(full)) == 0.0


def test_solve_exterior_carries_control():
    """The interior is the batched linear sweep with q = 0; the control is
    pasted unchanged onto the exterior nodes."""
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    full = solve_exterior(control, op, grid)
    np.testing.assert_array_equal(
        full[:, grid.exterior_indices], control
    )
    sweep = fw.forward_map(control[None], op, grid)[0]
    np.testing.assert_array_equal(grid.restrict(full), sweep)


def test_pairing_linear_in_control():
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    controls, tests = batteries(grid, 2)
    m = dn_matrix(op, grid, controls, tests)
    combo = np.tensordot([2.0, -1.0, 0.5, 0.0], controls[:4], 1)
    m_combo = dn_matrix(op, grid, combo[None], tests)
    expected = 2.0 * m[0] - 1.0 * m[1] + 0.5 * m[2]
    np.testing.assert_allclose(m_combo[0], expected, rtol=1e-10, atol=1e-14)


def test_dn_matrix_matches_pairing_helper():
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    controls, tests = batteries(grid, 1)
    m = dn_matrix(op, grid, controls, tests)
    full = solve_exterior(controls[0], op, grid)
    pairing = st_inner(dn_trace(full, op, grid), tests[0][::-1], grid)
    assert m[0, 0] == pytest.approx(pairing, rel=1e-13)


def test_reciprocity_under_shared_potential():
    grid, op, basis = case(n_int=20, s=0.7, n_t=96)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    controls, tests = batteries(grid, 2)
    m12 = dn_matrix(op, grid, controls, tests, q)
    m21 = dn_matrix(op, grid, tests, controls, q)
    asym = np.max(np.abs(m12 - m21.T)) / np.max(np.abs(m12))
    assert asym <= 1e-10


@pytest.mark.parametrize("model", ["none", "potential"])
def test_forward_map_refuses_single_control(model):
    """Every model takes a control stack (B, n_t+1, n_ext) and refuses one
    (n_t+1, n_ext) control, as do the measurements built on it;
    solve_exterior takes one control, as a list too, and refuses a stack."""
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    controls, tests = batteries(grid)
    model = {"none": None, "potential": np.ones(grid.n_int)}[model]
    with pytest.raises(ValueError, match="control shape"):
        fw.forward_map(controls[0], op, grid, model)
    with pytest.raises(ValueError, match="control shape"):
        dn_matrix(op, grid, controls[0], tests, model)
    with pytest.raises(ValueError, match=r"control shape \(6, 65, 6\) is not 2-d"):
        solve_exterior(controls, op, grid, model)
    single = solve_exterior(controls[0], op, grid, model)
    assert np.array_equal(solve_exterior(controls[0].tolist(), op, grid, model), single)


@pytest.mark.parametrize("n_t", [130, 137], ids=["even", "odd"])
@pytest.mark.parametrize("model", ["none", "potential"])
def test_dn_matrix_matches_full_trace_oracle(n_t, model):
    """The pairing streamed from the sweep's slabs equals st_gram of the
    full exterior traces of the whole state stack against the reversed
    tests."""
    grid, op, basis = case(n_int=20, s=0.7, n_t=n_t)
    controls, tests = batteries(grid, 2)
    model = {
        "none": None,
        "potential": 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords),
    }[model]
    m = dn_matrix(op, grid, controls, tests, model)
    ref = stack_pairings(fw.forward_map(controls, op, grid, model), controls, tests, op, grid)
    assert np.max(np.abs(m - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_dn_matrix_streams_the_sweep():
    """On a potential, dn_matrix reduces the sweep's slabs as they arrive:
    it allocates less than 0.3 of the control state stack it never
    builds."""
    grid, op, basis = case(n_int=128, s=0.7, n_t=512)
    controls, tests = batteries(grid, 4)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    stack = controls.shape[0] * (grid.n_t + 1) * grid.n_int * 8  # bytes
    tracemalloc.start()
    try:
        dn_matrix(op, grid, controls, tests, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * stack, f"peak {peak / stack:.2f}x the control state stack"


def test_pairing_holds_no_slab_sized_temporary():
    """One pair(slab, t0) call contracts the slab through the exterior
    first: it allocates less than 0.25 of the slab it reads."""
    grid, op, basis = case(n_int=128, s=0.7, n_t=512)
    controls, tests = batteries(grid, 4)
    assert len(controls) == 12
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    fixed, pair = _pairing(controls, tests, op, grid)
    slabs = _sweep(controls, q, op, grid, SWEEP_SLAB)
    next(slabs)
    slab = next(slabs)  # slices SWEEP_SLAB .. 2 SWEEP_SLAB - 1
    tracemalloc.start()
    try:
        pair(slab, SWEEP_SLAB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * slab.nbytes, f"peak {peak / slab.nbytes:.2f}x the slab"
