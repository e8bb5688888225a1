import numpy as np
import pytest

import fracwave as fw
from fracwave import DNMeasurement, PolyNonlinearity
from fracwave.dnmap import dn_matrix, dn_pairing, dn_trace, grid_signature, solve_exterior
from fracwave.forward import solve_newmark
from conftest import case


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
    zero = fw.combine_controls([fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))], [0.0])
    full = solve_exterior(zero, op, grid)
    assert np.max(np.abs(full)) == 0.0


def test_solve_exterior_carries_control():
    """The interior is the batched linear sweep with q = 0; the control is
    pasted unchanged onto the exterior nodes."""
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    full = solve_exterior(control, op, grid)
    np.testing.assert_array_equal(
        full[:, grid.exterior_indices], control.values
    )
    sweep = fw.solve_with_potential(control.values[None], np.zeros(grid.n_int),
                                    op, grid)[0]
    np.testing.assert_array_equal(grid.restrict(full), sweep)


def test_pairing_linear_in_control():
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    controls, tests = batteries(grid, 2)
    m = dn_matrix(op, grid, controls, tests)
    combo = fw.combine_controls(controls[:4], [2.0, -1.0, 0.5, 0.0])
    m_combo = dn_matrix(op, grid, [combo], tests)
    expected = 2.0 * m[0] - 1.0 * m[1] + 0.5 * m[2]
    np.testing.assert_allclose(m_combo[0], expected, rtol=1e-10, atol=1e-14)


def test_dn_matrix_matches_pairing_helper():
    grid, op, basis = case(n_int=16, s=0.7, n_t=64)
    controls, tests = batteries(grid, 1)
    m = dn_matrix(op, grid, controls, tests)
    full = solve_exterior(controls[0], op, grid)
    reversed_test = fw.reverse_control(tests[0])
    assert m[0, 0] == pytest.approx(dn_pairing(full, reversed_test, op, grid), rel=1e-13)


def test_reciprocity_under_shared_potential():
    grid, op, basis = case(n_int=20, s=0.7, n_t=96)
    q = 1.0 + 0.5 * np.cos(np.pi * grid.interior_coords)
    controls, tests = batteries(grid, 2)
    m12 = dn_matrix(op, grid, controls, tests, q)
    m21 = dn_matrix(op, grid, tests, controls, q)
    asym = np.max(np.abs(m12 - m21.T)) / np.max(np.abs(m12))
    assert asym <= 1e-10


def test_semilinear_route_runs_through_march():
    grid, op, basis = case(n_int=16, s=0.7, n_t=128)
    f = PolyNonlinearity.single(1.0, 1.0, n_nodes=grid.n_int)
    control = fw.tensor_control(grid, 0, 1, mask=grid.w_mask(1))
    full = solve_exterior(control, op, grid, f)
    assert full.shape == (grid.n_t + 1, grid.n_nodes)
    march = solve_newmark(op, grid, model=f, control=control)
    assert np.array_equal(full, march)
    # the nonlinear response must differ from the linear one
    lin_full = solve_exterior(control, op, grid, None)
    assert np.max(np.abs(full - lin_full)) > 1e-8


def test_measurement_roundtrip(tmp_path):
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    controls, tests = batteries(grid, 1)
    matrix = dn_matrix(op, grid, controls, tests)
    sig = grid_signature(grid, 0.7)
    meas = DNMeasurement(
        s=0.7,
        grid_sig=sig,
        matrix=matrix,
        controls_meta=({"index": 0}, {"index": 1}, {"index": 2}),
        tests_meta=({"index": 0}, {"index": 1}, {"index": 2}),
        reversed_tests=True,
    )
    path = tmp_path / "dn.json"
    meas.save_json(path)
    loaded = DNMeasurement.load_json(path, expect_sig=sig)
    assert np.array_equal(loaded.matrix, matrix)
    assert loaded.s == 0.7 and loaded.reversed_tests
    assert loaded.controls_meta == meas.controls_meta


def test_measurement_refuses_mismatch(tmp_path):
    grid, op, basis = case(n_int=16, s=0.7, n_t=32)
    meas = DNMeasurement(
        s=0.7,
        grid_sig=grid_signature(grid, 0.7),
        matrix=np.eye(2),
        controls_meta=({"index": 0},),
        tests_meta=({"index": 0},),
        reversed_tests=True,
    )
    path = tmp_path / "dn.json"
    meas.save_json(path)
    with pytest.raises(ValueError, match="different discretization"):
        DNMeasurement.load_json(path, expect_sig="deadbeef")
    doctored = path.read_text().replace(meas.version, "bogus/9")
    path.write_text(doctored)
    with pytest.raises(ValueError, match="format"):
        DNMeasurement.load_json(path)


def test_measurement_rejects_bad_matrix():
    with pytest.raises(ValueError):
        DNMeasurement(
            s=0.7,
            grid_sig="x",
            matrix=np.zeros(3),
            controls_meta=(),
            tests_meta=(),
            reversed_tests=True,
        )
