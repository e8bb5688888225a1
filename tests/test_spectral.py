from types import SimpleNamespace

import numpy as np
import pytest

import fracwave as fw
from fracwave import cli
from conftest import case


def test_eigendecompose_ascending_and_orthonormal():
    for s, n in ((0.3, 128), (0.7, 24), (1.5, 32)):
        grid, op, basis = case(n_int=n, s=s)
        assert np.all(np.diff(basis.lambdas) > 0)
        gram = grid.h * basis.modes.T @ basis.modes
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-11)


def test_eigendecompose_sign_convention():
    for s in (0.3, 0.7, 1.5):
        _, _, basis = case(n_int=24, s=s)
        for col in basis.modes.T:
            lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
            assert lead > 0


def test_eigendecompose_rerun_is_byte_identical():
    # the operator's cached basis is the same eigensolve, kept
    grid, op, _ = case(n_int=40, s=0.7)
    first = fw.eigendecompose(op)
    for other in (fw.eigendecompose(op), op.basis):
        assert first.lambdas.tobytes() == other.lambdas.tobytes()
        assert first.modes.tobytes() == other.modes.tobytes()
    assert op.basis is op.basis


def test_modes_are_column_major():
    # the potential sweep's step matrix is built from products with the
    # modes, whose rounding, and so every sweep digest, depends on this order
    _, op, _ = case(n_int=24, s=0.7)
    assert op.basis.modes.flags.f_contiguous


def test_eigendecompose_rejects_indefinite_block():
    grid, op, _ = case(n_int=8, s=0.7)
    shifted = SimpleNamespace(a_int=op.a_int - 2.0 * op.a_int[0, 0] * np.eye(8))
    with pytest.raises(ValueError, match="not positive"):
        fw.eigendecompose(shifted)


def test_eigendecompose_residual_and_gram():
    grid, op, basis = case(n_int=24, s=0.7)
    assert np.all(basis.lambdas > 0)
    assert np.all(np.diff(basis.lambdas) >= 0)
    resid = op.a_int @ basis.modes - basis.modes * basis.lambdas[None, :]
    assert np.max(np.abs(resid)) <= 1e-9 * basis.lambdas[-1]
    gram = grid.h * basis.modes.T @ basis.modes
    np.testing.assert_allclose(gram, np.eye(grid.n_int), atol=1e-12)


def test_classical_spectrum_closed_form():
    # s = 1 reduces to the Dirichlet Laplacian whose spectrum is known exactly
    grid, op, basis = case(n_int=12, s=1.0)
    n = grid.n_int
    k = np.arange(1, n + 1)
    exact = 4.0 / grid.h**2 * np.sin(k * np.pi * grid.h / 2.0) ** 2
    np.testing.assert_allclose(basis.lambdas, exact, rtol=1e-12)


def test_eigenvalue_growth_tracks_order():
    # lambda_k ~ k^(2s) in the resolved part of the spectrum
    _, _, basis = case(n_int=32, s=1.5)
    k = np.arange(3, 13)
    slope = np.polyfit(np.log(k), np.log(basis.lambdas[k - 1]), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.4)


def test_project_reconstruct_roundtrip(rng):
    grid, op, basis = case(n_int=24, s=0.7)
    field = rng.standard_normal((5, grid.n_int))
    coeffs = fw.project_l2(field, basis)
    np.testing.assert_allclose(fw.reconstruct(coeffs, basis), field, atol=1e-11)
    np.testing.assert_allclose(
        fw.project_l2(fw.reconstruct(coeffs, basis), basis), coeffs, atol=1e-11
    )


def test_mode_norms_closed_form():
    grid, op, basis = case(n_int=24, s=0.7)
    for k in (0, 5, 17):
        mode = basis.modes[:, k]
        lam = basis.lambdas[k]
        assert fw.dual_norm(mode, basis) == pytest.approx(1 / np.sqrt(lam), rel=1e-10)


def test_dual_norm_routes_agree(rng):
    grid, op, basis = case(n_int=24, s=0.7)
    for _ in range(20):
        g = rng.standard_normal(grid.n_int)
        spectral = fw.dual_norm(g, basis)
        variational = fw.dual_norm_variational(g, op)
        assert abs(spectral - variational) <= 1e-10 * variational


def test_spectra_csv_exact(tmp_path):
    grid, op, basis = case(n_int=10, s=0.7)
    assert cli.main(["eig", "--out", str(tmp_path), "--set", "domain.n_int=10"]) == 0
    lines = (tmp_path / "spectra.csv").read_text().splitlines()
    assert lines[0] == "k,lambda"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.array_equal(np.array(values), basis.lambdas)
