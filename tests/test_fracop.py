import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fracwave as fw
from conftest import case


def gamma_weight(s: float, j: int) -> float:
    """Direct Gamma-quotient evaluation, the independent oracle for the
    ratio recurrence.  Valid while no argument hits a pole."""
    return (-1.0) ** j * math.gamma(2 * s + 1) / (
        math.gamma(s - j + 1) * math.gamma(s + j + 1)
    )


def test_center_weight_half_order_closed_form():
    w = fw.centered_weights(0.5, 4)
    assert abs(w[0] - 4.0 / math.pi) < 1e-14


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 1.4, 2.5, 3.7])
def test_weights_match_gamma_quotient(s):
    # every order, above one too, against the quotient (no pole for j <= 30)
    w = fw.centered_weights(s, 30)
    for j in range(31):
        assert w[j] == pytest.approx(gamma_weight(s, j), rel=1e-13, abs=1e-300)


@given(st.floats(0.05, 0.95), st.integers(0, 30))
def test_weight_recurrence(s, j):
    # g_(j+1) = g_j (j - s) / (j + s + 1), the rule the weights are built by
    w = fw.centered_weights(s, j + 1)
    assert w[j + 1] == pytest.approx(w[j] * (j - s) / (j + s + 1), rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_weight_signs_and_decay(s):
    w = fw.centered_weights(s, 256)
    assert w[0] > 0
    assert np.all(w[1:] < 0)
    # |g_j| ~ j^(-1-2s): doubling j scales the magnitude by 2^(-1-2s)
    ratio = abs(w[256]) / abs(w[128])
    assert ratio == pytest.approx(2.0 ** (-1 - 2 * s), rel=0.03)


def test_weights_classical_stencil():
    w = fw.centered_weights(1.0, 5)
    assert np.array_equal(w, [2.0, -1.0, 0.0, 0.0, 0.0, 0.0])


def test_centered_weights_rejects():
    for s in (0.0, -0.5):
        with pytest.raises(ValueError, match="must be positive"):
            fw.centered_weights(s, 4)
    for s in (2.0, 3.0):
        with pytest.raises(ValueError, match="integer order"):
            fw.centered_weights(s, 4)
    with pytest.raises(ValueError):
        fw.centered_weights(0.5, 0)


def test_classical_order_gives_tridiagonal():
    grid, op, _ = case(n_int=12, s=1.0, n_t=8)
    n = grid.n_int
    tri = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
           + np.diag(np.full(n - 1, -1.0), -1)) / grid.h**2
    np.testing.assert_allclose(op.a_int, tri, rtol=0, atol=1e-12 / grid.h**2)


def test_operator_symmetric_and_positive():
    grid, op, _ = case(n_int=20, s=0.7, n_t=8)
    assert np.array_equal(op.a_full, op.a_full.T)
    assert np.linalg.eigvalsh(op.a_int)[0] > 0.0


@pytest.mark.parametrize("s", [0.6, 1.5])
def test_operator_is_toeplitz(s):
    grid, op, _ = case(n_int=14, s=s, n_t=8)
    n = op.a_full.shape[0]
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    scale = grid.h ** (-2 * s)
    np.testing.assert_allclose(
        op.a_full, scale * op.weights[np.abs(i - j)], rtol=1e-14, atol=0
    )


def test_interior_block_consistent_with_zero_extension():
    grid, op, _ = case(n_int=18, s=0.7, n_t=8)
    v = np.sin(np.pi * grid.interior_coords)
    full = grid.extend(v)
    applied = full @ op.a_full
    np.testing.assert_allclose(
        grid.restrict(applied), op.a_int @ v, rtol=1e-13, atol=1e-13
    )


@pytest.mark.parametrize("s", [0.0, -0.5, 2.0, 3.0])
def test_assemble_rejects_bad_orders(s):
    grid, _, _ = case(n_int=10, s=0.7, n_t=8)
    with pytest.raises(ValueError):
        fw.assemble_operator(grid, s)


def test_operator_basis_with_fracop_imported_alone():
    # fracop and spectral import each other's names; the basis must still
    # come up when fracop is the only module a program imports
    code = (
        "import sys\n"
        "import fracwave.fracop as fracop\n"
        "from fracwave.grid import build_grid\n"
        "grid = build_grid(x_min=0.0, x_max=1.0, n_int=12, m_collar=3,\n"
        "                  w1=(0, 1, 2), w2=(3, 4, 5), T=1.0, n_t=8)\n"
        "op = fracop.assemble_operator(grid, 0.7)\n"
        "assert 'fracwave.spectral' not in sys.modules\n"
        "print(op.basis.n_modes, op.basis.h == op.h)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["12", "True"]
