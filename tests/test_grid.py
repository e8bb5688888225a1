import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fracwave as fw


def unit_grid(n_int=10, m=3, n_t=8, T=1.0):
    return fw.build_grid(
        x_min=0.0, x_max=1.0, n_int=n_int, m_collar=m,
        w1=tuple(range(m)), w2=tuple(range(m, 2 * m)), T=T, n_t=n_t,
    )


def test_node_counts():
    g = unit_grid()
    assert g.n_nodes == g.n_int + 2 * g.m_collar
    assert g.n_ext == 2 * g.m_collar
    assert g.coords.shape == (g.n_nodes,)
    assert g.interior_coords.shape == (g.n_int,)
    assert g.exterior_coords.shape == (g.n_ext,)


def test_spacing_uniform_through_collar():
    # the stencil assembly relies on every adjacent pair being exactly h apart
    g = unit_grid()
    np.testing.assert_allclose(np.diff(g.coords), g.h, rtol=0, atol=1e-15)


def test_collar_straddles_domain():
    g = unit_grid()
    left, right = np.split(g.exterior_coords, 2)
    assert np.all(left <= g.x_min + 1e-15)
    assert np.all(right >= g.x_max - 1e-15)
    assert np.all(g.interior_coords > g.x_min)
    assert np.all(g.interior_coords < g.x_max)


@given(st.integers(2, 40), st.integers(1, 5))
def test_extend_restrict_roundtrip(n_int, m):
    g = fw.build_grid(
        x_min=0.0, x_max=1.0, n_int=n_int, m_collar=m,
        w1=(0,), w2=(m,), T=1.0, n_t=4,
    )
    v = np.sin(np.arange(n_int, dtype=float))
    full = g.extend(v)
    assert full.shape == (g.n_nodes,)
    assert np.array_equal(g.restrict(full), v)
    assert np.all(full[g.exterior_indices] == 0.0)


def test_extend_handles_trajectories():
    g = unit_grid()
    traj = np.arange(3 * g.n_int, dtype=float).reshape(3, g.n_int)
    full = g.extend(traj)
    assert full.shape == (3, g.n_nodes)
    assert np.array_equal(g.restrict(full), traj)


def test_extend_restrict_shape_checks():
    g = unit_grid()
    with pytest.raises(ValueError):
        g.extend(np.zeros(g.n_int + 1))
    with pytest.raises(ValueError):
        g.restrict(np.zeros(g.n_nodes - 1))


def test_scatter_exterior_lands_on_collar():
    g = unit_grid()
    vals = np.arange(g.n_ext, dtype=float) + 1.0
    full = g.scatter_exterior(vals)
    assert np.array_equal(full[g.exterior_indices], vals)
    assert np.all(full[g.interior_slice] == 0.0)


def test_w_masks_disjoint():
    g = unit_grid()
    m1, m2 = g.w_mask(1), g.w_mask(2)
    assert m1.sum() == len(g.w1)
    assert m2.sum() == len(g.w2)
    assert not np.any(m1 & m2)
    for bad in (0, 3, 7):
        with pytest.raises(ValueError, match="window must be 1 or 2"):
            g.w_mask(bad)


def test_times_grid():
    g = unit_grid(n_t=16, T=2.0)
    t = g.times()
    assert t.shape == (17,)
    assert t[0] == 0.0 and t[-1] == 2.0
    np.testing.assert_allclose(np.diff(t), g.dt, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "override",
    [
        dict(x_min=1.0, x_max=0.0),
        dict(n_int=1),
        dict(m_collar=0),
        dict(T=0.0),
        dict(n_t=0),
        dict(w1=()),
        dict(w1=(0, 0)),
        dict(w2=(6,)),
        dict(w2=(-1,)),
    ],
)
def test_build_grid_rejects(override):
    kwargs = dict(
        x_min=0.0, x_max=1.0, n_int=10, m_collar=3,
        w1=(0, 1, 2), w2=(3, 4, 5), T=1.0, n_t=8,
    )
    kwargs.update(override)
    with pytest.raises(ValueError):
        fw.build_grid(**kwargs)
