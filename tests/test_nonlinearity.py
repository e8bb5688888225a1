import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracwave import PolyNonlinearity

from oracles import lp_norm


def two_term(n=8):
    b1 = np.full(n, 1.0)
    b2 = np.full(n, 0.5)
    return PolyNonlinearity((0.5, 1.0), np.stack([b1, b2]))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(exponents=(), coeffs=np.zeros((0, 4))),
        dict(exponents=(0.0,), coeffs=np.ones((1, 4))),
        dict(exponents=(-0.5,), coeffs=np.ones((1, 4))),
        dict(exponents=(1.0, 0.5), coeffs=np.ones((2, 4))),
        dict(exponents=(0.5, 0.5), coeffs=np.ones((2, 4))),
        dict(exponents=(0.5,), coeffs=np.ones((2, 4))),
        dict(exponents=(np.nan,), coeffs=np.ones((1, 4))),
        dict(exponents=(np.inf,), coeffs=np.ones((1, 4))),
        # id kept from when four more cases preceded this one
        pytest.param(dict(exponents=(0.5,), coeffs=np.full((1, 4), np.nan)),
                     id="kwargs10"),
    ],
)
def test_poly_construction_rejects(kwargs):
    with pytest.raises(ValueError):
        PolyNonlinearity(**kwargs)


def test_single_and_term():
    f = two_term()
    f0 = f.term(0)
    assert f0.exponents == (0.5,)
    assert np.array_equal(f0.coeffs[0], f.coeffs[0])
    g = PolyNonlinearity.single(1.0, 2.0, n_nodes=5)
    assert g.coeffs.shape == (1, 5)
    with pytest.raises(ValueError):
        PolyNonlinearity.single(1.0, 2.0)


@given(st.floats(0.01, 100.0), st.sampled_from([0.5, 1.0, 1.5]))
def test_single_term_homogeneity(c, r):
    f = PolyNonlinearity.single(r, 1.5, n_nodes=6)
    u = np.linspace(-2, 2, 6)
    lhs = f.evaluate(c * u)
    rhs = c ** (1 + r) * f.evaluate(u)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_evaluate_odd_and_broadcasts():
    f = two_term()
    u = np.linspace(-1, 1, 8)
    np.testing.assert_array_equal(f.evaluate(-u), -f.evaluate(u))
    traj = np.tile(u, (5, 1))
    assert f.evaluate(traj).shape == (5, 8)


@pytest.mark.parametrize("n_terms", [1, 2, 3])
@pytest.mark.parametrize("shape", [(9, 8), (33, 8), (1, 8)])
def test_evaluate_is_bitwise_the_plain_sum(n_terms, shape):
    rng = np.random.default_rng(n_terms)
    exps = (0.5, 1.0, 2.0)[:n_terms]
    coeffs = rng.standard_normal((n_terms, shape[1]))
    coeffs[:, 0] = -1.0  # a negative coefficient on a zero input gives -0.0
    f = PolyNonlinearity(exps, coeffs)

    def plain(u):
        total = np.zeros_like(u)
        for r, b in zip(exps, coeffs):
            total = total + b * np.abs(u) ** r * u
        return total

    u = rng.standard_normal(shape)
    u[:, :3] = [0.0, -0.0, 0.0]
    u[0] = -0.0
    before = u.copy()
    out = f.evaluate(u)
    # tobytes compares the bits, signs of zero included
    assert out.tobytes() == plain(u).tobytes()
    assert u.tobytes() == before.tobytes()
    assert not np.shares_memory(out, u)
    # the march's evaluator, bound once for its rows and called every step
    bound = f._bind(shape)
    first = bound(u)
    v = 3.0 * rng.standard_normal(shape)
    v[:, 2:5] = [-0.0, 0.0, -0.0]
    second = bound(v)
    assert first.tobytes() == out.tobytes()
    assert second.tobytes() == plain(v).tobytes()


def test_lp_norm_special_cases():
    v = np.array([3.0, -4.0])
    h = 0.25
    assert lp_norm(v, 2.0, h) == pytest.approx(np.sqrt(h) * 5.0)
    assert lp_norm(v, np.inf, h) == 4.0
    with pytest.raises(ValueError):
        lp_norm(v, 0.5, h)


@given(st.integers(0, 2**32 - 1))
def test_nemytskii_growth_bound(seed):
    # ||f(u)||_(p/(r+1)) <= sum_k max|b_k| ||u||_p^(r_k+1), the discrete
    # Hoelder estimate behind the fixed-point argument
    rng = np.random.default_rng(seed)
    f = two_term()
    u = rng.standard_normal(8) * 2.0
    h, p = 0.125, 6.0
    lhs1 = lp_norm(f.term(0).evaluate(u), p / 1.5, h)
    lhs2 = lp_norm(f.term(1).evaluate(u), p / 2.0, h)
    up = lp_norm(u, p, h)
    assert lhs1 <= 1.0 * up**1.5 * (1 + 1e-12)
    assert lhs2 <= 0.5 * up**2.0 * (1 + 1e-12)
