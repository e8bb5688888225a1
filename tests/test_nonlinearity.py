import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fracwave as fw
from fracwave import GrowthRatioWarning, PolyNonlinearity, Potential


def two_term(n=8):
    b1 = np.full(n, 1.0)
    b2 = np.full(n, 0.5)
    return PolyNonlinearity((0.5, 1.0), np.stack([b1, b2]))


def test_potential_metadata():
    q = Potential(np.zeros(4))
    assert q.p == np.inf and q.name == "q"
    with pytest.raises(ValueError):
        Potential(np.zeros(4), p=0.5)
    with pytest.raises(ValueError, match="1-d nodal vector"):
        Potential(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        Potential(np.array([0.0, np.nan]))


@pytest.mark.parametrize(
    "s,bad_p,good_p",
    [(0.3, 3.0, 4.0), (0.5, 2.0, 2.5), (0.8, 1.5, 2.0)],
)
def test_validate_potential_floor(s, bad_p, good_p):
    fw.validate_potential(Potential(np.zeros(4), p=good_p), s)
    with pytest.raises(ValueError):
        fw.validate_potential(Potential(np.zeros(4), p=bad_p), s)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(exponents=(), coeffs=np.zeros((0, 4))),
        dict(exponents=(0.0,), coeffs=np.ones((1, 4))),
        dict(exponents=(-0.5,), coeffs=np.ones((1, 4))),
        dict(exponents=(1.0, 0.5), coeffs=np.ones((2, 4))),
        dict(exponents=(0.5, 0.5), coeffs=np.ones((2, 4))),
        dict(exponents=(0.5,), coeffs=np.ones((2, 4))),
        dict(exponents=(0.5,), coeffs=np.ones((1, 4)), kind="diagonal"),
        dict(exponents=(0.5,), coeffs=np.ones((1, 4)), r_infty=0.2),
        dict(exponents=(0.5,), coeffs=np.ones((1, 4)), c_remainder=1.0),
        dict(exponents=(0.5,), coeffs=np.ones((1, 4)), kind="asymptotic",
             c_remainder=-1.0),
        dict(exponents=(0.5,), coeffs=np.full((1, 4), np.nan)),
    ],
)
def test_poly_construction_rejects(kwargs):
    with pytest.raises(ValueError):
        PolyNonlinearity(**kwargs)


def test_poly_kinds_and_growth_exponent():
    serial = two_term()
    assert serial.kind == "serial"
    assert serial.growth_exponent == 1.0
    asym = PolyNonlinearity(
        (0.5,), np.ones((1, 4)), kind="asymptotic", r_infty=0.9, c_remainder=2.0
    )
    assert asym.growth_exponent == 0.9


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


def test_derivative_matches_finite_difference():
    f = two_term()
    u = np.linspace(0.2, 1.5, 8)  # away from the |u|^r kink at zero
    eps = 1e-7
    fd = (f.evaluate(u + eps) - f.evaluate(u - eps)) / (2 * eps)
    np.testing.assert_allclose(f.derivative(u), fd, rtol=1e-5)


def test_primitive_matches_finite_difference():
    f = two_term()
    u = np.linspace(-1.5, 1.5, 8)
    eps = 1e-6
    fd = (f.primitive(u + eps) - f.primitive(u - eps)) / (2 * eps)
    np.testing.assert_allclose(fd, f.evaluate(u), rtol=1e-5, atol=1e-9)
    assert np.all(f.primitive(np.zeros(8)) == 0.0)


def test_integrability_floor_table():
    assert fw.integrability_floor(0.3) == pytest.approx(1 / 0.3)
    assert fw.integrability_floor(0.5) > 2.0
    assert fw.integrability_floor(0.8) == 2.0
    assert fw.integrability_floor(1.5) == 2.0


def test_exponent_limit_table():
    assert fw.exponent_limit(0.3) == pytest.approx(0.6 / 0.4)
    assert np.isinf(fw.exponent_limit(0.5))
    assert np.isinf(fw.exponent_limit(0.8))


def test_validate_nonlinearity_clean():
    f = two_term()
    report = fw.validate_nonlinearity(f, 0.7, tau_max=2.0)
    assert report.clean
    assert report.messages == ()
    assert 0.0 < report.derivative_constant <= 1.0 + 1e-12
    assert report.primitive_floor == 0.0
    assert report.growth_ratios == (0.5,)


def test_validate_nonlinearity_negative_term_floor():
    f = PolyNonlinearity.single(1.0, -2.0, n_nodes=4)
    report = fw.validate_nonlinearity(f, 0.7, tau_max=1.0)
    # F(z) = -2 |z|^3 / 3 dips to -2/3 on the box
    assert report.primitive_floor == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_validate_nonlinearity_growth_warning():
    f = PolyNonlinearity((0.5, 1.0), np.stack([np.full(4, 1.0), np.full(4, 2.0)]))
    with pytest.warns(GrowthRatioWarning):
        report = fw.validate_nonlinearity(f, 0.7)
    assert not report.clean
    assert report.growth_ratios == (2.0,)
    assert "recovery guarantee" in report.messages[0]


def test_validate_nonlinearity_rejects():
    f = PolyNonlinearity.single(2.0, 1.0, n_nodes=4)
    with pytest.raises(ValueError):  # growth beyond the limit at small s
        fw.validate_nonlinearity(f, 0.3)
    g = PolyNonlinearity.single(0.5, 1.0, n_nodes=4)
    with pytest.raises(ValueError):  # inadmissible state exponent
        fw.validate_nonlinearity(g, 0.3, p=2.0)
    with pytest.raises(ValueError):
        fw.validate_nonlinearity(g, 0.7, tau_max=0.0)


def test_lp_norm_special_cases():
    v = np.array([3.0, -4.0])
    h = 0.25
    assert fw.lp_norm(v, 2.0, h) == pytest.approx(np.sqrt(h) * 5.0)
    assert fw.lp_norm(v, np.inf, h) == 4.0
    with pytest.raises(ValueError):
        fw.lp_norm(v, 0.5, h)


@given(st.integers(0, 2**32 - 1))
def test_nemytskii_growth_bound(seed):
    # ||f(u)||_(p/(r+1)) <= sum_k max|b_k| ||u||_p^(r_k+1), the discrete
    # Hoelder estimate behind the fixed-point argument
    rng = np.random.default_rng(seed)
    f = two_term()
    u = rng.standard_normal(8) * 2.0
    h, p = 0.125, 6.0
    lhs1 = fw.lp_norm(f.term(0).evaluate(u), p / 1.5, h)
    lhs2 = fw.lp_norm(f.term(1).evaluate(u), p / 2.0, h)
    up = fw.lp_norm(u, p, h)
    assert lhs1 <= 1.0 * up**1.5 * (1 + 1e-12)
    assert lhs2 <= 0.5 * up**2.0 * (1 + 1e-12)
