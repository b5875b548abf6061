"""Interpolation identities and the scalar maps."""

import numpy as np
import pytest

from regpos import bodies as bd
from regpos.interpolation import (
    interpolate,
    phi,
    property_suite,
    theta_of_alpha,
)

RNG = np.random.default_rng(77)


def unit_points(m, n):
    X = RNG.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


# ----------------------------------------------------------------------
# scalar maps
# ----------------------------------------------------------------------


def test_theta_of_alpha_values():
    assert theta_of_alpha(1.0) == pytest.approx(0.5, abs=1e-15)
    assert theta_of_alpha(0.75) == pytest.approx(1.0 / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        theta_of_alpha(0.5)
    with pytest.raises(ValueError):
        theta_of_alpha(0.3)


def test_phi_values_and_monotonicity():
    assert phi(1.0) == pytest.approx(1.0, rel=1e-15)
    assert phi(0.5) == pytest.approx(1.0 + np.sqrt(2), rel=1e-12)
    ts = np.linspace(0.05, 1.0, 40)
    vals = [phi(t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        phi(0.0)
    with pytest.raises(ValueError):
        phi(1.2)


def test_scalar_map_exponent_identity():
    for alpha in (0.51, 0.75, 1.0, 2.0, 10.0):
        theta = theta_of_alpha(alpha)
        assert 1.0 / (1.0 - theta) == pytest.approx(2 * alpha, rel=1e-12)
        assert 0.0 < theta < 1.0


# ----------------------------------------------------------------------
# closed-form interpolants
# ----------------------------------------------------------------------


def test_endpoints_are_the_inputs():
    K0 = bd.WeightedLp.from_weights(1.0, [1.0, 2.0, 3.0])
    K1 = bd.cube(3)
    X = unit_points(400, 3)
    g0 = interpolate(K0, K1, 0.0).gauge(X)
    g1 = interpolate(K0, K1, 1.0).gauge(X)
    assert np.abs(g0 - K0.gauge(X)).max() <= 1e-12
    assert np.abs(g1 - K1.gauge(X)).max() <= 1e-12


def test_b1_b2_midpoint_is_b43():
    mid = interpolate(bd.cross_polytope(5), bd.ball(5), 0.5)
    assert mid.p == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert np.allclose(mid.scales, 1.0)


def test_diagonal_ellipsoids_entrywise_geometric_mean():
    E0 = bd.Ellipsoid(np.diag([1.0, 4.0]))
    E1 = bd.Ellipsoid(np.diag([4.0, 1.0]))
    mid = interpolate(E0, E1, 0.5)
    assert mid.p == 2.0
    assert np.allclose(mid.weights, [2.0, 2.0])


def test_interpolation_inequality_and_basis_equality():
    n = 6
    K0 = bd.WeightedLp.from_weights(1.0, np.linspace(1, 3, n))
    K1 = bd.WeightedLp.from_weights(3.0, np.linspace(2, 1, n))
    th = 0.37
    Kth = interpolate(K0, K1, th)
    X = RNG.standard_normal((1000, n))
    bound = K0.gauge(X) ** (1 - th) * K1.gauge(X) ** th
    assert np.all(Kth.gauge(X) <= bound * (1 + 1e-12))
    I = np.eye(n)
    assert np.abs(Kth.gauge(I) - K0.gauge(I) ** (1 - th) * K1.gauge(I) ** th).max() <= 1e-12


def test_property_suite_residuals():
    pairs = [
        (bd.cross_polytope(4), bd.ball(4), 0.5),
        (bd.WeightedLp.from_weights(1.5, [1.0, 2.0, 0.5, 1.0]), bd.cube(4), 0.25),
    ]
    for pair in pairs:
        residuals = property_suite(*pair, rng=np.random.default_rng(5))
        assert all(r <= 1e-9 for r in residuals.values()), residuals


def test_polar_of_interpolant_conjugates_exponent():
    th = 0.4
    Kth = interpolate(bd.cross_polytope(4), bd.ball(4), th)
    pol = Kth.polar()
    # 1/p = (1-th) + th/2; conjugate exponent on the polar side
    p = 1.0 / (1 - th + th / 2)
    assert Kth.p == pytest.approx(p, rel=1e-12)
    assert pol.p == pytest.approx(p / (p - 1), rel=1e-12)
    rhs = interpolate(bd.cube(4), bd.ball(4), th)
    X = unit_points(400, 4)
    assert np.abs(pol.gauge(X) - rhs.gauge(X)).max() <= 1e-12


def test_two_sided_scaling():
    th = 0.5
    Kth = interpolate(bd.cross_polytope(3), bd.ball(3), th)
    scaled = interpolate(bd.cross_polytope(3).scale(3.0), bd.ball(3), th)
    X = unit_points(300, 3)
    assert np.abs(scaled.gauge(X) - Kth.gauge(X) / np.sqrt(3)).max() <= 1e-12


def test_nontractable_pair_raises():
    K0 = bd.PolytopeH(RNG.standard_normal((6, 3)))
    with pytest.raises(ValueError, match="non-tractable family 'polytope_h': only weighted l_p balls"):
        interpolate(K0, bd.ball(3), 0.5)


def test_interpolate_rejects_bad_endpoints_and_theta():
    with pytest.raises(ValueError, match="share a dimension"):
        interpolate(bd.cross_polytope(3), bd.ball(4), 0.5)
    for th in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            interpolate(bd.cross_polytope(3), bd.ball(3), th)
    rng = np.random.default_rng(8)
    for K in (bd.PolytopeV(rng.standard_normal((5, 3))), bd.Ellipsoid(np.array([[2.0, 1.0], [1.0, 2.0]]))):
        with pytest.raises(ValueError, match=f"family '{K.family}': only weighted l_p balls"):
            interpolate(bd.ball(K.dim), K, 0.5)
    # theta at the ends is allowed
    assert interpolate(bd.cross_polytope(3), bd.ball(3), 1.0).p == 2.0


def test_unconditional_invariance_of_interpolant():
    K0 = bd.WeightedLp.from_weights(1.0, [1.0, 2.0, 3.0])
    K1 = bd.WeightedLp.from_weights(3.0, [2.0, 1.0, 1.0])
    Kth = interpolate(K0, K1, 0.6)
    X = RNG.standard_normal((100, 3))
    signs = np.array([1.0, -1.0, 1.0])
    assert np.array_equal(Kth.gauge(X * signs), Kth.gauge(X))


def test_section_lower_bound_for_interpolants_with_ball():
    # R([L, B_2]_th cap E) >= R(L cap E)^(1-th)
    from regpos import subspaces as sp

    n, th = 6, 0.4
    L = bd.WeightedLp.from_weights(1.0, np.linspace(1, 2, n))
    Lth = interpolate(L, bd.ball(n), th)
    rng = np.random.default_rng(3)
    for _ in range(10):
        E = sp.haar_grassmannian(rng, n, int(rng.integers(2, n)))
        lhs = sp.out_radius(sp.section(Lth, E), rng=rng)
        rhs = sp.out_radius(sp.section(L, E), rng=rng) ** (1 - th)
        assert lhs >= rhs * (1 - 1e-3)
