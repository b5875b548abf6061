"""Body oracle tests: gauges, supports, polarity and linear images against
stated oracles."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regpos import bodies as bd

RNG = np.random.default_rng(1234)


def sphere_points(m, n, rng=RNG):
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


# ----------------------------------------------------------------------
# gauge values
# ----------------------------------------------------------------------


def test_gauge_l1_corner():
    assert bd.cross_polytope(2).gauge([1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)


def test_gauge_ellipsoid_boundary():
    E = bd.Ellipsoid(np.diag([0.25, 1.0]))
    assert E.gauge([2.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_gauge_weighted_l3():
    K = bd.WeightedLp.from_weights(3.0, [1.0, 1.0])
    assert K.gauge([1.0, 1.0]) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 6.0])
def test_weighted_lp_gauge_matches_subgradient_value_and_power_sum(p):
    # _gauge takes the one-power form of _gauge_subgrad, on random rows and on
    # sparse rows with zero entries (an all-zero one among them)
    rng = np.random.default_rng([35, int(10 * p)])
    K = bd.WeightedLp(p, rng.uniform(0.5, 2.0, 7))
    X = rng.standard_normal((200, 7))
    sparse = X * (rng.random(X.shape) < 0.3)
    sparse[0] = 0.0
    for rows in (X, sparse):
        g = K._gauge(rows.copy())
        np.testing.assert_allclose(g, K._gauge_subgrad(rows.copy())[0], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(g, (np.abs(K.scales * rows) ** p).sum(axis=1) ** (1.0 / p), rtol=1e-13, atol=0.0)


def test_gauge_zero_iff_origin():
    K = bd.WeightedLp.from_weights(1.5, [1.0, 2.0, 3.0])
    assert K.gauge(np.zeros(3)) == 0.0
    assert K.gauge([1e-9, 0, 0]) > 0.0


def test_gauge_errors():
    K = bd.ball(3)
    with pytest.raises(ValueError, match="dimension"):
        K.gauge([1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        K.gauge([np.nan, 0.0, 0.0])


def test_degenerate_rejections():
    with pytest.raises(bd.DegenerateBodyError):
        bd.Ellipsoid(np.diag([1.0, 0.0]))
    with pytest.raises(bd.DegenerateBodyError):
        bd.PolytopeH([[1.0, 0.0]])  # normals do not span: unbounded
    with pytest.raises(bd.DegenerateBodyError):
        bd.PolytopeV([[1.0, 0.0], [2.0, 0.0]])  # vertices do not span
    with pytest.raises(bd.DegenerateBodyError):
        bd.WeightedLp(2.0, [1.0, -1.0])


# ----------------------------------------------------------------------
# support values
# ----------------------------------------------------------------------


def test_support_l1():
    assert bd.cross_polytope(2).support([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_support_ellipsoid_inverse_form():
    A = np.diag([0.25, 1.0])
    E = bd.Ellipsoid(A)
    y = np.array([1.0, 0.0])
    oracle = np.sqrt(y @ np.linalg.inv(A) @ y)
    assert E.support(y) == pytest.approx(oracle, rel=1e-12)
    assert E.support(y) == pytest.approx(2.0, rel=1e-12)


def test_support_ball_unit_directions():
    U = sphere_points(50, 5)
    assert np.allclose(bd.ball(5).support(U), 1.0, atol=1e-12)


# ----------------------------------------------------------------------
# polarity
# ----------------------------------------------------------------------


def test_polar_cross_polytope_is_cube():
    U = sphere_points(1000, 4)
    P = bd.cross_polytope(4).polar()
    assert np.abs(P.gauge(U) - bd.cube(4).gauge(U)).max() <= 1e-9


def test_polar_ellipsoid_inverts_matrix():
    E = bd.Ellipsoid(np.diag([0.25, 1.0]))
    P = E.polar()
    assert np.allclose(P.A, np.diag([4.0, 1.0]))


def test_polar_involution_h_polytope():
    rows = RNG.standard_normal((10, 3))
    K = bd.PolytopeH(rows)
    KK = K.polar().polar()
    U = sphere_points(1000, 3)
    assert np.abs(KK.gauge(U) - K.gauge(U)).max() <= 1e-9


def test_support_equals_polar_gauge_across_families():
    bodies = [
        bd.cross_polytope(5),
        bd.cube(5),
        bd.WeightedLp.from_weights(1.5, np.linspace(1, 2, 5)),
        bd.Ellipsoid(np.diag(np.linspace(0.5, 2, 5))),
    ]
    U = sphere_points(1000, 5)
    for K in bodies:
        assert np.abs(K.support(U) - K.polar().gauge(U)).max() <= 1e-9


def test_a_family_without_a_closed_form_polar_has_no_polar():
    class Abstract(bd.ConvexBody):
        family = "abstract_test"

    with pytest.raises(NotImplementedError, match="'abstract_test' family"):
        Abstract(3).polar()


# ----------------------------------------------------------------------
# linear images
# ----------------------------------------------------------------------


def test_linear_image_identity():
    K = bd.cross_polytope(3)
    X = sphere_points(200, 3)
    assert np.allclose(bd.linear_image(np.eye(3), K).gauge(X), K.gauge(X), atol=1e-12)


def test_linear_image_diag_on_ball():
    T = np.diag([2.0, 0.5])
    K = bd.linear_image(T, bd.ball(2))
    assert K.gauge([2.0, 0.0]) == pytest.approx(1.0, rel=1e-12)


def test_linear_image_polar_duality_random_gl3():
    K = bd.cross_polytope(3)
    U = sphere_points(1000, 3)
    for _ in range(5):
        T = RNG.standard_normal((3, 3)) + 3.0 * np.eye(3)
        lhs = bd.linear_image(T, K).polar().gauge(U)
        rhs = bd.linear_image(np.linalg.inv(T).T, K.polar()).gauge(U)
        assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()


def test_linear_image_singular_rejected():
    with pytest.raises(ValueError, match="singular"):
        bd.LinearImage(np.zeros((2, 2)), bd.ball(2))


@pytest.mark.parametrize("base", [bd.WeightedLp(1.0, [1.0, 1.0, 1.0]), bd.cube(3), bd.ball(3),
                                  bd.PolytopeH(np.eye(3)), bd.PolytopeV(np.eye(3)),
                                  bd.LinearImage(2.0 * np.eye(3), bd.WeightedLp(1.5, [1.0, 2.0, 3.0]))],
                         ids=["l1", "cube", "ellipsoid", "polytope_h", "polytope_v", "linear_image"])
def test_linear_image_rejects_a_map_of_the_wrong_shape(base):
    # the closed-form shortcuts check the map's shape as the generic wrapper does
    for M in ([[2.0]], np.eye(2), np.eye(4), np.ones((3, 4))):
        with pytest.raises(ValueError, match="map shape does not match body dimension"):
            bd.linear_image(np.asarray(M), base)
    assert bd.linear_image(2.0, base).dim == 3


# ----------------------------------------------------------------------
# polytope and wrapper oracles against closed forms, polar identities and
# the subgradient inequality
# ----------------------------------------------------------------------


def test_polytope_h_support_closed_form():
    # K = {|D Q x|_inf <= 1} for orthogonal Q is Q^T D^-1 B_inf, so h_K(y) = |D^-1 Q y|_1;
    # the half-size copy of a row cuts nothing
    rng = np.random.default_rng(51)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    d = np.array([0.5, 1.0, 2.0, 3.0])
    K = bd.PolytopeH(np.vstack([d[:, None] * Q, 0.5 * d[0] * Q[:1]]))
    Y = rng.standard_normal((20, 4))
    assert K.support(Y) == pytest.approx(np.abs(Y @ Q.T / d).sum(axis=1), rel=1e-7)


def test_polytope_v_subgradient_inequality():
    # g(x) = <y, x>, g(z) >= <y, z> for every z, and |<u_j, y>| <= 1 (y in the polar)
    rng = np.random.default_rng(52)
    U = rng.standard_normal((6, 3))
    K = bd.PolytopeV(U)
    X = rng.standard_normal((8, 3))
    Z = rng.standard_normal((30, 3))
    g, Y = K._gauge_subgrad(X)
    assert g == pytest.approx(K.gauge(X), rel=1e-12)
    assert np.einsum("mi,mi->m", Y, X) == pytest.approx(g, rel=1e-7)
    assert np.abs(Y @ U.T).max() <= 1 + 1e-7
    assert np.all(K.gauge(Z)[:, None] >= Z @ Y.T - 1e-7)


def test_linear_image_judges_diagonality_relative_to_the_map():
    # the off-diagonal entries of 1e-9 [[1, 1], [-1, 1]] are as large as its
    # diagonal: the image is a rotated, scaled B_1, not a weighted l_1 ball
    M = 1e-9 * np.array([[1.0, 1.0], [-1.0, 1.0]])
    img = bd.linear_image(M, bd.cross_polytope(2))
    assert not isinstance(img, bd.WeightedLp)
    x = np.array([1e-9, 1e-9])
    assert img.gauge(x) == pytest.approx(bd.LinearImage(M, bd.cross_polytope(2)).gauge(x), rel=1e-12)
    assert img.gauge(x) == pytest.approx(1.0, rel=1e-12)
    # a diagonal map at any scale still gives the weighted ball
    for scale in (1e-9, 1.0, 1e9):
        D = bd.linear_image(scale * np.diag([1.0, -2.0]), bd.cross_polytope(2))
        assert isinstance(D, bd.WeightedLp) and D.scales == pytest.approx([1 / scale, 0.5 / scale], rel=1e-15)


def test_linear_image_support_and_weighted_lp_form():
    # h_{T K}(y) = h_K(T^T y): |T^T y|_inf on B_1 and sqrt(y^T T A^-1 T^T y) on E_A
    rng = np.random.default_rng(53)
    T = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
    A = np.diag([0.5, 1.0, 4.0])
    Y = rng.standard_normal((20, 3))
    assert bd.LinearImage(T, bd.cross_polytope(3)).support(Y) == pytest.approx(
        np.abs(Y @ T).max(axis=1), rel=1e-12)
    h = np.sqrt(np.einsum("mi,ij,mj->m", Y @ T, np.linalg.inv(A), Y @ T))
    assert bd.LinearImage(T, bd.Ellipsoid(A)).support(Y) == pytest.approx(h, rel=1e-12)
    # a diagonal map of a weighted l_p ball is the weighted ball with scales s / |d|
    base = bd.WeightedLp(1.5, [1.0, 2.0, 3.0])
    for d in ([2.0, 1.0, 0.5], [2.0, -1.0, -0.5]):
        p, scales = bd.linear_image(np.diag(d), base).as_weighted_lp()
        assert p == 1.5 and scales == pytest.approx([0.5, 2.0, 6.0], rel=1e-15)
        img = bd.LinearImage(np.diag(d), base)
        assert bd.WeightedLp(p, scales).gauge(Y) == pytest.approx(img.gauge(Y), rel=1e-12)
    for T2, K in ((T, base), (np.diag([2.0, -1.0, 0.5]), base),
                  (np.diag([2.0, 1.0, 0.5]), bd.PolytopeH(np.eye(3)))):
        assert bd.LinearImage(T2, K).as_weighted_lp() is None


def test_linear_image_closed_forms_for_polytopes_and_nested_images():
    # each closed form against the gauge of the generic wrapper, K.gauge(M^-1 x)
    rng = np.random.default_rng(55)
    M1 = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
    M2 = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
    X = rng.standard_normal((10, 3))
    for K in (bd.PolytopeV(rng.standard_normal((5, 3))), bd.PolytopeH(rng.standard_normal((6, 3)))):
        img = bd.linear_image(M1, K)
        assert type(img) is type(K)
        assert img.gauge(X) == pytest.approx(bd.LinearImage(M1, K).gauge(X), rel=1e-7)
    K = bd.WeightedLp(1.5, [1.0, 2.0, 3.0])
    nested = bd.linear_image(M2, bd.linear_image(M1, K))
    assert isinstance(nested, bd.LinearImage) and nested.base is K
    assert nested.gauge(X) == pytest.approx(K.gauge(X @ np.linalg.inv(M2 @ M1).T), rel=1e-12)


def test_radii_closed_forms():
    r, R, exact = bd.cross_polytope(2).radii
    assert exact and r == pytest.approx(1 / np.sqrt(2)) and R == pytest.approx(1.0)
    r, R, exact = bd.cube(3).radii
    assert exact and r == pytest.approx(1.0) and R == pytest.approx(np.sqrt(3))
    E = bd.Ellipsoid(np.diag([0.25, 1.0]))
    assert E.radii.r == pytest.approx(1.0) and E.radii.R == pytest.approx(2.0)
    # p > 2: B_2 inside, radius ratio n^(1/2 - 1/p)
    K = bd.WeightedLp.from_weights(3.0, np.ones(4))
    assert K.radii.r == pytest.approx(1.0, rel=1e-12)
    assert K.radii.R == pytest.approx(4.0 ** (1 / 2 - 1 / 3), rel=1e-12)


def test_radii_envelope_sampled():
    for K in (bd.cross_polytope(6), bd.WeightedLp.from_weights(3.0, np.linspace(1, 2, 6))):
        X = sphere_points(500, 6)
        g = K.gauge(X)
        r, R, _ = K.radii
        assert np.all(g <= 1 / r + 1e-12)
        assert np.all(g >= 1 / R - 1e-12)


# ----------------------------------------------------------------------
# DSL round trips
# ----------------------------------------------------------------------


def test_spec_round_trip_families():
    rows = RNG.standard_normal((8, 4))
    bodies = [
        bd.WeightedLp.from_weights(1.5, [1.0, 2.0]),
        bd.cube(3),
        bd.Ellipsoid(np.diag([1.0, 2.0])),
        bd.PolytopeH(rows),
        bd.PolytopeV(rows),
    ]
    for K in bodies:
        K2 = bd.from_spec(K.spec())
        X = sphere_points(100 if K.exact else 20, K.dim)
        assert np.abs(K2.gauge(X) - K.gauge(X)).max() <= 1e-9 * np.abs(K.gauge(X)).max()


def test_from_spec_wrappers_and_errors():
    spec = {"family": "polar", "base": {"family": "weighted_lp", "p": 1, "weights": [1, 1]}}
    K = bd.from_spec(spec)
    assert K.gauge([1.0, 1.0]) == pytest.approx(1.0)
    spec = {
        "family": "linear_image",
        "matrix": [[2.0, 0.0], [0.0, 0.5]],
        "base": {"family": "ellipsoid", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
    }
    assert bd.from_spec(spec).gauge([2.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="unknown"):
        bd.from_spec({"family": "moebius"})
    with pytest.raises(ValueError):
        bd.from_spec({"p": 2})


def test_inf_p_serialization():
    K = bd.cube(3)
    spec = K.spec()
    assert spec["p"] == "inf"
    K2 = bd.from_spec(spec)
    assert np.isinf(K2.p)


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------


@st.composite
def weighted_lp_bodies(draw):
    n = draw(st.integers(1, 6))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]))
    scales = draw(
        st.lists(st.floats(0.2, 5.0, allow_nan=False), min_size=n, max_size=n)
    )
    return bd.WeightedLp(p, np.array(scales))


@given(weighted_lp_bodies(), st.integers(0, 10**6), st.floats(0.01, 100.0))
@settings(max_examples=60, deadline=None)
def test_gauge_homogeneous_even_triangle(K, seed, lam):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(K.dim)
    y = rng.standard_normal(K.dim)
    gx, gy = K.gauge(x), K.gauge(y)
    assert K.gauge(lam * x) == pytest.approx(lam * gx, rel=1e-9)
    assert K.gauge(-x) == gx
    assert K.gauge(x + y) <= gx + gy + 1e-9 * (gx + gy)


@given(weighted_lp_bodies(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_gauge_support_pairing(K, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(K.dim)
    y = rng.standard_normal(K.dim)
    # |<x, y>| <= gauge(x) * support(y)
    assert abs(x @ y) <= K.gauge(x) * K.support(y) * (1 + 1e-9) + 1e-12


def test_oracles_do_not_mutate_input():
    K = bd.cross_polytope(3)
    x = np.array([1.0, -2.0, 3.0])
    saved = x.copy()
    K.gauge(x)
    K.support(x)
    K.gauge_subgrad(x)
    assert np.array_equal(x, saved)


def test_subgradient_supports_gauge():
    bodies = [
        bd.cross_polytope(4),
        bd.cube(4),
        bd.WeightedLp.from_weights(1.5, np.linspace(1, 2, 4)),
        bd.Ellipsoid(np.diag(np.linspace(0.5, 2, 4))),
        bd.PolytopeH(RNG.standard_normal((9, 4))),
    ]
    X = RNG.standard_normal((50, 4))
    for K in bodies:
        g = K.gauge(X)
        Y = K.gauge_subgrad(X)
        # a gauge subgradient y satisfies <y, x> = gauge(x) and polar-gauge(y) <= 1
        assert np.abs(np.einsum("mi,mi->m", Y, X) - g).max() <= 1e-9 * g.max()
        assert K.polar().gauge(Y).max() <= 1 + 1e-9


# ----------------------------------------------------------------------
# ascent kernels against the two-power formulas
# ----------------------------------------------------------------------


def _two_power_lp(s, p, x):
    """Gauge and gradient of ||s x||_p by the two-power formulas
    g = m (sum (|s x| / m)^p)^(1/p) and dg = s sign(x) (|s x| / g)^(p-1),
    evaluated in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        P = Decimal(p)
        z = [abs(Decimal(si) * Decimal(xi)) for si, xi in zip(s, x)]
        m = max(z)
        if m == 0:
            return 0.0, np.zeros(len(x))
        g = m * sum((zi / m) ** P for zi in z) ** (1 / P)
        y = [float(Decimal(si) * (zi / g) ** (P - 1)) * np.sign(xi) if zi else 0.0
             for si, zi, xi in zip(s, z, x)]
        return float(g), np.array(y)


def _two_power_soft_max(L, lift):
    """The q=24 smoothing by its two-power formula: with gq the q-norm of L,
    lift(sign(L) (|L| / gq)^(q-1)) g / gq, the powers in 50-digit decimals."""
    q = Decimal(24)
    g, C = np.zeros(L.shape[0]), np.zeros(L.shape)
    with localcontext() as ctx:
        ctx.prec = 50
        for r, row in enumerate(L):
            a = [abs(Decimal(v)) for v in row]
            m = max(a)
            if m == 0:
                continue
            gq = m * sum((v / m) ** q for v in a) ** (1 / q)
            C[r] = [float((v / gq) ** (q - 1) * m / gq) * np.sign(x) for v, x in zip(a, row)]
            g[r] = float(m)
    return g, lift(C)


def _kernel_points(n):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, n))
    X[::5, ::3] = 0.0          # zero entries
    X[1::6, 2] = 1e-200        # entries near 1e-200 beside O(1) ones
    X[2::7] *= 1e-200          # whole rows near 1e-200
    X[3] = 0.0
    return X


def _assert_rows_agree(Y, Yref, rtol=1e-13):
    scale = np.abs(Yref).max(axis=1, keepdims=True)
    assert np.all(np.abs(Y - Yref) <= rtol * scale)


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 3.0, 6.0, 24.0, 1000.0])
def test_weighted_lp_subgrad_matches_two_power_formula(p):
    n = 10
    s = np.random.default_rng(8).uniform(0.5, 2.0, n)
    K = bd.WeightedLp(p, s)
    X = _kernel_points(n)
    g, Y = K._gauge_subgrad(X)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(Y))
    ref = [_two_power_lp(s, p, x) for x in X]
    gref = np.array([r[0] for r in ref])
    assert np.all(np.abs(g - gref) <= 1e-13 * gref)
    _assert_rows_agree(Y, np.array([r[1] for r in ref]))


@pytest.mark.parametrize("K", [
    bd.cube(10),
    bd.WeightedLp(np.inf, np.linspace(0.5, 2.0, 10)),
    bd.PolytopeH(np.random.default_rng(9).standard_normal((16, 10))),
], ids=["cube", "weighted_cube", "polytope_h"])
def test_soft_max_direction_matches_two_power_formula(K):
    X = _kernel_points(10)
    g, Y = K._ascent_subgrad(X)
    assert np.all(np.isfinite(Y))
    if isinstance(K, bd.PolytopeH):
        gref, Yref = _two_power_soft_max(X @ K.rows.T, lambda C: C @ K.rows)
    else:
        gref, Yref = _two_power_soft_max(K.scales * X, lambda C: K.scales * C)
    assert np.array_equal(g, gref)
    _assert_rows_agree(Y, Yref)


@pytest.mark.parametrize("K", [
    bd.cube(4),
    bd.PolytopeH(np.random.default_rng(10).standard_normal((6, 4))),
    bd.WeightedLp(3.0, np.ones(4)),
    bd.cross_polytope(4),
], ids=["cube", "polytope_h", "l3", "l1"])
def test_zero_row_gives_zero_gauge_and_direction(K):
    X = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -2.0, 0.5, 0.0]])
    for g, Y in (K._ascent_subgrad(X), K._gauge_subgrad(X)):
        assert g[0] == 0.0 and np.array_equal(Y[0], np.zeros(4))
        assert np.all(np.isfinite(Y))
