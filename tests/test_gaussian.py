"""Gaussian functional estimates against exact moments, quadrature oracles
and common-random-number identities."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from regpos import bodies as bd
from regpos import subspaces as sp
from regpos.gaussian import (
    BLOCK,
    FixedSample,
    GaussianSample,
    _estimate,
    _moments,
    crn_diff,
    ell,
    ell_star,
    gauss_norm_mean,
    mstar,
)


def test_sample_reproducible_and_prefix_stable():
    a = GaussianSample(42, 40000, 8).vectors()
    b = GaussianSample(42, 40000, 8).vectors()
    assert np.array_equal(a, b)
    short = GaussianSample(42, 20000, 8).vectors()
    assert np.array_equal(a[:20000], short)
    other = GaussianSample(43, 20000, 8).vectors()
    assert not np.array_equal(short, other)


def test_sample_equals_per_block_spawn_draws_and_is_read_only():
    s = GaussianSample(42, 40000, 8)
    for b, size in enumerate([16384, 16384, 7232]):
        child = np.random.SeedSequence([42, 8]).spawn(b + 1)[b]
        expected = np.random.default_rng(child).standard_normal((size, 8))
        assert np.array_equal(s.block(b), expected)
        with pytest.raises(ValueError):
            s.block(b)[0, 0] = 0.0
    assert np.array_equal(np.concatenate(list(s.blocks())), s.vectors())
    with pytest.raises(ValueError):
        s.vectors()[0, 0] = 0.0


def test_sample_block_mean_band():
    s = GaussianSample(7, 30000, 4)
    G = s.vectors()
    assert np.abs(G.mean(axis=0)).max() <= 5.0 / np.sqrt(s.count)


def test_ell2_ball_exact_second_moment():
    s = GaussianSample(1, 10000, 16)
    e = ell(bd.ball(16), 2, s)
    assert abs(e.value - 4.0) <= 3 * e.se


def test_ell_homogeneity_exact_under_crn():
    sA = GaussianSample(5, 5000, 4)
    a = ell(bd.ball(4).scale(2.0), 2, sA)
    b = ell(bd.ball(4), 2, sA)
    assert a.value == pytest.approx(b.value / 2.0, abs=1e-12)


def test_ell_cube2_quadrature_oracle():
    # E max(|g1|, |g2|) via the 1-d integral with the half-normal cdf
    target = quad(
        lambda t: t * 2 * np.sqrt(2 / np.pi) * np.exp(-t * t / 2) * (2 * ndtr(t) - 1), 0, 12
    )[0]
    assert target == pytest.approx(2 / np.sqrt(np.pi), rel=1e-9)
    s = GaussianSample(2, 100000, 2)
    e = ell(bd.cube(2), 1, s)
    assert abs(e.value - target) <= 3 * e.se


def test_mstar_ball_and_cross_polytope():
    s = GaussianSample(3, 50000, 2)
    m = mstar(bd.ball(2), s)
    assert abs(m.value - 1.0) <= 1e-12
    target = quad(lambda t: np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t))), 0, 2 * np.pi)[0]
    target /= 2 * np.pi
    assert target == pytest.approx(2 * np.sqrt(2) / np.pi, rel=1e-9)
    m1 = mstar(bd.cross_polytope(2), s)
    assert abs(m1.value - target) <= 3 * m1.se


def test_ell_star_vs_gauss_mean_times_mstar():
    n = 16
    s = GaussianSample(4, 20000, n)
    K = bd.cross_polytope(n)
    ls = ell_star(K, 1, s)
    ms = mstar(K, s)
    c = gauss_norm_mean(n)
    from scipy.special import gamma

    assert c == pytest.approx(np.sqrt(2) * gamma(8.5) / gamma(8), rel=1e-12)
    assert abs(ls.value - c * ms.value) <= 3 * (ls.se + c * ms.se)


def test_crn_pair_identical_bodies():
    s = GaussianSample(6, 5000, 4)
    assert ell(bd.ball(4), 1, s).value == ell(bd.ball(4), 1, s).value
    d = crn_diff(bd.ball(4), bd.ball(4), "ell", s)
    assert d.value == 0.0 and d.se == 0.0


def test_crn_diff_rejects_unknown_functional():
    with pytest.raises(ValueError, match="bogus"):
        crn_diff(bd.ball(4), bd.cube(4), "bogus", GaussianSample(6, 100, 4))


@pytest.mark.parametrize("dims", [(3, 3), (4, 3), (3, 4)])
def test_crn_diff_rejects_dimension_mismatch(dims):
    with pytest.raises(ValueError, match="dimension"):
        crn_diff(bd.ball(dims[0]), bd.cube(dims[1]), "ell", GaussianSample(6, 100, 4))


def test_crn_scaling_ratio_exact():
    s = GaussianSample(6, 5000, 4)
    a, b = ell(bd.ball(4), 2, s), ell(bd.ball(4).scale(2.0), 2, s)
    assert a.value == pytest.approx(2.0 * b.value, abs=1e-12)


def test_crn_variance_reduction_measured():
    bodyA = bd.cross_polytope(8)
    bodyB = bd.WeightedLp.from_weights(1.1, np.ones(8))
    s = GaussianSample(8, 10000, 8)
    d = crn_diff(bodyA, bodyB, "ell2", s)
    ea = ell(bodyA, 2, s)
    eb = ell(bodyB, 2, GaussianSample(9, 10000, 8))
    indep_se = np.hypot(2 * ea.value * ea.se, 2 * eb.value * eb.se)
    assert d.se < indep_se


def test_monotone_under_inclusion():
    s = GaussianSample(10, 20000, 8)
    l1 = ell(bd.cross_polytope(8), 1, s)
    l2 = ell(bd.WeightedLp(2.0, np.ones(8)), 1, s)
    l3 = ell(bd.cube(8), 1, s)
    assert l1.value >= l2.value >= l3.value  # CRN makes this essentially sure


def test_contraction_sections_and_projections():
    n, m = 8, 4
    rng = np.random.default_rng(13)
    E = sp.haar_grassmannian(rng, n, m)
    K = bd.cross_polytope(n)
    lK = ell(K, 1, GaussianSample(11, 20000, n))
    lS = ell(sp.section(K, E), 1, GaussianSample(12, 20000, m))
    assert lS.value <= lK.value + 3 * (lS.se + lK.se)
    lsK = ell_star(K, 1, GaussianSample(11, 20000, n))
    lsP = ell_star(sp.project(K, E), 1, GaussianSample(12, 20000, m))
    assert lsP.value <= lsK.value + 3 * (lsP.se + lsK.se)


def test_al_star_one_dimensional_bound():
    # 1/r(K) <= sqrt(pi/2) ell(K) and R(K) <= sqrt(pi/2) ell*(K)
    s = GaussianSample(14, 20000, 6)
    factor = np.sqrt(np.pi / 2)
    for K in (bd.cross_polytope(6), bd.cube(6), bd.Ellipsoid(np.diag(np.linspace(0.5, 2, 6)))):
        l = ell(K, 1, s)
        ls = ell_star(K, 1, s)
        r, R, _ = K.radii
        assert 1.0 / r <= factor * (l.value + 3 * l.se)
        assert R <= factor * (ls.value + 3 * ls.se)


def test_fixed_sample_and_sign_symmetrization():
    base = GaussianSample(15, 100, 3)
    sym = FixedSample(base.sign_symmetrized())
    assert sym.count == 100 * 8
    G = sym.vectors()
    # closed under sign flips: the multiset of |rows| has multiplicity 8
    flipped = G * np.array([-1.0, 1.0, 1.0])
    key = np.sort(np.round(G, 9).view([("a", float), ("b", float), ("c", float)]), axis=0)
    key2 = np.sort(np.round(flipped, 9).view([("a", float), ("b", float), ("c", float)]), axis=0)
    assert np.array_equal(key, key2)
    with pytest.raises(ValueError):
        GaussianSample(0, 100, 16).sign_symmetrized()


def test_estimate_validation():
    s = GaussianSample(16, 1000, 4)
    with pytest.raises(ValueError):
        ell(bd.ball(4), 3, s)
    with pytest.raises(ValueError):
        ell(bd.ball(5), 2, s)


def test_standard_error_keeps_its_digits_on_a_large_mean():
    # |x| = x on [-1, 1]^1 for x = 1e8 + N(0, 1): E[x^2] - mean^2 cancels all 16 digits here
    x = 1e8 + np.random.default_rng(31).standard_normal(2 * BLOCK + 1000)
    ref = np.std(x, ddof=1) / np.sqrt(x.size)
    e = ell(bd.cube(1), 1, FixedSample(x[:, None]))
    assert e.se == pytest.approx(ref, rel=1e-10)
    assert _estimate(np.array_split(x, 3), 1).se == pytest.approx(ref, rel=1e-10)


def test_moments_sum_block_means_in_block_order():
    rng = np.random.default_rng(32)
    blocks = [rng.standard_normal((2, m)) + [[3.0], [-1.0]] for m in (BLOCK, BLOCK, 77)]
    means, cov, m = _moments(blocks)
    assert m == 2 * BLOCK + 77
    for i in range(2):
        total = 0.0
        for v in blocks:
            total += float(v[i].sum())
        assert means[i] == total / m
        mean, var, _ = _moments(v[i] for v in blocks)
        assert mean == total / m and var == pytest.approx(cov[i, i], rel=1e-13)
    assert cov == pytest.approx(np.cov(np.hstack(blocks)), rel=1e-12)


def test_crn_diff_is_the_estimate_of_the_differences():
    s = GaussianSample(33, 20000, 5)
    A, B = bd.cross_polytope(5), bd.WeightedLp.from_weights(3.0, np.arange(1.0, 6.0))
    d = crn_diff(A, B, "ell", s)
    diff = A._gauge(s.vectors()) - B._gauge(s.vectors())
    assert d.se == pytest.approx(np.std(diff, ddof=1) / np.sqrt(diff.size), rel=1e-12)
    assert d.value == pytest.approx(diff.mean(), rel=1e-13)


@pytest.mark.parametrize("n", [7, 64])
def test_tiled_values_equal_the_whole_block_values(n, monkeypatch):
    # 20000 rows: two blocks, and a last tile shorter than the 2^16 / n rows of the others
    from regpos import gaussian
    from regpos.positions import _table_ell, ell_product

    s = GaussianSample(34, 20000, n)
    assert s.n_blocks() == 2 and s.count % (gaussian._TILE // n)
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    bodies = [
        bd.cross_polytope(n),
        bd.cube(n),
        bd.WeightedLp.from_weights(1.5, np.linspace(1.0, 2.0, n)),
        bd.WeightedLp.from_weights(3.0, np.linspace(1.0, 3.0, n)),
        bd.Ellipsoid(A @ A.T + n * np.eye(n)),
        bd.linear_image(np.eye(n) + 0.3 * A / np.sqrt(n), bd.WeightedLp(1.5, np.ones(n))),
    ]
    # the gauge of an H-polytope and the support of its polar are BLAS matmuls
    # (their other oracles solve one LP per row)
    H = bd.PolytopeH(rng.standard_normal((2 * n, n)))
    large_p = bd.WeightedLp(1000.0, np.exp(np.linspace(-1.0, 1.0, n)))

    def run():
        out = [(ell(K, p, s), ell_star(K, p, s)) for K in bodies for p in (1, 2)]
        out += [mstar(K, s) for K in bodies]
        out += [crn_diff(K1, K2, f, s) for K1, K2 in zip(bodies, bodies[1:]) for f in ("ell", "ell_star")]
        out += [ell_product(K, s) for K in bodies]
        out += [ell(H, 1, s), ell_star(H.polar(), 1, s), mstar(H.polar(), s)]
        return out + [_table_ell(large_p, s)]   # every block of p = 1000 takes the gauge

    tiled = run()
    monkeypatch.setattr(gaussian, "_TILE", 1 << 40)   # one tile per block
    assert tiled == run()


def test_value_kernels_never_see_more_rows_than_one_tile(monkeypatch):
    from regpos.gaussian import _TILE

    n = 32
    s = GaussianSample(35, 20000, n)
    rows = []
    for cls in (bd.WeightedLp, bd.Ellipsoid):
        for name in ("_gauge", "_support"):
            kernel = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, X, kernel=kernel: rows.append(len(X)) or kernel(self, X))
    for K in (bd.cross_polytope(n), bd.WeightedLp.from_weights(1.5, np.linspace(1.0, 2.0, n)), bd.ball(n)):
        ell_star(K, 1, s)
    assert sum(rows) >= 3 * s.count and max(rows) <= _TILE // n
