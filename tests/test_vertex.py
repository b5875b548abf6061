"""The vertex searches for maxima over low-codimension sections of weighted
l_1 balls and weighted cubes, checked against enumeration of every vertex."""

import itertools

import numpy as np
import pytest

from regpos import _ascent
from regpos import bodies as bd
from regpos import subspaces as sp
from regpos._ascent import SURVEY, _extremize, ratio_extremum_many


def _enumerated_maxima(scales, Zs, Ps=None):
    """max |P x| / sum_i scales_i |x_i| over the vertices of K cap col(Z): for
    every support J of size codim + 1 whose normal block A_J has rank codim,
    the null vector of A_J."""
    S, n, d = Zs.shape
    A = np.swapaxes(np.linalg.qr(Zs, mode="complete")[0][:, :, d:], 1, 2)
    best = np.zeros(S)
    for J in map(list, itertools.combinations(range(n), n - d + 1)):
        _, sv, Vt = np.linalg.svd(A[:, :, J])
        X = np.zeros((S, n))
        X[:, J] = Vt[:, -1]
        num = np.linalg.norm(X if Ps is None else np.einsum("sqn,sn->sq", Ps, X), axis=1)
        rank_full = sv[:, -1] > 1e-10
        best = np.where(rank_full, np.maximum(best, num / (np.abs(X) @ scales)), best)
    return best


def _enumerated_cube_maxima(scales, Zs, Ps=None):
    """max |P x| / max_i scales_i |x_i| over the vertices of K cap col(Z): in
    u = scales * x, for every free set B of codim coordinates whose block of
    the normals A / scales is nonsingular and every sign vector on the rest,
    the point with u_B = -A'_B^-1 A'_N u_N, kept when |u_B| <= 1.  The vertex
    at -u is the mirror of u, so the first sign is fixed at +1."""
    S, n, d = Zs.shape
    c = n - d
    A = np.swapaxes(np.linalg.qr(Zs, mode="complete")[0][:, :, d:], 1, 2) / scales
    Pp = np.broadcast_to(np.eye(n), (S, n, n)) if Ps is None else Ps
    Pp = np.swapaxes(Pp / scales, 1, 2)                     # rows i: P e_i / scales_i, (S, n, q)
    signs = np.array([(1.0, *rest) for rest in itertools.product((-1.0, 1.0), repeat=n - c - 1)])
    best = np.zeros(S)
    for B in map(list, itertools.combinations(range(n), c)):
        N = [i for i in range(n) if i not in B]
        AB = A[:, :, B]
        ok = np.abs(np.linalg.det(AB)) > 1e-10
        TN = np.linalg.inv(np.where(ok[:, None, None], AB, np.eye(c))) @ A[:, :, N]
        UB = -signs @ np.swapaxes(TN, 1, 2)                 # (S, 2^(n-c-1), c)
        PX = signs @ Pp[:, N] + UB @ Pp[:, B]               # P x at every sign vector
        feasible = ok[:, None] & (np.abs(UB).max(axis=2) <= 1.0 + 1e-9)
        best = np.maximum(best, np.where(feasible, np.vecdot(PX, PX), 0.0).max(axis=1))
    return np.sqrt(best)


def _flag_problems(rng, n, k, count):
    F, E, E2 = sp.haar_flag_batch(rng, n, k, count)
    return {
        "plain": (sp.haar_grassmannian_batch(rng, n, n - k + 1, count), None),
        "F": (F, np.swapaxes(E, 1, 2)),         # R(P_E (K cap F))
        "E2": (E2, np.swapaxes(E, 1, 2)),       # R((P_F K) cap E)
    }


def _bodies(n):
    return {"b1": bd.cross_polytope(n), "wlp1": bd.WeightedLp.from_weights(1.0, 1.0 + np.arange(n) / (n - 1.0))}


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_vertex_search_matches_enumeration(n, k):
    problems = _flag_problems(np.random.default_rng([31, n, k]), n, k, 120)
    for body, K in _bodies(n).items():
        for name, (Zs, Ps) in problems.items():
            exact = _enumerated_maxima(K.scales, Zs, Ps)
            short = 1.0 - ratio_extremum_many(K, Zs, Ps) / exact
            ascent = _extremize(K, Zs, Ps, "max", np.random.default_rng(0), SURVEY)[0]
            where = (body, name)
            assert np.quantile(short, 0.9) <= 1e-3, where
            assert short.min() >= -1e-9, where
            assert short.max() < (1.0 - ascent / exact).max(), where


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_cube_vertex_walk_against_enumeration(n, k):
    # the walk may stop at a local optimum, so it is held to the ascent: never
    # above the maximum, and its p90 and worst shortfall below the ascent's
    problems = _flag_problems(np.random.default_rng([33, n, k]), n, k, 120)
    cubes = {"binf": bd.cube(n), "winf": bd.WeightedLp(np.inf, 1.0 + np.arange(n) / (n - 1.0))}
    for body, K in cubes.items():
        for name, (Zs, Ps) in problems.items():
            exact = _enumerated_cube_maxima(K.scales, Zs, Ps)
            short = 1.0 - ratio_extremum_many(K, Zs, Ps) / exact
            ascent = 1.0 - _extremize(K, Zs, Ps, "max", np.random.default_rng(0), SURVEY)[0] / exact
            where = (body, name)
            assert short.min() >= -1e-9 and ascent.min() >= -1e-9, where
            assert np.quantile(short, 0.9) < np.quantile(ascent, 0.9), where
            assert short.max() < ascent.max(), where


@pytest.mark.parametrize("d", [5, 6, 7])
def test_vertex_search_on_coordinate_sections(d):
    # coordinate subspaces make every block of the normals that misses the
    # normal coordinates singular; the section of B_1 is B_1^d, with R = 1
    n = 8
    perm = np.random.default_rng(d).permutation(n)
    Zs = np.stack([np.eye(n)[:, :d], np.eye(n)[:, perm[:d]]])
    assert np.array_equal(ratio_extremum_many(bd.cross_polytope(n), Zs), [1.0, 1.0])
    K = bd.WeightedLp(1.0, np.linspace(1.0, 3.0, n))
    expect = [1.0 / K.scales[:d].min(), 1.0 / K.scales[perm[:d]].min()]
    assert ratio_extremum_many(K, Zs) == pytest.approx(expect, rel=1e-12)
    # the section of a weighted cube is a weighted cube, whose farthest
    # vertex (1 / s_i) has |x|^2 = sum_i 1 / s_i^2
    assert ratio_extremum_many(bd.cube(n), Zs) == pytest.approx([np.sqrt(d)] * 2, rel=1e-12)
    K = bd.WeightedLp(np.inf, np.linspace(1.0, 3.0, n))
    expect = [np.sqrt(np.sum(K.scales[idx] ** -2.0)) for idx in (np.arange(d), perm[:d])]
    assert ratio_extremum_many(K, Zs) == pytest.approx(expect, rel=1e-12)


def test_cube_walk_on_sections_missing_coordinates():
    # F misses some coordinates (P_F e_i = 0), so fewer than four coordinates
    # can seed walkers; the section of a weighted cube by a span of e_i is a
    # weighted cube with R^2 = sum 1 / s_i^2, and by the line through e_1 + e_2
    # it is the segment out to |x_1| = |x_2| = 1 / max(s_1, s_2)
    for n, cols, expect in [
        (4, [[1, 0, 0, 0]], lambda s: 1.0 / s[0]),
        (5, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]], lambda s: np.sqrt(s[0] ** -2.0 + s[2] ** -2.0)),
        (6, [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]], lambda s: np.sqrt(np.sum(s[[1, 3, 5]] ** -2.0))),
        (3, [[1, 1, 0]], lambda s: np.sqrt(2.0) / max(s[0], s[1])),
    ]:
        Z = np.array(cols, dtype=float).T
        Z /= np.linalg.norm(Z, axis=0)
        for K in (bd.cube(n), bd.WeightedLp(np.inf, np.linspace(1.0, 3.0, n))):
            assert ratio_extremum_many(K, Z[None]) == pytest.approx([expect(K.scales)], rel=1e-12), (n, K.scales)
            assert sp.out_radius(sp.section(K, sp.Subspace(Z))) == pytest.approx(expect(K.scales), rel=1e-12)


def _sparse_bases(rng, n, d, count):
    """(count, n, d) orthonormal bases of the spans of random sparse integer
    matrices: sections that miss coordinates, hold coordinate axes or tie
    coordinates (x_i = +-x_j on F), with QR rounding in the zero entries."""
    bases = []
    while len(bases) < count:
        M = np.zeros((n, d))
        for j in range(d):
            idx = rng.choice(n, size=rng.integers(1, 4), replace=False)
            M[idx, j] = rng.integers(-2, 3, size=idx.size)
        if np.linalg.matrix_rank(M) == d:
            bases.append(np.linalg.qr(M)[0])
    return np.stack(bases)


@pytest.mark.parametrize("seed", [4, 27, 62])
def test_vertex_search_on_degenerate_sections(seed):
    # on these sections several coordinates reach their bounds at once, a seed
    # may lie on a coordinate axis, so that the projected gradient is rounding
    # only (seeds 4 and 27), and a coordinate whose column carries the rank of
    # the free normals may win the cube walk's next fix on rounding alone
    # (seed 62); every route stays finite and never above the enumerated maximum
    for n in range(3, 9):
        for c in range(1, min(3, n - 1) + 1):
            rng = np.random.default_rng([seed, n, c])
            Zs = _sparse_bases(rng, n, n - c, 32)
            Ps = rng.standard_normal((32, 3, n))
            w = np.linspace(1.0, 3.0, n)
            for K, enumerate_ in [(bd.cube(n), _enumerated_cube_maxima), (bd.WeightedLp(np.inf, w), _enumerated_cube_maxima),
                                  (bd.cross_polytope(n), _enumerated_maxima), (bd.WeightedLp(1.0, w), _enumerated_maxima)]:
                for P in (None, Ps):
                    got = ratio_extremum_many(K, Zs, P)
                    exact = enumerate_(K.scales, Zs, P)
                    where = (n, c, K.p, P is None)
                    assert np.all(np.isfinite(got)) and np.all(got > 0.0), where
                    assert np.all(got <= exact * (1.0 + 1e-9)), where


def test_ratio_extrema_dispatch(monkeypatch):
    calls = []

    def vertex_maxima(body, Zs, Ps):
        calls.append(Zs.shape)
        return np.zeros(Zs.shape[0])

    monkeypatch.setattr(_ascent, "vertex_maxima", vertex_maxima)
    n = 10
    rng = np.random.default_rng(32)
    B1 = bd.cross_polytope(n)
    for c in (1, 2, 3):
        ratio_extremum_many(B1, sp.haar_grassmannian_batch(rng, n, n - c, 3))
    ratio_extremum_many(bd.WeightedLp(1.0, np.linspace(1.0, 2.0, n)), sp.haar_grassmannian_batch(rng, n, n - 2, 3),
                        Ps=rng.standard_normal((3, 4, n)))
    codim2 = sp.haar_grassmannian_batch(rng, n, n - 2, 3)
    ratio_extremum_many(bd.cube(n), codim2)
    for c in (1, 3):
        ratio_extremum_many(bd.WeightedLp(np.inf, np.linspace(1.0, 2.0, n)), sp.haar_grassmannian_batch(rng, n, n - c, 3),
                            Ps=rng.standard_normal((3, 4, n)))
    assert len(calls) == 7
    for body, Zs, Ps, mode in [
        (B1, codim2, None, "min"),
        (B1, codim2, bd.ball(n), "max"),
        (B1, sp.haar_grassmannian_batch(rng, n, n - 4, 3), None, "max"),
        (bd.WeightedLp(1.5, np.ones(n)), codim2, None, "max"),
        (bd.cube(n), codim2, None, "min"),
        (bd.cube(n), codim2, bd.ball(n), "max"),
        (bd.cube(n), sp.haar_grassmannian_batch(rng, n, n - 4, 3), None, "max"),
    ]:
        assert np.all(ratio_extremum_many(body, Zs, Ps, mode=mode) > 0)
    assert len(calls) == 7
