"""The vertex searches for maxima over low-codimension sections of weighted
l_1 balls and weighted cubes, checked against enumeration of every vertex."""

import itertools

import numpy as np
import pytest

from regpos import _ascent, _vertex
from regpos import bodies as bd
from regpos import subspaces as sp
from regpos._ascent import ratio_extremum_many


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
def test_vertex_search_matches_enumeration(n, k, ascent_extrema):
    problems = _flag_problems(np.random.default_rng([31, n, k]), n, k, 120)
    for body, K in _bodies(n).items():
        for name, (Zs, Ps) in problems.items():
            exact = _enumerated_maxima(K.scales, Zs, Ps)
            short = 1.0 - ratio_extremum_many(K, Zs, Ps) / exact
            ascent = ascent_extrema(K, Zs, Ps, "max", np.random.default_rng(0))
            where = (body, name)
            assert np.quantile(short, 0.9) <= 1e-3, where
            assert short.min() >= -1e-9, where
            assert short.max() < (1.0 - ascent / exact).max(), where


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_cube_vertex_walk_against_enumeration(n, k, ascent_extrema):
    # the walk may stop at a local optimum, so it is held to the ascent: never
    # above the maximum, and its p90 and worst shortfall below the ascent's
    problems = _flag_problems(np.random.default_rng([33, n, k]), n, k, 120)
    cubes = {"binf": bd.cube(n), "winf": bd.WeightedLp(np.inf, 1.0 + np.arange(n) / (n - 1.0))}
    for body, K in cubes.items():
        for name, (Zs, Ps) in problems.items():
            exact = _enumerated_cube_maxima(K.scales, Zs, Ps)
            short = 1.0 - ratio_extremum_many(K, Zs, Ps) / exact
            ascent = 1.0 - ascent_extrema(K, Zs, Ps, "max", np.random.default_rng(0)) / exact
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


def test_ascent_on_coordinate_sections(ascent_extrema):
    # a coordinate section has zero coordinate projections P_F e_i among the
    # ascent's seeds, which rank last and start no ascent; the section of B_1
    # is B_1^5 with R = 1, that of a weighted l_1.5 ball has R = 1 / min s_i,
    # and that of the cube R = sqrt(5), with |P z| = |z| as well
    n, d = 8, 5
    perm = np.random.default_rng(d).permutation(n)
    idx = [np.arange(d), perm[:d]]
    Zs = np.stack([np.eye(n)[:, i] for i in idx])
    wlp = bd.WeightedLp.from_weights(1.5, 1.0 + np.arange(n) / (n - 1.0))
    for K, expect in [(bd.cross_polytope(n), [1.0, 1.0]), (wlp, [1.0 / wlp.scales[i].min() for i in idx]),
                      (bd.cube(n), [np.sqrt(d)] * 2)]:
        for P in (None, np.broadcast_to(np.eye(n), (2, n, n))):
            got = ascent_extrema(K, Zs, P, "max", np.random.default_rng(0))
            assert got == pytest.approx(expect, rel=1e-9), (K.p, P is None)


@pytest.mark.parametrize("weighted", [False, True])
def test_ascent_seeds_near_l1_hyperplane_maxima(weighted, ascent_extrema):
    # forced onto the ascent, hyperplane sections of B_1^16 come within 2% of
    # the pair formula (the enumeration at codimension 1) at p90: the
    # coordinate projections among the seeds lie next to the sparse maxima.
    # With weights 1..2 the best pair can mix two light coordinates far from
    # any single one, and the p90 is 8.5%.  Basis-column probes fell 23% and
    # 30% short
    n = 16
    K = bd.WeightedLp.from_weights(1.0, 1.0 + np.arange(n) / (n - 1.0)) if weighted else bd.cross_polytope(n)
    Zs = sp.haar_grassmannian_batch(np.random.default_rng([36, n]), n, n - 1, 200)
    short = 1.0 - ascent_extrema(K, Zs, None, "max", np.random.default_rng(0)) / _enumerated_maxima(K.scales, Zs)
    assert short.min() >= -1e-9
    assert np.quantile(short, 0.9) <= (0.09 if weighted else 0.02)


@pytest.mark.parametrize("n", [8, 12])
def test_ascent_seeds_near_cube_hyperplane_maxima(n, ascent_extrema):
    # the sign roundings among the seeds are the shadows of the cube's
    # vertices: forced onto the ascent, hyperplane sections of the unit and the
    # weighted cube fall short of the enumeration by less at p90 than with
    # Gaussian and basis-column probes, which read 0.049 / 0.042 (unit) and
    # 0.069 / 0.070 (weighted) at n = 8 / 12
    Zs = sp.haar_grassmannian_batch(np.random.default_rng([37, n]), n, n - 1, 200)
    for K, bound in [(bd.cube(n), 0.035), (bd.WeightedLp(np.inf, 1.0 + np.arange(n) / (n - 1.0)), 0.045)]:
        short = 1.0 - ascent_extrema(K, Zs, None, "max", np.random.default_rng(0)) / _enumerated_cube_maxima(K.scales, Zs)
        assert short.min() >= -1e-9
        assert np.quantile(short, 0.9) <= bound, K.scales[-1]


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
    # may lie on a coordinate axis, and F may tie two coordinates or hold one
    # at 0, whose column must then stay in the cube walk's basis; every route
    # stays finite and never above the enumerated maximum
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
        (B1, sp.haar_grassmannian_batch(rng, n, n - 4, 3), None, "max"),
        (bd.WeightedLp(1.5, np.ones(n)), codim2, None, "max"),
        (bd.cube(n), codim2, None, "min"),
        (bd.cube(n), sp.haar_grassmannian_batch(rng, n, n - 4, 3), None, "max"),
    ]:
        assert np.all(ratio_extremum_many(body, Zs, Ps, mode=mode) > 0)
    assert len(calls) == 7


def _walk_grid(seed):
    """(K, Zs, Ps) over weighted l_1 balls and cubes, Haar and degenerate
    sections of codimension 1..3, with and without a projection numerator."""
    for n in (6, 10):
        w = np.linspace(1.0, 3.0, n)
        for c in (1, 2, 3):
            rng = np.random.default_rng([seed, n, c])
            Ps = rng.standard_normal((24, 3, n))
            for Zs in (sp.haar_grassmannian_batch(rng, n, n - c, 24), _sparse_bases(rng, n, n - c, 24)):
                for K in (bd.cross_polytope(n), bd.WeightedLp(1.0, w), bd.cube(n), bd.WeightedLp(np.inf, w)):
                    for P in (None, Ps):
                        yield K, Zs, P


def _close(got, fresh):
    """Largest entrywise gap of two (W, r, n) stacks, relative to the larger of 1 and |fresh|."""
    scale = np.maximum(1.0, np.abs(fresh).max(axis=(1, 2)))
    return (np.abs(got - fresh).max(axis=(1, 2)) / scale).max()


@pytest.mark.parametrize("seed", [3, 41])
def test_carried_inverses_match_a_fresh_inverse(seed, monkeypatch):
    # the walks carry their tableaux by pivots from one inverse each; at the end
    # of every purification and every walk they match a fresh inverse, and the
    # purification leaves every nonbasic coordinate at a bound
    seen = {}
    for name in ("_cube_walk", "_swap_walk", "_purify", "_edge_walk"):
        def spy(*args, _f=getattr(_vertex, name), _name=name):
            out = _f(*args)
            seen.setdefault(_name, []).append((args, tuple(np.copy(o) for o in out)))
            return out
        monkeypatch.setattr(_vertex, name, spy)
    for K, Zs, P in _walk_grid(seed):
        ratio_extremum_many(K, Zs, P)
    assert set(seen) == {"_cube_walk", "_swap_walk", "_purify", "_edge_walk"}
    for (s, Aw, G, sec, _), (J, p0, T) in seen["_swap_walk"]:
        W, c, n = Aw.shape
        rows = np.arange(W)
        pos = (p0[:, None] + 1 + np.arange(c)) % (c + 1)                # the basis positions
        B = np.take_along_axis(J, pos, axis=1)
        fresh = np.linalg.inv(np.take_along_axis(Aw, B[:, None, :], axis=2)) @ Aw
        assert _close(T[pos, rows[:, None]], fresh) <= 1e-9
        assert not T[p0, rows].any()
    # the purification and the edge walk are called once per cube walk, in turn
    walks = zip(seen["_cube_walk"], seen["_purify"], seen["_edge_walk"], strict=True)
    for ((s, A, _, V), _), (_, (U, B, T)), (_, (_, Be, Te)) in walks:
        Aw = (A / s)[np.repeat(np.arange(A.shape[0]), V.shape[1])]         # A', (W, c, n)
        for Bf, Tf in ((B, T), (Be, Te)):
            fresh = np.linalg.inv(np.take_along_axis(Aw, Bf[:, None, :], axis=2)) @ Aw
            assert _close(np.moveaxis(Tf, 0, 1), fresh) <= 1e-9
        basic = np.zeros(U.shape, dtype=bool)
        basic[np.arange(U.shape[0])[:, None], B] = True
        assert np.all(np.abs(U[~basic]) == 1.0)
        assert np.abs(U[basic]).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("c", [1, 2, 3, 4, 7])
def test_normal_basis_is_orthonormal_and_normal(c):
    # A has orthonormal rows orthogonal to F, whatever the section: Haar,
    # coordinate aligned, or missing and tying coordinates
    rng = np.random.default_rng([17, c])
    n = 12
    cases = [
        sp.haar_grassmannian_batch(rng, n, n - c, 40),
        sp.haar_grassmannian_batch(rng, 3 * n, 3 * n - c, 40),
        np.stack([np.eye(n)[:, rng.permutation(n)[: n - c]] for _ in range(12)]),
        _sparse_bases(rng, 8, 8 - c, 24),
    ]
    for Zs in cases:
        A = _vertex._normal_basis(Zs)
        assert A.shape == (Zs.shape[0], c, Zs.shape[1])
        assert np.abs(A @ Zs).max() <= 1e-12
        assert np.abs(A @ np.swapaxes(A, 1, 2) - np.eye(c)).max() <= 1e-12


@pytest.mark.parametrize("k", [2, 4])
def test_maxima_do_not_depend_on_the_section_basis(k):
    # the walks see F only through its normals, so rotating the basis of F
    # moves no l_1 value, with or without a numerator, and no cube value with
    # a projection numerator (plain cube sections are decided by rounding)
    n = 32
    rng = np.random.default_rng([5, k])
    F, E, _ = sp.haar_flag_batch(rng, n, k, 150)
    Ps = np.swapaxes(E, 1, 2)
    Q = np.linalg.qr(rng.standard_normal((150, n - k + 1, n - k + 1)))[0]
    w = 1.0 + np.arange(n) / (n - 1.0)
    for K, numerators in [(bd.cross_polytope(n), (None, Ps)), (bd.WeightedLp(1.0, w), (None, Ps)),
                          (bd.cube(n), (Ps,)), (bd.WeightedLp(np.inf, w), (Ps,))]:
        for P in numerators:
            a = ratio_extremum_many(K, F, P)
            b = ratio_extremum_many(K, F @ Q, P)
            assert b == pytest.approx(a, rel=1e-9), (K.p, P is None)
