"""The vertex search for maxima over low-codimension sections of weighted
l_1 balls, checked against enumeration of every candidate vertex."""

import itertools

import numpy as np
import pytest

from regpos import _ascent
from regpos import bodies as bd
from regpos import subspaces as sp
from regpos._ascent import _extremize, ratio_extremum_many
from regpos.regular import SURVEY


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


def _bodies(n):
    return {"b1": bd.cross_polytope(n), "wlp1": bd.WeightedLp.from_weights(1.0, 1.0 + np.arange(n) / (n - 1.0))}


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_vertex_search_matches_enumeration(n, k):
    count = 120
    rng = np.random.default_rng([31, n, k])
    F, E, E2 = sp.haar_flag_batch(rng, n, k, count)
    problems = {
        "plain": (sp.haar_grassmannian_batch(rng, n, n - k + 1, count), None),
        "F": (F, np.swapaxes(E, 1, 2)),         # R(P_E (K cap F))
        "E2": (E2, np.swapaxes(E, 1, 2)),       # R((P_F K) cap E)
    }
    for body, K in _bodies(n).items():
        for name, (Zs, Ps) in problems.items():
            exact = _enumerated_maxima(K.scales, Zs, Ps)
            short = 1.0 - ratio_extremum_many(K, Zs, Ps) / exact
            ascent = _extremize(K, Zs, Ps, "max", np.random.default_rng(0), **SURVEY, polish=40)[0]
            where = (body, name)
            assert np.quantile(short, 0.9) <= 1e-3, where
            assert short.min() >= -1e-9, where
            assert short.max() < (1.0 - ascent / exact).max(), where


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
    assert len(calls) == 4
    codim2 = sp.haar_grassmannian_batch(rng, n, n - 2, 3)
    for body, Zs, Ps, mode in [
        (B1, codim2, None, "min"),
        (B1, codim2, bd.ball(n), "max"),
        (B1, sp.haar_grassmannian_batch(rng, n, n - 4, 3), None, "max"),
        (bd.WeightedLp(1.5, np.ones(n)), codim2, None, "max"),
        (bd.cube(n), codim2, None, "max"),
    ]:
        assert np.all(ratio_extremum_many(body, Zs, Ps, mode=mode, starts=2, iters=3, probes=4) > 0)
    assert len(calls) == 4
