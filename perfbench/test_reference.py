"""Tests of the benchmark's exact references.

    python3 -m pytest perfbench/test_reference.py -q

The weighted l_1 pair formula is checked against vertices found by linear
programming, the ellipsoid route against regpos's own eigen route, and
both against a high-effort ascent, which may approach them from below but
never pass them.
"""

import os
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from reference import (  # noqa: E402
    ellipsoid_section_radius,
    exact_section_radii,
    haar_bases,
    hyperplane_normals,
    weighted_l1_hyperplane_radius,
)

from regpos import bodies as bd  # noqa: E402
from regpos._ascent import ratio_extremum  # noqa: E402

N = 5  # at n = 6 even this effort falls up to 2.5e-3 short of the B_1 reference
HIGH_EFFORT = dict(starts=256, iters=400, probes=4000, polish=400)


def _lp_vertex_radius(a, s, directions):
    """max |x| over LP optima of <c, x> on {sum s_i |x_i| <= 1, <a, x> = 0}: vertices of the section."""
    n = a.size
    # variables (x, t) with |x_i| <= t_i and sum s_i t_i <= 1
    A_ub = np.block([[np.eye(n), -np.eye(n)], [-np.eye(n), -np.eye(n)],
                     [np.zeros((1, n)), s[None, :]]])
    b_ub = np.concatenate([np.zeros(2 * n), [1.0]])
    A_eq = np.concatenate([a, np.zeros(n)])[None, :]
    best = 0.0
    for c in directions:
        res = linprog(np.concatenate([-c, np.zeros(n)]), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[0.0],
                      bounds=(None, None), method="highs")
        assert res.status == 0
        best = max(best, float(np.linalg.norm(res.x[:n])))
    return best


def test_haar_bases_are_orthonormal_and_normals_orthogonal():
    B = haar_bases(np.random.default_rng(0), N, N - 1, 10)
    assert np.allclose(np.swapaxes(B, 1, 2) @ B, np.eye(N - 1), atol=1e-12)
    a = hyperplane_normals(B)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    assert np.abs(np.einsum("sn,snm->sm", a, B)).max() < 1e-12


@pytest.mark.parametrize("weighted", [False, True])
def test_pair_formula_matches_lp_vertices(weighted):
    rng = np.random.default_rng(1)
    s = rng.uniform(1.0, 2.0, N) if weighted else np.ones(N)
    B = haar_bases(rng, N, N - 1, 4)
    exact = weighted_l1_hyperplane_radius(hyperplane_normals(B), s)
    for a, R in zip(hyperplane_normals(B), exact):
        directions = rng.standard_normal((300, N))
        assert _lp_vertex_radius(a, s, directions) == pytest.approx(R, rel=1e-9)


@pytest.mark.parametrize("weighted", [False, True])
def test_high_effort_ascent_approaches_l1_reference_from_below(weighted):
    rng = np.random.default_rng(2)
    s = rng.uniform(1.0, 2.0, N) if weighted else np.ones(N)
    K = bd.WeightedLp(1.0, s)
    B = haar_bases(rng, N, N - 1, 5)
    exact = exact_section_radii(K.spec(), B)
    for i, (Z, R) in enumerate(zip(B, exact)):
        val = ratio_extremum(K, Z=Z, rng=np.random.default_rng(i), **HIGH_EFFORT)
        assert val <= R * (1 + 1e-9)
        assert val >= R * (1 - 1e-3)


def test_ellipsoid_reference_matches_eigen_route_and_ascent():
    rng = np.random.default_rng(3)
    A = np.diag(np.geomspace(1.0, 100.0, N))
    K = bd.Ellipsoid(A)
    for m in (N - 1, N - 3):
        B = haar_bases(rng, N, m, 5)
        exact = ellipsoid_section_radius(A, B)
        assert np.array_equal(exact, exact_section_radii(K.spec(), B))
        for Z, R in zip(B, exact):
            assert ratio_extremum(K, Z=Z) == pytest.approx(R, rel=1e-10)
            val = ratio_extremum(bd.LinearImage(np.eye(N), K), Z=Z, rng=np.random.default_rng(0), **HIGH_EFFORT)
            assert R * (1 - 1e-3) <= val <= R * (1 + 1e-9)


def test_no_reference_outside_the_exact_routes():
    B = haar_bases(np.random.default_rng(4), N, N - 2, 2)
    assert exact_section_radii(bd.cross_polytope(N).spec(), B) is None
    assert exact_section_radii(bd.cube(N).spec(), haar_bases(np.random.default_rng(5), N, N - 1, 2)) is None
