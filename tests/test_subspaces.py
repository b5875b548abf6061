"""Subspace sampling, sections/projections, radii and the nested-projection
identity, checked against closed-form oracles where they exist."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from scipy.special import betainc
from scipy.stats import kstest

from regpos import bodies as bd
from regpos import subspaces as sp

RNG = np.random.default_rng(555)


# ----------------------------------------------------------------------
# Subspace / Flag construction
# ----------------------------------------------------------------------


def test_subspace_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        sp.Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
    S = sp.Subspace(np.eye(4)[:, :2])
    assert S.ambient == 4 and S.dim == 2
    P = S.projector()
    assert np.abs(P @ P - P).max() <= 1e-12


def test_haar_orthonormal_and_projector():
    for (n, m) in [(5, 1), (6, 3), (9, 9)]:
        F = sp.haar_grassmannian(RNG, n, m)
        assert np.abs(F.basis.T @ F.basis - np.eye(m)).max() <= 1e-12
        P = F.projector()
        assert np.abs(P @ P - P).max() <= 1e-10
        assert np.abs(P - P.T).max() <= 1e-12
    assert np.abs(sp.haar_grassmannian(RNG, 4, 4).projector() - np.eye(4)).max() <= 1e-10


def test_haar_mean_projection_trace_identity():
    # E |P_F v|^2 = m/n for fixed unit v
    n, m, reps = 4, 2, 10000
    v = np.eye(n)[0]
    Qs = sp.haar_grassmannian_batch(np.random.default_rng(2), n, m, reps)
    vals = np.linalg.norm(np.einsum("snm,n->sm", Qs, v), axis=1) ** 2
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 0.5) <= max(3.5 * se, 0.02)


def test_haar_line_marginal_ks():
    # first coordinate of a Haar line direction: t^2 ~ Beta(1/2, (n-1)/2)
    n, reps = 6, 10000
    rng = np.random.default_rng(3)
    dirs = np.stack([sp.haar_grassmannian(rng, n, 1).basis[:, 0] for _ in range(reps)])
    t = dirs[:, 0]

    def cdf(x):
        x = np.asarray(x, dtype=float)
        inner = betainc(0.5, (n - 1) / 2.0, np.clip(x * x, 0, 1))
        return 0.5 * (1.0 + np.sign(x) * inner)

    assert kstest(t, cdf).pvalue > 0.01


def test_flag_dimensions_and_containment():
    fl = sp.haar_flag(RNG, 8, 3)
    assert fl.F.dim == 6 and fl.E.dim == 4
    resid = fl.E.basis - fl.F.projector() @ fl.E.basis
    assert np.abs(resid).max() <= 1e-10
    # k = 1: both members are the whole space
    fl1 = sp.haar_flag(RNG, 5, 1)
    assert fl1.F.dim == 5 and fl1.E.dim == 5
    with pytest.raises(ValueError):
        sp.haar_flag(RNG, 8, 5)


def test_flag_complement_pair_structure():
    fl = sp.haar_flag(RNG, 9, 4)
    E2 = fl.E2
    assert E2.dim == 9 - 4 + 1
    assert fl.F.contains(E2.complement(), tol=1e-9)
    inter = sp.subspace_intersection(fl.F, E2)
    assert inter.dim == fl.E.dim
    assert np.abs(inter.projector() - fl.E.projector()).max() <= 1e-9


def test_flag_E2_is_the_batch_sampler_E2():
    # one construction of E2: the flag keeps the basis QS uses
    for n, k in ((9, 4), (8, 3), (5, 1)):
        fl = sp.haar_flag(np.random.default_rng(31), n, k)
        F, E, E2 = sp.haar_flag_batch(np.random.default_rng(31), n, k, 1)
        assert np.array_equal(fl.F.basis, F[0]) and np.array_equal(fl.E.basis, E[0])
        assert np.array_equal(fl.E2.basis, E2[0])


def test_flag_marginal_matches_grassmannian():
    n, k, reps = 6, 2, 8000
    rng = np.random.default_rng(11)
    v = np.eye(n)[0]
    stat_flag = np.empty(reps)
    for i in range(reps):
        fl = sp.haar_flag(rng, n, k)
        stat_flag[i] = np.linalg.norm(fl.F.basis.T @ v) ** 2
    Qs = sp.haar_grassmannian_batch(rng, n, n - k + 1, reps)
    stat_plain = np.linalg.norm(np.einsum("snm,n->sm", Qs, v), axis=1) ** 2
    diff = stat_flag.mean() - stat_plain.mean()
    se = np.hypot(stat_flag.std(ddof=1), stat_plain.std(ddof=1)) / np.sqrt(reps)
    assert abs(diff) <= 3 * se + 1e-3


# ----------------------------------------------------------------------
# sections and projections
# ----------------------------------------------------------------------


def test_ball_section_projection_trivial():
    F = sp.haar_grassmannian(RNG, 6, 3)
    for S in (sp.section(bd.ball(6), F), sp.project(bd.ball(6), F)):
        U = RNG.standard_normal((40, 3))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        assert np.abs(S.gauge(U) - 1.0).max() <= 1e-9


def test_axis_aligned_ellipsoid_section_equals_projection():
    A = bd.Ellipsoid(np.diag([0.25, 1.0, 1.0]))
    F = sp.Subspace(np.eye(3)[:, :2])
    S, P = sp.section(A, F), sp.project(A, F)
    U = RNG.standard_normal((40, 2))
    assert np.abs(S.gauge(U) - P.gauge(U)).max() <= 1e-10
    assert sp.out_radius(S) == pytest.approx(2.0) and sp.in_radius(S) == pytest.approx(1.0)


def test_b1_projection_onto_diagonal():
    v = np.array([[1.0], [1.0]]) / np.sqrt(2)
    P = sp.project(bd.cross_polytope(2), sp.Subspace(v))
    assert P.gauge([1.0]) == pytest.approx(np.sqrt(2), rel=1e-9)
    assert sp.out_radius(P) == pytest.approx(1 / np.sqrt(2), rel=1e-9)


def test_b1_diagonal_section_radii():
    v = np.array([[1.0], [1.0]]) / np.sqrt(2)
    S = sp.section(bd.cross_polytope(2), sp.Subspace(v))
    assert sp.out_radius(S) == pytest.approx(1 / np.sqrt(2), rel=1e-9)
    assert sp.in_radius(S) == pytest.approx(1 / np.sqrt(2), rel=1e-9)


def test_projection_gauge_fiber_minimum_matches_closed_forms():
    n = 5
    F = sp.haar_grassmannian(RNG, n, 3)
    U = RNG.standard_normal((20, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    # ellipsoid: Schur-complement quadratic form
    A = bd.Ellipsoid(np.diag(np.linspace(0.5, 3.0, n)))
    exact = sp.project(A, F)
    oracle_form = np.linalg.inv(F.basis.T @ np.linalg.inv(A.A) @ F.basis)
    assert np.abs(exact.A - 0.5 * (oracle_form + oracle_form.T)).max() <= 1e-10
    generic = sp.SectionBody(A, F, "projection")
    assert np.abs(generic.gauge(U) - exact.gauge(U)).max() <= 1e-7
    # l_1 ball: V-polytope of projected vertices
    K1 = bd.cross_polytope(n)
    exact1 = sp.project(K1, F)
    generic1 = sp.SectionBody(K1, F, "projection")
    assert np.abs(generic1.gauge(U) - exact1.gauge(U)).max() <= 1e-7
    # cube: LP fiber minimum against the zonotope support-dual route
    Kinf = bd.cube(n)
    gen_inf = sp.SectionBody(Kinf, F, "projection")
    # h_{P_F K} = h_K on the carrier: support of the cube is the l_1 norm
    hs = gen_inf.support(U)
    assert np.abs(hs - np.abs(U @ F.basis.T).sum(axis=1)).max() <= 1e-9


def test_projection_support_restriction_identity():
    n = 6
    F = sp.haar_grassmannian(RNG, n, 4)
    K = bd.WeightedLp.from_weights(1.5, np.linspace(1, 2, n))
    P = sp.project(K, F)
    V = RNG.standard_normal((30, 4))
    assert np.abs(P.support(V) - K.support(V @ F.basis.T)).max() <= 1e-9


def test_section_support_equals_projected_polar():
    n = 5
    F = sp.haar_grassmannian(RNG, n, 3)
    K = bd.WeightedLp.from_weights(3.0, np.linspace(1, 2, n))
    S = sp.section(K, F)
    V = RNG.standard_normal((10, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    lhs = S.support(V)
    rhs = sp.project(K.polar(), F).gauge(V)
    assert np.abs(lhs - rhs).max() <= 1e-6


def test_section_out_radius_eigen_oracle():
    A = bd.Ellipsoid(np.diag(np.linspace(0.25, 4.0, 7)))
    for _ in range(5):
        F = sp.haar_grassmannian(RNG, 7, 4)
        S = sp.section(A, F)
        lam = np.linalg.eigvalsh(F.basis.T @ A.A @ F.basis)
        assert sp.out_radius(S) == pytest.approx(lam[0] ** -0.5, rel=1e-10)
        assert sp.in_radius(S) == pytest.approx(lam[-1] ** -0.5, rel=1e-10)


def test_generic_section_radius_matches_eigen_oracle():
    # force the multistart route by sectioning a weighted l_2 body disguised
    # as a generic weighted-lp family
    n = 8
    w = np.linspace(1.0, 3.0, n)
    K = bd.WeightedLp(2.0, w)
    F = sp.haar_grassmannian(RNG, n, 5)
    S = sp.section(K, F)
    lam = np.linalg.eigvalsh(F.basis.T @ np.diag(w**2) @ F.basis)
    assert sp.out_radius(S, rng=np.random.default_rng(0)) == pytest.approx(
        lam[0] ** -0.5, rel=1e-6
    )


def test_whole_body_radii_come_from_radii():
    rng = np.random.default_rng(32)
    bodies = [bd.cross_polytope(4), bd.cube(3), bd.WeightedLp.from_weights(1.5, [1.0, 2.0, 3.0]),
              bd.Ellipsoid(np.diag([0.25, 1.0, 4.0])), bd.PolytopeH(rng.standard_normal((6, 3))),
              bd.PolytopeV(rng.standard_normal((5, 3))),
              bd.linear_image(rng.standard_normal((3, 3)) + 3 * np.eye(3), bd.cube(3)),
              bd.complexify(bd.cross_polytope(2))]
    for K in bodies:
        assert sp.out_radius(K) == K.radii.R and sp.in_radius(K) == K.radii.r
        assert sp.geometric_distance_to_ball(K) == max(K.radii.R / K.radii.r, 1.0)


def test_polytope_v_out_radius_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    V = np.random.default_rng(33).standard_normal((7, 3))
    assert sp.out_radius(bd.PolytopeV(V)) == np.linalg.norm(V, axis=1).max()
    P = sp.project(bd.cross_polytope(2), sp.Subspace(np.array([[1.0], [1.0]]) / np.sqrt(2)))
    assert sp.out_radius(P) == pytest.approx(1 / np.sqrt(2), rel=1e-12)


def test_geometric_distance_examples():
    F = sp.haar_grassmannian(RNG, 5, 3)
    assert sp.geometric_distance_to_ball(sp.section(bd.ball(5), F)) == pytest.approx(1.0)
    assert sp.geometric_distance_to_ball(bd.cube(2)) == pytest.approx(np.sqrt(2), rel=1e-7)
    E = bd.Ellipsoid(np.diag([0.25, 1.0]))
    assert sp.geometric_distance_to_ball(E) == pytest.approx(2.0)
    assert sp.geometric_distance_to_ball(E) >= 1.0


def test_batched_section_out_radii():
    K = bd.Ellipsoid(np.diag(np.linspace(0.5, 2.0, 6)))
    bases = sp.haar_grassmannian_batch(np.random.default_rng(4), 6, 4, 20)
    vals = sp.section_out_radii(K, bases, np.random.default_rng(5))
    for i in range(20):
        lam = np.linalg.eigvalsh(bases[i].T @ K.A @ bases[i])
        assert vals[i] == pytest.approx(lam[0] ** -0.5, rel=1e-10)


def test_stacked_ellipsoid_route_matches_per_subspace_eigvalsh():
    from regpos._ascent import _ellipsoid_ratio

    n, m, q, count = 9, 5, 6, 40
    rng = np.random.default_rng(21)
    K = bd.Ellipsoid(np.diag(np.geomspace(0.1, 10.0, n)))
    Zs = sp.haar_grassmannian_batch(rng, n, m, count)
    Ps = rng.standard_normal((count, q, n))
    for P, mode in ((None, "max"), (Ps, "max"), (None, "min"), (Ps, "min")):
        vals = _ellipsoid_ratio(K, Zs, P, mode)
        for i in range(count):
            Z = Zs[i]
            N = Z.T @ Z if P is None else (P[i] @ Z).T @ (P[i] @ Z)
            # whiten by the symmetric inverse square root of Z^T A Z
            w, V = np.linalg.eigh(Z.T @ K.A @ Z)
            H = (V / np.sqrt(w)) @ V.T
            lam = np.linalg.eigvalsh(H @ N @ H)
            assert vals[i] == pytest.approx(np.sqrt(lam[-1] if mode == "max" else lam[0]), rel=1e-12)


def test_ascent_never_exceeds_b1_hyperplane_pair_formula():
    from regpos._ascent import ratio_extremum, ratio_extremum_many

    n, count = 8, 50
    bases = sp.haar_grassmannian_batch(np.random.default_rng(22), n, n - 1, count)
    normals = np.linalg.qr(bases, mode="complete")[0][:, :, -1]
    A = np.abs(normals)
    i, j = np.triu_indices(n, 1)
    exact = (np.hypot(A[:, i], A[:, j]) / (A[:, i] + A[:, j])).max(axis=1)
    K = bd.cross_polytope(n)
    many = ratio_extremum_many(K, bases, rng=np.random.default_rng(0))
    assert np.all(many <= exact * (1 + 1e-9))
    for s in range(0, count, 10):
        assert ratio_extremum(K, Z=bases[s], rng=np.random.default_rng(s)) <= exact[s] * (1 + 1e-9)


@pytest.mark.parametrize("body", [bd.cross_polytope(6), bd.Ellipsoid(np.diag(np.linspace(1.0, 2.0, 6)))])
def test_ratio_extremum_requires_orthonormal_bases(body):
    from regpos._ascent import ratio_extremum, ratio_extremum_many

    bases = sp.haar_grassmannian_batch(np.random.default_rng(23), 6, 4, 5)
    ratio_extremum_many(body, bases)
    ratio_extremum(body, Z=bases[0])
    for bad in (1.0 + 1e-6, 0.5):
        scaled = bases.copy()
        scaled[3, :, 1] *= bad
        with pytest.raises(ValueError, match="orthonormal"):
            ratio_extremum_many(body, scaled)
        with pytest.raises(ValueError, match="orthonormal"):
            ratio_extremum(body, Z=scaled[3])
    sheared = bases.copy()
    sheared[1, :, 0] += 1e-6 * sheared[1, :, 2]
    with pytest.raises(ValueError, match="orthonormal"):
        ratio_extremum_many(body, sheared, Ps=np.ones((5, 2, 6)))


@pytest.mark.parametrize("body", [bd.cross_polytope(8), bd.cube(8), bd.Ellipsoid(np.diag(np.linspace(1.0, 2.0, 8)))],
                         ids=["b1-vertex", "cube-ascent", "ellipsoid-eigen"])
@pytest.mark.parametrize("mode", ["maximum", "Max", None])
def test_ratio_extremum_rejects_unknown_mode(body, mode):
    from regpos._ascent import ratio_extremum, ratio_extremum_many

    bases = sp.haar_grassmannian_batch(np.random.default_rng(24), 8, 7, 5)
    with pytest.raises(ValueError, match="mode"):
        ratio_extremum_many(body, bases, mode=mode)
    with pytest.raises(ValueError, match="mode"):
        ratio_extremum(body, Z=bases[0], mode=mode)


def test_section_out_radii_identical_across_blas_threads(tmp_path):
    # the ascent's row sums are vecdot, not BLAS gemv, so the radii do not
    # depend on the BLAS thread count; at codimension 3 both bodies take
    # the vertex routes
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    np.save(tmp_path / "bases.npy", sp.haar_grassmannian_batch(np.random.default_rng(24), 16, 13, 40))
    script = ("import sys, numpy as np\n"
              "from regpos import bodies as bd, subspaces as sp\n"
              "bases = np.load(sys.argv[1])\n"
              "radii = [sp.section_out_radii(K, bases, rng=np.random.default_rng(25))\n"
              "         for K in (bd.cross_polytope(16), bd.cube(16))]\n"
              "np.save(sys.argv[2], radii)\n")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"radii{threads}.npy"
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "bases.npy"), str(out)],
                       env=env, check=True, timeout=300)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("body", [bd.cross_polytope(4), bd.Ellipsoid(np.diag([1.0, 2.0, 3.0, 4.0]))])
def test_ratio_extremum_many_empty_stack(body):
    from regpos._ascent import ratio_extremum_many

    for Ps in (None, np.zeros((0, 2, 4))):
        vals = ratio_extremum_many(body, np.zeros((0, 4, 3)), Ps)
        assert vals.shape == (0,)


def test_each_purpose_runs_at_its_effort(monkeypatch):
    from regpos import _ascent
    from regpos.experiments import run_lowmstar_check
    from regpos.regular import section_radius_sample
    from regpos.zoo import random_h_polytope

    efforts = []
    extremize = _ascent._extremize

    def recording(body, Zs, Ps, mode, rng, effort):
        efforts.append(effort)
        return extremize(body, Zs, Ps, mode, rng, effort)

    monkeypatch.setattr(_ascent, "_extremize", recording)

    def run(call):
        efforts.clear()
        call()
        return set(efforts)

    rng = np.random.default_rng(26)
    K = bd.WeightedLp(1.5, np.linspace(1.0, 2.0, 6))
    bases = sp.haar_grassmannian_batch(rng, 6, 4, 3)
    survey = {_ascent.SURVEY}
    assert run(lambda: sp.section_out_radii(K, bases, rng)) == survey
    assert run(lambda: sp.section_out_radii(K, bases, rng, rng.standard_normal((3, 2, 6)))) == survey
    assert run(lambda: section_radius_sample(K, 3, 4, rng)) == survey
    assert run(lambda: run_lowmstar_check(n_list=(4,), samples=100, ell_samples=1000)) == survey
    assert run(lambda: random_h_polytope(rng, 3).radii) == {_ascent.RADIUS}
    assert run(lambda: bd.complexify(bd.cross_polytope(2)).support(rng.standard_normal((1, 4)))) == {_ascent.SUPPORT}
    with pytest.raises(TypeError):
        _ascent.ratio_extremum_many(K, bases, starts=8)


# ----------------------------------------------------------------------
# nested projection identity
# ----------------------------------------------------------------------


def _admissible_pair(rng, n, m1, m2):
    E1 = sp.haar_grassmannian(rng, n, m1)
    raw = E1.basis @ rng.standard_normal((m1, m2 - (n - m1)))
    Q, _ = np.linalg.qr(raw)
    E2 = sp.Subspace(np.hstack([E1.complement().basis, Q]))
    return E1, E2


def test_perp_identity_ball_trivial():
    rng = np.random.default_rng(9)
    E1, E2 = _admissible_pair(rng, 4, 3, 3)
    assert sp.perp_identity_check(bd.ball(4), E1, E2, rng=rng) <= 1e-10


def test_perp_identity_axis_ellipsoid():
    A = bd.Ellipsoid(np.diag([1.0, 2.0, 3.0, 4.0]))
    E1 = sp.Subspace(np.eye(4)[:, :3])
    E2 = sp.Subspace(np.eye(4)[:, 1:])
    assert sp.perp_identity_check(A, E1, E2) <= 1e-8


def test_perp_identity_random_ellipsoids():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        A = bd.Ellipsoid(np.diag(rng.uniform(0.3, 3.0, size=6)))
        E1, E2 = _admissible_pair(rng, 6, 4, 4)
        worst = max(worst, sp.perp_identity_check(A, E1, E2, rng=rng, ndirs=80))
    assert worst <= 1e-6


def test_perp_identity_nonellipsoid_body():
    rng = np.random.default_rng(12)
    K = bd.WeightedLp.from_weights(1.5, np.linspace(1.0, 2.0, 5))
    E1, E2 = _admissible_pair(rng, 5, 4, 4)
    assert sp.perp_identity_check(K, E1, E2, rng=rng, ndirs=30) <= 1e-6


def test_perp_identity_hypothesis_violation():
    E1 = sp.Subspace(np.eye(5)[:, :2])
    E2 = sp.Subspace(np.eye(5)[:, 3:])
    with pytest.raises(ValueError, match="hypothesis violated"):
        sp.perp_identity_check(bd.ball(5), E1, E2)
