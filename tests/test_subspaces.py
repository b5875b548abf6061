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
# Subspace and flag construction
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


def _flag(rng, n, k):
    """One (F, E, E2) flag from the batch sampler qs uses; Subspace checks each
    basis is orthonormal."""
    return [sp.Subspace(B[0]) for B in sp.haar_flag_batch(rng, n, k, 1)]


def test_flag_dimensions_and_containment():
    F, E, _ = _flag(RNG, 8, 3)
    assert F.dim == 6 and E.dim == 4
    resid = E.basis - F.projector() @ E.basis
    assert np.abs(resid).max() <= 1e-10
    # k = 1: both members are the whole space
    F1, E1, _ = _flag(RNG, 5, 1)
    assert F1.dim == 5 and E1.dim == 5
    with pytest.raises(ValueError):
        sp.haar_flag_batch(RNG, 8, 5, 1)


def test_flag_complement_pair_structure():
    F, E, E2 = _flag(RNG, 9, 4)
    assert E2.dim == 9 - 4 + 1
    assert F.contains(E2.complement(), tol=1e-9)
    inter = sp.subspace_intersection(F, E2)
    assert inter.dim == E.dim
    assert np.abs(inter.projector() - E.projector()).max() <= 1e-9


def test_flag_marginal_matches_grassmannian():
    n, k, reps = 6, 2, 8000
    rng = np.random.default_rng(11)
    v = np.eye(n)[0]
    Fs = sp.haar_flag_batch(rng, n, k, reps)[0]
    stat_flag = np.linalg.norm(np.einsum("snm,n->sm", Fs, v), axis=1) ** 2
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
    # the gauge of P_F K at y is the least ||x||_K over the fiber P_F x = y:
    # every closed form lies at or below the parent gauge at random fiber
    # points, and for the Schur form the fiber minimizer x = A^-1 F c is explicit
    n = 5
    F = sp.haar_grassmannian(RNG, n, 3)
    C = F.complement().basis
    Y = RNG.standard_normal((20, 3))
    T = np.eye(n) + 0.3 * RNG.standard_normal((n, n))
    A = bd.Ellipsoid(np.diag(np.linspace(0.5, 3.0, n)))
    exact = sp.project(A, F)
    oracle_form = np.linalg.inv(F.basis.T @ np.linalg.inv(A.A) @ F.basis)
    assert np.abs(exact.A - 0.5 * (oracle_form + oracle_form.T)).max() <= 1e-10
    Xstar = Y @ oracle_form @ F.basis.T @ np.linalg.inv(A.A)
    assert np.abs(Xstar @ F.basis - Y).max() <= 1e-10
    np.testing.assert_allclose(exact.gauge(Y), A.gauge(Xstar), rtol=1e-10)
    V = bd.PolytopeV(RNG.standard_normal((7, n)))
    for K in (A, bd.cross_polytope(n), bd.WeightedLp(1.0, np.linspace(1.0, 2.0, n)), V, bd.LinearImage(T, V)):
        P = sp.project(K, F)
        for _ in range(5):
            X = Y @ F.basis.T + RNG.standard_normal((20, n - 3)) @ C.T
            assert np.all(P.gauge(Y) <= K.gauge(X) * (1 + 1e-9))


def test_projection_support_restriction_identity():
    # h_{P_F K} = h_K on F, for each closed-form projection
    n = 6
    F = sp.haar_grassmannian(RNG, n, 4)
    T = np.eye(n) + 0.3 * RNG.standard_normal((n, n))
    VK = bd.PolytopeV(RNG.standard_normal((8, n)))
    V = RNG.standard_normal((30, 4))
    for K in (bd.WeightedLp.from_weights(1.0, np.linspace(1, 2, n)), bd.Ellipsoid(np.diag(np.linspace(0.5, 3.0, n))),
              VK, bd.LinearImage(T, VK)):
        P = sp.project(K, F)
        np.testing.assert_allclose(P.support(V), K.support(V @ F.basis.T), rtol=1e-9, atol=0.0)


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


def test_generic_projection_radii_match_schur_closed_form():
    # R(P_F A) and r(P_F A) of the Schur form (B^T A^-1 B)^-1 against the
    # survey engine's exact eigen route: R is the maximum of |P_F z| / ||z||_A,
    # and r = 1 / R(A polar cap F)
    from regpos._ascent import ratio_extremum

    rng = np.random.default_rng(41)
    A = bd.Ellipsoid(np.diag(np.linspace(0.5, 3.0, 6)))
    F = sp.haar_grassmannian(rng, 6, 3)
    lam = np.linalg.eigvalsh(np.linalg.inv(F.basis.T @ np.linalg.inv(A.A) @ F.basis))
    S = sp.project(A, F)
    assert sp.out_radius(S) == pytest.approx(lam[0] ** -0.5, rel=1e-12)
    assert sp.in_radius(S) == pytest.approx(lam[-1] ** -0.5, rel=1e-12)
    assert ratio_extremum(A, P=F.basis.T, mode="max") == pytest.approx(lam[0] ** -0.5, rel=1e-12)
    assert 1.0 / ratio_extremum(A.polar(), Z=F.basis, mode="max") == pytest.approx(lam[-1] ** -0.5, rel=1e-12)


class _GeometricMean(bd.ConvexBody):
    """The exact kinked gauge sqrt(|x|_inf |x|_1), which has no LP form."""

    def _gauge(self, X):
        A = np.abs(X)
        return np.sqrt(A.max(axis=1) * A.sum(axis=1))

    def _gauge_subgrad(self, X):
        A = np.abs(X)
        top, a, b = A.argmax(axis=1), A.max(axis=1), A.sum(axis=1)
        g = np.sqrt(a * b)
        Y = 0.5 * np.sqrt(a / np.maximum(b, 1e-300))[:, None] * np.sign(X)
        rows = np.arange(len(X))
        Y[rows, top] += 0.5 * np.sqrt(b / np.maximum(a, 1e-300)) * np.sign(X[rows, top])
        return g, Y


def test_project_polytope_v_closed_forms_match_lp_fibers():
    # P_F conv(+-u_j) = conv(+-P_F u_j), for a V-polytope, a weighted l_1 ball
    # and a linear image of a V-polytope: onto a line v, P_v K = [-h_K(v), h_K(v)],
    # so the carrier gauge is |t| / h_K(v), with h_{TK}(v) = h_K(T^T v)
    rng = np.random.default_rng(44)
    n, s = 5, np.linspace(1.0, 2.0, 5)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    T = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    V = bd.PolytopeV(np.diag(1.0 / s))
    t = np.array([[1.0], [-2.0], [0.5]])
    for K, h in ((V, np.abs(v / s).max()), (bd.WeightedLp(1.0, s), np.abs(v / s).max()),
                 (bd.LinearImage(T, V), np.abs(T.T @ v / s).max())):
        P = sp.project(K, sp.Subspace(v[:, None]))
        assert isinstance(P, bd.PolytopeV)
        assert P.gauge(t) == pytest.approx(np.abs(t[:, 0]) / h, rel=1e-9)


def test_project_without_a_closed_form_raises():
    # a projection radius of these families is a survey over K, not a body; the
    # polar of K cap F is P_F of the polar, and the cube's has no closed form
    rng = np.random.default_rng(46)
    F = sp.haar_grassmannian(rng, 5, 3)
    for K in (bd.cube(5), bd.WeightedLp.from_weights(1.5, np.linspace(1.0, 2.0, 5)),
              bd.PolytopeH(rng.standard_normal((8, 5)))):
        with pytest.raises(NotImplementedError, match=f"no closed-form projection for the '{K.family}' family"):
            sp.project(K, F)
    S = sp.section(bd.cross_polytope(5), F)
    for call in (S.polar, lambda: S.support(np.ones(3))):
        with pytest.raises(NotImplementedError, match="no closed-form projection for the 'weighted_lp' family"):
            call()


def test_whole_body_radii_come_from_radii():
    rng = np.random.default_rng(32)
    bodies = [bd.cross_polytope(4), bd.cube(3), bd.WeightedLp.from_weights(1.5, [1.0, 2.0, 3.0]),
              bd.Ellipsoid(np.diag([0.25, 1.0, 4.0])), bd.PolytopeH(rng.standard_normal((6, 3))),
              bd.PolytopeV(rng.standard_normal((5, 3))),
              bd.linear_image(rng.standard_normal((3, 3)) + 3 * np.eye(3), bd.cube(3)), _GeometricMean(3)]
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


def test_weighted_l2_ball_takes_the_eigen_route(monkeypatch):
    # a weighted l_2 ball is the ellipsoid diag(s^2): its radii, with and
    # without a numerator stack, are exact eigenvalues and no ascent runs
    from regpos import _ascent

    def no_ascent(*args, **kwargs):
        raise AssertionError("the ascent ran on a weighted l_2 ball")

    monkeypatch.setattr(_ascent, "_ascend_part", no_ascent)
    n = 10
    rng = np.random.default_rng(23)
    s, t = np.exp(rng.uniform(-1.0, 1.0, (2, n)))
    W, E = bd.WeightedLp(2.0, s), bd.Ellipsoid(np.diag(s**2))
    Zs = sp.haar_grassmannian_batch(rng, n, 6, 30)
    for mode in ("max", "min"):
        for num in (None, np.broadcast_to(np.diag(t), (30, n, n)), rng.standard_normal((30, 3, n))):
            got = _ascent.ratio_extremum_many(W, Zs, num, mode)
            ref = _ascent.ratio_extremum_many(E, Zs, num, mode)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


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
    from regpos.zoo import preset, random_h_polytope

    efforts, rows = [], []
    ascend_part, ascend = _ascent._ascend_part, _ascent.ascend

    def recording(body, Zs, Ps, mode, probes, effort):
        efforts.append(effort)
        return ascend_part(body, Zs, Ps, mode, probes, effort)

    def spying(fun_grad, W0, *args, **kwargs):
        rows.append(np.shape(W0)[-2])
        return ascend(fun_grad, W0, *args, **kwargs)

    # every part in this process, so that each ascent is recorded here
    monkeypatch.setattr(_ascent, "_WORKERS", 1)
    monkeypatch.setattr(_ascent, "_ascend_part", recording)
    monkeypatch.setattr(_ascent, "ascend", spying)

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
    with pytest.raises(TypeError):
        _ascent.ratio_extremum_many(K, bases, starts=8)

    def starts(call):
        # the rows each ascent starts from, besides the polish's one row
        rows.clear()
        call()
        assert rows[1::2] == [1] * (len(rows) // 2)
        return set(rows[::2])

    # codimension 4, past the vertex routes of B_1 and the cube
    n, Zs = 8, sp.haar_grassmannian_batch(np.random.default_rng(27), 8, 4, 5)
    for name in ("b1", "wlp1", "wlp1.5", "binf"):
        K = preset(name, n)
        assert starts(lambda: sp.section_out_radii(K, Zs, rng)) == {_ascent.SURVEY[0] // 2}, name
        assert starts(lambda: _ascent.ratio_extremum_many(K, Zs, mode="min")) == {_ascent.SURVEY[0]}, name
        assert starts(lambda: _ascent.ratio_extremum(K, Z=Zs[0])) == {_ascent.RADIUS[0]}, name
    for K in (preset("wlp3", n), random_h_polytope(rng, n)):
        assert starts(lambda: sp.section_out_radii(K, Zs, rng)) == {_ascent.SURVEY[0]}
        assert starts(lambda: _ascent.ratio_extremum(K, Z=Zs[0], mode="min")) == {_ascent.RADIUS[0]}


def test_survey_slab_memory_is_bounded():
    # one SURVEY slab of cube sections at codimension 7: the probe pass
    # evaluates _PROBE_ROWS seeds at a time, so its peak stays near the
    # ascent's.  The bound is 1.1 x 10 500 910 bytes, the peak of the same
    # slab with the basis-column probes ranked 8 rows at a time by value and
    # gradient, before the seeds became coordinate projections (an unchunked
    # probe pass peaks above it)
    import tracemalloc

    from regpos import _ascent

    n, d, S = 32, 25, 256
    Zs = sp.haar_grassmannian_batch(np.random.default_rng(0), n, d, S)
    probes = np.random.default_rng(1).standard_normal((S, _ascent.SURVEY[2], d))
    tracemalloc.start()
    try:
        _ascent._ascend_part(bd.cube(n), Zs, None, "max", probes, _ascent.SURVEY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 10_500_910


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


def test_perp_identity_hypothesis_violation():
    E1 = sp.Subspace(np.eye(5)[:, :2])
    E2 = sp.Subspace(np.eye(5)[:, 3:])
    with pytest.raises(ValueError, match="hypothesis violated"):
        sp.perp_identity_check(bd.ball(5), E1, E2)
