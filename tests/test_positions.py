"""ell-position solver tests: closed forms, symmetry restriction, local
optimality and the balance scaling."""

import itertools

import numpy as np
import pytest

from regpos import bodies as bd
from regpos import positions
from regpos import subspaces as sp
from regpos.gaussian import FixedSample, GaussianSample, ell
from regpos.positions import PositionMap, _DiagObjective, balance_scale, ell_product, solve_ell_position


SAMPLE = GaussianSample(101, 20000, 8)
MOM2 = (SAMPLE.vectors() ** 2).mean(axis=0)


def test_position_map_basics():
    T = PositionMap.from_diag([2.0, 0.5])
    assert T.diagonal and T.det == pytest.approx(1.0)
    assert np.allclose(T.inverse, np.diag([0.5, 2.0]))
    assert np.allclose(T.adjoint_inverse, T.inverse.T)
    Tn = PositionMap.from_diag([4.0, 1.0], normalize=True)
    assert abs(Tn.det - 1.0) <= 1e-10
    with pytest.raises(ValueError):
        PositionMap.from_diag([1.0, -1.0])


def test_position_map_apply_and_compose():
    T = PositionMap.from_diag([2.0, 0.5])
    K = T.apply(bd.ball(2))
    assert K.gauge([2.0, 0.0]) == pytest.approx(1.0)
    TT = T.compose(T)
    assert np.allclose(TT.matrix, np.diag([4.0, 0.25]))


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 18 / 7, 6.0, 24.0, 1000.0])
def test_power_form_objective_matches_gauge_subgradient(p, monkeypatch):
    if p <= 24:
        # these p stay on the power form: no block falls back to the gauge subgradient
        monkeypatch.setattr(_DiagObjective, "_subgrad_block", lambda *a: pytest.fail("fell back"))
    n = 6
    sample = GaussianSample(17, 20000, n)   # two blocks, each with its own power scale
    G = sample.vectors()
    for span, w in itertools.product((1.0, 20.0), (np.zeros(n), np.random.default_rng(3).uniform(-2.0, 2.0, n))):
        K = bd.WeightedLp(p, np.exp(np.linspace(-span, span, n)))
        # the gauge-subgradient form over the whole sample, as the reference
        X = G * np.exp(w - w.mean())
        g, Y = K._gauge_subgrad(X)
        ref_grad = 2.0 * (g[:, None] * Y * X).mean(axis=0)
        ref_grad -= ref_grad.mean()
        val, grad = _DiagObjective(K, sample)(w)
        assert val == pytest.approx(np.mean(g * g), rel=1e-10)
        assert np.abs(grad - ref_grad).max() <= 1e-10 * np.abs(ref_grad).max()


def test_large_p_weighted_lp_is_solved():
    # |g|^1000 overflows unless the powers are normalized; a NaN objective ends at the identity
    s = np.exp(np.linspace(-1.0, 1.0, 8))
    res = solve_ell_position(bd.WeightedLp(1000.0, s), SAMPLE, tol=1e-6)
    assert np.isfinite(res.objective)
    # the symmetric optimum T = diag(s), normalized, up to the sampling band
    t = np.log(np.diag(res.T.matrix))
    assert np.abs(t - (np.log(s) - np.log(s).mean())).max() <= 0.05


def test_ball_is_solved_at_saa_scale():
    res = solve_ell_position(bd.ball(8), SAMPLE, tol=1e-8)
    assert res.converged and res.residual <= 1e-8
    assert np.abs(np.log(np.diag(res.T.matrix))).max() <= 10.0 / np.sqrt(SAMPLE.count)
    assert res.objective <= res.objective_at_identity + 1e-12


def test_diagonal_ellipsoid_amgm_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = np.exp(rng.uniform(-1.5, 1.5, size=8))
        res = solve_ell_position(bd.Ellipsoid(np.diag(v)), SAMPLE, tol=1e-9)
        # AM-GM on the SAA objective sum_i v_i m_i / t_i^2 under prod t = 1
        t_closed = np.sqrt(v * MOM2)
        t_closed /= np.exp(np.log(t_closed).mean())
        err = np.abs(np.log(np.diag(res.T.matrix)) - np.log(t_closed)).max()
        assert err <= 1e-5


def test_spec_example_ellipsoid_4_1_maps_to_round_ball():
    v = np.array([4.0, 1.0])
    s2 = GaussianSample(7, 20000, 2)
    res = solve_ell_position(bd.Ellipsoid(np.diag(v)), s2, tol=1e-10)
    m2 = (s2.vectors() ** 2).mean(axis=0)
    t_closed = np.sqrt(v * m2)
    t_closed /= np.exp(np.log(t_closed).mean())
    # the exact-expectation solution is (sqrt 2, 1/sqrt 2): the SAA solution
    # matches it to the sampling band and the solver matches the SAA form
    assert np.abs(np.log(np.diag(res.T.matrix)) - np.log(t_closed)).max() <= 1e-6
    assert np.allclose(np.diag(res.T.matrix), [np.sqrt(2), 1 / np.sqrt(2)], rtol=0.05)
    # the positioned body is (nearly) round
    TK = res.T.apply(bd.Ellipsoid(np.diag(v)))
    assert TK.radii.R / TK.radii.r <= 1.05


def test_b1_objective_at_identity_beats_perturbations():
    K = bd.cross_polytope(4)
    s = GaussianSample(31, 20000, 4)
    G = s.vectors()
    obj = lambda w: float(np.mean(K._gauge(G * np.exp(w - w.mean())) ** 2))
    base = obj(np.zeros(4))
    res = solve_ell_position(K, s, tol=1e-8)
    opt = res.objective**2
    assert opt <= base + 1e-12
    # the solver optimum is within the SAA band of the identity
    assert np.abs(res.T.log_diag()).max() <= 0.05
    # and no random det-1 perturbation of the optimum improves it
    w0 = -res.T.log_diag()
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = rng.standard_normal(4)
        d -= d.mean()
        d *= 1e-2 / np.linalg.norm(d)
        assert obj(w0 + d) >= opt - 1e-10


def test_cold_start_evaluates_the_identity_once(monkeypatch):
    # tol = 1e9 accepts the identity, so its one evaluation is the whole solve
    points = []
    call = _DiagObjective.__call__
    monkeypatch.setattr(_DiagObjective, "__call__", lambda self, w: points.append(np.array(w)) or call(self, w))
    res = solve_ell_position(bd.cross_polytope(8), GaussianSample(32, 2000, 8), tol=1e9)
    assert len(points) == 1 and not points[0].any()
    assert res.iterations == 0 and res.objective == res.objective_at_identity


def test_full_mode_commutant_on_symmetrized_sample():
    base = GaussianSample(200, 500, 4)
    sym = FixedSample(base.sign_symmetrized())
    for K in (bd.cross_polytope(4), bd.Ellipsoid(np.diag([0.5, 1.0, 2.0, 1.5]))):
        res = solve_ell_position(K, sym, mode="full", tol=1e-10)
        T = res.T.matrix
        off = np.abs(T - np.diag(np.diag(T))).max()
        assert off <= 1e-6 * np.linalg.norm(T)


def test_rotation_invariance_of_optimal_value():
    rng = np.random.default_rng(9)
    A = np.diag(np.linspace(0.5, 2.0, 5))
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    K1, K2 = bd.Ellipsoid(A), bd.Ellipsoid(Q @ A @ Q.T)
    s = GaussianSample(77, 20000, 5)
    r1 = solve_ell_position(K1, s, mode="full", tol=1e-9)
    r2 = solve_ell_position(K2, s, mode="full", tol=1e-9)
    fresh = GaussianSample(78, 20000, 5)
    e1 = ell(r1.T.apply(K1), 2, fresh)
    e2 = ell(r2.T.apply(K2), 2, fresh)
    assert abs(e1.value - e2.value) <= 3 * (e1.se + e2.se)


def test_nonconvergence_is_flagged_not_hidden():
    res = solve_ell_position(
        bd.Ellipsoid(np.diag([100.0, 1.0, 0.01])),
        GaussianSample(5, 2000, 3),
        tol=1e-14,
        max_iter=2,
    )
    assert not res.converged
    assert res.residual > 1e-14


def _scipy_lbfgs(fun, x0, *, maxiter, ftol, gtol, memory=20):
    """scipy's L-BFGS-B with _lbfgs's signature and return value, as the reference."""
    from scipy.optimize import minimize

    res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": maxiter, "ftol": ftol, "gtol": gtol, "maxcor": memory})
    f, g = fun(res.x)
    return res.x, f, g, res.nit, bool(np.abs(g).max() <= gtol)


_REFERENCE_BODIES = [
    ("b1", bd.cross_polytope(8), SAMPLE),
    ("binf", bd.cube(8), SAMPLE),
    ("wlp1.5", bd.WeightedLp.from_weights(1.5, np.linspace(1.0, 2.0, 8)), SAMPLE),
    ("ellipsoid", bd.Ellipsoid(np.diag(np.linspace(0.5, 3.0, 8))), SAMPLE),
    ("full", bd.linear_image(np.eye(4) + 0.3 * np.random.default_rng(12).standard_normal((4, 4)),
                             bd.WeightedLp(1.5, np.ones(4))), GaussianSample(103, 20000, 4)),
]


def test_lbfgs_stopping_rules():
    A = np.diag(np.logspace(0.0, 3.0, 6))

    def quad(x):
        return 0.5 * float(x @ A @ x), A @ x

    x0 = np.ones(6)
    x, f, g, it, ok = positions._lbfgs(quad, x0, maxiter=200, ftol=0.0, gtol=1e-10)
    assert ok and np.abs(g).max() <= 1e-10 and it < 200 and f == quad(x)[0]
    # maxiter, and a relative decrease below ftol, stop short of gtol
    assert positions._lbfgs(quad, x0, maxiter=2, ftol=0.0, gtol=1e-10)[3:] == (2, False)
    assert positions._lbfgs(quad, x0, maxiter=200, ftol=1.0, gtol=1e-10)[3:] == (1, False)
    # a gradient along which the value never falls strictly: the line search fails at x0
    x, f, g, it, ok = positions._lbfgs(lambda x: (1.0, np.ones(6)), x0, maxiter=200, ftol=0.0, gtol=1e-10)
    assert (it, ok) == (0, False) and np.array_equal(x, x0)


@pytest.mark.parametrize("name,K,sample", _REFERENCE_BODIES, ids=[b[0] for b in _REFERENCE_BODIES])
def test_lbfgs_matches_scipy_reference(name, K, sample, monkeypatch):
    res = solve_ell_position(K, sample)
    assert res.mode == ("full" if name == "full" else "diagonal")
    # the cube's sampled objective is kinked wherever a sample's largest
    # coordinate changes, so neither solver brings its gradient to tol there
    assert res.converged or (name == "binf" and res.iterations < 500)
    monkeypatch.setattr(positions, "_lbfgs", _scipy_lbfgs)
    ref = solve_ell_position(K, sample)
    assert res.objective == pytest.approx(ref.objective, rel=1e-6)


def test_fiber_min_lbfgs_matches_scipy_reference(monkeypatch):
    # a smooth exact parent: the fiber minimum goes through _lbfgs
    K = bd.WeightedLp.from_weights(1.5, np.linspace(1.0, 2.0, 6))
    F = sp.haar_grassmannian(np.random.default_rng(5), 6, 3)
    P = sp.SectionBody(K, F, "projection")
    X0 = np.random.default_rng(6).standard_normal((5, 3)) @ F.basis.T
    ref = []
    for x0 in X0:
        def fun(w):
            g, y = K._gauge_subgrad((x0 + P._comp @ w)[None, :])
            return float(g[0]), P._comp.T @ y[0]

        ref.append(_scipy_lbfgs(fun, np.zeros(3), maxiter=400, ftol=1e-16, gtol=1e-12)[1])
    calls = []
    monkeypatch.setattr(sp, "_lbfgs", lambda *a, **k: calls.append(1) or positions._lbfgs(*a, **k))
    for x0, r in zip(X0, ref):
        assert P._fiber_min_one(x0)[0] == pytest.approx(r, rel=1e-9)
    assert len(calls) == len(X0)


# ----------------------------------------------------------------------
# ell product
# ----------------------------------------------------------------------


def test_product_ball_bounded_by_moment():
    from regpos.gaussian import gauss_norm_mean

    p = ell_product(bd.ball(8), SAMPLE)
    assert abs(p.value - gauss_norm_mean(8) ** 2) <= 3 * p.se
    assert p.value <= 8.0


def test_product_scale_invariant_under_crn():
    K = bd.cross_polytope(8)
    a = ell_product(K, SAMPLE)
    b = ell_product(K.scale(3.0), SAMPLE)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_solved_position_product_not_worse_than_random_position():
    K = bd.cross_polytope(16)
    s = GaussianSample(55, 20000, 16)
    res = solve_ell_position(K, s, tol=1e-8)
    prod = ell_product(res.T.apply(K), s)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(16) * 0.5
    w -= w.mean()
    Trand = PositionMap.from_diag(np.exp(w))
    prod_rand = ell_product(Trand.apply(K), s)
    assert prod.value <= prod_rand.value + 3 * (prod.se + prod_rand.se)
    assert prod.value / (16 * np.log(17)) < 3.0


# ----------------------------------------------------------------------
# balance scale
# ----------------------------------------------------------------------


def test_balance_ball_is_one():
    a, _, _ = balance_scale(bd.WeightedLp(2.0, np.ones(8)), 0.5, SAMPLE)
    assert a == pytest.approx(1.0, abs=1e-12)


def test_balance_theta_zero_endpoint():
    from regpos.gaussian import ell as _ell, ell_star as _ell_star

    K = bd.WeightedLp.from_weights(1.0, [1.0, 2.0, 3.0, 4.0])
    s = GaussianSample(60, 20000, 4)
    a, _, _ = balance_scale(K, 0.0, s)
    l = _ell(K, 1, s)
    ls = _ell_star(K, 1, s)
    # ell(aK) = ell/a and ell*(aK) = a ell*, so equality needs a = sqrt(ell/ell*)
    assert a == pytest.approx(np.sqrt(l.value / ls.value), rel=1e-12)
    aK = K.scale(a)
    la = _ell(aK, 1, s)
    lsa = _ell_star(aK, 1, s)
    assert abs(la.value - lsa.value) <= 3 * (la.se + lsa.se)


def test_balance_weighted_l1_theta_half():
    from regpos.gaussian import ell as _ell, ell_star as _ell_star
    from regpos.interpolation import InterpolationPair, interpolate

    K = bd.WeightedLp.from_weights(1.0, [1.0, 2.0, 3.0, 4.0])
    s = GaussianSample(61, 20000, 4)
    th = 0.5
    a, _, _ = balance_scale(K, th, s)
    Kth_scaled = interpolate(InterpolationPair(K.scale(a), bd.WeightedLp(2.0, np.ones(4)), th))
    la = _ell(Kth_scaled, 1, s)
    lsa = _ell_star(Kth_scaled, 1, s)
    assert abs(la.value - lsa.value) <= 3 * (la.se + lsa.se)


def test_balance_rejects_nontractable():
    K = bd.PolytopeH(np.random.default_rng(1).standard_normal((8, 4)))
    with pytest.raises(ValueError, match="tractable"):
        balance_scale(K, 0.5, GaussianSample(1, 1000, 4))
