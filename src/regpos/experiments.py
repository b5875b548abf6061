"""Experiment drivers: aggregated property suites, low-M* constants,
regularity curves and the random quotient-of-subspace regression.

Every driver is a deterministic function of (config, seed); output
files (JSONL records plus CSV summaries) are byte-identical across re-runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import bodies as bd
from . import subspaces as sp
from ._ascent import ratio_extremum, run_surveys, survey
from .gaussian import (
    FixedSample,
    GaussianSample,
    _bootstrap_ci,
    _estimate,
    crn_diff,
    ell,
    ell_star,
    gauss_norm_mean,
    mstar,
)
from .interpolation import interpolate, property_suite
from .positions import ell_product, solve_ell_position
from .records import ExperimentRecord, JsonlWriter, measured
from .regular import (
    _need_samples,
    _radii,
    _radius_survey,
    _report_plan,
    balanced_interpolant_functionals,
    ell_position_certificate,
    find_regular_position,
    random_gelfand,
    section_radius_sample,
    default_k_grid,
)
from .zoo import default_zoo, random_h_polytope

__all__ = [
    "CheckResult",
    "run_property_suites",
    "QSOutcome",
    "QSSummary",
    "run_qs_experiment",
    "run_lowmstar_check",
    "run_regularity_curve",
    "run_ell_positions",
    "run_regular_positions",
    "run_section_tables",
    "binomial_ci",
]


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def binomial_ci(phat, trials, z=1.96):
    """Wilson score interval for a proportion phat of trials; it keeps its
    width at phat = 0 and 1, where the Wald interval collapses."""
    z2 = z * z / trials
    mid = (phat + z2 / 2) / (1 + z2)
    half = z * np.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials)) / (1 + z2)
    return max(mid - half, 0.0), min(mid + half, 1.0)


# ======================================================================
# property suites
# ======================================================================


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0


def _sphere(rng, m, n):
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _check_gauge_axioms(seed):
    rng = _rng(seed, 10)
    cases = default_zoo(8) + [
        ("hpoly3", random_h_polytope(rng, 3, 10)),
        ("vpoly3", bd.PolytopeV(rng.standard_normal((8, 3)))),
    ]
    worst = ("", 0.0)
    for name, K in cases:
        npts = 60 if not K.exact else 400
        X = rng.standard_normal((npts, K.dim))
        Y = rng.standard_normal((npts, K.dim))
        lam = rng.uniform(0.1, 10.0, size=npts)
        gx, gy = K.gauge(X), K.gauge(Y)
        tol = 1e-9 if K.exact else 1e-6
        checks = {
            "homogeneity": np.max(np.abs(K.gauge(lam[:, None] * X) - lam * gx) / (lam * gx)),
            "evenness": np.max(np.abs(K.gauge(-X) - gx) / gx),
            "triangle": np.max((K.gauge(X + Y) - (gx + gy)) / (gx + gy)),
            "midpoint": np.max((K.gauge(0.5 * (X + Y)) - 0.5 * (gx + gy)) / (gx + gy)),
        }
        if K.radii.exact:
            norms = np.linalg.norm(X, axis=1)
            checks["envelope_R"] = np.max(norms / K.radii.R - gx) / np.max(gx)
            checks["envelope_r"] = np.max(gx - norms / K.radii.r) / np.max(gx)
        for cname, resid in checks.items():
            if resid > worst[1]:
                worst = (f"{name}:{cname}", float(resid))
            if resid > tol:
                return False, f"{name}:{cname} residual {resid:.2e} > {tol:g}"
    return True, f"worst {worst[0]} residual {worst[1]:.2e}"


def _check_support_duality(seed):
    # h_K is the polar's gauge, and against K's own gauge (Fenchel): a polar
    # gauge subgradient x at y has ||x||_K = 1 and <x, y> = h_K(y).  Support and
    # polar share one dual formula, so only the last two catch a wrong one.
    rng = _rng(seed, 11)
    worst = dict.fromkeys(("support/polar-gauge", "gauge at the polar subgradient", "Fenchel"), 0.0)
    for name, K in default_zoo(8):
        Y = _sphere(rng, 1000, K.dim)
        h = K.support(Y)
        X = K.polar().gauge_subgrad(Y)
        resids = {
            "support/polar-gauge": K.polar().gauge(Y) - h,
            "gauge at the polar subgradient": K.gauge(X) - 1.0,
            "Fenchel": np.vecdot(X, Y) - h,
        }
        for what, r in resids.items():
            worst[what] = max(worst[what], float(np.max(np.abs(r))))
            if worst[what] > 1e-9:
                return False, f"{name} {what} residual {worst[what]:.2e}"
    return True, "max residuals " + ", ".join(f"{w} {r:.2e}" for w, r in worst.items()) + " on 1000 directions"


def _check_polar_involution(seed):
    rng = _rng(seed, 12)
    cases = [(n, b) for n, b in default_zoo(6)] + [("hpoly10_r3", random_h_polytope(rng, 3, 10))]
    worst = 0.0
    for name, K in cases:
        ndirs = 1000 if K.exact else 300
        X = _sphere(rng, ndirs, K.dim)
        KK = K.polar().polar()
        resid = float(np.max(np.abs(KK.gauge(X) - K.gauge(X)) / K.gauge(X)))
        worst = max(worst, resid)
        tol = 1e-9 if K.exact else 1e-7
        if resid > tol:
            return False, f"{name} bipolar residual {resid:.2e}"
    return True, f"max relative residual {worst:.2e}"


def _check_linear_image_duality(seed):
    rng = _rng(seed, 13)
    K = bd.cross_polytope(3)
    worst = 0.0
    for _ in range(5):
        T = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        X = _sphere(rng, 1000, 3)
        lhs = bd.linear_image(T, K).polar().gauge(X)
        rhs = bd.linear_image(np.linalg.inv(T).T, K.polar()).gauge(X)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
    ident = bd.linear_image(np.eye(3), K)
    X = _sphere(rng, 200, 3)
    worst = max(worst, float(np.max(np.abs(ident.gauge(X) - K.gauge(X)) / K.gauge(X))))
    ok = worst <= 1e-9
    return ok, f"max residual {worst:.2e} over random GL_3 maps"


def _admissible_triple(rng, n):
    m1 = int(rng.integers(n // 2 + 1, n))
    lo = n - m1
    m2 = int(rng.integers(lo + 1, n))
    E1 = sp.haar_grassmannian(rng, n, m1)
    # E2 = E1^perp + (random (m2 - lo)-dim subspace of E1)
    inner_dim = m2 - lo
    raw = E1.basis @ rng.standard_normal((m1, inner_dim))
    Q, _ = np.linalg.qr(raw)
    E2 = sp.Subspace(np.hstack([E1.complement().basis, Q]))
    return E1, E2


def _check_nested_projection(seed):
    rng = _rng(seed, 15)
    n = 6
    worst = 0.0
    for i in range(50):
        w = rng.uniform(0.3, 3.0, size=n)
        A = bd.Ellipsoid(np.diag(w))
        E1, E2 = _admissible_triple(rng, n)
        resid = sp.perp_identity_check(A, E1, E2, rng=rng, ndirs=60)
        worst = max(worst, resid)
        if resid > 1e-6:
            return False, f"triple {i}: residual {resid:.2e} > 1e-6"
    # violated hypothesis must be rejected
    E1 = sp.Subspace(np.eye(n)[:, :2])
    E2 = sp.Subspace(np.eye(n)[:, 3:])
    try:
        sp.perp_identity_check(bd.ball(n), E1, E2)
        return False, "hypothesis violation not detected"
    except ValueError:
        pass
    return True, f"50 admissible triples, max residual {worst:.2e}"


def _check_minimizer_commutant(seed):
    n = 4
    base = GaussianSample(int(seed) + 21, 600, n)
    sample = FixedSample(base.sign_symmetrized())
    cases = [
        ("b1", bd.cross_polytope(n)),
        ("wlp1.5", bd.WeightedLp.from_weights(1.5, 1.0 + np.arange(n) / (n - 1.0))),
        ("ell", bd.Ellipsoid(np.diag(np.linspace(0.5, 2.0, n)))),
    ]
    worst = 0.0
    for name, K in cases:
        res = solve_ell_position(K, sample, mode="full", tol=1e-10)
        T = res.T.matrix
        off = float(np.abs(T - np.diag(np.diag(T))).max())
        scale = float(np.linalg.norm(T))
        worst = max(worst, off / scale)
        if off > 1e-6 * scale:
            return False, f"{name}: off-diagonal {off:.2e} > 1e-6 * |T| = {1e-6 * scale:.2e}"
    return True, f"max off-diagonal / |T| = {worst:.2e}"


def _check_al_star(seed):
    sample = GaussianSample(int(seed) + 31, 20000, 8)
    factor = np.sqrt(np.pi / 2.0)
    for name, K in default_zoo(8):
        l = ell(K, 1, sample)
        ls = ell_star(K, 1, sample)
        r, R, _ = K.radii
        if 1.0 / r > factor * (l.value + 3 * l.se):
            return False, f"{name}: 1/r = {1/r:.3f} > sqrt(pi/2) ell = {factor * l.value:.3f}"
        if R > factor * (ls.value + 3 * ls.se):
            return False, f"{name}: R = {R:.3f} > sqrt(pi/2) ell* = {factor * ls.value:.3f}"
    return True, "1/r <= sqrt(pi/2) ell and R <= sqrt(pi/2) ell* across the zoo"


def _check_interpolation(seed):
    rng = _rng(seed, 16)
    n = 6
    ramp = 1.0 + np.arange(n) / (n - 1.0)
    pairs = [
        (bd.cross_polytope(n), bd.ball(n), 0.5),
        (bd.WeightedLp.from_weights(1.0, ramp), bd.cube(n), 0.3),
        (bd.Ellipsoid(np.diag(ramp)), bd.Ellipsoid(np.diag(ramp[::-1].copy())), 0.5),
    ]
    for pair in pairs:
        residuals = property_suite(*pair, rng=rng, ndirs=1000)
        if not all(r <= 1e-9 for r in residuals.values()):
            nm = max(residuals, key=residuals.get)
            return False, f"{nm} residual {residuals[nm]:.2e}"
    # [B_1, B_2]_{1/2} = B_{4/3}
    mid = interpolate(*pairs[0])
    if abs(mid.p - 4.0 / 3.0) > 1e-12:
        return False, f"[B1,B2]_0.5 exponent {mid.p} != 4/3"
    # diagonal ellipsoids interpolate by entrywise geometric means
    e_mid = interpolate(bd.Ellipsoid(np.diag([1.0, 4.0])), bd.Ellipsoid(np.diag([4.0, 1.0])), 0.5)
    if not np.allclose(e_mid.weights, [2.0, 2.0]):
        return False, f"ellipsoid midpoint weights {e_mid.weights}"
    # conjugate-exponent duality for [B1, B2]_theta
    th = 0.25
    lhs = interpolate(bd.cross_polytope(n), bd.ball(n), th).polar()
    rhs = interpolate(bd.cube(n), bd.ball(n), th)
    X = _sphere(rng, 500, n)
    resid = float(np.max(np.abs(lhs.gauge(X) - rhs.gauge(X)) / rhs.gauge(X)))
    if resid > 1e-9:
        return False, f"conjugate duality residual {resid:.2e}"
    return True, "identities hold to 1e-9; closed forms match"


def _check_section_lower_bound(seed):
    rng = _rng(seed, 18)
    n = 8
    L = bd.WeightedLp.from_weights(1.0, 1.0 + np.arange(n) / (n - 1.0))
    th = 0.4
    Lth = interpolate(L, bd.ball(n), th)
    for i in range(20):
        m = int(rng.integers(2, n))
        E = sp.haar_grassmannian(rng, n, m)
        lhs = sp.out_radius(sp.section(Lth, E), rng=rng)
        rhs = sp.out_radius(sp.section(L, E), rng=rng) ** (1 - th)
        if lhs < rhs * (1 - 1e-3):
            return False, f"subspace {i}: R(interp cap E) = {lhs:.4f} < {rhs:.4f}"
    return True, "R([L,B2]_th cap E) >= R(L cap E)^(1-th) on 20 subspaces"


def _check_subspace_sampling(seed):
    rng = _rng(seed, 19)
    # orthonormality and projector idempotence
    for (n, m) in [(4, 2), (8, 5), (16, 3)]:
        F = sp.haar_grassmannian(rng, n, m)
        if np.abs(F.basis.T @ F.basis - np.eye(m)).max() > 1e-12:
            return False, f"basis not orthonormal at (n,m)=({n},{m})"
        P = F.projector()
        if np.abs(P @ P - P).max() > 1e-10:
            return False, f"projector not idempotent at (n,m)=({n},{m})"
    # mean squared projection of a fixed unit vector is m/n
    n, m, reps = 4, 2, 10000
    target = m / n
    v = np.zeros(n)
    v[0] = 1.0
    Qs = sp.haar_grassmannian_batch(rng, n, m, reps)
    e = _estimate([np.linalg.norm(np.einsum("snm,n->sm", Qs, v), axis=1) ** 2], 1)
    if abs(e.value - target) > max(4 * e.se, 0.02):
        return False, f"E|P_F v|^2 = {e.value:.4f} vs m/n = {target}"
    # flag construction
    F, E, E2 = (sp.Subspace(B[0]) for B in sp.haar_flag_batch(rng, 8, 3, 1))
    checks = [
        F.dim == 6 and E.dim == 4,
        F.contains(E),
        E2.dim == 6,
        F.contains(E2.complement()),
        np.abs(sp.subspace_intersection(F, E2).projector() - E.projector()).max() < 1e-9,
    ]
    if not all(checks):
        return False, f"flag invariants failed: {checks}"
    detail_mean = f"E|P_F v|^2 = {e.value:.4f} (target {target})"
    # flag F-marginal matches the plain Grassmannian on the |P_F v|^2 statistic
    reps = 10000
    n, k = 6, 2
    flags = sp.haar_flag_batch(rng, n, k, reps)[0]
    direct = _estimate([np.linalg.norm(np.einsum("snm,n->sm", flags, np.eye(n)[0]), axis=1) ** 2], 1)
    if abs(direct.value - (n - k + 1) / n) > max(4 * direct.se, 0.02):
        return False, "flag F-marginal statistic off"
    return True, f"{detail_mean}; flag invariants hold"


def _check_section_projection(seed):
    rng = _rng(seed, 20)
    n = 5
    # the ellipsoid's Schur-form projection: its radii against the exact eigen
    # route, R(P_F A) as the maximum of |P_F z| / ||z||_A over R^n (how every
    # command measures a projection) and r(P_F A) as 1 / R(A polar cap F)
    A = bd.Ellipsoid(np.diag(np.linspace(0.5, 3.0, n)))
    F = sp.haar_grassmannian(rng, n, 3)
    exact = sp.project(A, F)
    r1 = max(abs(ratio_extremum(A, P=F.basis.T, mode="max") / exact.radii.R - 1.0),
             abs(exact.radii.r * ratio_extremum(A.polar(), Z=F.basis, mode="max") - 1.0))
    if r1 > 1e-10:
        return False, f"Schur-form radii residual {r1:.2e} against the eigen route"
    # support of a projection equals the parent support on the carrier, for the
    # Schur form and for B_1's V-polytope
    K1 = bd.cross_polytope(n)
    V = _sphere(rng, 25, 3)
    r2 = 0.0
    for K in (A, K1):
        hp = K.support(V @ F.basis.T)
        r2 = max(r2, float(np.max(np.abs(sp.project(K, F).support(V) - hp) / hp)))
    if r2 > 1e-12:
        return False, f"projection support identity residual {r2:.2e}"
    # ellipsoid section out-radius against the eigenvalue oracle (independent route)
    S = sp.section(A, F)
    lam = np.linalg.eigvalsh(F.basis.T @ A.A @ F.basis)
    if abs(sp.out_radius(S) - lam[0] ** -0.5) > 1e-10:
        return False, "section out-radius does not match the eigenvalue oracle"
    # geometric distances
    if abs(sp.geometric_distance_to_ball(sp.section(bd.ball(n), F)) - 1.0) > 1e-9:
        return False, "ball section distance is not 1"
    d = sp.geometric_distance_to_ball(bd.cube(2))
    if abs(d - np.sqrt(2)) > 1e-6:
        return False, f"d_G(B_inf^2) = {d} != sqrt(2)"
    ell2 = bd.Ellipsoid(np.diag([0.25, 1.0]))
    if abs(sp.geometric_distance_to_ball(ell2) - 2.0) > 1e-12:
        return False, "ellipse distance is not the axis ratio"
    # B_1^2 projected onto the diagonal
    v = np.array([[1.0], [1.0]]) / np.sqrt(2)
    P2 = sp.project(bd.cross_polytope(2), sp.Subspace(v))
    if abs(P2.gauge([1.0]) - np.sqrt(2)) > 1e-9:
        return False, "projected segment gauge mismatch"
    return True, f"closed forms match the eigen route to {r1:.2e} and the support identity to {r2:.2e}"


def _check_gaussian(seed):
    from scipy.integrate import quad
    from scipy.special import ndtr

    s16 = GaussianSample(int(seed) + 41, 20000, 16)
    e = ell(bd.ball(16), 2, s16)
    if abs(e.value - 4.0) > 3 * e.se:
        return False, f"ell_2(B_2^16) = {e.value:.4f} not within 3 SE of 4"
    # homogeneity under common random numbers
    a, b = ell(bd.ball(4).scale(2.0), 2, GaussianSample(7, 5000, 4)), ell(
        bd.ball(4), 2, GaussianSample(7, 5000, 4)
    )
    if abs(a.value - b.value / 2.0) > 1e-12:
        return False, "CRN homogeneity is not exact"
    # quadrature oracle: ell(B_inf^2) = E max(|g1|, |g2|)
    s2 = GaussianSample(int(seed) + 42, 100000, 2)
    density = lambda t: t * 2 * (2 / np.sqrt(2 * np.pi)) * np.exp(-t * t / 2) * (
        2 * ndtr(t) - 1.0
    )
    target = quad(density, 0, 12)[0]
    e = ell(bd.cube(2), 1, s2)
    if abs(e.value - target) > 3 * e.se:
        return False, f"ell(B_inf^2) = {e.value:.5f} vs quadrature {target:.5f}"
    # quadrature oracle: M*(B_1^2) = mean of max(|cos|,|sin|) on the circle
    target_m = quad(lambda t: np.maximum(np.abs(np.cos(t)), np.abs(np.sin(t))), 0, 2 * np.pi)[0] / (
        2 * np.pi
    )
    m = mstar(bd.cross_polytope(2), s2)
    if abs(m.value - target_m) > 3 * m.se:
        return False, f"M*(B_1^2) = {m.value:.5f} vs quadrature {target_m:.5f}"
    # ell* consistency with E|G| M* under CRN
    s8 = GaussianSample(int(seed) + 43, 20000, 16)
    K = bd.cross_polytope(16)
    ls = ell_star(K, 1, s8)
    ms = mstar(K, s8)
    diff = ls.value - gauss_norm_mean(16) * ms.value
    band = 3 * (ls.se + gauss_norm_mean(16) * ms.se)
    if abs(diff) > band:
        return False, f"ell* vs E|G| M* differ by {diff:.4f} (band {band:.4f})"
    # monotonicity under inclusion: B_1 subset B_2 subset B_inf
    sm = GaussianSample(int(seed) + 44, 20000, 8)
    l1 = ell(bd.cross_polytope(8), 1, sm)
    l2 = ell(bd.WeightedLp(2.0, np.ones(8)), 1, sm)
    l3 = ell(bd.cube(8), 1, sm)
    if not (l1.value >= l2.value - 3 * l1.se and l2.value >= l3.value - 3 * l2.se):
        return False, "ell monotonicity under inclusion failed"
    # contraction: sections shrink ell, projections shrink ell*
    rng = _rng(seed, 45)
    E = sp.haar_grassmannian(rng, 8, 4)
    KS = sp.section(bd.cross_polytope(8), E)
    sE = GaussianSample(int(seed) + 46, 20000, 4)
    lE = ell(KS, 1, sE)
    if lE.value > l1.value + 3 * (lE.se + l1.se):
        return False, "ell(K cap E) > ell(K)"
    lPs = ell_star(sp.project(bd.cross_polytope(8), E), 1, sE)
    l1s = ell_star(bd.cross_polytope(8), 1, sm)
    if lPs.value > l1s.value + 3 * (lPs.se + l1s.se):
        return False, "ell*(P_E K) > ell*(K)"
    # CRN variance reduction for nearby bodies
    bodyA = bd.cross_polytope(8)
    bodyB = bd.WeightedLp.from_weights(1.1, np.ones(8))
    sc = GaussianSample(int(seed) + 47, 10000, 8)
    d_crn = crn_diff(bodyA, bodyB, "ell2", sc)
    za = ell(bodyA, 2, sc)
    zb = ell(bodyB, 2, GaussianSample(int(seed) + 48, 10000, 8))
    indep_se = np.hypot(2 * za.value * za.se, 2 * zb.value * zb.se)
    if not d_crn.se < indep_se:
        return False, f"CRN SE {d_crn.se:.4f} not below independent SE {indep_se:.4f}"
    return True, "oracle values, CRN identities and contraction bands all hold"


def _check_positions(seed):
    sample = GaussianSample(int(seed) + 51, 20000, 8)
    # ball: converges, T near identity at the SAA scale, objective never worse
    res = solve_ell_position(bd.ball(8), sample, tol=1e-8)
    if not res.converged:
        return False, f"ball solve residual {res.residual:.2e}"
    drift = float(np.abs(np.log(np.diag(res.T.matrix))).max())
    if drift > 10.0 / np.sqrt(sample.count):
        return False, f"ball position drift {drift:.2e} above the SAA band"
    if res.objective > res.objective_at_identity + 1e-12:
        return False, "objective exceeds the identity start"
    # diagonal ellipsoids against the AM-GM closed form with sample moments:
    # as an Ellipsoid, which takes that closed form itself, and as a direct
    # LinearImage of the ball, which L-BFGS solves
    G = sample.vectors()
    m2 = (G * G).mean(axis=0)
    rng = _rng(seed, 52)
    for _ in range(3):
        v = np.exp(rng.uniform(-1.5, 1.5, size=8))
        t_closed = np.sqrt(v * m2)
        t_closed /= np.exp(np.log(t_closed).mean())
        for K in (bd.Ellipsoid(np.diag(v)), bd.LinearImage(np.diag(v**-0.5), bd.ball(8))):
            res = solve_ell_position(K, sample, tol=1e-9)
            err = float(np.abs(np.log(np.diag(res.T.matrix)) - np.log(t_closed)).max())
            if err > 1e-5:
                return False, f"{K.family} closed-form mismatch {err:.2e}"
    # local optimality at the SAA optimum under det-1 perturbations
    K = bd.WeightedLp.from_weights(1.5, 1.0 + np.arange(8) / 7.0)
    res = solve_ell_position(K, sample, tol=1e-9)
    base_obj = res.objective**2
    w0 = -np.log(np.diag(res.T.matrix))
    obj = lambda w: float(np.mean(K._gauge(G * np.exp(w - w.mean())) ** 2))
    for i in range(20):
        d = rng.standard_normal(8)
        d -= d.mean()
        d *= 1e-2 / np.linalg.norm(d)
        if obj(w0 + d) < base_obj - 1e-10:
            return False, f"perturbation {i} decreases the SAA objective"
    # invariance of the optimal value under orthogonal pre-composition (3 SE)
    A = np.diag(np.linspace(0.5, 2.0, 5))
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    K1, K2 = bd.Ellipsoid(A), bd.Ellipsoid(Q @ A @ Q.T)
    s1 = GaussianSample(int(seed) + 53, 20000, 5)
    r1 = solve_ell_position(K1, s1, mode="full", tol=1e-9)
    r2 = solve_ell_position(K2, s1, mode="full", tol=1e-9)
    fresh = GaussianSample(int(seed) + 54, 20000, 5)
    e1 = ell(r1.T.apply(K1), 2, fresh)
    e2 = ell(r2.T.apply(K2), 2, fresh)
    if abs(e1.value - e2.value) > 3 * (e1.se + e2.se):
        return False, f"rotated optimum differs: {e1.value:.4f} vs {e2.value:.4f}"
    return True, "closed forms, local optimality and rotation invariance hold"


def _check_fixed_point(seed):
    # ball: fixed point within the SAA band, balance scale near 1
    fp = find_regular_position(bd.WeightedLp(2.0, np.ones(4)), 1.0, seed=int(seed) + 61, samples=20000)
    if not fp.converged:
        return False, "ball fixed point did not converge"
    if float(np.abs(fp.T.log_diag()).max()) > 0.05 or abs(fp.balance - 1.0) > 0.05:
        return False, f"ball fixed point off: T drift {np.abs(fp.T.log_diag()).max():.3f}, a = {fp.balance:.3f}"
    # diagonal ellipsoid closed form (with sample second moments)
    v = np.array([4.0, 1.0])
    fp = find_regular_position(bd.Ellipsoid(np.diag(v)), 1.0, seed=int(seed) + 62, samples=20000, tol=1e-6)
    m2 = (fp.sample.vectors() ** 2).mean(axis=0)
    pred = np.sqrt(v) * m2 ** (1.0 / (2 * (1 - fp.theta)))
    pred /= np.exp(np.log(pred).mean())
    err = float(np.abs(fp.T.log_diag() - np.log(pred)).max())
    if err > 1e-4:
        return False, f"ellipsoid fixed point off the closed form by {err:.2e}"
    # B_1^8: its fixed point is the (SAA-)identity, and the certificate agrees
    K = bd.cross_polytope(8)
    fp = find_regular_position(K, 0.75, seed=int(seed) + 63, samples=20000)
    if not fp.converged:
        return False, "B_1^8 fixed point did not converge"
    cert = ell_position_certificate(fp, K)
    if cert > 5 * max(fp.residual, 1e-5):
        return False, f"certificate residual {cert:.2e} vs fixed-point residual {fp.residual:.2e}"
    if float(np.abs(fp.T.log_diag()).max()) > 0.1:
        return False, "B_1^8 fixed point strays far from the identity"
    return True, "ball, ellipsoid closed form and B_1 certificate all hold"


def _check_gelfand(seed):
    rng = _rng(seed, 71)
    # ball: every section is a ball
    for k in (1, 2, 4):
        g = random_gelfand(bd.ball(8), k, 150, rng=rng)
        if abs(g.value - 1.0) > 1e-9:
            return False, f"cr_{k}(B_2^8) = {g.value}"
    # k = 1 is the out-radius
    K = bd.Ellipsoid(np.diag([1.0 / 16.0, 1, 1, 1]))
    g = random_gelfand(K, 1, 100, rng=rng)
    if abs(g.value - 4.0) > 1e-12:
        return False, f"cr_1 = {g.value} != R = 4"
    # c_k upper bound: codim-1 sections of diag(1/4,1,1) reach 1 within 5%
    vals = section_radius_sample(bd.Ellipsoid(np.diag([0.25, 1, 1])), 2, 1500, rng)
    ub = float(vals.min())
    if not (1.0 <= ub * 1.0000001 and ub <= 1.05):
        return False, f"c_2 upper bound {ub:.4f} not within 5% of 1"
    # monotone nonincreasing on an ellipsoid (clamped regime)
    E = bd.Ellipsoid(np.diag(np.geomspace(1.0 / 16, 1, 16)))
    crs = []
    for k in (1, 2, 4, 8):
        crs.append(random_gelfand(E, k, 400, rng=rng).value)
    if not all(crs[i] >= crs[i + 1] - 1e-9 for i in range(len(crs) - 1)):
        return False, f"cr_k not nonincreasing on the ellipsoid: {crs}"
    # doubled sample count agrees within joint CIs
    K16 = bd.cross_polytope(16)
    g1 = random_gelfand(K16, 4, 400, rng=_rng(seed, 72))
    g2 = random_gelfand(K16, 4, 800, rng=_rng(seed, 73))
    lo = max(g1.ci[0], g2.ci[0])
    hi = min(g1.ci[1], g2.ci[1])
    if lo > hi:
        return False, f"doubled-sample CIs disjoint: {g1.ci} vs {g2.ci}"
    return True, f"ball/ellipsoid closed cases and CI self-consistency hold"


_CHECKS = [
    ("gauge_axioms", _check_gauge_axioms),
    ("support_duality", _check_support_duality),
    ("polar_involution", _check_polar_involution),
    ("linear_image_duality", _check_linear_image_duality),
    ("nested_projection_identity", _check_nested_projection),
    ("minimizer_commutant", _check_minimizer_commutant),
    ("al_star_inequalities", _check_al_star),
    ("interpolation_identities", _check_interpolation),
    ("section_lower_bound", _check_section_lower_bound),
    ("subspace_sampling", _check_subspace_sampling),
    ("section_projection", _check_section_projection),
    ("gaussian_functionals", _check_gaussian),
    ("ell_position", _check_positions),
    ("fixed_point", _check_fixed_point),
    ("random_gelfand", _check_gelfand),
]


def run_property_suites(seed: int = 0, names=None) -> list[CheckResult]:
    """Run every spec invariant on the standard zoo; one CheckResult per suite."""
    results = []
    for name, fn in _CHECKS:
        if names is not None and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        results.append(CheckResult(name, bool(passed), detail, time.perf_counter() - t0))
    return results


# ======================================================================
# quotient-of-subspace experiment
# ======================================================================


@dataclass
class QSOutcome:
    d_section_of_projection: float   # d_G((P_F Kbar) cap E, ball)
    d_projection_of_section: float   # d_G(P_E (Kbar cap F), ball)
    section_radius: float            # R(Kbar cap F)
    polar_section_radius: float      # R(Kbar polar cap F)
    within_threshold: bool


@dataclass
class QSSummary:
    n: int
    k: int
    alpha: float
    theta: float
    trials: int
    P_emp: float
    threshold: float                  # Rbar^2 with Rbar = P_emp (n/k)^alpha
    quantiles: dict
    exceed_sop: float
    exceed_pos: float
    dmax_sop: float                   # the largest distances over the trials
    dmax_pos: float
    margin_sop: float                 # dmax / threshold: an exceedance is 0 iff its margin is <= 1
    margin_pos: float
    fp_converged: bool
    fp_residual: float
    outcomes: list = field(default_factory=list)


def run_qs_experiment(
    K,
    alpha: float | None,
    k: int,
    trials: int = 500,
    seed: int = 0,
    *,
    c: float = 0.5,
    fp_samples: int = 20000,
    report_samples: int = 400,
    writer: JsonlWriter | None = None,
) -> QSSummary:
    """Sample Haar flags, measure both quotient-of-subspace distances for the
    alpha-regular typical position of K, and compare against the measured
    threshold Rbar^2 = (P_emp (n/k)^alpha)^2."""
    n = K.dim
    if not 1 <= k <= n // 2:
        raise ValueError("need 1 <= k <= n/2")
    if trials < 10:
        raise ValueError("need at least 10 trials for the q_exp quantile level")
    if alpha is None:
        alpha = 0.5 + 1.0 / np.log(n / k)

    fp = find_regular_position(K, alpha, seed=seed, samples=fp_samples)
    # keep only the reported fields, so the sample and its power table are freed here
    Kbar, theta, fp_converged, fp_residual = fp.body, fp.theta, fp.converged, fp.residual
    del fp
    Kpol = Kbar.polar()
    # the report's surveys and the six flag surveys run in one batch
    report_surveys, finish_report = _report_plan(Kbar, alpha, None, report_samples, c, seed + 1)
    rng = _rng(seed, 3)
    F_bases, E_bases, E2_bases = sp.haar_flag_batch(rng, n, k, trials)
    Pts = np.swapaxes(E_bases, 1, 2)  # (trials, n-2k+2, n) projector rows
    flag_surveys = [
        survey(Kbar, E2_bases, Pts, rng=rng),  # R((P_F Kbar) cap E)
        survey(Kbar, F_bases, Pts, rng=rng),   # R(P_E (Kbar cap F))
        survey(Kpol, E2_bases, Pts, rng=rng),
        survey(Kpol, F_bases, Pts, rng=rng),
        survey(Kbar, F_bases, rng=rng),        # R(Kbar cap F)
        survey(Kpol, F_bases, rng=rng),
    ]
    radii = run_surveys(report_surveys + flag_surveys)
    report = finish_report(radii[: len(report_surveys)])
    R_a_body, R_b_body, R_a_pol, R_b_pol, RF_body, RF_pol = radii[len(report_surveys) :]
    Rbar = report.P_emp * (n / k) ** alpha
    threshold = Rbar**2

    d_sop = np.maximum(R_a_body * R_b_pol, 1.0)  # (P_F Kbar) cap E
    d_pos = np.maximum(R_b_body * R_a_pol, 1.0)  # P_E (Kbar cap F)

    levels = {"q50": 0.5, "q90": 0.9, "q_exp": float(1.0 - max(np.exp(-c * k), 10.0 / trials))}
    quantiles = {
        name: {
            "d_section_of_projection": float(np.quantile(d_sop, q)),
            "d_projection_of_section": float(np.quantile(d_pos, q)),
        }
        for name, q in levels.items()
    }
    exceed_sop = float(np.mean(d_sop > threshold))
    exceed_pos = float(np.mean(d_pos > threshold))
    dmax_sop, dmax_pos = float(d_sop.max()), float(d_pos.max())
    outcomes = [
        QSOutcome(float(a), float(b), float(rf), float(rp), bool(a <= threshold and b <= threshold))
        for a, b, rf, rp in zip(d_sop, d_pos, RF_body, RF_pol)
    ]
    summary = QSSummary(
        n=n, k=k, alpha=float(alpha), theta=theta, trials=trials,
        P_emp=report.P_emp, threshold=float(threshold), quantiles=quantiles,
        exceed_sop=exceed_sop, exceed_pos=exceed_pos,
        dmax_sop=dmax_sop, dmax_pos=dmax_pos,
        margin_sop=float(dmax_sop / threshold), margin_pos=float(dmax_pos / threshold),
        fp_converged=fp_converged, fp_residual=fp_residual, outcomes=outcomes,
    )
    if writer is not None:
        body_spec = K.spec()
        q90 = lambda D: np.quantile(D, 0.9, axis=1)
        params = {"n": n, "k": k, "alpha": float(alpha), "c": c, "trials": trials,
                  "fp_samples": fp_samples, "report_samples": report_samples}
        for i, oc in enumerate(outcomes):
            writer.write(ExperimentRecord(
                experiment="qs_trial", seed=seed, body=body_spec,
                params={**params, "trial": i},
                measured={
                    "d_section_of_projection": measured(oc.d_section_of_projection, lower_bound=True),
                    "d_projection_of_section": measured(oc.d_projection_of_section, lower_bound=True),
                    "section_radius": measured(oc.section_radius, lower_bound=True),
                    "polar_section_radius": measured(oc.polar_section_radius, lower_bound=True),
                    "within_threshold": measured(float(oc.within_threshold), exact=True),
                },
            ))
        writer.write(ExperimentRecord(
            experiment="qs_summary", seed=seed, body=body_spec, params=params,
            measured={
                "P_emp": measured(report.P_emp, lower_bound=True),
                "threshold": measured(threshold, lower_bound=True),
                "exceed_sop": measured(exceed_sop, ci=binomial_ci(exceed_sop, trials)),
                "exceed_pos": measured(exceed_pos, ci=binomial_ci(exceed_pos, trials)),
                # order statistics of lower-bound distances, with bootstrap CIs
                "d90_sop": measured(quantiles["q90"]["d_section_of_projection"],
                                    ci=_bootstrap_ci(d_sop, q90, np.random.default_rng(0)), lower_bound=True),
                "d90_pos": measured(quantiles["q90"]["d_projection_of_section"],
                                    ci=_bootstrap_ci(d_pos, q90, np.random.default_rng(0)), lower_bound=True),
                "dmax_sop": measured(summary.dmax_sop, lower_bound=True),
                "dmax_pos": measured(summary.dmax_pos, lower_bound=True),
                # exact in the recorded distances and threshold, as within_threshold is
                "margin_sop": measured(summary.margin_sop, exact=True),
                "margin_pos": measured(summary.margin_pos, exact=True),
                "fp_residual": measured(fp_residual, exact=True),
                "fp_converged": measured(float(fp_converged), exact=True),
            },
        ))
    return summary


# ======================================================================
# low-M* check
# ======================================================================


def run_lowmstar_check(
    n_list=(16, 32, 64),
    samples: int = 1000,
    c: float = 0.5,
    seed: int = 0,
    *,
    ell_samples: int = 100000,
    writer: JsonlWriter | None = None,
):
    """C_emp = max_k sqrt(k) cr_k(K) / ell*(K) for the body zoo.

    Haar subspaces are shared across bodies at each (n, k) (common random
    numbers: one Haar seed); rows report per-(body, n, k) contributions.
    The run's surveys form one batch; its bootstraps follow it.
    """
    plans = []
    for n in n_list:
        zoo = default_zoo(n)
        sample = GaussianSample(seed + n, ell_samples, n)
        ells = {name: ell_star(K, 1, sample) for name, K in zoo}
        del sample   # so no sample is alive when the batch forks
        for k in default_k_grid(n):
            rng = _rng(seed, n, k)
            haar = int(rng.integers(2**63))
            for name, K in zoo:
                plans.append((name, K, n, k, rng, ells[name], _radius_survey(K, k, samples, rng, haar)))
    rows = []
    summaries = {}
    for (name, K, n, k, rng, es, _), values in zip(plans, _radii([plan for *_, plan in plans])):
        g = random_gelfand(K, k, samples, c, rng=rng, values=values)
        ratio = np.sqrt(k) * g.value / es.value
        rows.append({
            "body": name, "n": n, "k": k, "cr_k": g.value,
            "cr_ci_lo": g.ci[0], "cr_ci_hi": g.ci[1], "level": g.level,
            "clamped": g.clamped, "ell_star": es.value,
            "ell_star_se": es.se, "sqrtk_cr_over_ellstar": ratio,
        })
        key = (name, n)
        summaries[key] = max(summaries.get(key, 0.0), ratio)
        if writer is not None:
            writer.write(ExperimentRecord(
                experiment="lowmstar", seed=seed, body=K.spec(),
                params={"n": n, "k": k, "c": c, "samples": samples},
                measured={
                    # a quantile of lower-bound radii, with its bootstrap CI
                    "cr_k": measured(g.value, ci=g.ci, lower_bound=True),
                    "ell_star": measured(es.value, se=es.se),
                    # cr_k's bootstrap CI, scaled like the ratio
                    "sqrtk_cr_over_ellstar": measured(ratio, ci=np.sqrt(k) * np.asarray(g.ci) / es.value),
                },
            ))
    c_emp = {key: val for key, val in sorted(summaries.items())}
    return {"rows": rows, "C_emp": c_emp, "C_emp_max": max(c_emp.values())}


# ======================================================================
# regularity curve
# ======================================================================


def run_regularity_curve(
    K,
    alphas=(0.6, 0.75, 1.0),
    samples: int = 400,
    seed: int = 0,
    *,
    c: float = 0.5,
    fp_samples: int = 20000,
    k_grid=None,
    writer: JsonlWriter | None = None,
):
    """Sweep alpha, build the position, and emit per-(alpha, k) cr tables with
    P_emp(alpha) and the reference shape 1/sqrt(alpha - 1/2) (recorded, not
    asserted)."""
    positions = []
    for ai, alpha in enumerate(alphas):
        fp = find_regular_position(K, alpha, seed=seed + ai, samples=fp_samples)
        # keep only the reported fields, so the sample and its power table are freed here
        positions.append((fp.body, {"fp_converged": fp.converged, "fp_residual": fp.residual,
                                    "balance": fp.balance}))
        del fp
    # every alpha's report surveys run in one batch
    plans = [_report_plan(body, alpha, k_grid, samples, c, seed + 1000 + ai)
             for ai, (alpha, (body, _)) in enumerate(zip(alphas, positions))]
    radii = iter(run_surveys([job for surveys, _ in plans for job in surveys]))
    rows = []
    curve = []
    for alpha, (_, fp_row), (surveys, finish) in zip(alphas, positions, plans):
        rep = finish([next(radii) for _ in surveys])
        for which in ("body", "polar"):
            for k, g in zip(rep.k_grid, rep.cr[which]):
                rows.append({
                    "alpha": alpha, "which": which, "k": k, "n": K.dim,
                    "cr_k": g.value, "ci_lo": g.ci[0], "ci_hi": g.ci[1],
                    "level": g.level, "clamped": g.clamped,
                    "slope": rep.slopes[which],
                })
        curve.append({
            "alpha": alpha, "P_emp": rep.P_emp,
            "reference_shape": 1.0 / np.sqrt(alpha - 0.5), **fp_row,
        })
        if writer is not None:
            writer.write(ExperimentRecord(
                experiment="regularity_curve", seed=seed, body=K.spec(),
                params={"alpha": float(alpha), "c": c, "samples": samples,
                        "fp_samples": fp_samples},
                measured={
                    "P_emp": measured(rep.P_emp, lower_bound=True),
                    "slope_body": measured(rep.slopes["body"], se=rep.slope_se["body"]),
                    "slope_polar": measured(rep.slopes["polar"], se=rep.slope_se["polar"]),
                    "fp_residual": measured(fp_row["fp_residual"], exact=True),
                },
            ))
    return {"rows": rows, "curve": curve}


# ======================================================================
# thin drivers for the remaining CLI subcommands
# ======================================================================


def _shared_samples(bodies, seed, samples):
    """(name, K, sample) per body; consecutive bodies of one dimension share
    the one GaussianSample(seed, samples, dim), which is drawn on first use."""
    sample = None
    for name, K in bodies:
        if sample is None or sample.dim != K.dim:
            sample = GaussianSample(seed, samples, K.dim)
        yield name, K, sample


def run_ell_positions(bodies, samples=20000, seed=0, tol=1e-6, writer=None):
    """Solve the ell-position for each named body; returns summary rows."""
    rows = []
    for name, K, sample in _shared_samples(bodies, seed, samples):
        res = solve_ell_position(K, sample, tol=tol)
        prod = ell_product(res.T.apply(K), sample)
        rows.append({
            "body": name, "n": K.dim, "objective": res.objective,
            "residual": res.residual, "iterations": res.iterations,
            "converged": res.converged, "mode": res.mode,
            "product": prod.value, "product_se": prod.se,
            "product_over_nlogn": prod.value / (K.dim * np.log(1 + K.dim)),
        })
        if writer is not None:
            writer.write(ExperimentRecord(
                experiment="ell_position", seed=seed, body=K.spec(),
                params={"samples": samples, "tol": tol, "mode": res.mode},
                measured={
                    "objective": measured(res.objective, exact=True),
                    "residual": measured(res.residual, exact=True),
                    "product": measured(prod.value, se=prod.se),
                },
            ))
    return rows


def run_regular_positions(bodies, alpha=0.75, samples=20000, seed=0, writer=None):
    """find_regular_position per body; returns summary rows."""
    rows = []
    for name, K, sample in _shared_samples(bodies, seed, samples):
        fp = find_regular_position(K, alpha, sample=sample)
        cert = ell_position_certificate(fp, K)
        l, ls, bound = balanced_interpolant_functionals(fp)
        rows.append({
            "body": name, "n": K.dim, "alpha": alpha, "theta": fp.theta,
            "residual": fp.residual, "iterations": fp.iterations,
            "converged": fp.converged, "balance": fp.balance, "certificate": cert,
            "ell_interp": l.value, "ell_star_interp": ls.value,
            "rad_bound_sqrt_2nphi": bound,
        })
        if writer is not None:
            writer.write(ExperimentRecord(
                experiment="regular_position", seed=seed, body=K.spec(),
                params={"alpha": float(alpha), "samples": samples},
                measured={
                    "residual": measured(fp.residual, exact=True),
                    "balance": measured(fp.balance, exact=True),
                    "certificate": measured(cert, exact=True),
                    "ell_interp": measured(l.value, se=l.se),
                    "ell_star_interp": measured(ls.value, se=ls.se),
                    # reference bound recorded for comparison, never asserted
                    "rad_bound_sqrt_2nphi": measured(bound, exact=True),
                },
            ))
        del fp   # so a sample is freed before the next dimension's is drawn
    return rows


def run_section_tables(bodies, k_grid=None, samples=400, c=0.5, seed=0, writer=None):
    """Random Gelfand tables cr_k with CIs per body, and c_k_upper: the least
    section radius sampled, a lower bound on the minimum over the sampled F
    of R(K cap F).  Every survey of the tables runs in one batch."""
    _need_samples(samples)
    plans = []
    for name, K in bodies:
        for k in default_k_grid(K.dim) if k_grid is None else k_grid:
            rng = _rng(seed, K.dim, k, 5)
            plans.append((name, K, int(k), rng, _radius_survey(K, int(k), samples, rng)))
    rows = []
    for (name, K, k, rng, _), values in zip(plans, _radii([plan for *_, plan in plans])):
        g = random_gelfand(K, k, samples, c, rng=rng, values=values)
        rows.append({
            "body": name, "n": K.dim, "k": k, "cr_k": g.value,
            "ci_lo": g.ci[0], "ci_hi": g.ci[1], "level": g.level,
            "clamped": g.clamped, "c_k_upper": g.upper,
        })
        if writer is not None:
            writer.write(ExperimentRecord(
                experiment="sections", seed=seed, body=K.spec(),
                params={"k": k, "c": c, "samples": samples},
                measured={
                    # a quantile of lower-bound radii, with its bootstrap CI
                    "cr_k": measured(g.value, ci=g.ci, lower_bound=True),
                    "c_k_upper": measured(g.upper, lower_bound=True),
                },
            ))
    return rows
