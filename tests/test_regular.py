"""Fixed-point position tests and random Gelfand estimators."""

from dataclasses import replace

import numpy as np
import pytest

from regpos import bodies as bd
from regpos import positions, regular
from regpos.gaussian import GaussianSample
from regpos.positions import PositionMap
from regpos.regular import (
    balanced_interpolant_functionals,
    default_k_grid,
    ell_position_certificate,
    find_regular_position,
    fixed_point_map,
    random_gelfand,
    regularity_report,
    section_radius_sample,
)
from regpos.zoo import default_zoo, preset


def test_fixed_point_map_ball_near_identity():
    s = GaussianSample(1, 20000, 4)
    K = bd.WeightedLp(2.0, np.ones(4))
    F = fixed_point_map(K, PositionMap.identity(4), 0.5, s)
    # F(Id) is diag(sqrt(m_i)) normalized: identity up to the sampling band
    assert np.abs(np.log(np.diag(F.matrix))).max() <= 10.0 / np.sqrt(s.count)


def test_fixed_point_map_ellipsoid_closed_form():
    s = GaussianSample(2, 20000, 3)
    v = np.array([4.0, 1.0, 0.25])
    K = bd.Ellipsoid(np.diag(v))
    th = 0.4
    F = fixed_point_map(K, PositionMap.identity(3), th, s)
    m2 = (s.vectors() ** 2).mean(axis=0)
    # interpolant with the ball has weights v^(1-th); its SAA ell-position is
    # diag(sqrt(v^(1-th) m)) normalized
    pred = np.sqrt(v ** (1 - th) * m2)
    pred /= np.exp(np.log(pred).mean())
    assert np.abs(np.diag(F.matrix) - pred).max() <= 1e-7


def test_fixed_point_map_requires_diagonal_and_tractable():
    s = GaussianSample(3, 1000, 3)
    with pytest.raises(ValueError, match="diagonal"):
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        fixed_point_map(bd.ball(3), PositionMap(Q @ np.diag([2.0, 1.0, 0.5]) @ Q.T), 0.5, s)
    with pytest.raises(ValueError, match="tractable"):
        fixed_point_map(
            bd.PolytopeH(np.random.default_rng(1).standard_normal((6, 3))),
            PositionMap.identity(3), 0.5, s,
        )


_AFFINE_BODIES = [(name, K) for name, K in default_zoo(8)
                  if name in ("b1", "binf", "wlp1.5", "wlp3", "ell_cond100")]


@pytest.mark.parametrize("theta", [0.2, 1 / 3, 0.9])
@pytest.mark.parametrize("name,K", _AFFINE_BODIES, ids=[b[0] for b in _AFFINE_BODIES])
def test_fixed_point_map_affine_in_log_t(name, K, theta):
    # the closed form of find_regular_position rests on log F(t) = log F(I) + theta log t:
    # the interpolant's log-scales are (1-theta) log s + theta log t, and the
    # ell-position of a weighted l_p ball moves rigidly with its log-scales
    s = GaussianSample(41, 4000, 8)
    rng = np.random.default_rng(42)
    f_id = fixed_point_map(K, PositionMap.identity(8), theta, s).log_diag()
    for _ in range(3):
        log_t = rng.normal(scale=0.5, size=8)
        log_t -= log_t.mean()
        f = fixed_point_map(K, PositionMap.from_diag(np.exp(log_t)), theta, s).log_diag()
        shifted = f - theta * log_t
        assert np.abs(shifted - shifted.mean() - f_id).max() <= 1e-7


def test_find_regular_position_evaluates_the_map_twice(monkeypatch):
    # one evaluation at the identity gives the fixed point, one more checks it
    calls = []
    fpm = regular.fixed_point_map
    monkeypatch.setattr(regular, "fixed_point_map",
                        lambda *args, **kw: calls.append((args[1], kw)) or fpm(*args, **kw))
    fp = find_regular_position(preset("wlp1.5", 8), 0.75, seed=3, samples=4000)
    assert fp.iterations == len(calls) == 2
    assert [kw for _, kw in calls] == [{}, {}]
    assert np.array_equal(calls[0][0].matrix, np.eye(8))
    assert np.array_equal(calls[1][0].matrix, fp.T.matrix)


@pytest.mark.parametrize("alpha", [10.0, 50.0, 100.0])
def test_find_regular_position_large_alpha(alpha):
    # theta = 1 - 1/(2 alpha) near 1 scales log F(I) up by 1/(1-theta) = 2 alpha;
    # the fixed point must still check to solver accuracy
    for K in (bd.cube(16), preset("wlp3", 32)):
        fp = find_regular_position(K, alpha, seed=11, samples=20000)
        assert fp.converged and fp.residual <= 1e-6


def test_find_regular_position_ellipsoid_closed_form():
    v = np.array([4.0, 1.0])
    fp = find_regular_position(bd.Ellipsoid(np.diag(v)), 1.0, seed=5, samples=20000, tol=1e-6)
    assert fp.converged and fp.iterations <= 200
    m2 = (GaussianSample(5, 20000, 2).vectors() ** 2).mean(axis=0)
    pred = np.sqrt(v) * m2 ** (1.0 / (2 * (1 - fp.theta)))
    pred /= np.exp(np.log(pred).mean())
    assert np.abs(fp.T.log_diag() - np.log(pred)).max() <= 1e-4
    # exact-expectation limit is diag(v^(1/2))/geomean: the position rounds K
    Kbar_unscaled = fp.T.apply(bd.Ellipsoid(np.diag(v)))
    assert Kbar_unscaled.radii.R / Kbar_unscaled.radii.r <= 1.05


def test_position_body_keeps_the_family_of_k():
    # the position body is a T(K) built by linear_image: an ellipsoid stays an
    # ellipsoid, and a weighted l_1 ball gets the scales s / t / a bit for bit
    E = preset("ell_cond4", 6)
    fp = find_regular_position(E, 0.75, seed=4, samples=2000)
    assert isinstance(fp.body, bd.Ellipsoid)
    X = np.random.default_rng(4).standard_normal((50, 6))
    expect = E.gauge(X / (fp.balance * np.diag(fp.T.matrix)))
    assert fp.body.gauge(X) == pytest.approx(expect, rel=1e-12)
    K = bd.cross_polytope(6)
    fp = find_regular_position(K, 0.75, seed=4, samples=2000)
    assert type(fp.body) is bd.WeightedLp and fp.body.p == 1.0
    assert np.array_equal(fp.body.scales, K.scales / np.diag(fp.T.matrix) / fp.balance)


def test_qs_on_an_ellipsoid_takes_the_eigen_route(monkeypatch):
    # every qs radius of an ellipsoid position body is an exact eigenvalue:
    # no ascent runs, and the distances are those of _ellipsoid_ratio
    from regpos import _ascent
    from regpos import subspaces as sp
    from regpos.experiments import _rng, run_qs_experiment

    def no_ascent(*args, **kwargs):
        raise AssertionError("the ascent ran on an ellipsoid")

    monkeypatch.setattr(_ascent, "_ascend_part", no_ascent)
    K, k, trials, seed = preset("ell_cond4", 16), 4, 30, 3
    s = run_qs_experiment(K, 0.75, k, trials=trials, seed=seed, fp_samples=2000, report_samples=100)
    Kbar = find_regular_position(K, 0.75, seed=seed, samples=2000).body
    F, E, E2 = sp.haar_flag_batch(_rng(seed, 3), 16, k, trials)
    Pts = np.swapaxes(E, 1, 2)

    def R(B, Zs, Ps=None):
        return _ascent._ellipsoid_ratio(B, Zs, Ps, "max")

    Kpol = Kbar.polar()
    d_sop = np.maximum(R(Kbar, E2, Pts) * R(Kpol, F, Pts), 1.0)
    d_pos = np.maximum(R(Kbar, F, Pts) * R(Kpol, E2, Pts), 1.0)
    got = np.array([[o.d_section_of_projection, o.d_projection_of_section] for o in s.outcomes])
    np.testing.assert_allclose(got, np.stack([d_sop, d_pos], axis=1), rtol=1e-12, atol=0.0)
    assert [o.section_radius for o in s.outcomes] == pytest.approx(R(Kbar, F), rel=1e-12)


def test_find_regular_position_alpha_near_half():
    # alpha = 0.501 makes the interpolant an l_p body with p near 1000, where
    # unnormalized powers |g|^p overflow and the solve would stop at the identity
    s = np.array([1.0, 1.5, 2.0, 3.0])
    fp = find_regular_position(bd.WeightedLp(np.inf, s), 0.501, seed=3, samples=4000, tol=1e-6)
    assert fp.converged and fp.iterations > 1
    # symmetric optimum diag(s), normalized, up to the sampling band
    assert np.abs(fp.T.log_diag() - (np.log(s) - np.log(s).mean())).max() <= 0.05


def test_power_table_built_once_per_sample_and_p(monkeypatch):
    # every solve of the fixed point and of its certificate shares one p
    builds = []
    build = positions._block_powers
    monkeypatch.setattr(positions, "_block_powers", lambda G, p: builds.append(p) or build(G, p))
    K = bd.cross_polytope(6)
    sample = GaussianSample(9, 20000, 6)   # two blocks
    fp = find_regular_position(K, 0.75, sample=sample)
    ell_position_certificate(fp, K, sample)
    assert fp.iterations > 1
    assert len(builds) == sample.n_blocks() == 2 and len(set(builds)) == 1
    assert not any(A.flags.writeable for A, _ in positions._power_table(sample, builds[0]))
    assert len(builds) == 2


def test_power_table_switch_releases_the_old_table():
    # a new p drops the old table before building its own: the peak stays
    # near one table, where holding the old one through the build gives two
    import tracemalloc

    sample = GaussianSample(9, 20000, 6)
    sample.vectors()
    size = sample.count * sample.dim * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        positions._power_table(sample, 1.5)
        tracemalloc.reset_peak()
        positions._power_table(sample, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 1.5 * size


def test_regular_positions_share_one_sample_per_dimension(monkeypatch):
    from regpos.experiments import run_regular_positions

    bodies = [("b1", bd.cross_polytope(6)), ("wlp3", preset("wlp3", 6)), ("binf", bd.cube(5))]
    alpha, seed, samples = 0.75, 14, 3000
    expect = []
    for _, K in bodies:
        fp = find_regular_position(K, alpha, seed=seed, samples=samples)
        cert = ell_position_certificate(fp, K, GaussianSample(seed, samples, K.dim))
        expect.append([fp.residual, fp.balance, cert, fp.ell_interp.value, fp.ell_star_interp.value])
    drawn = []
    post_init = GaussianSample.__post_init__
    monkeypatch.setattr(GaussianSample, "__post_init__", lambda self: drawn.append(self.dim) or post_init(self))
    rows = run_regular_positions(bodies, alpha=alpha, samples=samples, seed=seed)
    assert drawn == [6, 5]
    got = [[r["residual"], r["balance"], r["certificate"], r["ell_interp"], r["ell_star_interp"]] for r in rows]
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0)


def test_fixed_point_keeps_no_sample(monkeypatch):
    # the sample find_regular_position draws, and the power table cached on
    # it, are unreachable once the call returns
    import gc
    import weakref

    refs = []

    def drawn(*args):
        sample = GaussianSample(*args)
        refs.append(weakref.ref(sample))
        return sample

    monkeypatch.setattr(regular, "GaussianSample", drawn)
    fp = find_regular_position(bd.cross_polytope(6), 0.75, seed=9, samples=4000)
    gc.collect()
    assert fp.converged and len(refs) == 1 and refs[0]() is None


def test_find_regular_position_b1_symmetry_forces_identity():
    K = bd.cross_polytope(8)
    fp = find_regular_position(K, 0.75, seed=6, samples=20000)
    assert fp.converged
    # the hyperoctahedral commutant is scalar: T stays at the identity up to
    # the SAA moment band
    assert np.abs(fp.T.log_diag()).max() <= 0.1
    assert fp.residual <= 1e-5
    cert = ell_position_certificate(fp, K, GaussianSample(6, 20000, 8))
    assert cert <= 5 * max(fp.residual, 1e-5)


def test_certificate_reads_a_perturbed_position():
    # at the closed-form position the certificate's re-solve starts at its
    # optimum and reads 0; moving T by a centred log-diagonal delta moves the
    # interpolant's log-scales by (1-theta) delta, and the certificate with them
    K = preset("wlp1.5", 16)
    fp = find_regular_position(K, 0.75, seed=12, samples=20000)
    delta = np.random.default_rng(13).normal(size=16)
    delta -= delta.mean()
    delta *= 1e-3 / np.abs(delta).max()
    moved = replace(fp, T=PositionMap.from_diag(np.exp(fp.T.log_diag() + delta)))
    cert = ell_position_certificate(moved, K, GaussianSample(12, 20000, 16))
    assert cert == pytest.approx((1 - fp.theta) * 1e-3, rel=1e-4)


def test_find_regular_position_det_one_and_trace():
    fp = find_regular_position(
        bd.WeightedLp.from_weights(1.5, np.linspace(1, 2, 6)), 0.8, seed=7, samples=10000
    )
    assert abs(np.linalg.det(fp.T.matrix) - 1.0) <= 1e-10
    assert fp.body.as_weighted_lp() is not None


def test_balanced_interpolant_equalized_and_bound_recorded():
    K = bd.WeightedLp.from_weights(1.0, np.linspace(1, 2, 8))
    fp = find_regular_position(K, 0.75, seed=21, samples=20000)
    l, ls, bound = balanced_interpolant_functionals(fp)
    # the balance scale equalizes ell and ell* of [Kbar, B_2]_theta (3 SE band)
    assert abs(l.value - ls.value) <= 3 * (l.se + ls.se)
    # the reference bound is recorded, not asserted: at theta = 1/3 the
    # projection constant is 1/tan(pi/12) = 2 + sqrt(3)
    assert bound == pytest.approx(np.sqrt(2 * 8 * (2 + np.sqrt(3))), rel=1e-12)
    assert max(l.value, ls.value) / bound < 10  # comparison only, no assertion on <= 1


def test_balanced_interpolant_functionals_match_fresh_estimates():
    # the balance pass's rescaled estimates are those of [Kbar, B_2]_theta itself
    from regpos.gaussian import ell, ell_star
    from regpos.interpolation import interpolate

    for K, alpha in ((bd.WeightedLp.from_weights(1.0, np.linspace(1, 2, 6)), 0.75),
                     (bd.WeightedLp.from_weights(3.0, np.linspace(1, 3, 6)), 1.5)):
        fp = find_regular_position(K, alpha, seed=22, samples=4000)
        l, ls, _ = balanced_interpolant_functionals(fp)
        Kth = interpolate(fp.body, bd.WeightedLp(2.0, np.ones(6)), fp.theta)
        sample = GaussianSample(22, 4000, 6)
        for got, fresh in ((l, ell(Kth, 1, sample)), (ls, ell_star(Kth, 1, sample))):
            assert got.value == pytest.approx(fresh.value, rel=1e-12)
            assert got.se == pytest.approx(fresh.se, rel=1e-12)


def test_divergence_reported_not_hidden():
    # p = 1.5: at p = 2 the closed-form ell-position makes the fixed point exact to rounding
    fp = find_regular_position(
        bd.WeightedLp.from_weights(1.5, [16.0, 1.0]), 1.0, seed=8, samples=2000, tol=1e-12
    )
    assert not fp.converged
    assert fp.residual > 1e-12


# ----------------------------------------------------------------------
# random Gelfand numbers
# ----------------------------------------------------------------------


def test_cr_ball_is_one_for_all_k():
    rng = np.random.default_rng(1)
    for k in (1, 2, 4, 8):
        g = random_gelfand(bd.ball(8), k, 150, rng=rng)
        assert g.value == pytest.approx(1.0, abs=1e-9)
        assert g.k == k and g.samples == 150


def test_cr_k1_is_out_radius():
    K = bd.Ellipsoid(np.diag([1.0 / 9.0, 1.0, 1.0]))
    g = random_gelfand(K, 1, 100, rng=np.random.default_rng(2))
    assert g.value == pytest.approx(3.0, abs=1e-12)


def test_quantile_level_clamping_recorded():
    rng = np.random.default_rng(3)
    g = random_gelfand(bd.ball(16), 8, 100, c=0.5, rng=rng)
    assert g.clamped and g.level == pytest.approx(0.1)
    g2 = random_gelfand(bd.ball(16), 2, 1000, c=0.5, rng=rng)
    assert not g2.clamped and g2.level == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError):
        random_gelfand(bd.ball(8), 2, 50, rng=rng)


def test_doubled_sample_count_agrees_within_joint_ci():
    K = bd.cross_polytope(16)
    g1 = random_gelfand(K, 4, 400, rng=np.random.default_rng(4))
    g2 = random_gelfand(K, 4, 800, rng=np.random.default_rng(5))
    assert max(g1.ci[0], g2.ci[0]) <= min(g1.ci[1], g2.ci[1])


def test_gelfand_upper_bound_example():
    # codim-1 sections of diag(1/4,1,1): the best avoids the long axis
    K = bd.Ellipsoid(np.diag([0.25, 1.0, 1.0]))
    rng = np.random.default_rng(6)
    vals = section_radius_sample(K, 2, 1500, rng)
    ub = random_gelfand(K, 2, 1500, rng=rng, values=vals).upper
    assert 1.0 - 1e-9 <= ub <= 1.05
    # min over a chain is nonincreasing when the sample budget grows
    assert random_gelfand(K, 2, 500, rng=rng, values=vals[:500]).upper >= ub


@pytest.mark.parametrize("k, value, ci", [
    (1, 0.7178271175020501, (0.6330812292745551, 0.8232854131835197)),
    (3, 1.874598052179291, (1.6468137780738044, 2.3031655734952405)),
])
def test_random_gelfand_bootstrap_ci_is_seeded(k, value, ci):
    # 200 resamples of order statistic j drawn from the caller's rng, pinned
    vals = np.random.default_rng(21).lognormal(size=300)
    g = random_gelfand(bd.cross_polytope(8), k, 300, rng=np.random.default_rng(22), values=vals)
    assert (g.value, g.ci) == (value, ci)


def test_random_gelfand_values_must_match_samples():
    K = bd.cross_polytope(8)
    ramp = np.linspace(0.3, 0.9, 400)
    for values in (ramp, ramp[:150], ramp[:200, None]):
        with pytest.raises(ValueError, match="shape"):
            random_gelfand(K, 2, 200, rng=np.random.default_rng(7), values=values)
    assert random_gelfand(K, 2, 200, rng=np.random.default_rng(7), values=ramp[:200]).samples == 200


def test_section_radius_values_bounded_by_radii():
    K = bd.WeightedLp.from_weights(1.0, np.linspace(1, 2, 8))
    vals = section_radius_sample(K, 3, 120, np.random.default_rng(7))
    r, R, _ = K.radii
    assert np.all(vals >= r - 1e-9)
    assert np.all(vals <= R + 1e-9)


def test_regularity_report_ball():
    rep = regularity_report(bd.ball(16), 0.75, samples=120, seed=1)
    assert rep.k_grid == [1, 2, 4, 8]
    assert np.allclose([g.value for g in rep.cr["body"]], 1.0)
    assert np.allclose([g.value for g in rep.cr["polar"]], 1.0)
    # P_emp = max_k (k/n)^alpha <= 1
    assert rep.P_emp == pytest.approx((8 / 16) ** 0.75, rel=1e-9)
    assert rep.P_emp <= 1.0


def test_regularity_report_monotone_on_ellipsoid():
    E = bd.Ellipsoid(np.diag(np.geomspace(1.0 / 16, 1.0, 16)))
    rep = regularity_report(E, 0.75, samples=400, seed=2)
    crs = np.array([g.value for g in rep.cr["body"]])
    assert np.all(np.diff(crs) <= 1e-9)
    assert np.all(crs >= E.radii.r - 1e-12)


def test_regularity_report_fields():
    K = bd.cross_polytope(8)
    rep = regularity_report(K, 0.75, samples=150, seed=3)
    assert set(rep.cr) == {"body", "polar"}
    upper = [g.upper for g in rep.cr["body"]]
    assert len(upper) == len(rep.k_grid)
    assert all(u <= c.value + 1e-12 for u, c in zip(upper, rep.cr["body"]))
    assert isinstance(rep.slopes["polar"], float)
    assert default_k_grid(8) == [1, 2, 4]
