"""The alpha-regular typical position in closed form, plus random Gelfand
number estimators and regularity reports.

The map F sends a diagonal determinant-one T to the diagonal map putting
[K, T^{-1} B_2]_theta into SAA ell-position; a fixed point T = F(T) makes
[T(K), B_2]_theta itself ell-positioned.  For a weighted l_p ball or a
diagonal ellipsoid K, F is affine in log t with slope theta: the
interpolant's log-scales are (1-theta) log s + theta log t, and the diagonal
ell-position of a weighted l_p ball moves rigidly with its log-scales.  So
the fixed point is log t = log F(I) / (1-theta), and one more evaluation of
F there gives the reported residual ||log T - log F(T)||_inf; a residual
above tolerance is reported, never hidden.  For p = 2 (diagonal ellipsoids
and weighted l_2 balls) each evaluation of F is the exact closed-form
ell-position, so the residual and the certificate are algebraic checks of
an exact optimum, at rounding level; for other p they measure the L-BFGS
solves as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bodies as bd
from ._ascent import Haar, Survey, run_surveys, survey
from .gaussian import EllEstimate, GaussianSample, _bootstrap_ci
from .interpolation import interpolate, phi, theta_of_alpha
from .positions import PositionMap, balance_scale, solve_ell_position

__all__ = [
    "FixedPointResult",
    "GelfandEstimate",
    "RegularityReport",
    "fixed_point_map",
    "find_regular_position",
    "balanced_interpolant_functionals",
    "ell_position_certificate",
    "section_radius_sample",
    "random_gelfand",
    "regularity_report",
]


def _require_tractable_unconditional(K):
    if K.as_weighted_lp() is None:
        raise ValueError("body must be a tractable unconditional family (weighted l_p / diagonal ellipsoid)")


def fixed_point_map(K, T: PositionMap, theta: float, sample: GaussianSample) -> PositionMap:
    """F(T): the diagonal det-1 map putting [K, T^{-1} B_2]_theta in SAA ell-position."""
    _require_tractable_unconditional(K)
    if not T.diagonal:
        raise ValueError("T must be diagonal")
    # T^{-1} B_2 is the diagonal ellipsoid ||t * x||_2 <= 1, i.e. scales t
    Kth = interpolate(K, bd.WeightedLp(2.0, np.diag(T.matrix)), theta)
    return solve_ell_position(Kth, sample, mode="diagonal", tol=1e-8).T


@dataclass
class FixedPointResult:
    T: PositionMap
    alpha: float
    theta: float
    residual: float
    iterations: int
    converged: bool
    balance: float
    body: bd.ConvexBody          # the position body a * T(K)
    ell_interp: EllEstimate      # ell and ell* of the balanced interpolant [body, B_2]_theta
    ell_star_interp: EllEstimate


def find_regular_position(
    K: bd.ConvexBody,
    alpha: float,
    *,
    sample: GaussianSample | None = None,
    seed: int = 0,
    samples: int = 20000,
    tol: float = 1e-5,
) -> FixedPointResult:
    """The fixed point T = F(I)^(1/(1-theta)) on diagonal maps, checked by one
    more evaluation of F: `residual` is ||log T - log F(T)||_inf, `converged`
    means residual <= tol, and `iterations` counts the two evaluations of F.

    On success [T(K), B_2]_theta is in SAA ell-position to solver tolerance,
    and the returned position body is a*T(K) with the balance scale a
    equalizing ell and ell* of the interpolant; the result carries both.
    The sample (GaussianSample(seed, samples, K.dim) when none is given) is
    not kept: ell_position_certificate takes it as an argument.
    """
    _require_tractable_unconditional(K)
    theta = theta_of_alpha(alpha)
    if sample is None:
        sample = GaussianSample(seed, samples, K.dim)
    F = fixed_point_map(K, PositionMap.identity(K.dim), theta, sample)
    T = PositionMap.from_diag(np.exp(F.log_diag() / (1.0 - theta)), normalize=True)
    residual = float(np.abs(T.log_diag() - fixed_point_map(K, T, theta, sample).log_diag()).max())

    TK = T.apply(K)
    a, l, ls = balance_scale(TK, theta, sample)
    return FixedPointResult(
        T=T, alpha=float(alpha), theta=theta, residual=residual,
        iterations=2, converged=residual <= tol, balance=a, body=TK.scale(a),
        ell_interp=l, ell_star_interp=ls,
    )


def balanced_interpolant_functionals(result: FixedPointResult):
    """(ell, ell*, sqrt(2 n Phi(theta))) for the balanced interpolant
    [Kbar, B_2]_theta, the first two as estimated by the balance pass.

    The two functionals must agree within Monte Carlo error (that is what the
    balance scale enforces); the third value is the reference bound both are
    compared against, recorded only, since the SAA position is approximate.
    """
    bound = float(np.sqrt(2.0 * result.body.dim * phi(result.theta)))
    return result.ell_interp, result.ell_star_interp, bound


def ell_position_certificate(result: FixedPointResult, K: bd.ConvexBody, sample: GaussianSample) -> float:
    """||log T'||_inf for T' the SAA ell-position map of [T(K), B_2]_theta on
    sample, the one the fixed point was found on.

    Near a fixed point this re-solve must return (close to) the identity.
    For p = 2 the re-solve is the exact closed form, so the certificate is an
    algebraic check at rounding level.
    """
    F = fixed_point_map(result.T.apply(K), PositionMap.identity(K.dim), result.theta, sample)
    return float(np.abs(np.log(np.diag(F.matrix))).max())


# ----------------------------------------------------------------------
# random Gelfand numbers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GelfandEstimate:
    value: float
    ci: tuple
    level: float
    clamped: bool
    k: int
    samples: int
    c: float
    upper: float     # least sampled radius: a lower bound on min over the sampled F of R(K cap F)


def _radius_survey(K, k: int, samples: int, rng, haar=None):
    """section_radius_sample planned on rng: every radius is R when k = 1 (an
    array), else a section survey of the Haar bases of the seed `haar` (None:
    one drawn from rng), with its probe seed drawn from rng after it."""
    n = K.dim
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    m = n - k + 1
    if m == n:
        return np.full(samples, K.radii.R)
    haar = int(rng.integers(2**63)) if haar is None else haar
    return survey(K, Haar(haar, n, m, samples), rng=rng)


def _rng(seed, *key):
    """The generator of a plan keyed by integers: default_rng(SeedSequence([seed, *key]))."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _radii(plans):
    """The radii of each plan of _radius_survey, every survey in one batch."""
    radii = iter(run_surveys([p for p in plans if isinstance(p, Survey)]))
    return [p if isinstance(p, np.ndarray) else next(radii) for p in plans]


def section_radius_sample(K, k: int, samples: int, rng):
    """R(K cap F) over Haar F in G_{n, n-k+1} at the SURVEY effort: an (samples,) array."""
    return _radii([_radius_survey(K, k, samples, rng)])[0]


def _need_samples(samples):
    if samples < 100:
        raise ValueError("need at least 100 subspace samples")


def random_gelfand(K, k: int, samples: int, c: float = 0.5, *, rng, values=None) -> GelfandEstimate:
    """Empirical quantile of R(K cap F) at level max(exp(-c k), 10/samples),
    with a 200-resample bootstrap CI; clamping is recorded.  The radii are
    `values` if given, else section_radius_sample draws them from rng."""
    _need_samples(samples)
    if values is None:
        values = section_radius_sample(K, k, samples, rng)
    elif np.shape(values) != (samples,):
        raise ValueError(f"values must have shape ({samples},), not {np.shape(values)}")
    q_nominal = float(np.exp(-c * k))
    q = max(q_nominal, 10 / samples)
    # order statistic j is the smallest R with #(values > R) <= q * samples
    j = max(samples - int(np.floor(q * samples)) - 1, 0)
    ci = _bootstrap_ci(values, lambda R: np.sort(R, axis=1)[:, j], rng)
    return GelfandEstimate(float(np.sort(values)[j]), ci, q, q > q_nominal, k, samples, c,
                           float(values.min()))


# ----------------------------------------------------------------------
# regularity report
# ----------------------------------------------------------------------


@dataclass
class RegularityReport:
    alpha: float
    c: float
    n: int
    k_grid: list
    cr: dict                 # {"body": [GelfandEstimate...], "polar": [...]}
    slopes: dict             # least-squares exponent of log cr vs log(n/k)
    slope_se: dict           # its least-squares standard error (nan for two k)
    P_emp: float


def default_k_grid(n: int):
    """Powers of two in [1, n/2]."""
    ks = []
    k = 1
    while k <= n // 2:
        ks.append(k)
        k *= 2
    return ks


def regularity_report(Kbar, alpha: float, k_grid=None, samples: int = 600,
                      c: float = 0.5, seed: int = 0) -> RegularityReport:
    """Per-k random Gelfand estimates for the position body and its polar,
    the fitted regularity exponent, and the measured constant
    P_emp = max_k k^alpha cr_k / n^alpha over both bodies; its surveys run
    in one batch."""
    plans, report = _report_plan(Kbar, alpha, k_grid, samples, c, seed)
    return report(_radii(plans))


def _report_plan(Kbar, alpha, k_grid, samples, c, seed):
    """regularity_report's plans of _radius_survey, on their generators, and
    the function that makes the report from their radii (see _radii), in order."""
    n = Kbar.dim
    if k_grid is None:
        k_grid = default_k_grid(n)
    _need_samples(samples)
    duo = {"body": Kbar, "polar": Kbar.polar()}
    plans = []
    for bi, (name, B) in enumerate(duo.items()):
        for k in k_grid:
            rng = _rng(seed, bi, k)
            plans.append((name, B, int(k), rng, _radius_survey(B, int(k), samples, rng)))

    def report(radii):
        cr = {name: [] for name in duo}
        for (name, B, k, rng, _), values in zip(plans, radii):
            cr[name].append(random_gelfand(B, k, samples, c, rng=rng, values=values))
        logs = np.log(np.asarray(k_grid, dtype=float) / n)
        slopes, slope_se = {}, {}
        for name in duo:
            y = np.log(np.array([g.value for g in cr[name]]))
            if len(y) > 2:
                coef, cov = np.polyfit(-logs, y, 1, cov=True)
                slope_se[name] = float(np.sqrt(cov[0, 0]))
            else:
                # a line through two points leaves no residual to estimate it from
                coef = np.polyfit(-logs, y, 1)
                slope_se[name] = float("nan")
            slopes[name] = float(coef[0])
        P_emp = max(
            (k / n) ** alpha * g.value
            for name in duo
            for k, g in zip(k_grid, cr[name])
        )
        return RegularityReport(
            alpha=float(alpha), c=float(c), n=n, k_grid=list(map(int, k_grid)),
            cr=cr, slopes=slopes, slope_se=slope_se, P_emp=float(P_emp),
        )

    return [plan for *_, plan in plans], report
