"""The alpha-regular typical position by damped fixed-point iteration, plus
random Gelfand number estimators and regularity reports.

The map F sends a diagonal determinant-one T to the diagonal map putting
[K, T^{-1} B_2]_theta into SAA ell-position; a fixed point T = F(T) makes
[T(K), B_2]_theta itself ell-positioned.  Iterates are averaged in log
space, T_{m+1} = (T_m F(T_m))^{1/2}, which stays exactly on the diagonal
det-1 manifold; convergence is monitored by
||log T - log F(T)||_inf and divergent runs are reported, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bodies as bd
from .gaussian import EllEstimate, GaussianSample
from .interpolation import InterpolationPair, interpolate, phi, theta_of_alpha
from .positions import PositionMap, balance_scale, solve_ell_position
from .subspaces import haar_grassmannian_batch, section_out_radii

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
    form = K.as_weighted_lp()
    if form is None or not K.unconditional:
        raise ValueError("body must be a tractable unconditional family (weighted l_p / diagonal ellipsoid)")
    return form


def fixed_point_map(K, T: PositionMap, theta: float, sample: GaussianSample, *,
                    start: PositionMap | None = None) -> PositionMap:
    """F(T): the diagonal det-1 map putting [K, T^{-1} B_2]_theta in SAA ell-position.

    `start`, if given, must be an earlier return value of this function for the
    same K and theta: the solve warm-starts from its chart solution, shifted by
    the change of interpolant scales.
    """
    pK, sK = _require_tractable_unconditional(K)
    if not T.diagonal:
        raise ValueError("T must be diagonal")
    if start is not None and not hasattr(start, "_interpolant_log_scales"):
        raise ValueError("start must be an earlier return value of fixed_point_map")
    # T^{-1} B_2 is the diagonal ellipsoid ||t * x||_2 <= 1, i.e. scales t
    T_ball = bd.WeightedLp(2.0, np.diag(T.matrix))
    Kth = interpolate(InterpolationPair(bd.WeightedLp(pK, sK), T_ball, theta))
    log_s = np.log(Kth.scales)
    x0 = None if start is None else start._chart_solution - (log_s - start._interpolant_log_scales)
    F = solve_ell_position(Kth, sample, mode="diagonal", tol=1e-8, start=x0).T
    F._interpolant_log_scales = log_s
    return F


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
    sample: GaussianSample
    ell_interp: EllEstimate      # ell and ell* of the balanced interpolant [body, B_2]_theta
    ell_star_interp: EllEstimate
    trace: list = field(default_factory=list)


def find_regular_position(
    K: bd.ConvexBody,
    alpha: float,
    *,
    sample: GaussianSample | None = None,
    seed: int = 0,
    samples: int = 20000,
    tol: float = 1e-5,
    max_iter: int = 200,
) -> FixedPointResult:
    """Damped iteration T_{m+1} = (T_m F(T_m))^(1/2) on diagonal maps.

    On success [T(K), B_2]_theta is in SAA ell-position to solver tolerance,
    and the returned position body is a*T(K) with the balance scale a
    equalizing ell and ell* of the interpolant; the result carries both.
    """
    pK, sK = _require_tractable_unconditional(K)
    theta = theta_of_alpha(alpha)
    if sample is None:
        sample = GaussianSample(seed, samples, K.dim)
    log_t = np.zeros(K.dim)
    F = None
    trace = []
    residual = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        F = fixed_point_map(K, PositionMap.from_diag(np.exp(log_t)), theta, sample, start=F)
        f = np.log(np.diag(F.matrix))
        residual = float(np.abs(log_t - f).max())
        trace.append(residual)
        if residual <= tol:
            converged = True
            break
        log_t = 0.5 * log_t + 0.5 * f
        log_t -= log_t.mean()

    T = PositionMap.from_diag(np.exp(log_t), normalize=True)
    TK = bd.WeightedLp(pK, sK / np.diag(T.matrix))
    a, l, ls = balance_scale(TK, theta, sample)
    body = bd.WeightedLp(pK, TK.scales / a)
    return FixedPointResult(
        T=T, alpha=float(alpha), theta=theta, residual=residual,
        iterations=iterations, converged=converged, balance=a, body=body,
        sample=sample, ell_interp=l, ell_star_interp=ls, trace=trace,
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


def ell_position_certificate(result: FixedPointResult, K: bd.ConvexBody) -> float:
    """||log T'||_inf for T' the SAA ell-position map of [T(K), B_2]_theta.

    Near a fixed point this re-solve must return (close to) the identity.
    """
    pK, sK = _require_tractable_unconditional(K)
    TK = bd.WeightedLp(pK, sK / np.diag(result.T.matrix))
    F = fixed_point_map(TK, PositionMap.identity(K.dim), result.theta, result.sample)
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


def section_radius_sample(K, k: int, samples: int, rng):
    """R(K cap F) over Haar F in G_{n, n-k+1} at the SURVEY effort: an (samples,) array."""
    n = K.dim
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    m = n - k + 1
    if m == n:
        return np.full(samples, K.radii.R)
    return section_out_radii(K, haar_grassmannian_batch(rng, n, m, samples), rng)


def random_gelfand(K, k: int, samples: int, c: float = 0.5, *, rng, values=None) -> GelfandEstimate:
    """Empirical quantile of R(K cap F) at level max(exp(-c k), 10/samples),
    with a 200-resample bootstrap CI; clamping is recorded.  The radii are
    `values` if given, else section_radius_sample draws them from rng."""
    if samples < 100:
        raise ValueError("need at least 100 subspace samples")
    if values is None:
        values = section_radius_sample(K, k, samples, rng)
    elif np.shape(values) != (samples,):
        raise ValueError(f"values must have shape ({samples},), not {np.shape(values)}")
    q_nominal = float(np.exp(-c * k))
    q = max(q_nominal, 10 / samples)
    # order statistic j is the smallest R with #(values > R) <= q * samples
    j = max(samples - int(np.floor(q * samples)) - 1, 0)
    stats = np.sort(values[rng.integers(0, samples, size=(200, samples))], axis=1)[:, j]
    ci = (float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5)))
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
    P_emp: float

    def cr_values(self, which):
        return np.array([g.value for g in self.cr[which]])


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
    P_emp = max_k k^alpha cr_k / n^alpha over both bodies."""
    n = Kbar.dim
    if k_grid is None:
        k_grid = default_k_grid(n)
    duo = {"body": Kbar, "polar": Kbar.polar()}
    cr = {name: [] for name in duo}
    for bi, (name, B) in enumerate(duo.items()):
        for k in k_grid:
            rng = np.random.default_rng(np.random.SeedSequence([seed, bi, int(k)]))
            cr[name].append(random_gelfand(B, int(k), samples, c, rng=rng))
    logs = np.log(np.asarray(k_grid, dtype=float) / n)
    slopes = {}
    for name in duo:
        y = np.log(np.array([g.value for g in cr[name]]))
        slopes[name] = float(np.polyfit(-logs, y, 1)[0])
    P_emp = max(
        (k / n) ** alpha * g.value
        for name in duo
        for k, g in zip(k_grid, cr[name])
    )
    return RegularityReport(
        alpha=float(alpha), c=float(c), n=n, k_grid=list(map(int, k_grid)),
        cr=cr, slopes=slopes, P_emp=float(P_emp),
    )
