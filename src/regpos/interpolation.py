"""Norm interpolation for tractable families and the scalar maps
theta(alpha) = 1 - 1/(2 alpha) and Phi(theta) = 1/tan(pi theta / 4).

For weighted l_p balls (diagonal ellipsoids are the p = 2 case) the
interpolated norm is again a weighted l_p norm: exponents combine
harmonically, 1/p = (1-theta)/p0 + theta/p1, and the per-coordinate scales
combine geometrically, s = s0^(1-theta) * s1^theta.  For any other pair the
geometric-mean surrogate gauge ||x||_0^(1-theta) ||x||_1^theta is provided
as an inner bound: it dominates the interpolated norm pointwise, so the
surrogate body is contained in the true interpolant, but it is not
certified convex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bodies as bd

__all__ = [
    "theta_of_alpha",
    "phi",
    "InterpolationPair",
    "interpolate",
    "surrogate",
    "SurrogateBody",
    "property_suite",
    "PropertyReport",
]


def theta_of_alpha(alpha: float) -> float:
    """theta = 1 - 1/(2 alpha) for alpha > 1/2."""
    alpha = float(alpha)
    if not alpha > 0.5:
        raise ValueError("alpha must exceed 1/2")
    return 1.0 - 1.0 / (2.0 * alpha)


def phi(theta: float) -> float:
    """Phi(theta) = 1/tan(pi theta / 4) on (0, 1]; decreasing in theta."""
    theta = float(theta)
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    return 1.0 / np.tan(np.pi * theta / 4.0)


@dataclass(frozen=True)
class InterpolationPair:
    K0: bd.ConvexBody
    K1: bd.ConvexBody
    theta: float

    def __post_init__(self):
        if self.K0.dim != self.K1.dim:
            raise ValueError("interpolation endpoints must share a dimension")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")

    @property
    def tractable(self) -> bool:
        return self.K0.as_weighted_lp() is not None and self.K1.as_weighted_lp() is not None


def _inv_p(p: float) -> float:
    return 0.0 if np.isinf(p) else 1.0 / p


def interpolate(pair: InterpolationPair) -> bd.ConvexBody:
    """Closed-form interpolant of a tractable pair."""
    if not pair.tractable:
        raise ValueError("non-tractable pair: no closed-form interpolant; use surrogate()")
    th = pair.theta
    p0, s0 = pair.K0.as_weighted_lp()
    p1, s1 = pair.K1.as_weighted_lp()
    ip = (1.0 - th) * _inv_p(p0) + th * _inv_p(p1)
    p = np.inf if ip == 0.0 else 1.0 / ip
    scales = s0 ** (1.0 - th) * s1**th
    return bd.WeightedLp(p, scales)


class SurrogateBody(bd.ConvexBody):
    """Geometric-mean gauge ||x||_0^(1-theta) ||x||_1^theta.

    An inner bound for the interpolant; not certified convex, and with no
    certified dual, so support/polar are unavailable.
    """

    family = "surrogate"
    convex_certified = False

    def __init__(self, K0, K1, theta):
        if K0.dim != K1.dim:
            raise ValueError("surrogate endpoints must share a dimension")
        super().__init__(K0.dim)
        self.K0, self.K1, self.theta = K0, K1, float(theta)
        self.exact = K0.exact and K1.exact
        self.unconditional = K0.unconditional and K1.unconditional

    def _gauge(self, X):
        th = self.theta
        return self.K0._gauge(X) ** (1.0 - th) * self.K1._gauge(X) ** th

    def _gauge_subgrad(self, X):
        th = self.theta
        g0, y0 = self.K0._gauge_subgrad(X)
        g1, y1 = self.K1._gauge_subgrad(X)
        g = g0 ** (1.0 - th) * g1**th
        safe0 = np.maximum(g0, 1e-300)[:, None]
        safe1 = np.maximum(g1, 1e-300)[:, None]
        Y = g[:, None] * ((1.0 - th) * y0 / safe0 + th * y1 / safe1)
        Y[g == 0] = 0.0
        return g, Y

    def _support(self, Y):
        raise NotImplementedError("surrogate body has no certified dual")

    def _make_polar(self):
        raise NotImplementedError("surrogate body has no certified dual")

    def spec(self):
        return {
            "family": "surrogate",
            "theta": self.theta,
            "base0": self.K0.spec(),
            "base1": self.K1.spec(),
        }


def surrogate(pair: InterpolationPair) -> SurrogateBody:
    return SurrogateBody(pair.K0, pair.K1, pair.theta)


@dataclass
class PropertyReport:
    """Per-identity residuals for one interpolation pair."""

    residuals: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r <= 1e-9 for r in self.residuals.values())

    def worst(self):
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]


def property_suite(pair: InterpolationPair, rng=None, ndirs: int = 1000) -> PropertyReport:
    """Check duality, linearity (diagonal maps), two-sided scaling and the
    log-convexity inequality of the interpolated gauge on sampled points."""
    if rng is None:
        rng = np.random.default_rng(0)
    n = pair.K0.dim
    th = pair.theta
    X = rng.standard_normal((ndirs, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Kth = interpolate(pair)
    rep = PropertyReport()

    def rel_resid(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)))

    # endpoints
    rep.residuals["endpoint_0"] = rel_resid(
        interpolate(InterpolationPair(pair.K0, pair.K1, 0.0)).gauge(X), pair.K0.gauge(X)
    )
    rep.residuals["endpoint_1"] = rel_resid(
        interpolate(InterpolationPair(pair.K0, pair.K1, 1.0)).gauge(X), pair.K1.gauge(X)
    )
    # polar identity
    lhs = Kth.polar().gauge(X)
    rhs = interpolate(InterpolationPair(pair.K0.polar(), pair.K1.polar(), th)).gauge(X)
    rep.residuals["inter_polar"] = rel_resid(lhs, rhs)
    # diagonal linear maps
    T = np.diag(np.exp(rng.uniform(-0.7, 0.7, size=n)))
    lhs = bd.linear_image(T, Kth).gauge(X)
    rhs = interpolate(
        InterpolationPair(bd.linear_image(T, pair.K0), bd.linear_image(T, pair.K1), th)
    ).gauge(X)
    rep.residuals["inter_lin"] = rel_resid(lhs, rhs)
    # two-sided scaling: [aK0, bK1]_th = a^(1-th) b^th [K0, K1]_th, so the
    # gauge divides by that factor
    a, b = 3.0, 1.0
    lhs = interpolate(InterpolationPair(pair.K0.scale(a), pair.K1.scale(b), th)).gauge(X)
    rhs = Kth.gauge(X) / (a ** (1 - th) * b**th)
    rep.residuals["inter_ab"] = rel_resid(lhs, rhs)
    # interpolation inequality (one-sided; slack only against roundoff)
    gm = pair.K0.gauge(X) ** (1 - th) * pair.K1.gauge(X) ** th
    rep.residuals["inter_inq"] = float(np.max((Kth.gauge(X) - gm) / np.maximum(gm, 1e-12)))
    return rep
