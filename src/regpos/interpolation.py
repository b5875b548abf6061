"""Norm interpolation for tractable families and the scalar maps
theta(alpha) = 1 - 1/(2 alpha) and Phi(theta) = 1/tan(pi theta / 4).

For weighted l_p balls (diagonal ellipsoids are the p = 2 case) the
interpolated norm is again a weighted l_p norm: exponents combine
harmonically, 1/p = (1-theta)/p0 + theta/p1, and the per-coordinate scales
combine geometrically, s = s0^(1-theta) * s1^theta.  These are the only
pairs with a closed-form interpolant here; any other pair is an error.
"""

from __future__ import annotations

import numpy as np

from . import bodies as bd

__all__ = [
    "theta_of_alpha",
    "phi",
    "interpolate",
    "property_suite",
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


def _inv_p(p: float) -> float:
    return 0.0 if np.isinf(p) else 1.0 / p


def interpolate(K0: bd.ConvexBody, K1: bd.ConvexBody, theta: float) -> bd.ConvexBody:
    """Closed-form interpolant [K0, K1]_theta of two weighted l_p balls or
    diagonal ellipsoids in the same dimension, theta in [0, 1]."""
    if K0.dim != K1.dim:
        raise ValueError("interpolation endpoints must share a dimension")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    form0, form1 = K0.as_weighted_lp(), K1.as_weighted_lp()
    for K, form in ((K0, form0), (K1, form1)):
        if form is None:
            raise ValueError(f"non-tractable family {K.family!r}: only weighted l_p balls and "
                             "diagonal ellipsoids have a closed-form interpolant")
    p0, s0 = form0
    p1, s1 = form1
    ip = (1.0 - theta) * _inv_p(p0) + theta * _inv_p(p1)
    p = np.inf if ip == 0.0 else 1.0 / ip
    return bd.WeightedLp(p, s0 ** (1.0 - theta) * s1**theta)


def property_suite(K0, K1, theta: float, rng=None, ndirs: int = 1000) -> dict:
    """Relative residuals of the endpoint, duality, linearity (diagonal maps)
    and two-sided scaling identities of [K0, K1]_theta, and the slack of its
    log-convexity inequality, on sampled points: {identity: residual}."""
    if rng is None:
        rng = np.random.default_rng(0)
    n = K0.dim
    th = theta
    X = rng.standard_normal((ndirs, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Kth = interpolate(K0, K1, th)

    def rel_resid(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)))

    res = {
        "endpoint_0": rel_resid(interpolate(K0, K1, 0.0).gauge(X), K0.gauge(X)),
        "endpoint_1": rel_resid(interpolate(K0, K1, 1.0).gauge(X), K1.gauge(X)),
        "inter_polar": rel_resid(Kth.polar().gauge(X), interpolate(K0.polar(), K1.polar(), th).gauge(X)),
    }
    # diagonal linear maps
    T = np.diag(np.exp(rng.uniform(-0.7, 0.7, size=n)))
    res["inter_lin"] = rel_resid(bd.linear_image(T, Kth).gauge(X),
                                 interpolate(bd.linear_image(T, K0), bd.linear_image(T, K1), th).gauge(X))
    # two-sided scaling: [aK0, bK1]_th = a^(1-th) b^th [K0, K1]_th, so the
    # gauge divides by that factor
    a, b = 3.0, 1.0
    res["inter_ab"] = rel_resid(interpolate(K0.scale(a), K1.scale(b), th).gauge(X),
                                Kth.gauge(X) / (a ** (1 - th) * b**th))
    # interpolation inequality (one-sided; slack only against roundoff)
    gm = K0.gauge(X) ** (1 - th) * K1.gauge(X) ** th
    res["inter_inq"] = float(np.max((Kth.gauge(X) - gm) / np.maximum(gm, 1e-12)))
    return res
