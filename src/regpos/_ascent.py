"""One batched multistart ascent for ratio extrema on spheres.

Every radius the experiments report reduces to one primitive: extremize
num(z) / gauge(z) over unit z in the column span of Z, for a stack of S
problems at once.  The numerator is |P z| (P = I when absent) or, for
relative out-radii, another body's gauge.  Every iterate is a feasible
evaluation, so reported maxima are certified lower bounds and reported
minima certified upper bounds.  Ellipsoids with a quadratic numerator take
an exact stacked eigenvalue route instead.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-300


def _unit(W):
    return W / np.maximum(np.linalg.norm(W, axis=-1, keepdims=True), 1e-30)


def _mT(A):
    return np.swapaxes(A, -1, -2)


def _is_body(P):
    return hasattr(P, "_ascent_subgrad")


def ascend(fun_grad, W0, iters=120, step0=0.25):
    """Maximize f over unit rows by projected gradient with per-row adaptive steps.

    fun_grad maps (..., d) unit rows to (f, grad) of shapes (...), (..., d).
    """
    W = _unit(np.asarray(W0, dtype=float))
    f, G = fun_grad(W)
    steps = np.full(f.shape, step0)
    for _ in range(iters):
        Gt = G - (G * W).sum(-1, keepdims=True) * W
        cand = _unit(W + steps[..., None] * Gt)
        fc, Gc = fun_grad(cand)
        better = fc > f
        bm = better[..., None]
        W = np.where(bm, cand, W)
        f = np.where(better, fc, f)
        G = np.where(bm, Gc, G)
        steps = np.where(better, np.minimum(steps * 1.3, 2.0), steps * 0.5)
        if float(steps.max(initial=0.0)) < 1e-12:
            break
    return W, f


def _log_gauge(body, X):
    """Gauge of body on (S, t, n) points and the gradient of its log."""
    g, Y = body._ascent_subgrad(X.reshape(-1, X.shape[-1]))
    g = g.reshape(X.shape[:-1])
    return g, Y.reshape(X.shape) / np.maximum(g[..., None], _EPS)


def _ratio_fun_grad(body, Zs, Ps, sign):
    """sign * log(num(z) / gauge(z)) at z = Z w, and its gradient in w."""
    ZT = _mT(Zs)

    def fun_grad(W):
        X = W @ ZT
        if _is_body(Ps):
            num, dnum = _log_gauge(Ps, X)
        else:
            Q = X if Ps is None else X @ _mT(Ps)
            num = np.linalg.norm(Q, axis=-1)
            dnum = (Q if Ps is None else Q @ Ps) / np.maximum(num[..., None] ** 2, _EPS)
        g, dg = _log_gauge(body, X)
        f = sign * (np.log(np.maximum(num, _EPS)) - np.log(np.maximum(g, _EPS)))
        return f, (sign * (dnum - dg)) @ Zs

    return fun_grad


def _ellipsoid_ratio(body, Zs, Ps, mode):
    """Exact extrema for an ellipsoid and a quadratic numerator, all S at once.

    The squared ratio is w^T N w / w^T M w with M = Z^T A Z; whitening by the
    Cholesky factor M = L L^T turns it into the eigenvalues of L^-1 N L^-T.
    Returns the (S,) values and the (S, n) extremizers, which have gauge 1.
    """
    ZT = _mT(Zs)
    if Ps is None:
        N = ZT @ Zs
    elif _is_body(Ps):
        N = ZT @ Ps.A @ Zs
    else:
        PZ = Ps @ Zs
        N = _mT(PZ) @ PZ
    LinvT = _mT(np.linalg.inv(np.linalg.cholesky(ZT @ body.A @ Zs)))
    vals, U = np.linalg.eigh(_mT(LinvT) @ N @ LinvT)
    idx = -1 if mode == "max" else 0
    X = Zs @ (LinvT @ U[:, :, idx, None])
    return np.sqrt(np.maximum(vals[:, idx], 0.0)), X[:, :, 0]


def _extremize(body, Zs, Ps, mode, rng, starts, iters, probes, polish):
    """(S,) extrema and (S, n) extremizers: probe, ascend the top starts, polish the best."""
    Zs = np.asarray(Zs, dtype=float)
    if body.family == "ellipsoid" and (not _is_body(Ps) or Ps.family == "ellipsoid"):
        return _ellipsoid_ratio(body, Zs, Ps, mode)
    rng = np.random.default_rng(0) if rng is None else rng
    S, _, d = Zs.shape
    sign = 1.0 if mode == "max" else -1.0
    fun_grad = _ratio_fun_grad(body, Zs, Ps, sign)

    probe = rng.standard_normal((S, probes, d))
    W = _unit(np.concatenate([probe, np.broadcast_to(np.eye(d), (S, d, d))], axis=1))
    # probe `starts` rows at a time, so no evaluation is wider than the ascent's
    f0 = np.concatenate([fun_grad(W[:, i : i + starts])[0] for i in range(0, W.shape[1], starts)], axis=1)
    order = np.argsort(-f0, axis=1)[:, :starts, None]
    W, f = ascend(fun_grad, np.take_along_axis(W, order, axis=1), iters=iters)
    if polish:
        top = np.argmax(f, axis=1)[:, None, None]
        Wp, fp = ascend(fun_grad, np.take_along_axis(W, top, axis=1), iters=polish, step0=1e-2)
        W, f = np.concatenate([W, Wp], axis=1), np.concatenate([f, fp], axis=1)
    best = np.take_along_axis(W, np.argmax(f, axis=1)[:, None, None], axis=1)
    return np.exp(sign * f.max(axis=1)), (best @ _mT(Zs))[:, 0]


def ratio_extremum_many(body, Zs, Ps=None, mode="max", rng=None, starts=16, iters=80, probes=64, polish=40):
    """Batched ratio extrema over unit z in col(Zs[i]): an (S,) array.

    Zs is (S, n, d).  The numerator is |z| when Ps is None, |Ps[i] z| for an
    (S, q, n) stack, or the gauge of Ps when it is a body.  Exact for
    ellipsoids with a quadratic numerator; else maxima are lower bounds and
    minima upper bounds.
    """
    return _extremize(body, Zs, Ps, mode, rng, starts, iters, probes, polish)[0]


def ratio_extremum(body, Z=None, P=None, mode="max", rng=None, starts=64, iters=200, probes=1000,
                   polish=120):
    """One problem of ratio_extremum_many, with Z (n, d) (None: the whole space)
    and P a (q, n) matrix or a body."""
    Zs = np.eye(body.dim)[None] if Z is None else np.asarray(Z, dtype=float)[None]
    Ps = P if P is None or _is_body(P) else np.asarray(P, dtype=float)[None]
    return float(_extremize(body, Zs, Ps, mode, rng, starts, iters, probes, polish)[0][0])


def support_estimate(body, Y):
    """Heuristic h_K(y) = max_z <z, y> / gauge(z) per row of Y, and boundary maximizers."""
    S, n = Y.shape
    vals, X = _extremize(body, np.broadcast_to(np.eye(n), (S, n, n)), Y[:, None, :], "max", None,
                         32, 150, 400, 120)
    points = X / np.maximum(body._gauge(X), _EPS)[:, None]
    return vals, np.where(((points * Y).sum(-1) < 0)[:, None], -points, points)
