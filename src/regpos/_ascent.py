"""One batched multistart ascent for ratio extrema on spheres.

Every radius the experiments report reduces to one primitive: extremize
num(z) / gauge(z) over unit z in the column span of Z, for a stack of S
problems at once.  The numerator is |P z| (P = I when absent) or, for
relative out-radii, another body's gauge.  Every iterate is a feasible
evaluation, so reported maxima are certified lower bounds and reported
minima certified upper bounds.  Ellipsoids with a quadratic numerator take
an exact stacked eigenvalue route instead, and maxima of a quadratic
numerator over sections of codimension at most 3 take a vertex search for
weighted l_1 balls and a vertex walk for weighted cubes (_vertex.py).
"""

from __future__ import annotations

import numpy as np

from ._vertex import MAX_CODIM, vertex_maxima

_EPS = 1e-300

# ascent efforts (starts, iters, probes, polish), one per purpose
SURVEY = (8, 50, 48, 40)       # stacks of Haar sections: cr_k, regularity reports, low-M*, QS
RADIUS = (64, 200, 1000, 120)  # one radius of one body, section or projection
SUPPORT = (32, 150, 400, 120)  # support-function maximizers (support_estimate)


def _unit(W):
    """The rows of a fresh array W scaled to unit length, in place."""
    W /= np.maximum(np.sqrt(np.vecdot(W, W)), 1e-30)[..., None]
    return W


def _mT(A):
    return np.swapaxes(A, -1, -2)


def _is_body(P):
    return hasattr(P, "_ascent_subgrad")


def _tangent(G, W):
    """G minus its component along the unit rows W, in place."""
    G -= np.vecdot(G, W)[..., None] * W
    return G


def ascend(fun_grad, W0, iters=120, step0=0.25):
    """Maximize f over unit rows by projected gradient with per-row adaptive steps.

    fun_grad maps (..., d) unit rows to fresh (f, grad) arrays of shapes (...),
    (..., d).  G holds the tangent gradient at the accepted rows W.
    """
    W = _unit(np.array(W0, dtype=float))
    f, G = fun_grad(W)
    _tangent(G, W)
    steps = np.full(f.shape, step0)
    for _ in range(iters):
        cand = _unit(W + steps[..., None] * G)
        fc, Gc = fun_grad(cand)
        better = fc > f
        bm = better[..., None]
        np.copyto(W, cand, where=bm)
        np.copyto(f, fc, where=better)
        np.copyto(G, _tangent(Gc, cand), where=bm)
        steps *= np.where(better, 1.3, 0.5)
        np.minimum(steps, 2.0, out=steps)
        if float(steps.max(initial=0.0)) < 1e-12:
            break
    return W, f


def _ratio_fun_grad(body, Zs, Ps, sign):
    """sign * log(num(z) / gauge(z)) at z = Z w, and its gradient in w.

    The columns of each Z are orthonormal, so a section numerator |Z w| is 1
    on unit w and its gradient is radial, which the ascent's tangent
    projection removes: with Ps None only the gauge is evaluated.
    """
    # contiguous transposes: batched matmul on a transposed view is slower
    ZT = np.ascontiguousarray(_mT(Zs))
    PsZ = None if Ps is None or _is_body(Ps) else Ps @ Zs
    PsZT = None if PsZ is None else np.ascontiguousarray(_mT(PsZ))

    def log_gauge(K, X, s):
        """s * log gauge_K at the (S, t, n) points X and its gradient in w."""
        g, Y = K._ascent_subgrad(X.reshape(-1, X.shape[-1]))
        g = np.maximum(g.reshape(X.shape[:-1]), _EPS)
        G = Y.reshape(X.shape) @ Zs
        G *= (s / g)[..., None]
        return s * np.log(g), G

    def fun_grad(W):
        X = W @ ZT
        f, G = log_gauge(body, X, -sign)
        if Ps is None:
            return f, G
        if PsZ is None:
            fn, Gn = log_gauge(Ps, X, sign)
        else:
            Q = W @ PsZT
            num2 = np.maximum(np.vecdot(Q, Q), _EPS)
            fn = (0.5 * sign) * np.log(num2)
            Gn = Q @ PsZ
            Gn *= (sign / num2)[..., None]
        f += fn
        G += Gn
        return f, G

    return fun_grad


def _ellipsoid_ratio(body, Zs, Ps, mode):
    """Exact extrema for an ellipsoid and a quadratic numerator, all S at once.

    The squared ratio is w^T N w / w^T M w with M = Z^T A Z; whitening by the
    Cholesky factor M = L L^T turns it into the eigenvalues of L^-1 N L^-T.
    Returns the (S,) values.
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
    vals = np.linalg.eigvalsh(_mT(LinvT) @ N @ LinvT)
    return np.sqrt(np.maximum(vals[:, -1 if mode == "max" else 0], 0.0))


def _orthonormal(Zs):
    """Zs as a float (S, n, d) stack, after checking Z^T Z = I to 1e-8 for every Z."""
    Zs = np.asarray(Zs, dtype=float)
    gram = _mT(Zs) @ Zs
    if gram.size and np.abs(gram - np.eye(Zs.shape[-1])).max() > 1e-8:
        raise ValueError("subspace bases must have orthonormal columns (Z^T Z = I to 1e-8)")
    return Zs


def _extrema(body, Zs, Ps, mode, rng, effort):
    """(S,) extrema: exact eigenvalues for an ellipsoid with a quadratic numerator,
    the vertex routes for maxima of a quadratic numerator over sections of a
    weighted l_1 ball or cube of codimension 1..MAX_CODIM, else the ascent's
    from rng at effort (starts, iters, probes, polish)."""
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")
    if body.family == "ellipsoid" and (not _is_body(Ps) or Ps.family == "ellipsoid"):
        return _ellipsoid_ratio(body, Zs, Ps, mode)
    if (body.family == "weighted_lp" and body.p in (1, np.inf) and mode == "max" and not _is_body(Ps)
            and 1 <= Zs.shape[1] - Zs.shape[2] <= MAX_CODIM):
        return vertex_maxima(body, Zs, Ps)
    return _extremize(body, Zs, Ps, mode, rng, effort)[0]


def _extremize(body, Zs, Ps, mode, rng, effort):
    """(S,) ascent extrema and (S, n) extremizers: probe, ascend the top starts, polish the best."""
    starts, iters, probes, polish = effort
    rng = np.random.default_rng(0) if rng is None else rng
    S, _, d = Zs.shape
    sign = 1.0 if mode == "max" else -1.0
    fun_grad = _ratio_fun_grad(body, Zs, Ps, sign)

    W = _unit(np.concatenate([rng.standard_normal((S, probes, d)), np.broadcast_to(np.eye(d), (S, d, d))],
                             axis=1))
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


def ratio_extremum_many(body, Zs, Ps=None, mode="max", rng=None):
    """Batched ratio extrema over unit z in col(Zs[i]) at the SURVEY effort: an (S,) array.

    Zs is (S, n, d) with orthonormal columns; other bases raise ValueError.
    The numerator is |z| when Ps is None, |Ps[i] z| for an (S, q, n) stack,
    or the gauge of Ps when it is a body.  Exact for ellipsoids with a
    quadratic numerator; else maxima are lower bounds and minima upper
    bounds.
    """
    return _extrema(body, _orthonormal(Zs), Ps, mode, rng, SURVEY)


def ratio_extremum(body, Z=None, P=None, mode="max", rng=None, starts=RADIUS[0], iters=RADIUS[1],
                   probes=RADIUS[2], polish=RADIUS[3]):
    """One problem of ratio_extremum_many, with Z (n, d) (None: the whole space)
    and P a (q, n) matrix or a body, at the RADIUS effort unless overridden."""
    Zs = np.eye(body.dim)[None] if Z is None else _orthonormal(np.asarray(Z, dtype=float)[None])
    Ps = P if P is None or _is_body(P) else np.asarray(P, dtype=float)[None]
    return float(_extrema(body, Zs, Ps, mode, rng, (starts, iters, probes, polish))[0])


def support_estimate(body, Y):
    """Heuristic h_K(y) = max_z <z, y> / gauge(z) per row of Y, and boundary maximizers."""
    S, n = Y.shape
    vals, X = _extremize(body, np.broadcast_to(np.eye(n), (S, n, n)), Y[:, None, :], "max", None, SUPPORT)
    points = X / np.maximum(body._gauge(X), _EPS)[:, None]
    return vals, np.where(((points * Y).sum(-1) < 0)[:, None], -points, points)
