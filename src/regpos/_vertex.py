"""Vertex search for max |P x| / gauge(x) over low-codimension sections of
weighted l_1 balls.

The numerator is convex and the section K cap F a polytope, so the maximum
sits at a vertex.  With F = {x : A x = 0} of codimension c (A is c x n), a
vertex of K cap F has support J of at most k = c + 1 coordinates and is the
null vector of the c x k block A_J.  A walker holds a support J whose block
has rank c and its null vector x.  The entry of x of largest magnitude marks
the one coordinate j0 of J kept out of the basis B = J \\ {j0}; it has the
largest c x c minor of A_J, so the solve T = A_B^-1 A is well conditioned.
In the tableau T, w_j = e_j - sum_b T[b, j] e_b is the point of F on
B + {j}, and the swap of i in J for j outside J gives the point
w_j - (w_j[i] / x_i) x.  All k (n - k) swaps are scored at once and the
best is taken while it raises the ratio; a swap needs x_i != 0, which also
keeps the new block at rank c.

Each section starts walkers from the few coordinates i with the largest
|P_F e_i|: the basis is greedy over the coordinates ranked by |P_F e_i|,
skipping columns of A that depend on those already taken, so coordinate
aligned sections (singular blocks) start from a valid basis too.  The
reported value is |P y| / gauge(y) at y = Z Z^T x, a point of F, so like
every ascent iterate it is a lower bound on the maximum up to rounding;
it is the exact maximum unless every walker stops at a local optimum.
"""

from __future__ import annotations

import numpy as np

MAX_CODIM = 3      # sections of codimension 1..MAX_CODIM take this route
_SEEDS = 4         # walkers per section
_CHUNK = 256       # sections per batch, so that memory stays flat
_MAX_SWAPS = 500   # a guard only: every swap raises the ratio, so walks end
_PIVOT = 1e-9      # smallest |x_i| / max |x| a swap may leave by
_GAIN = 1e-12      # smallest relative rise of the squared ratio that moves a walker


def vertex_maxima(body, Zs, Ps):
    """(S,) values of max |Ps[i] z| / gauge(z) (|z| when Ps is None) over
    nonzero z in col(Zs[i]), for a weighted l_1 body and (S, n, d) orthonormal
    bases of codimension 1..MAX_CODIM."""
    out = np.empty(Zs.shape[0])
    for a in range(0, Zs.shape[0], _CHUNK):
        b = a + _CHUNK
        out[a:b] = _chunk_maxima(body, Zs[a:b], None if Ps is None else Ps[a:b])
    return out


def _chunk_maxima(body, Zs, Ps):
    S, n, d = Zs.shape
    c = n - d
    k = c + 1
    s = body.scales
    ZT = np.swapaxes(Zs, 1, 2)
    A = np.swapaxes(np.linalg.qr(Zs, mode="complete")[0][:, :, d:], 1, 2)   # (S, c, n)
    G = None if Ps is None else np.swapaxes(Ps, 1, 2) @ Ps                  # (S, n, n)

    # m walkers per section, seeded from its m coordinates of largest |P_F e_i|
    m = min(_SEEDS, n)
    top = np.argsort(-np.vecdot(Zs, Zs), axis=1, kind="stable")[:, :m]
    sec = np.repeat(np.arange(S), m)
    V = np.take_along_axis(Zs, top[:, :, None], axis=1) @ ZT                # P_F e_i, (S, m, n)
    order = np.argsort(-np.abs(V.reshape(S * m, n)), axis=1, kind="stable")
    Aw = A[sec]
    J = _seed_supports(Aw, order)
    x = np.zeros(J.shape)      # marks the entering coordinate, so the first basis is the greedy one
    x[:, c] = 1.0

    W = J.shape[0]
    sJ = s[J]
    others = np.array([[q for q in range(k) if q != p] for p in range(k)])   # basis positions
    Gd = None if G is None else np.diagonal(G, axis1=1, axis2=2)
    act = np.arange(W)     # walkers whose last swap raised the ratio
    for _ in range(_MAX_SWAPS):
        if not act.size:
            break
        r = np.arange(act.size)
        Ja, xa, sa, Aa = J[act], x[act], sJ[act], Aw[act]
        p0 = np.abs(xa).argmax(axis=1)
        posB = others[p0]
        T = np.linalg.inv(np.take_along_axis(Aa, np.take_along_axis(Ja, posB, axis=1)[:, None, :], axis=2)) @ Aa
        # Wj[w, l, j]: entry at J[w, l] of the tableau point w_j (zero at the position p0)
        Wj = np.zeros((act.size, k, n))
        Wj[r[:, None], posB] = -T
        xa = Wj[r, :, Ja[r, p0]]
        xa[r, p0] = 1.0
        valid = np.abs(xa) > _PIVOT * np.abs(xa).max(axis=1, keepdims=True)
        # the point entering j and leaving position i is w_j - t[w, i, j] x; its l_1 norm
        t = Wj / np.where(valid, xa, 1.0)[:, :, None]
        den = np.broadcast_to(s, t.shape).copy()
        term = np.empty_like(t)
        for l in range(k):
            np.multiply(t, xa[:, l, None, None], out=term)
            np.subtract(Wj[:, None, l], term, out=term)
            np.abs(term, out=term)
            term *= sa[:, l, None, None]
            den += term
        den0 = np.vecdot(np.abs(xa), sa)
        # |P x|^2 of the point w_j - t x from the quadratic forms of w_j and x
        if G is None:
            qww = 1.0 + np.einsum("wlj,wlj->wj", Wj, Wj)
            qwx = np.einsum("wlj,wl->wj", Wj, xa)
            qxx = np.vecdot(xa, xa)
        else:
            sec_a = sec[act]
            GJ = G[sec_a[:, None], Ja]                                          # rows J of G, (w, k, n)
            GJJ = np.take_along_axis(GJ, Ja[:, None, :], axis=2)
            GJx = np.vecdot(GJJ, xa[:, None, :])                                 # (G x) on J
            qww = Gd[sec_a] + np.einsum("wlj,wlj->wj", Wj, 2.0 * GJ + GJJ @ Wj)
            qwx = np.einsum("wlj,wl->wj", GJ, xa) + np.einsum("wlj,wl->wj", Wj, GJx)
            qxx = np.vecdot(xa, GJx)
        score = t * qxx[:, None, None]
        score -= 2.0 * qwx[:, None, :]
        score *= t
        score += qww[:, None, :]
        score /= np.square(den, out=den)
        inJ = np.zeros((act.size, n), dtype=bool)
        inJ[r[:, None], Ja] = True
        score[~valid[:, :, None] | inJ[:, None, :]] = -np.inf
        best = score.reshape(act.size, -1).argmax(axis=1)
        move = score.reshape(act.size, -1)[r, best] > (qxx / (den0 * den0)) * (1.0 + _GAIN)
        x[act] = xa
        i, j = np.divmod(best[move], n)
        mv = r[move]
        act = act[move]
        x[act] = Wj[mv, :, j] - t[mv, i, j, None] * xa[mv]
        x[act, i] = 1.0
        J[act, i] = j
        sJ[act, i] = s[j]

    X = np.zeros((W, n))
    X[np.arange(W)[:, None], J] = x
    Y = (X.reshape(S, m, n) @ Zs) @ ZT                                        # Z Z^T x, (S, m, n)
    PY = Y if Ps is None else Y @ np.swapaxes(Ps, 1, 2)
    vals = np.sqrt(np.vecdot(PY, PY)) / body._gauge(Y.reshape(W, n)).reshape(S, m)
    return vals.max(axis=1)


def _seed_supports(A, order):
    """(W, c+1) supports: a basis of c columns of A (W, c, n), taken greedily in
    the coordinate order `order` (W, n) with dependent columns skipped, then the
    first coordinate outside it."""
    rows = np.arange(A.shape[0])
    R = np.take_along_axis(np.swapaxes(A, 1, 2), order[:, :, None], axis=1)   # columns in order, (W, n, c)
    taken = np.zeros(order.shape, dtype=bool)
    picks = []
    for _ in range(A.shape[1]):
        norms = np.sqrt(np.vecdot(R, R))
        norms[taken] = 0.0
        p = np.argmax(norms > 1e-6 * norms.max(axis=1, keepdims=True), axis=1)
        picks.append(p)
        taken[rows, p] = True
        q = R[rows, p] / norms[rows, p, None]
        R -= np.vecdot(R, q[:, None, :])[:, :, None] * q[:, None, :]
    picks.append(np.argmax(~taken, axis=1))
    return np.take_along_axis(order, np.stack(picks, axis=1), axis=1)
