"""Vertex searches for max |P x| / gauge(x) over low-codimension sections of
weighted l_1 balls and weighted cubes.

The numerator is convex and the section K cap F a polytope, so the maximum
sits at a vertex.  F = {x : A x = 0} has codimension c (A is c x n).

l_1 (p = 1).  A vertex of K cap F has support J of at most k = c + 1
coordinates and is the null vector of the c x k block A_J.  A walker holds
a support J whose block has rank c and its null vector x.  The entry of x
of largest magnitude marks the one coordinate j0 of J kept out of the basis
B = J \\ {j0}; it has the largest c x c minor of A_J, so the solve
T = A_B^-1 A is well conditioned.  In the tableau T, w_j = e_j - sum_b
T[b, j] e_b is the point of F on B + {j}, and the swap of i in J for j
outside J gives the point w_j - (w_j[i] / x_i) x.  All k (n - k) swaps are
scored at once and the best is taken while it raises the ratio; a swap
needs x_i != 0, which also keeps the new block at rank c.  Each section
starts walkers from the few coordinates i with the largest |P_F e_i|: the
basis is greedy over the coordinates ranked by |P_F e_i|, skipping columns
of A that depend on those already taken, so coordinate aligned sections
(singular blocks) start from a valid basis too.

Cube (p = inf).  In u = s * x the section is {A' u = 0, |u|_inf <= 1} with
A' = A / s, and the squared ratio is q(u) = u^T G' u with G' = P'^T P',
P' = P / s.  A vertex has c basic coordinates B (A'_B nonsingular) and every
other coordinate at +-1.  A walker starts at P_F e_i for one of the few i
of largest |P_F e_i| (at the section's first seed where P_F e_i = 0),
scaled to |u|_inf = 1, and is purified to a vertex:
n - c - 1 passes each move u along the gradient of q projected onto the
null space of the free columns of A' until one more coordinate reaches
its bound, which q (convex on the line) does not let fall.  A free
coordinate outside that null space carries the rank of A'_free, so it is
neither moved nor fixed, whatever rounding leaves in its gradient: a walker
about to fix a coordinate whose projected gradient is rounding only (which
only degenerate sections, with tied or missed coordinates, ever see) drops
every such coordinate and steps again.  It then
pivots: every edge of the vertex, the flip of a bound coordinate j towards
its other bound with the basics following along -T[:, j], T = A'_B^-1 A',
is cut by the ratio test on the c basics and scored as q at its far end;
the best edge is taken while it raises q.

Either way the reported value is |P y| / gauge(y) at y = Z Z^T x, a point
of F, so like every ascent iterate it is a lower bound on the maximum up
to rounding; it is the exact maximum unless every walker stops at a local
optimum.
"""

from __future__ import annotations

import numpy as np

MAX_CODIM = 3      # sections of codimension 1..MAX_CODIM take this route
_SEEDS = 4         # walkers per section
_CHUNK = 256       # sections per batch, so that memory stays flat
_MAX_SWAPS = 500   # a guard only: every swap raises the ratio, so walks end
_PIVOT = 1e-9      # smallest pivot: |x_i| / max |x| (l_1), |T[b, j]| (cube)
_GAIN = 1e-12      # smallest relative rise of the squared ratio that moves a walker


def vertex_maxima(body, Zs, Ps):
    """(S,) values of max |Ps[i] z| / gauge(z) (|z| when Ps is None) over
    nonzero z in col(Zs[i]), for a weighted l_1 or l_inf body and (S, n, d)
    orthonormal bases of codimension 1..MAX_CODIM."""
    walk = _l1_walk if body.p == 1 else _cube_walk
    out = np.empty(Zs.shape[0])
    for a in range(0, Zs.shape[0], _CHUNK):
        b = a + _CHUNK
        Z, P = Zs[a:b], None if Ps is None else Ps[a:b]
        S, n, d = Z.shape
        ZT = np.swapaxes(Z, 1, 2)
        A = np.swapaxes(np.linalg.qr(Z, mode="complete")[0][:, :, d:], 1, 2)   # (S, c, n)
        # walkers are seeded from the m coordinates of largest |P_F e_i| of their section
        m = min(_SEEDS, n)
        top = np.argsort(-np.vecdot(Z, Z), axis=1, kind="stable")[:, :m]
        V = np.take_along_axis(Z, top[:, :, None], axis=1) @ ZT                # P_F e_i, (S, m, n)
        X = walk(body.scales, A, P, V)
        Y = (X.reshape(S, m, n) @ Z) @ ZT                                      # Z Z^T x, (S, m, n)
        PY = Y if P is None else Y @ np.swapaxes(P, 1, 2)
        out[a:b] = (np.sqrt(np.vecdot(PY, PY)) / body._gauge(Y.reshape(-1, n)).reshape(S, m)).max(axis=1)
    return out


def _l1_walk(s, A, Ps, V):
    """(W, n) vertices of the l_1 section reached by the support-swap walks
    seeded from the (S, m, n) points V."""
    S, m, n = V.shape
    c = A.shape[1]
    k = c + 1
    G = None if Ps is None else np.swapaxes(Ps, 1, 2) @ Ps                  # (S, n, n)
    sec = np.repeat(np.arange(S), m)
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
    return X


def _cube_walk(s, A, Ps, V):
    """(W, n) vertices of the weighted-cube section reached by purifying the
    (S, m, n) points V to vertices and walking improving edges."""
    S, m, n = V.shape
    c = A.shape[1]
    W = S * m
    sec = np.repeat(np.arange(S), m)
    rows = np.arange(W)
    if Ps is None:
        Gp = np.diag(1.0 / (s * s))                                             # G' = diag(1 / s^2)
        Gd = np.broadcast_to(np.diag(Gp), (W, n))
    else:
        Pp = Ps / s
        Gp = np.swapaxes(Pp, 1, 2) @ Pp                                         # (S, n, n)
        Gd = np.diagonal(Gp, axis1=1, axis2=2)[sec]

    def grad(U):
        """G' u for the (W, n) points U: one matmul over the (S, m, n) stack."""
        return (U.reshape(S, m, n) @ Gp).reshape(W, n)

    # purify: each pass moves the free coordinates along the projected gradient
    # until one more reaches its bound, so n - c coordinates end at +-1
    U = V * s
    size = np.abs(U).max(axis=2, keepdims=True)
    # a coordinate that F misses (P_F e_i = 0) seeds nothing: its walker starts
    # from the section's first seed, which is never zero
    dead = size <= 1e-9 * size[:, :1]
    U = (np.where(dead, U[:, :1], U) / np.where(dead, size[:, :1], size)).reshape(W, n)
    free = np.ones((W, n), dtype=bool)
    i = np.abs(U).argmax(axis=1)
    Ap = (A / s)[sec]                                                           # A', fixed columns zeroed
    M = Ap @ np.swapaxes(Ap, 1, 2)                                              # A'_free A'_free^T, (W, c, c)
    for p in range(n - c):
        U[rows, i] = np.sign(U[rows, i])
        free[rows, i] = False
        col = Ap[rows, :, i]
        M -= col[:, :, None] * col[:, None, :]
        Ap[rows, :, i] = 0.0
        if p == n - c - 1:
            break
        Gu = grad(U)
        g = Gu * free
        y = np.linalg.solve(M, Ap @ g[:, :, None])                              # (W, c, 1)
        D = g - (np.swapaxes(y, 1, 2) @ Ap)[:, 0]                               # projected gradient
        D *= np.where(np.vecdot(g, D) < 0.0, -1.0, 1.0)[:, None]
        # |D|^2 that is rounding only; all of it, where g is rounding against G'u
        gg = np.vecdot(g, g)
        tiny = np.where(gg <= 1e-24 * np.vecdot(Gu, Gu), np.inf, 1e-24 * np.maximum(gg, 1e-300))
        flat = np.flatnonzero(np.vecdot(D, D) <= tiny)
        if flat.size:
            D[flat] = _null_step(D[flat], g[flat], tiny[flat], M[flat], Ap[flat], free[flat])
        i, speed = _first_to_bound(D, U)
        # fixing i keeps A'_free at rank c unless e_i is outside its null
        # space, where D_i is zero but for rounding; a walker whose D_i is that
        # small (degenerate sections) steps again without any such coordinate
        odd = D[rows, i] ** 2 <= 1e-12 * gg
        odd[flat] = False
        odd = np.flatnonzero(odd)
        if odd.size:
            D[odd] = _null_step(D[odd], g[odd], tiny[odd], M[odd], Ap[odd], free[odd])
            i[odd], speed[odd] = _first_to_bound(D[odd], U[odd])
        with np.errstate(divide="ignore"):
            U += (1.0 / speed)[:, None] * D

    # walk: B holds the c basic coordinates, every other one sits at +-1
    Ap = (A / s)[sec]
    B = np.argsort(~free, axis=1, kind="stable")[:, :c]
    T = np.empty((W, c, n))
    new = rows                 # walkers whose basis is new, so whose tableau T = A'_B^-1 A' is stale
    act = rows                 # walkers whose last edge raised q
    for _ in range(_MAX_SWAPS):
        if not act.size:
            break
        T[new] = np.linalg.inv(np.take_along_axis(Ap[new], B[new, None, :], axis=2)) @ Ap[new]
        r = np.arange(act.size)
        Ba, Ta, Ua = B[act], T[act], U[act]
        Ua[r[:, None], Ba] = 0.0
        Ua[r[:, None], Ba] = -(Ta @ Ua[:, :, None])[:, :, 0]                     # u_B = -T_N u_N
        U[act] = Ua
        g = grad(U)[act]
        GB = Gp[Ba] if Gp.ndim == 2 else Gp[sec[act][:, None], Ba]              # rows B of G', (a, c, n)
        GBB = np.take_along_axis(GB, Ba[:, None, :], axis=2)
        # edge j moves u by t delta_j (e_j - T[:, j] on B), delta_j = -sign u_j,
        # until the basic `leave` reaches its bound or u_j its other one (t = 2)
        delta = -np.sign(Ua)
        rate = Ta * -delta[:, None, :]                                          # du_B / dt, (a, c, n)
        room = np.copysign(1.0, rate)
        room -= np.take_along_axis(Ua, Ba, axis=1)[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            room /= rate
        t = np.full((act.size, n), 2.0)
        leave = np.full((act.size, n), -1)
        for b in range(c):
            closer = (room[:, b] < t) & (np.abs(rate[:, b]) > _PIVOT)
            np.copyto(t, room[:, b], where=closer)
            np.copyto(leave, b, where=closer)
        np.maximum(t, 0.0, out=t)
        lin = delta * (g - (np.take_along_axis(g, Ba, axis=1)[:, None, :] @ Ta)[:, 0])
        quad = Gd[act] - 2.0 * np.einsum("wbj,wbj->wj", Ta, GB) + np.einsum("wbj,wbj->wj", GBB @ Ta, Ta)
        gain = t * (2.0 * lin + t * quad)                                       # rise of q along the edge
        gain[r[:, None], Ba] = -np.inf
        j = gain.argmax(axis=1)
        move = gain[r, j] > _GAIN * np.vecdot(g, Ua)
        act, r, j = act[move], r[move], j[move]
        dt = t[r, j] * delta[r, j]
        U[act[:, None], B[act]] -= dt[:, None] * Ta[r, :, j]
        U[act, j] += dt
        pos = leave[r, j]
        flip = pos < 0
        U[act[flip], j[flip]] = delta[r[flip], j[flip]]
        new, pos, j = act[~flip], pos[~flip], j[~flip]
        U[new, B[new, pos]] = np.sign(U[new, B[new, pos]])
        B[new, pos] = j
    return U / s


def _null_step(D, g, tiny, M, Ap, free):
    """The steps D (w, n) cleared of the free coordinates outside the null
    space of A'_free: they carry its rank, so they must neither move nor be
    fixed.  Where nothing but rounding (|D|^2 <= tiny) is left, u minimizes q
    on its face, and the step is the null direction of the free coordinate
    that the null space reaches most.  Each step is signed to raise q, whose
    gradient on the free coordinates is g."""
    H = np.linalg.inv(M) @ Ap                                                   # M^-1 A', (w, c, n)
    reach = 1.0 - np.einsum("wcn,wcn->wn", Ap, H)                               # share of e_i in null(A'_free)
    keep = reach > _PIVOT
    D = D * keep
    flat = np.flatnonzero(np.vecdot(D, D) <= tiny)
    j = np.where(free[flat], reach[flat], -np.inf).argmax(axis=1)
    D[flat] = -(np.swapaxes(H[flat, :, j, None], 1, 2) @ Ap[flat])[:, 0]
    D[flat, j] += 1.0
    D *= keep
    return D * np.where(np.vecdot(g, D) < 0.0, -1.0, 1.0)[:, None]


def _first_to_bound(D, U):
    """Per walker, the coordinate of U in [-1, 1]^n that moving along D takes to
    its bound first, at the largest |D_i| / (1 - sign(D_i) u_i), and that ratio."""
    speed = np.abs(D)
    with np.errstate(divide="ignore"):
        np.divide(speed, 1.0 - np.sign(D) * U, out=speed, where=speed > 1e-12 * speed.max(axis=1, keepdims=True))
    i = speed.argmax(axis=1)
    return i, speed[np.arange(i.size), i]


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
