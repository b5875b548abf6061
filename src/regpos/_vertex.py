"""Vertex searches for max |P x| / gauge(x) over low-codimension sections of
weighted l_1 balls and weighted cubes.

The numerator is convex and the section K cap F a polytope, so the maximum
sits at a vertex.  F = {x : A x = 0} has codimension c; the c x n normal
basis A has orthonormal rows, found by Gram-Schmidt on the coordinate
vectors projected onto the complement of F, I - Z Z^T, taking at each step
the one with the largest remainder and projecting each row off F twice
(a pivoted Cholesky factor of that projector, so no n x n factorization).

Both walks carry their c x n tableaux T = A_B^-1 A across steps, one per
walker, from one inverse at its start, and change them by simplex pivots:
when column j enters the basis in place of the basic at row b, row b is
divided by T[b, j] and T[:, j] times it is taken from the others.  No step
factors a c x c block.

l_1 (p = 1).  A vertex of K cap F has support J of at most k = c + 1
coordinates and is the null vector of the c x k block A_J.  A walker holds
a support J whose block has rank c, one coordinate j0 of J kept out of the
basis B = J \\ {j0}, and the tableau of B.  In it, w_j = e_j - sum_b
T[b, j] e_b is the point of F on B + {j}, x = w_j0 the vertex, and the
swap of i in J for j outside J gives the point w_j - (w_j[i] / x_i) x,
whatever j0 is.  All k (n - k) swaps are scored at once, their l_1 norms
from the pairwise distances of w_j[l] / x_l over l in J, and the best is
taken while it raises the ratio; a swap needs x_i != 0, which also keeps
the new block at rank c.  A swap pivots the tableau unless it replaces j0
itself, which leaves B alone; it keeps j0 out when |w_j[i]| >= |x_i| and
else keeps j out, so that it pivots on the larger of the two.  j0 is
re-chosen as the entry of x of largest magnitude (its c x c minor is the
largest of A_J) by one more pivot only when x_j0 falls below _REBASE of it.
Each section starts walkers from the few coordinates i with the largest
|P_F e_i|: the first basis is greedy over the coordinates ranked by
|P_F e_i|, skipping columns of A that depend on those already taken, so
coordinate aligned sections (singular blocks) start from a valid basis too.

Cube (p = inf).  In u = s * x the section is {A' u = 0, |u|_inf <= 1} with
A' = A / s, and the squared ratio is q(u) = u^T G' u with G' = P'^T P',
P' = P / s.  A vertex has c basic coordinates B (A'_B nonsingular) and every
other coordinate at +-1.  A walker starts at P_F e_i for one of the few i
of largest |P_F e_i| (at the section's first seed where P_F e_i = 0),
scaled to |u|_inf = 1, and carries one basis and its tableau from there to
its stop.  The first basis is greedy over the coordinates by ascending |u|,
skipping dependent columns, so a coordinate that F holds at 0 (e_i in the
row space of A') is basic, has a zero tableau row and never moves.  The
purification then fixes one coordinate per pass: the free nonbasic j of
largest |r_j| (1 - sign(r_j) u_j), where r_j is the slope of q along
e_j - T[:, j] on B, moves towards sign(r_j) with the basics following,
which q (convex on the line) does not let fall, until u_j or a basic
reaches its bound; a basic that does leaves the basis for j by a pivot.
The walk then pivots along edges: every edge of the vertex, the flip of a
bound coordinate j towards its other bound with the basics following along
-T[:, j], is cut by the ratio test on the c basics and scored as q at its
far end; the best edge is taken while it raises q.

Arrays of the walks put the basis position first: (c, W, n) tableaux, so
that sums over the few positions are elementwise.

Either way the reported value is |P y| / gauge(y) at y = Z Z^T x, a point
of F, so like every ascent iterate it is a lower bound on the maximum up
to rounding; it is the exact maximum unless every walker stops at a local
optimum.
"""

from __future__ import annotations

import numpy as np

MAX_CODIM = 3      # sections of codimension 1..MAX_CODIM take this route
_SEEDS = 4         # walkers per section
_MAX_SWAPS = 500   # a guard only: every swap raises the ratio, so walks end
_PIVOT = 1e-9      # smallest pivot: |x_i| / max |x| (l_1), |T[b, j]| (cube)
_GAIN = 1e-12      # smallest relative rise of the squared ratio that moves a walker
_REBASE = 1e-2     # l_1: re-choose j0 when |x_j0| falls below this share of max |x|


def vertex_maxima(body, Zs, Ps):
    """(S,) values of max |Ps[i] z| / gauge(z) (|z| when Ps is None) over
    nonzero z in col(Zs[i]), for a weighted l_1 or l_inf body and (S, n, d)
    orthonormal bases of codimension 1..MAX_CODIM."""
    walk = _l1_walk if body.p == 1 else _cube_walk
    S, n, d = Zs.shape
    ZT = np.swapaxes(Zs, 1, 2)
    A = _normal_basis(Zs)                                                      # (S, c, n)
    # walkers are seeded from the m coordinates of largest |P_F e_i| of their section
    m = min(_SEEDS, n)
    top = np.argsort(-np.vecdot(Zs, Zs), axis=1, kind="stable")[:, :m]
    V = np.take_along_axis(Zs, top[:, :, None], axis=1) @ ZT                   # P_F e_i, (S, m, n)
    X = walk(body.scales, A, Ps, V)
    Y = (X.reshape(S, m, n) @ Zs) @ ZT                                         # Z Z^T x, (S, m, n)
    PY = Y if Ps is None else Y @ np.swapaxes(Ps, 1, 2)
    return (np.sqrt(np.vecdot(PY, PY)) / body._gauge(Y.reshape(-1, n)).reshape(S, m)).max(axis=1)


def _normal_basis(Z):
    """(S, c, n) orthonormal rows spanning the orthogonal complement of the
    columns of the (S, n, d) orthonormal bases Z, c = n - d: row b is the
    projection (I - Z Z^T) e_i, less its parts along rows 0..b-1, of the
    coordinate i whose remainder is longest.  Each row is projected off
    col(Z) a second time, which takes its rounding there from about
    sqrt(d) eps to eps."""
    S, n, d = Z.shape
    sec = np.arange(S)
    A = np.empty((S, n - d, n))
    rest = 1.0 - np.vecdot(Z, Z)                 # squared remainders |(I - Z Z^T) e_i|^2 - sum_b A[b, i]^2
    for b in range(n - d):
        i = rest.argmax(axis=1)
        a = -(Z @ Z[sec, i, :, None])[:, :, 0]
        a[sec, i] += 1.0
        a -= np.einsum("sb,sbn->sn", A[sec, :b, i], A[:, :b])
        a -= (Z @ np.vecdot(Z, a[:, :, None], axis=1)[:, :, None])[:, :, 0]
        a /= np.sqrt(np.vecdot(a, a))[:, None]
        A[:, b] = a
        rest -= a * a
    return A


def _stack_matmul(M, T):
    """(k, a, n) products sum_m M[l, w, m] T[m, w, :] of the (k, a, k) and (k, a, n) stacks."""
    return np.moveaxis(np.moveaxis(M, 1, 0) @ np.moveaxis(T, 1, 0), 1, 0)


def _tableau(A, B):
    """(c, W, n) tableaux A_B^-1 A of the (W, c, n) normals A on the bases B (W, c)."""
    return np.ascontiguousarray(np.moveaxis(np.linalg.inv(np.take_along_axis(A, B[:, None, :], axis=2)) @ A, 1, 0))


def _edge_quadratics(G, Gd, sec, B, T):
    """(a, n) values q(e_j - T[:, j] on B) for every j of each walker w, with q
    the form G[sec[w]] of the (S, n, n) stack G (diagonals Gd), its tableau
    T[:, w] (k, a, n) and coordinates B[w] (a, k); also the rows G[B]
    (k, a, n) and blocks G[B, B] (k, a, k) gathered for them."""
    GB = G[sec, B.T]
    GBB = G[sec[:, None], B.T[:, :, None], B]
    return Gd[sec] - np.einsum("bwn,bwn->wn", T, 2.0 * GB - _stack_matmul(GBB, T)), GB, GBB


def _pivot(T, row, col, pos, on):
    """Pivot the (k, a, n) tableaux T in place where `on` (a,): column col
    enters the basis at position pos and the basic at position row leaves;
    row becomes zero unless it is pos."""
    a = np.arange(T.shape[1])
    new = T[row, a] / np.where(on, T[row, a, col], 1.0)[:, None]
    f = T[:, a, col] * on
    for b in range(T.shape[0]):                 # by position, so that temporaries stay (a, n)
        T[b] -= f[b, :, None] * new
    row, pos, a, new = row[on], pos[on], a[on], new[on]
    T[row, a] = 0.0
    T[pos, a] = new


def _l1_walk(s, A, Ps, V):
    """(W, n) vertices of the l_1 section reached by the support-swap walks
    seeded from the (S, m, n) points V."""
    S, m, n = V.shape
    sec = np.repeat(np.arange(S), m)
    order = np.argsort(-np.abs(V.reshape(S * m, n)), axis=1, kind="stable")
    Aw = A[sec]
    G = None if Ps is None else np.swapaxes(Ps, 1, 2) @ Ps                  # (S, n, n)
    J, p0, T = _swap_walk(s, Aw, G, sec, _seed_supports(Aw, order))
    rows = np.arange(J.shape[0])
    x = -T[:, rows, J[rows, p0]]
    x[p0, rows] = 1.0
    X = np.zeros((J.shape[0], n))
    X[rows[:, None], J] = x.T
    return X


def _swap_walk(s, Aw, G, sec, J):
    """The support-swap walks from the (W, k) supports J, whose first c
    coordinates are a basis of the (W, c, n) normals Aw: each walker's final
    support J, kept-out position p0 and (k, W, n) tableau T (rows of its
    basis positions, zero at p0).  G holds the (S, n, n) quadratic forms of
    the numerator of section sec[w], None for |x|."""
    W, c, n = Aw.shape
    k = c + 1
    p0 = np.full(W, c)
    T = np.zeros((k, W, n))
    T[:c] = _tableau(Aw, J[:, :c])
    Gd = None if G is None else np.diagonal(G, axis1=1, axis2=2)
    # the walkers whose last swap raised the ratio, and their supports,
    # kept-out positions and tableaux; the others are written back as they stop
    act, Ja, pa, Ta = np.arange(W), J.copy(), p0.copy(), T.copy()
    for _ in range(_MAX_SWAPS):
        if not act.size:
            break
        r = np.arange(act.size)
        # the vertex x on J, scaled to 1 at the kept-out position; re-choose
        # that position where x_j0 has become small against max |x|
        x = -Ta[:, r, Ja[r, pa]]
        x[pa, r] = 1.0
        ax = np.abs(x)
        top = ax.argmax(axis=0)
        big = ax[top, r]
        re = np.flatnonzero(big * _REBASE > 1.0)
        if re.size:
            Tr = Ta[:, re]
            _pivot(Tr, top[re], Ja[re, pa[re]], pa[re], np.ones(re.size, dtype=bool))
            Ta[:, re] = Tr
            x[:, re] /= x[top[re], re]
            ax[:, re] /= big[re]
            big[re] = 1.0
            pa[re] = top[re]
        valid = ax > _PIVOT * big
        # the swap of position i for j gives w_j - t_i x with t_i = w_j[i] / x_i; on
        # position l it is x_l (t_l - t_i), so its l_1 norm is s_j + sum_l s_l |x_l| |t_l - t_i|
        sa = s[Ja].T                                                            # (k, a)
        zero = x == 0.0
        t = Ta / np.where(zero, -1.0, -x)[:, :, None]                          # Ta is -w_j on J
        wt = sa * ax
        den = np.empty_like(Ta)
        den[:] = s
        if zero.any():
            den += np.einsum("lw,lwn->wn", zero * sa, np.abs(Ta))
        d = np.empty((act.size, n))
        term = np.empty_like(d)
        for u in range(k):
            for v in range(u + 1, k):
                np.abs(np.subtract(t[v], t[u], out=d), out=d)
                den[u] += np.multiply(d, wt[v, :, None], out=term)
                den[v] += np.multiply(d, wt[u, :, None], out=term)
        den0 = np.einsum("lw,lw->w", ax, sa)
        # |P x|^2 of the point w_j - t x from the quadratic forms of w_j and x
        if G is None:
            qww = 1.0 + np.einsum("lwn,lwn->wn", Ta, Ta)
            qwx = -np.einsum("lwn,lw->wn", Ta, x)
            qxx = np.einsum("lw,lw->w", x, x)
        else:
            qww, GJ, GJJ = _edge_quadratics(G, Gd, sec[act], Ja, Ta)
            GJx = np.einsum("lam,ma->la", GJJ, x)                               # (G x) on J, (k, a)
            qwx = np.einsum("lwn,lw->wn", GJ, x) - np.einsum("lwn,lw->wn", Ta, GJx)
            qxx = np.einsum("lw,lw->w", x, GJx)
        score = t * qxx[:, None]
        score -= 2.0 * qwx
        score *= t
        score += qww
        score /= np.square(den, out=den)
        score[~valid] = -np.inf
        score[:, r[:, None], Ja] = -np.inf
        flat = np.moveaxis(score, 0, 1).reshape(act.size, -1)
        best = flat.argmax(axis=1)
        move = flat[r, best] > (qxx / (den0 * den0)) * (1.0 + _GAIN)
        stop = act[~move]
        J[stop], p0[stop], T[:, stop] = Ja[~move], pa[~move], Ta[:, ~move]
        i, j = np.divmod(best[move], n)
        act, Ja, pa, Ta, x = act[move], Ja[move], pa[move], Ta[:, move], x[:, move]
        r = np.arange(act.size)
        # the swap keeps j0 out when |w_j[i]| >= |x_i| (then |y_j0| >= |y_j| at the new
        # point y), else it keeps j out; either pivot is the larger of the two
        keep = np.abs(Ta[i, r, j]) >= np.abs(x[i, r])
        into = i != pa
        _pivot(Ta, i, np.where(keep, j, Ja[r, pa]), np.where(keep, i, pa), into)
        pa = np.where(into & ~keep, i, pa)
        Ja[r, i] = j
    J[act], p0[act], T[:, act] = Ja, pa, Ta
    return J, p0, T


def _cube_walk(s, A, Ps, V):
    """(W, n) vertices of the weighted-cube section reached by purifying the
    (S, m, n) points V to vertices and walking improving edges."""
    S, m, n = V.shape
    W = S * m
    sec = np.repeat(np.arange(S), m)
    if Ps is None:
        g2 = 1.0 / (s * s)                                                      # G' = diag(g2)

        def grad(U, idx=slice(None)):
            """G' u for the walkers idx."""
            return U[idx] * g2

        def curv(T, B, idx):
            """q(e_j - T[:, j] on B) for every j: q's curvature along the edges."""
            return g2 + np.einsum("bw,bwn,bwn->wn", g2[B].T, T, T)
    else:
        Pp = Ps / s
        Gp = np.swapaxes(Pp, 1, 2) @ Pp                                         # (S, n, n)
        Gd = np.diagonal(Gp, axis1=1, axis2=2)

        def grad(U, idx=slice(None)):
            """G' u for the walkers idx, from one matmul per section."""
            return (U.reshape(S, m, n) @ Gp).reshape(W, n)[idx]

        def curv(T, B, idx):
            """q(e_j - T[:, j] on B) for every j: q's curvature along the edges."""
            return _edge_quadratics(Gp, Gd, sec[idx], B, T)[0]

    # a coordinate that F misses (P_F e_i = 0) seeds nothing: its walker starts
    # from the section's first seed, which is never zero
    U = V * s
    size = np.abs(U).max(axis=2, keepdims=True)
    dead = size <= 1e-9 * size[:, :1]
    U = (np.where(dead, U[:, :1], U) / np.where(dead, size[:, :1], size)).reshape(W, n)
    Ap = (A / s)[sec]                                                           # A', (W, c, n)
    # the first basis takes the coordinates of smallest |u| first, so that every
    # coordinate F holds at 0 (e_i in the row space of A') is basic and stays put
    B = _seed_supports(Ap, np.argsort(np.abs(U), axis=1, kind="stable"))[:, :-1]
    U, B, T = _purify(grad, U, B, _tableau(Ap, B))
    U, _, _ = _edge_walk(grad, curv, U, B, T)
    return U / s


def _purify(grad, U, B, T):
    """Purify the (W, n) points U of {A' u = 0, |u|_inf <= 1} to vertices on
    the bases B (W, c) and their (c, W, n) tableaux T = A'_B^-1 A'.  Each pass
    takes the free nonbasic j of largest |r_j| (1 - sign(r_j) u_j), r_j the
    slope of q along e_j - T[:, j] on B, and moves u_j towards sign(r_j), the
    basics following along -T[:, j], until u_j or a basic reaches its bound; a
    basic that does leaves the basis for j.  Either way one more coordinate is
    fixed, and q, convex on the line, does not fall.  Returns U, B and T."""
    c, W, n = T.shape
    rows = np.arange(W)
    basic = np.zeros((W, n), dtype=bool)
    basic[rows[:, None], B] = True
    for _ in range(n - c):
        free = ~basic & (np.abs(U) < 1.0)
        on = free.any(axis=1)
        if not on.any():
            break
        g = grad(U)
        r = g - np.einsum("wb,bwn->wn", g[rows[:, None], B], T)
        score = np.abs(r)
        score -= r * U                                                          # |r| (1 - sign(r) u)
        j = np.where(free, score, -1.0).argmax(axis=1)
        sj = np.where(r[rows, j] < 0.0, -1.0, 1.0)
        # ratio test: u_j reaches sign(r_j) at t = 1 - sign(r_j) u_j, a basic its bound at t = room
        rate = T[:, rows, j] * -sj                                              # du_B / dt, (c, W)
        room = np.copysign(1.0, rate)
        room -= U[rows[:, None], B].T
        with np.errstate(divide="ignore", invalid="ignore"):
            room /= rate
        room[np.abs(rate) <= _PIVOT] = np.inf
        pos = room.argmin(axis=0)
        first = room[pos, rows]
        reach = 1.0 - sj * U[rows, j]
        t = np.maximum(np.minimum(first, reach), 0.0) * on
        U[rows[:, None], B] += (t * rate).T
        U[rows, j] += t * sj
        leave = on & (first < reach)
        hit = np.flatnonzero(on & ~leave)
        U[hit, j[hit]] = sj[hit]
        w = np.flatnonzero(leave)
        out = B[w, pos[w]]
        U[w, out] = np.sign(U[w, out])
        basic[w, out] = False
        basic[w, j[w]] = True
        B[w, pos[w]] = j[w]
        _pivot(T, pos, j, pos, leave)
    return U, B, T


def _edge_walk(grad, curv, U, B, T):
    """Walk improving edges from the (W, n) vertices U with basic coordinates
    B (W, c) and (c, W, n) tableaux T = A'_B^-1 A'.  Returns U, B and T."""
    c, W, n = T.shape
    # the walkers whose last edge raised q, and their bases and tableaux; the
    # others are written back as they stop
    act, Ba, Ta = np.arange(W), B.copy(), T.copy()
    for _ in range(_MAX_SWAPS):
        if not act.size:
            break
        r = np.arange(act.size)
        Ua = U[act]
        Ua[r[:, None], Ba] = 0.0
        uB = -np.einsum("bwn,wn->bw", Ta, Ua)                                   # u_B = -T_N u_N, (c, a)
        Ua[r[:, None], Ba] = uB.T
        U[act] = Ua
        g = grad(U, act)
        # edge j moves u by t delta_j (e_j - T[:, j] on B), delta_j = -sign u_j,
        # until a basic reaches its bound or u_j its other one (t = 2)
        delta = -np.sign(Ua)
        rate = Ta * -delta                                                      # du_B / dt, (c, a, n)
        room = np.copysign(1.0, rate)
        room -= uB[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            room /= rate
        room[np.abs(rate) <= _PIVOT] = np.inf
        first = room.min(axis=0)
        t = np.clip(first, 0.0, 2.0)
        lin = delta * (g - np.einsum("wb,bwn->wn", g[r[:, None], Ba], Ta))
        gain = t * (2.0 * lin + t * curv(Ta, Ba, act))                         # rise of q along the edge
        gain[r[:, None], Ba] = -np.inf
        j = gain.argmax(axis=1)
        move = gain[r, j] > _GAIN * np.vecdot(g, Ua)
        stop = act[~move]
        B[stop], T[:, stop] = Ba[~move], Ta[:, ~move]
        act, r, j, Ba, Ta = act[move], r[move], j[move], Ba[move], Ta[:, move]
        e = np.arange(act.size)
        dt = t[r, j] * delta[r, j]
        U[act[:, None], Ba] -= dt[:, None] * Ta[:, e, j].T
        U[act, j] += dt
        flip = first[r, j] >= 2.0
        U[act[flip], j[flip]] = delta[r[flip], j[flip]]
        pos = room[:, r, j].argmin(axis=0)
        piv = ~flip
        out = Ba[e[piv], pos[piv]]
        U[act[piv], out] = np.sign(U[act[piv], out])
        Ba[e[piv], pos[piv]] = j[piv]
        _pivot(Ta, pos, j, pos, piv)
    B[act], T[:, act] = Ba, Ta
    return U, B, T


def _seed_supports(A, order):
    """(W, c+1) supports: a basis of c columns of A (W, c, n), taken greedily in
    the coordinate order `order` (W, n) with dependent columns skipped, then the
    first coordinate outside it."""
    rows = np.arange(A.shape[0])
    R = np.moveaxis(np.take_along_axis(A, order[:, None, :], axis=2), 1, 0).copy()   # columns in order, (c, W, n)
    taken = np.zeros(order.shape, dtype=bool)
    picks = []
    for _ in range(A.shape[1]):
        norms = np.sqrt(np.einsum("bwn,bwn->wn", R, R))
        norms[taken] = 0.0
        p = np.argmax(norms > 1e-6 * norms.max(axis=1, keepdims=True), axis=1)
        picks.append(p)
        taken[rows, p] = True
        q = R[:, rows, p] / norms[rows, p]
        R -= np.einsum("bwn,bw->wn", R, q) * q[:, :, None]
    picks.append(np.argmax(~taken, axis=1))
    return np.take_along_axis(order, np.stack(picks, axis=1), axis=1)
