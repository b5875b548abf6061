"""Vertex searches for max |P x| / gauge(x) over low-codimension sections of
weighted l_1 balls and weighted cubes.

The numerator is convex and the section K cap F a polytope, so the maximum
sits at a vertex.  F = {x : A x = 0} has codimension c; the c x n normal
basis A has orthonormal rows, found by Gram-Schmidt on the coordinate
vectors projected onto the complement of F, I - Z Z^T, taking at each step
the one with the largest remainder and projecting each row off F twice
(a pivoted Cholesky factor of that projector, so no n x n factorization).

Both walks carry their c x n tableaux T = A_B^-1 A across steps, one per
walker, and change them by simplex pivots: when column j enters the basis
in place of the basic at row b, row b is divided by T[b, j] and T[:, j]
times it is taken from the others.  No step factors a c x c block.

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
scaled to |u|_inf = 1, and is purified to a vertex:
n - c - 1 passes each move u along the gradient of q projected onto the
null space of the free columns of A' until one more coordinate reaches
its bound, which q (convex on the line) does not let fall.  The projection
uses M^-1 = (A'_free A'_free^T)^-1, carried across passes by a
Sherman-Morrison downdate as each coordinate is fixed and factored afresh
only where that downdate's pivot (the share of the fixed coordinate in the
null space) is below _REFRESH.  A free coordinate outside that null space
carries the rank of A'_free, so it is neither moved nor fixed, whatever
rounding leaves in its gradient: a walker about to fix a coordinate whose
projected gradient is rounding only (which only degenerate sections, with
tied or missed coordinates, ever see) drops every such coordinate and
steps again.  It then pivots: every edge of the vertex, the flip of a bound
coordinate j towards its other bound with the basics following along
-T[:, j], is cut by the ratio test on the c basics and scored as q at its
far end; the best edge is taken while it raises q.

Arrays of the walks put the basis position first: (c, W, n) tableaux and
normals, so that sums over the few positions are elementwise.

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
_REBASE = 1e-2     # l_1: re-choose j0 when |x_j0| falls below this share of max |x|
_REFRESH = 1e-3    # cube: factor M afresh when a downdate's pivot falls below this


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
        A = _normal_basis(Z)                                                   # (S, c, n)
        # walkers are seeded from the m coordinates of largest |P_F e_i| of their section
        m = min(_SEEDS, n)
        top = np.argsort(-np.vecdot(Z, Z), axis=1, kind="stable")[:, :m]
        V = np.take_along_axis(Z, top[:, :, None], axis=1) @ ZT                # P_F e_i, (S, m, n)
        X = walk(body.scales, A, P, V)
        Y = (X.reshape(S, m, n) @ Z) @ ZT                                      # Z Z^T x, (S, m, n)
        PY = Y if P is None else Y @ np.swapaxes(P, 1, 2)
        out[a:b] = (np.sqrt(np.vecdot(PY, PY)) / body._gauge(Y.reshape(-1, n)).reshape(S, m)).max(axis=1)
    return out


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


def _pivot(T, row, col, pos, on):
    """Pivot the (k, a, n) tableaux T in place where `on` (a,): column col
    enters the basis at position pos and the basic at position row leaves;
    row becomes zero unless it is pos."""
    a = np.arange(T.shape[1])
    new = T[row, a] / np.where(on, T[row, a, col], 1.0)[:, None]
    T -= (T[:, a, col] * on)[:, :, None] * new
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
    T[:c] = np.moveaxis(np.linalg.inv(np.take_along_axis(Aw, J[:, None, :c], axis=2)) @ Aw, 1, 0)
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
            sec_a = sec[act]
            GJ = G[sec_a, Ja.T]                                                 # rows J of G, (k, a, n)
            GJJ = G[sec_a[:, None], Ja.T[:, :, None], Ja]                       # (k, a, k)
            GJx = np.einsum("lam,ma->la", GJJ, x)                               # (G x) on J, (k, a)
            qww = Gd[sec_a] - np.einsum("lwn,lwn->wn", Ta, 2.0 * GJ - _stack_matmul(GJJ, Ta))
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
            sa = sec[idx]
            GB = Gp[sa, B.T]                                                    # rows B of G', (c, a, n)
            GBB = Gp[sa[:, None], B.T[:, :, None], B]                           # (c, a, c)
            return Gd[sa] - np.einsum("bwn,bwn->wn", T, 2.0 * GB - _stack_matmul(GBB, T))

    # a coordinate that F misses (P_F e_i = 0) seeds nothing: its walker starts
    # from the section's first seed, which is never zero
    U = V * s
    size = np.abs(U).max(axis=2, keepdims=True)
    dead = size <= 1e-9 * size[:, :1]
    U = (np.where(dead, U[:, :1], U) / np.where(dead, size[:, :1], size)).reshape(W, n)
    Ap = np.ascontiguousarray(np.moveaxis((A / s)[sec], 1, 0))                # A', (c, W, n)
    U, free, _ = _purify(Ap.copy(), grad, U)
    U, _, _ = _edge_walk(Ap, grad, curv, U, np.argsort(~free, axis=1, kind="stable")[:, :Ap.shape[0]])
    return U / s


def _purify(Ap, grad, U):
    """Purify the (W, n) points U of {A' u = 0, |u|_inf <= 1} to vertices: each
    pass moves the free coordinates along the projected gradient of q until
    one more reaches its bound, so n - c coordinates end at +-1.  Ap (c, W, n)
    holds A' and has its fixed columns zeroed as it goes.  Returns U, the
    free mask and M^-1 = (A'_free A'_free^T)^-1 as a (c, c, W) stack."""
    c, W, n = Ap.shape
    rows = np.arange(W)
    free = np.ones((W, n), dtype=bool)
    Minv = _gram_inverse(Ap)
    i = np.abs(U).argmax(axis=1)
    for p in range(n - c):
        U[rows, i] = np.sign(U[rows, i])
        free[rows, i] = False
        # fixing i takes its column out of M: downdate M^-1, whose pivot
        # 1 - a_i^T M^-1 a_i is the share of e_i in the null space of A'_free
        col = Ap[:, rows, i]                                                    # (c, W)
        h = np.einsum("bcw,cw->bw", Minv, col)                                  # M^-1 a_i
        piv = 1.0 - np.einsum("bw,bw->w", col, h)
        Ap[:, rows, i] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            Minv += h[:, None] * (h / piv)
        stale = np.flatnonzero(piv < _REFRESH)
        if stale.size:
            Minv[:, :, stale] = _gram_inverse(Ap[:, stale])
        if p == n - c - 1:
            break
        Gu = grad(U)
        g = Gu * free
        y = np.einsum("bcw,cw->bw", Minv, np.einsum("cwn,wn->cw", Ap, g))        # M^-1 A' g, (c, W)
        D = g - np.einsum("bw,bwn->wn", y, Ap)                                  # projected gradient
        D *= np.where(np.vecdot(g, D) < 0.0, -1.0, 1.0)[:, None]
        # |D|^2 that is rounding only; all of it, where g is rounding against G'u
        gg = np.vecdot(g, g)
        tiny = np.where(gg <= 1e-24 * np.vecdot(Gu, Gu), np.inf, 1e-24 * np.maximum(gg, 1e-300))
        flat = np.flatnonzero(np.vecdot(D, D) <= tiny)
        if flat.size:
            D[flat] = _null_step(D[flat], g[flat], tiny[flat], Minv[:, :, flat], Ap[:, flat], free[flat])
        i, speed = _first_to_bound(D, U)
        # fixing i keeps A'_free at rank c unless e_i is outside its null
        # space, where D_i is zero but for rounding; a walker whose D_i is that
        # small (degenerate sections) steps again without any such coordinate
        odd = D[rows, i] ** 2 <= 1e-12 * gg
        odd[flat] = False
        odd = np.flatnonzero(odd)
        if odd.size:
            D[odd] = _null_step(D[odd], g[odd], tiny[odd], Minv[:, :, odd], Ap[:, odd], free[odd])
            i[odd], speed[odd] = _first_to_bound(D[odd], U[odd])
        with np.errstate(divide="ignore"):
            U += (1.0 / speed)[:, None] * D
    return U, free, Minv


def _gram_inverse(Ap):
    """(A' A'^T)^-1 of the (c, W, n) stack Ap, as a (c, c, W) stack."""
    return np.ascontiguousarray(np.moveaxis(np.linalg.inv(np.einsum("bwn,cwn->wbc", Ap, Ap)), 0, -1))


def _edge_walk(Ap, grad, curv, U, B):
    """Walk improving edges from the (W, n) vertices U with basic coordinates
    B (W, c) of the (c, W, n) normals Ap.  Returns U, B and the (c, W, n)
    tableaux T = A'_B^-1 A'."""
    c, W, n = Ap.shape
    AB = np.take_along_axis(np.moveaxis(Ap, 0, 1), B[:, None, :], axis=2)    # A'_B, (W, c, c)
    T = np.ascontiguousarray(np.moveaxis(np.linalg.inv(AB) @ np.moveaxis(Ap, 0, 1), 1, 0))
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


def _null_step(D, g, tiny, Minv, Ap, free):
    """The steps D (w, n) cleared of the free coordinates outside the null
    space of A'_free: they carry its rank, so they must neither move nor be
    fixed.  Where nothing but rounding (|D|^2 <= tiny) is left, u minimizes q
    on its face, and the step is the null direction of the free coordinate
    that the null space reaches most.  Each step is signed to raise q, whose
    gradient on the free coordinates is g; Minv (c, c, w) is M^-1 and Ap
    (c, w, n) is A'_free."""
    H = np.einsum("bcw,cwn->bwn", Minv, Ap)                                     # M^-1 A', (c, w, n)
    reach = 1.0 - np.einsum("bwn,bwn->wn", Ap, H)                               # share of e_i in null(A'_free)
    keep = reach > _PIVOT
    D = D * keep
    flat = np.flatnonzero(np.vecdot(D, D) <= tiny)
    j = np.where(free[flat], reach[flat], -np.inf).argmax(axis=1)
    D[flat] = -np.einsum("bw,bwn->wn", H[:, flat, j], Ap[:, flat])
    D[flat, j] += 1.0
    D *= keep
    return D * np.where(np.vecdot(g, D) < 0.0, -1.0, 1.0)[:, None]


def _first_to_bound(D, U):
    """Per walker, the coordinate of U in [-1, 1]^n that moving along D takes to
    its bound first, at the largest |D_i| / (1 - sign(D_i) u_i), and that ratio;
    entries of D that are rounding against its largest keep |D_i|."""
    rows = np.arange(D.shape[0])
    speed = np.abs(D)
    toward = np.sign(D)
    toward *= speed > 1e-12 * speed[rows, speed.argmax(axis=1)][:, None]
    toward *= U
    with np.errstate(divide="ignore"):
        speed /= 1.0 - toward
    i = speed.argmax(axis=1)
    return i, speed[rows, i]


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
