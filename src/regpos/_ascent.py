"""One batched multistart ascent for ratio extrema on spheres.

Every radius the experiments report reduces to one primitive: extremize
|P z| / gauge(z) over unit z in the column span of Z, for a stack of S
problems at once, with P = I when absent.  Every iterate is a feasible
evaluation, so reported maxima are certified lower bounds and reported
minima certified upper bounds.  Each ascent starts from the best-valued of
its seeds: Gaussian probes and the section's coordinate projections P_F e_i
(see _seeds), ranked by value alone.  Ellipsoids and weighted l_2 balls take an
exact stacked eigenvalue route instead, and maxima over sections of
codimension at most 3 take a vertex search for weighted l_1 balls and a
vertex walk for weighted cubes (_vertex.py).

Each section's value is a function of its own basis, numerator and probes.
Every ascent runs its effort's full iterations, alone or stacked.  A
stack's random numbers come in blocks of _BLOCK sections, each block from
its own stream keyed by a seed and the block's index, so any process draws
any block without the blocks before it.  survey plans a stack: its route
and its seeds, drawing integers only.  run_surveys solves a batch of
planned stacks: it cuts each stack into parts (runs of whole blocks) for
the batch's processes and deals them to this process and to children
forked once per batch; the outputs are the same bytes whatever the parts,
the slabs and the processes.
"""

from __future__ import annotations

import os
import pickle
from typing import NamedTuple

import numpy as np

from ._vertex import MAX_CODIM, vertex_maxima

_EPS = 1e-300

# ascent efforts (starts, iters, probes, polish), one per purpose
SURVEY = (8, 50, 48, 40)       # stacks of Haar sections: cr_k, regularity reports, low-M*, QS
RADIUS = (64, 200, 1000, 120)  # one radius of one body, section or projection
# rows of the probe pass evaluated at once, which bounds its working set
_PROBE_ROWS = 8


def _starts(body, mode, effort):
    """The starts an ascent takes: half the SURVEY's for maxima on weighted
    l_p balls with p < 2 or p = inf, whose coordinate projections (and, for
    p = inf, sign roundings) among the seeds lie near their maximizers, and
    effort[0] otherwise: for 2 < p < inf fewer starts cost accuracy whatever
    the seeds, and minima and RADIUS solves keep every start."""
    if (effort == SURVEY and mode == "max" and body.family == "weighted_lp"
            and (body.p < 2 or np.isinf(body.p))):
        return effort[0] // 2
    return effort[0]


# the routes, costliest per section first, each with the fewest sections per
# part at n = 32 and the power of 32/n that scales it to other n, as a
# section's cost grows with n: a fork costs 5-10 ms at default BLAS threads,
# and in a sweep of 2-way splits at default BLAS threads (n in {8, 16, 32,
# 64}, 64 to 2048 sections per stack) smaller parts did not gain
_MIN_PART = {"ascent": (64, 1), "vertex_walk": (64, 1), "vertex_search": (256, 1), "eigen": (128, 2)}
_WORKERS = None     # parts per stack and processes per batch when set (tests force it; see _cuts)
# sections a part solves at once, on every route: this bounds a process's
# working set, and larger stacks were no faster per section in that sweep
_SLAB = 256
# sections per block of random numbers (see _normals): a part or a slab is a
# run of whole blocks, and each block costs one SeedSequence per stream
_BLOCK = 32


def _unit(W):
    """The rows of a fresh array W scaled to unit length, in place."""
    W /= np.maximum(np.sqrt(np.vecdot(W, W)), 1e-30)[..., None]
    return W


def _mT(A):
    return np.swapaxes(A, -1, -2)


def _tangent(G, W):
    """G minus its component along the unit rows W, in place."""
    G -= np.vecdot(G, W)[..., None] * W
    return G


def ascend(fun_grad, W0, iters, step0=0.25):
    """Maximize f over unit rows by projected gradient with per-row adaptive steps.

    fun_grad maps (..., d) unit rows to fresh (f, grad) arrays of shapes (...),
    (..., d).  G holds the tangent gradient at the accepted rows W.  Every
    row takes all iters steps, so no row's result depends on another's.
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
    return W, f


def _ratio_objective(body, Zs, Ps, sign):
    """(value, fun_grad) of sign * log(|P z| / gauge(z)) at z = Z w: value(W)
    the values alone, through the gauge, and fun_grad(W) the values and
    their gradients in w, through the ascent's search directions.

    The columns of each Z are orthonormal, so a section numerator |Z w| is 1
    on unit w and its gradient is radial, which the ascent's tangent
    projection removes: with Ps None only the gauge is evaluated.
    """
    # contiguous transposes: batched matmul on a transposed view is slower
    ZT = np.ascontiguousarray(_mT(Zs))
    PsZ = None if Ps is None else Ps @ Zs
    PsZT = None if Ps is None else np.ascontiguousarray(_mT(PsZ))

    def value(W):
        X = W @ ZT
        g = np.maximum(body._gauge(X.reshape(-1, X.shape[-1])).reshape(X.shape[:-1]), _EPS)
        f = -sign * np.log(g)
        if Ps is not None:
            Q = W @ PsZT
            f += (0.5 * sign) * np.log(np.maximum(np.vecdot(Q, Q), _EPS))
        return f

    def fun_grad(W):
        X = W @ ZT
        g, Y = body._ascent_subgrad(X.reshape(-1, X.shape[-1]))
        g = np.maximum(g.reshape(X.shape[:-1]), _EPS)
        G = Y.reshape(X.shape) @ Zs
        G *= (-sign / g)[..., None]
        f = -sign * np.log(g)
        if Ps is None:
            return f, G
        Q = W @ PsZT
        num2 = np.maximum(np.vecdot(Q, Q), _EPS)
        f += (0.5 * sign) * np.log(num2)
        Gn = Q @ PsZ
        Gn *= (sign / num2)[..., None]
        G += Gn
        return f, G

    return value, fun_grad


def _quadratic_form(body):
    """A with gauge^2(x) = x^T A x, for an ellipsoid or a weighted l_2 ball; else None."""
    if body.family == "ellipsoid":
        return body.A
    if body.family == "weighted_lp" and body.p == 2:
        return np.diag(body.scales**2)
    return None


def _ellipsoid_ratio(body, Zs, Ps, mode):
    """Exact extrema for a quadratic gauge, all S at once.

    The squared ratio is w^T N w / w^T M w with M = Z^T A Z.  With Ps None,
    N = Z^T Z = I and the extrema are M's extreme eigenvalues to the power
    -1/2; otherwise whitening by the Cholesky factor M = L L^T turns the
    ratio into the eigenvalues of L^-1 N L^-T.  Returns the (S,) values.
    """
    ZT = _mT(Zs)
    M = ZT @ _quadratic_form(body) @ Zs
    if Ps is None:
        return np.linalg.eigvalsh(M)[:, 0 if mode == "max" else -1] ** -0.5
    PZ = Ps @ Zs
    N = _mT(PZ) @ PZ
    LinvT = _mT(np.linalg.inv(np.linalg.cholesky(M)))
    vals = np.linalg.eigvalsh(_mT(LinvT) @ N @ LinvT)
    return np.sqrt(np.maximum(vals[:, -1 if mode == "max" else 0], 0.0))


def _orthonormal(Zs):
    """The (S, n, d) stack Zs, after checking Z^T Z = I to 1e-8 for every Z."""
    gram = _mT(Zs) @ Zs
    if gram.size and np.abs(gram - np.eye(Zs.shape[-1])).max() > 1e-8:
        raise ValueError("subspace bases must have orthonormal columns (Z^T Z = I to 1e-8)")
    return Zs


def _haar(G):
    """Haar bases from a (count, n, m) standard Gaussian stack: the Q of its
    batched QR, each column's sign set by the diagonal of R."""
    Q, R = np.linalg.qr(G)
    d = np.einsum("sii->si", R)
    return Q * np.sign(np.where(d == 0, 1.0, d))[:, None, :]


class Haar(NamedTuple):
    """count Haar bases of m-dimensional subspaces of R^n as a recipe: the
    _haar of each block's (size, n, m) Gaussians, drawn from the block's
    stream of seed (see _normals) by the part that solves it."""

    seed: int
    n: int
    m: int
    count: int


def _route(body, mode, n, d):
    """Exact eigenvalues for an ellipsoid or weighted l_2 ball, the vertex
    routes for maxima over sections of a weighted l_1 ball (search) or cube
    (walk) of codimension 1..MAX_CODIM, else the ascent."""
    if _quadratic_form(body) is not None:
        return "eigen"
    if body.family == "weighted_lp" and body.p in (1, np.inf) and mode == "max" and 1 <= n - d <= MAX_CODIM:
        return "vertex_search" if body.p == 1 else "vertex_walk"
    return "ascent"


def _seeds(body, Zs, probes):
    """The (S, probes + n, d) unit seeds of a stack's ascents, in w: its
    (S, probes, d) Gaussian probes and the n rows of each Z, the coordinate
    projections P_F e_i, which are the shadows on F of a weighted l_1 ball's
    vertices +-e_i / s_i.  For a weighted cube the first half of the probes
    g become the shadows Z^T (sign(Z g) / s) of the cube's vertices.  A zero
    row (P_F e_i = 0) stays zero."""
    if body.family == "weighted_lp" and np.isinf(body.p):
        half = probes.shape[1] // 2
        V = np.sign(Zs @ _mT(probes[:, :half]))
        V /= body.scales[:, None]
        probes = np.concatenate([_mT(V) @ Zs, probes[:, half:]], axis=1)
    return _unit(np.concatenate([probes, Zs], axis=1))


def _ascend_part(body, Zs, Ps, mode, probes, effort):
    """(S,) ascent extrema of a stack (or part), from its (S, probes, d)
    Gaussian probes: rank the seeds (see _seeds) by value alone, ascend the
    top _starts, polish the best, each for its effort's full iterations.  A
    zero seed ranks last."""
    _, iters, _, polish = effort
    starts = _starts(body, mode, effort)
    sign = 1.0 if mode == "max" else -1.0
    value, fun_grad = _ratio_objective(body, Zs, Ps, sign)

    W = _seeds(body, Zs, probes)
    f0 = np.concatenate([value(W[:, i : i + _PROBE_ROWS]) for i in range(0, W.shape[1], _PROBE_ROWS)], axis=1)
    f0[np.vecdot(W, W) < 0.5] = -np.inf
    order = np.argsort(-f0, axis=1)[:, :starts, None]
    W, f = ascend(fun_grad, np.take_along_axis(W, order, axis=1), iters=iters)
    top = np.argmax(f, axis=1)[:, None, None]
    _, fp = ascend(fun_grad, np.take_along_axis(W, top, axis=1), iters=polish, step0=1e-2)
    return np.exp(sign * np.concatenate([f, fp], axis=1).max(axis=1))


def _cpus():
    """The CPUs of the affinity mask; one without os.fork."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _least(route, n):
    """The fewest sections per part for stacks of sections of R^n on route."""
    size, power = _MIN_PART[route]
    return size * (32 / n) ** power


def _cuts(surveys):
    """(P, parts): the processes a batch of planned surveys runs in, and each
    survey's parts, its sections a..b-1 as at most P near-equal runs (a, b)
    of whole blocks.

    P is _WORKERS when set (one without os.fork), else the CPUs of the
    affinity mask, at most the batch's sections counted in units of _least;
    no part is smaller than _least unless _WORKERS is set."""
    forced = _WORKERS is not None and hasattr(os, "fork")
    if forced:
        P = _WORKERS
    else:
        P = min(_cpus(), int(sum(job.shape[0] / _least(job.route, job.shape[1]) for job in surveys)))
    parts = []
    for job in surveys:
        S, n, _ = job.shape
        blocks = -(-S // _BLOCK)
        p = max(1, min(P if forced else min(P, int(S // _least(job.route, n))), blocks))
        parts.append([(blocks * i // p * _BLOCK, min(S, blocks * (i + 1) // p * _BLOCK)) for i in range(p)])
    return P, parts


def _normals(seed, a, b, shape):
    """The (b - a, *shape) standard normals of sections a..b-1 of a stack, a on
    a block boundary: block j's rows from default_rng(SeedSequence(seed,
    spawn_key=(j,)))."""
    out = np.empty((b - a, *shape))
    for s in range(a, b, _BLOCK):
        stream = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(s // _BLOCK,)))
        stream.standard_normal(out=out[s - a : s - a + _BLOCK])
    return out


class Survey(NamedTuple):
    """A planned stack of ratio extrema (see survey): its route and its probe seed."""

    body: object
    bases: object        # the (S, n, d) stack, or a Haar recipe
    Ps: object
    mode: str
    effort: tuple
    route: str
    shape: tuple         # (S, n, d)
    probe_seed: int      # the seed of the ascent's probes


def survey(body, bases, Ps=None, mode="max", rng=None, effort=SURVEY):
    """Plan the ratio extrema over unit z in col(Z) for a stack of S sections,
    for run_surveys.

    bases is an (S, n, d) stack, whose columns each part checks for
    orthonormality, or a Haar recipe, with 1 <= d <= n = body.dim (else
    ValueError, before any part runs).  Ps is None or an (S, q, n) stack of
    numerator matrices.  The ascent's probes come in blocks from one seed
    drawn from rng here (None: seed 0), as a recipe's bases come from its
    seed, so planning draws no Gaussians and queries no CPUs.  The route is
    the one _route picks.  Each section's value depends only on its own
    basis, numerator and probes, so the results are the same bytes however
    run_surveys cuts the stack."""
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")
    if isinstance(bases, Haar):
        shape = (bases.count, bases.n, bases.m)
    else:
        bases = np.asarray(bases, dtype=float)
        shape = bases.shape
    if len(shape) != 3 or not 1 <= shape[2] <= shape[1] == body.dim:
        raise ValueError(f"bases must be an (S, n, d) stack or Haar recipe with 1 <= d <= n = {body.dim}, "
                         f"not of shape {shape}")
    S, n, d = shape
    if Ps is not None:
        shape = np.shape(Ps)             # () for a body or any other non-array
        if len(shape) != 3 or shape[0] != S or shape[2] != n:
            raise ValueError(f"Ps must be None or an (S, q, n) stack with S = {S} and n = {n}, not of shape {shape}")
        Ps = np.asarray(Ps, dtype=float)
    seed = 0 if rng is None else int(rng.integers(2**63))
    return Survey(body, bases, Ps, mode, effort, _route(body, mode, n, d), (S, n, d), seed)


def _bases(job, a, b):
    """The bases of sections a..b-1 of a planned survey, a on a block
    boundary: a given stack's checked by _orthonormal, a Haar recipe's drawn."""
    if isinstance(job.bases, Haar):
        return _haar(_normals(job.bases.seed, a, b, job.shape[1:]))
    return _orthonormal(job.bases[a:b])


def _solve(job, a, b):
    """Sections a..b-1 of a planned survey on its route, in slabs of whole
    blocks, at most _SLAB sections (or one block) at a time."""
    d = job.shape[2]
    step = _BLOCK * max(1, _SLAB // _BLOCK)
    out = []
    for s in range(a, b, step) or [a]:           # an empty stack is one empty slab
        t = min(s + step, b)
        Zs = _bases(job, s, t)
        Ps = None if job.Ps is None else job.Ps[s:t]
        if job.route == "eigen":
            out.append(_ellipsoid_ratio(job.body, Zs, Ps, job.mode))
        elif job.route != "ascent":
            out.append(vertex_maxima(job.body, Zs, Ps))
        else:
            probes = _normals(job.probe_seed, s, t, (job.effort[2], d))
            out.append(_ascend_part(job.body, Zs, Ps, job.mode, probes, job.effort))
    return np.concatenate(out)


def run_surveys(surveys):
    """The results of planned surveys, in order, from one batch.

    Each survey is cut into parts for the batch's P processes (see _cuts), so
    one stack keeps its equal parts, one per process.  The parts of every
    survey are ordered costlier routes (in the order of _MIN_PART) and then
    larger parts first, and dealt in that order to the P processes when the
    batch forks (see _run).  The parts are joined in order."""
    P, cuts = _cuts(surveys)
    parts = [(job, a, b) for job, cut in zip(surveys, cuts) for a, b in cut]
    routes = list(_MIN_PART)
    order = sorted(range(len(parts)), key=lambda i: (routes.index(parts[i][0].route), parts[i][1] - parts[i][2], i))
    done = _run(lambda i: _solve(*parts[i]), order, P)
    results, i = [], 0
    for cut in cuts:
        results.append(np.concatenate([done[j] for j in range(i, i + len(cut))]))
        i += len(cut)
    return results


def _run(solve, order, P):
    """{i: solve(i)} for every part i of order, dealt at fork time: with P cut
    to len(order), process c solves order[c::P], c = 0 being this process and
    c = 1..P-1 children forked here.

    A child solves its parts until one raises, then pickles its results (or
    the part and its exception) into its own pipe and leaves by os._exit, so
    no inherited buffer or exit handler runs twice.  A child's exception (the
    earliest part's, if several fail) is re-raised here; if this process
    raises first, the children are killed.  Every child is reaped before _run
    returns or raises.
    """
    P = min(P, len(order))
    if P <= 1:
        return {i: solve(i) for i in order}
    children, done = [], {}                     # (pid, read end) per child; results by part
    try:
        for c in range(1, P):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:                        # the child: never returns
                _child(solve, order[c::P], w)
            os.close(w)
            children.append((pid, r))
        for i in order[::P]:
            done[i] = solve(i)
        failed = []
        for _, r in children:
            with os.fdopen(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError("a forked part of a section survey ended without a result")
            ok, value = pickle.loads(data)
            if ok:
                done.update(value)
            else:
                failed.append(value)
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
    finally:
        for pid, r in children:
            if len(done) < len(order):
                import signal

                os.kill(pid, signal.SIGKILL)
            os.close(r)
            os.waitpid(pid, 0)
    return done


def _child(solve, parts, w):
    """Solve the dealt parts in a forked child, send the pickled outcome down
    w and exit.  An outcome that does not pickle leaves the pipe empty."""
    try:
        done, i = {}, None
        try:
            for i in parts:
                done[i] = solve(i)
            outcome = (True, done)
        except BaseException as exc:            # handed to the parent, which re-raises it
            outcome = (False, (i, exc))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(0)


def ratio_extremum_many(body, Zs, Ps=None, mode="max", rng=None):
    """Batched ratio extrema over unit z in col(Zs[i]) at the SURVEY effort: an (S,) array.

    Zs is (S, n, d) with orthonormal columns; other bases, and numerators
    that are not an (S, q, n) stack, raise ValueError.
    The numerator is |z| when Ps is None, else |Ps[i] z|.  Exact for
    ellipsoids and weighted l_2 balls; else maxima are lower bounds and
    minima upper bounds.
    """
    return run_surveys([survey(body, Zs, Ps, mode, rng)])[0]


def ratio_extremum(body, Z=None, P=None, mode="max", rng=None, starts=RADIUS[0], iters=RADIUS[1],
                   probes=RADIUS[2], polish=RADIUS[3]):
    """One problem of ratio_extremum_many, with Z (n, d) (None: the whole space)
    and P None or a (q, n) matrix, at the RADIUS effort unless overridden."""
    Zs = np.eye(body.dim)[None] if Z is None else np.asarray(Z, dtype=float)[None]
    Ps = None if P is None else np.asarray(P)[None]
    return float(run_surveys([survey(body, Zs, Ps, mode, rng, (starts, iters, probes, polish))])[0][0])

