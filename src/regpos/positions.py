"""The ell-position: minimize the sample average of ||T^{-1} G||_K^2 over
determinant-one maps.

The solver works in the unconstrained chart W = exp(S) with S symmetric
traceless (diagonal traceless when the body is unconditional, which is
enough by the commutation property of the unique SPD minimizer), where W is
the inverse of the returned position map.  The objective is deterministic
for a fixed sample, so a quasi-Newton line-searched descent is used:
``_lbfgs``, the two-loop L-BFGS recursion (Liu & Nocedal 1989) over at most
20 curvature pairs with a backtracking line search.  For kinked gauges any
subgradient element is supplied and steps are accepted on a strict Armijo
decrease only.  ``_lbfgs`` stops when the largest gradient component is at
most ``gtol`` (the only stop it reports as converged), when one step lowers
the objective by at most ``ftol`` relative, after ``maxiter`` steps, or when
the line search finds no strict decrease.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import bodies as bd
from .gaussian import GaussianSample, ell, ell_star
from .interpolation import InterpolationPair, interpolate

__all__ = [
    "PositionMap",
    "EllPositionResult",
    "solve_ell_position",
    "ell_product",
    "ProductEstimate",
    "balance_scale",
]


class PositionMap:
    """Determinant-one invertible map with cached inverse and adjoint-inverse."""

    def __init__(self, matrix, inverse=None):
        M = np.array(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("position map must be a square matrix")
        if not np.all(np.isfinite(M)):
            raise ValueError("non-finite position map")
        self.matrix = M
        M.setflags(write=False)
        inv = np.linalg.inv(M) if inverse is None else np.array(inverse, dtype=float)
        self.inverse = inv
        inv.setflags(write=False)
        d = np.diag(M)
        self.diagonal = bool(np.allclose(M, np.diag(d)))
        self.det = float(np.linalg.det(M))

    @property
    def adjoint_inverse(self):
        return self.inverse.T

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "PositionMap":
        eye = np.eye(n)
        return cls(eye, eye)

    @classmethod
    def from_diag(cls, t, normalize=False) -> "PositionMap":
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise ValueError("diagonal entries must be positive")
        if normalize:
            t = t / np.exp(np.log(t).mean())
        return cls(np.diag(t), np.diag(1.0 / t))

    def log_diag(self):
        if not self.diagonal:
            raise ValueError("log_diag requires a diagonal map")
        return np.log(np.diag(self.matrix))

    def apply(self, K: bd.ConvexBody) -> bd.ConvexBody:
        return bd.linear_image(self.matrix, K)

    def compose(self, other: "PositionMap") -> "PositionMap":
        return PositionMap(self.matrix @ other.matrix, other.inverse @ self.inverse)

    def __repr__(self):
        kind = "diag" if self.diagonal else "full"
        return f"<PositionMap {kind} dim={self.dim} det={self.det:.3g}>"


@dataclass
class EllPositionResult:
    T: PositionMap
    objective: float            # ell_2(T K) on the SAA sample
    residual: float             # |grad| / objective^2 in the chart, at the optimum
    iterations: int
    converged: bool
    mode: str
    objective_at_identity: float


# a power-form row sum at or above this has lost at most n*eps to underflowed terms
_POWER_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _block_powers(G, p):
    """(|G| / m)^p, read-only, and m^2 for m the largest |g| of the block."""
    # in place, sparing two temporaries
    A = np.abs(G)
    m = A.max(initial=np.finfo(float).tiny)
    np.power(np.divide(A, m, out=A), p, out=A)
    A.setflags(write=False)
    return A, m * m


def _power_table(sample, p):
    """_block_powers of every block, built once per (sample, p): every solve of
    a fixed point and of its certificate shares one p, so the last is kept."""
    cached = sample.__dict__.get("_power_table")
    if cached is None or cached[0] != p:
        cached = p, [_block_powers(G, p) for G in sample.blocks()]
        sample.__dict__["_power_table"] = cached
    return cached[1]


class _DiagObjective:
    """psi(w) = mean_j gauge(e^w * g_j)^2 over traceless w (w is recentered).

    For a weighted l_p body with finite p and scales s this is the power form
    psi(w) = mean_j m^2 (sum_i a_ji c_i)^(2/p) with a_ji = (|g_ji| / m)^p, m the
    largest |g_ji| of the block, and c_i = (s_i e^(w_i))^p: A comes from the
    sample's power table, and each call is the two matvecs A c and
    A^T (A c)^(2/p - 1) per block.  Other bodies, and blocks whose row sums
    come near underflow (large p), go through the gauge subgradient.
    """

    def __init__(self, K, sample):
        self.K, self.count = K, sample.count
        self.blocks = list(sample.blocks())
        form = K.as_weighted_lp()
        self.powers = None
        if form is not None and np.isfinite(form[0]):
            self.p, self.log_s = form[0], np.log(form[1])
            self.powers = _power_table(sample, self.p)

    def _subgrad_block(self, G, es):
        X = G * es
        g, Y = self.K._gauge_subgrad(X)
        return float((g * g).sum()), 2.0 * np.einsum("m,mi,mi->i", g, Y, X)

    def __call__(self, w):
        wt = w - w.mean()
        es = np.exp(wt)
        if self.powers is None:
            parts = [self._subgrad_block(G, es) for G in self.blocks]
        else:
            # c is divided by its max e^top to stay in range; psi scales by e^(2 top / p)
            u = self.p * (self.log_s + wt)
            top = u.max()
            c = np.exp(u - top)
            unit = np.exp(2.0 * top / self.p)
            # einsum, not BLAS: the sums must not depend on the BLAS thread count
            def blockfn(G, A, m2):
                S = np.einsum("mi,i->m", A, c)
                if S.min() < _POWER_FLOOR:
                    return self._subgrad_block(G, es)
                r = m2 * S ** (2.0 / self.p - 1.0)
                return unit * float((S * r).sum()), unit * 2.0 * c * np.einsum("mi,m->i", A, r)

            parts = [blockfn(G, *P) for G, P in zip(self.blocks, self.powers)]
        val, grad = map(sum, zip(*parts))
        grad = grad / self.count
        return val / self.count, grad - grad.mean()


def _dexp_factor(lam):
    """Divided differences (e^a - e^b)/(a - b), stable near coincidences."""
    d = 0.5 * (lam[:, None] - lam[None, :])
    mid = 0.5 * (lam[:, None] + lam[None, :])
    ratio = np.where(np.abs(d) < 1e-7, 1.0 + d * d / 6.0, np.sinh(np.where(d == 0, 1.0, d)) / np.where(d == 0, 1.0, d))
    return np.exp(mid) * ratio


class _FullObjective:
    """psi(z) = mean_j gauge(exp(S(z)) g_j)^2 with S(z) = sym(z) - tr/n."""

    def __init__(self, K, sample):
        self.K = K
        self.sample = sample
        self.n = K.dim

    def _chart(self, z):
        n = self.n
        Z = z.reshape(n, n)
        S = 0.5 * (Z + Z.T)
        S -= (np.trace(S) / n) * np.eye(n)
        return S

    def __call__(self, z):
        n = self.n
        S = self._chart(z)
        lam, Q = np.linalg.eigh(S)
        W = (Q * np.exp(lam)) @ Q.T

        def blockfn(G):
            X = G @ W
            g, Y = self.K._gauge_subgrad(X)
            return float((g * g).sum()), (2.0 * g[:, None] * Y).T @ G

        val, Gw = map(sum, zip(*map(blockfn, self.sample.blocks())))
        M = self.sample.count
        Gw = Gw / M
        Phi = _dexp_factor(lam)
        Gs = Q @ (Phi * (Q.T @ Gw @ Q)) @ Q.T
        Gs = 0.5 * (Gs + Gs.T)
        Gs -= (np.trace(Gs) / n) * np.eye(n)
        return val / M, Gs.ravel()


def _dot(a, b):
    # einsum, not BLAS: the sums must not depend on the BLAS thread count
    return float(np.einsum("i,i->", a, b))


_ARMIJO = 1e-4
_BACKTRACKS = 20
_EPS = np.finfo(float).eps


def _lbfgs(fun, x0, *, maxiter, ftol, gtol, memory=20):
    """Minimize fun (which returns the value and the gradient) from x0 by
    L-BFGS; returns (x, f, g, iterations, converged), where converged means
    max |g| <= gtol.

    The direction comes from the two-loop recursion over the last `memory`
    pairs (s, y), scaled by s.y / y.y; a pair with s.y <= 0 is skipped.  The
    first step, and any step after a direction that fails to descend (the
    pairs are then dropped), is -g scaled to min(1, 1/|g|).  Steps halve
    until the value falls strictly and by at least 1e-4 of the predicted
    decrease; after 20 halvings, or once the predicted decrease is below the
    rounding of the value, the search has failed and the solve stops.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    pairs = []
    it = 0
    while np.abs(g).max() > gtol and it < maxiter:
        q = -g
        coef = []
        for s, y, rho in reversed(pairs):
            a = rho * _dot(s, q)
            q -= a * y
            coef.append(a)
        if pairs:
            s, y, rho = pairs[-1]
            q *= 1.0 / (rho * _dot(y, y))
            for (s, y, rho), a in zip(pairs, reversed(coef)):
                q += (a - rho * _dot(y, q)) * s
        slope = _dot(g, q)
        if pairs and slope < 0.0:
            t = 1.0
        else:
            pairs.clear()
            q, slope = -g, -_dot(g, g)
            t = min(1.0, 1.0 / np.sqrt(-slope))
        found = False
        for _ in range(_BACKTRACKS):
            xn = x + t * q
            fn, gn = fun(xn)
            if fn < f and fn <= f + _ARMIJO * t * slope:
                found = True
                break
            t *= 0.5
            # a decrease below the rounding of f cannot be told from noise
            if -t * slope <= _EPS * abs(f):
                break
        if not found:
            break
        s, y = xn - x, gn - g
        sy = _dot(s, y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-memory]
        it += 1
        small = f - fn <= ftol * max(abs(f), abs(fn), 1.0)
        x, f, g = xn, fn, gn
        if small:
            break
    return x, f, g, it, bool(np.abs(g).max() <= gtol)


def solve_ell_position(
    K: bd.ConvexBody,
    sample: GaussianSample,
    *,
    mode: str = "auto",
    tol: float = 1e-6,
    max_iter: int = 500,
    start=None,
) -> EllPositionResult:
    """SAA ell-position of K: the returned T minimizes mean ||T^{-1} g_j||_K^2
    over SPD determinant-one maps (diagonal when K is unconditional)."""
    if sample.dim != K.dim:
        raise ValueError("sample dimension does not match the body")
    if mode == "auto":
        mode = "diagonal" if K.unconditional else "full"
    if mode not in ("diagonal", "full"):
        raise ValueError("mode must be 'auto', 'diagonal' or 'full'")
    n = K.dim
    obj = _DiagObjective(K, sample) if mode == "diagonal" else _FullObjective(K, sample)
    x0 = np.zeros(n if mode == "diagonal" else n * n)
    if start is not None:
        start = np.asarray(start, dtype=float)
        x0 = start.copy().ravel()
    psi_id, grad_id = obj(np.zeros_like(x0))

    x = x0
    iters = 0
    psi, grad = (psi_id, grad_id) if start is None else obj(x)
    residual = float(np.linalg.norm(grad) / max(psi, 1e-300))
    rounds = 0
    while residual > tol and iters < max_iter and rounds < 4:
        x, psi, grad, nit, _ = _lbfgs(obj, x, maxiter=max_iter - iters, ftol=1e-18,
                                      gtol=0.1 * tol * max(psi, 1e-300))
        iters += max(nit, 1)
        residual = float(np.linalg.norm(grad) / max(psi, 1e-300))
        rounds += 1

    if psi > psi_id and start is not None:
        # warm start went sour; fall back to the identity start
        return solve_ell_position(K, sample, mode=mode, tol=tol, max_iter=max_iter, start=None)

    if mode == "diagonal":
        w = x - x.mean()
        T = PositionMap.from_diag(np.exp(-w))
        T._chart_solution = w
    else:
        S = obj._chart(x)
        lam, Q = np.linalg.eigh(S)
        T = PositionMap((Q * np.exp(-lam)) @ Q.T, (Q * np.exp(lam)) @ Q.T)

    return EllPositionResult(
        T=T,
        objective=float(np.sqrt(psi)),
        residual=residual,
        iterations=iters,
        converged=residual <= tol,
        mode=mode,
        objective_at_identity=float(np.sqrt(psi_id)),
    )


class ProductEstimate(NamedTuple):
    value: float
    se: float
    ell: float
    ell_star: float


def ell_product(K: bd.ConvexBody, sample: GaussianSample) -> ProductEstimate:
    """ell(K) * ell*(K) with a delta-method standard error under CRN."""

    def blockfn(G):
        a = K._gauge(G)
        b = K._support(G)
        return (
            float(a.sum()), float(b.sum()), float((a * a).sum()),
            float((b * b).sum()), float((a * b).sum()), a.size,
        )

    sa, sb, saa, sbb, sab, m = map(sum, zip(*map(blockfn, sample.blocks())))
    mua, mub = sa / m, sb / m
    va = max(saa / m - mua**2, 0.0) * m / (m - 1)
    vb = max(sbb / m - mub**2, 0.0) * m / (m - 1)
    cab = (sab / m - mua * mub) * m / (m - 1)
    var = (mub**2 * va + mua**2 * vb + 2 * mua * mub * cab) / m
    return ProductEstimate(mua * mub, float(np.sqrt(max(var, 0.0))), mua, mub)


def balance_scale(K: bd.ConvexBody, theta: float, sample: GaussianSample):
    """(a, ell, ell*): the a > 0 with ell([aK, B_2]_theta) = ell*([aK, B_2]_theta),
    and the two EllEstimates of that balanced interpolant on the sample.

    Scaling K by a scales the interpolant body by a^(1-theta), which divides
    its ell by a^(1-theta) and multiplies its ell* by the same factor, so
    a = (ell/ell*)^(1/(2(1-theta))) evaluated on [K, B_2]_theta, and the
    estimates (values and standard errors) of [aK, B_2]_theta are those of
    [K, B_2]_theta divided and multiplied by a^(1-theta).
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    if K.as_weighted_lp() is None:
        raise ValueError("non-tractable family: balance scale needs a closed-form interpolant")
    Kth = interpolate(InterpolationPair(K, bd.WeightedLp(2.0, np.ones(K.dim)), theta))
    l = ell(Kth, 1, sample)
    ls = ell_star(Kth, 1, sample)
    a = float((l.value / ls.value) ** (1.0 / (2.0 * (1.0 - theta))))
    f = a ** (1.0 - theta)
    return a, replace(l, value=l.value / f, se=l.se / f), replace(ls, value=ls.value * f, se=ls.se * f)
