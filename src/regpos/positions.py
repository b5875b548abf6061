"""The ell-position: minimize the sample average of ||T^{-1} G||_K^2 over
determinant-one maps.

The solver works in the unconstrained chart W = exp(S) with S symmetric
traceless (diagonal traceless when the body is unconditional, which is
enough by the commutation property of the unique SPD minimizer), where W is
the inverse of the returned position map.  The objective is deterministic
for a fixed sample, so a quasi-Newton line-searched descent (L-BFGS) is
used; for kinked gauges any subgradient element is supplied and steps are
accepted on strict decrease only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from . import bodies as bd
from .gaussian import GaussianSample, _map_blocks, ell, ell_star
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
        self.det_normalized = bool(abs(abs(self.det) - 1.0) <= 1e-10)

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

    def normalized(self) -> "PositionMap":
        s = abs(self.det) ** (1.0 / self.dim)
        return PositionMap(self.matrix / s, self.inverse * s)

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
    product: float | None = None
    product_se: float | None = None


class _DiagObjective:
    """psi(w) = mean_j gauge(e^w * g_j)^2 over traceless w (w is recentered)."""

    def __init__(self, K, sample, threads=1):
        self.K = K
        self.sample = sample
        self.threads = threads
        self.n = K.dim

    def __call__(self, w):
        wt = w - w.mean()
        es = np.exp(wt)

        def blockfn(G):
            X = G * es
            g, Y = self.K._gauge_subgrad(X)
            return float((g * g).sum()), 2.0 * np.einsum("m,mi,mi->i", g, Y, X)

        val = 0.0
        grad = np.zeros(self.n)
        for v, gr in _map_blocks(self.sample, blockfn, self.threads):
            val += v
            grad += gr
        M = self.sample.count
        grad = grad / M
        grad -= grad.mean()
        return val / M, grad


def _dexp_factor(lam):
    """Divided differences (e^a - e^b)/(a - b), stable near coincidences."""
    d = 0.5 * (lam[:, None] - lam[None, :])
    mid = 0.5 * (lam[:, None] + lam[None, :])
    ratio = np.where(np.abs(d) < 1e-7, 1.0 + d * d / 6.0, np.sinh(np.where(d == 0, 1.0, d)) / np.where(d == 0, 1.0, d))
    return np.exp(mid) * ratio


class _FullObjective:
    """psi(z) = mean_j gauge(exp(S(z)) g_j)^2 with S(z) = sym(z) - tr/n."""

    def __init__(self, K, sample, threads=1):
        self.K = K
        self.sample = sample
        self.threads = threads
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

        val = 0.0
        Gw = np.zeros((n, n))
        for v, gw in _map_blocks(self.sample, blockfn, self.threads):
            val += v
            Gw += gw
        M = self.sample.count
        Gw /= M
        Phi = _dexp_factor(lam)
        Gs = Q @ (Phi * (Q.T @ Gw @ Q)) @ Q.T
        Gs = 0.5 * (Gs + Gs.T)
        Gs -= (np.trace(Gs) / n) * np.eye(n)
        return val / M, Gs.ravel()


def solve_ell_position(
    K: bd.ConvexBody,
    sample: GaussianSample,
    *,
    mode: str = "auto",
    tol: float = 1e-6,
    max_iter: int = 500,
    start=None,
    threads: int = 1,
    compute_product: bool = True,
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
    obj = _DiagObjective(K, sample, threads) if mode == "diagonal" else _FullObjective(K, sample, threads)
    x0 = np.zeros(n if mode == "diagonal" else n * n)
    if start is not None:
        start = np.asarray(start, dtype=float)
        x0 = start.copy().ravel()
    psi_id, _ = obj(np.zeros_like(x0))

    x = x0
    iters = 0
    psi, grad = obj(x)
    residual = float(np.linalg.norm(grad) / max(psi, 1e-300))
    rounds = 0
    while residual > tol and iters < max_iter and rounds < 4:
        res = minimize(
            obj,
            x,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": max_iter - iters,
                "ftol": 1e-18,
                "gtol": 0.1 * tol * max(psi, 1e-300),
                "maxcor": 20,
            },
        )
        x = res.x
        iters += max(res.nit, 1)
        psi, grad = obj(x)
        residual = float(np.linalg.norm(grad) / max(psi, 1e-300))
        rounds += 1

    if psi > psi_id and start is not None:
        # warm start went sour; fall back to the identity start
        return solve_ell_position(
            K, sample, mode=mode, tol=tol, max_iter=max_iter, start=None,
            threads=threads, compute_product=compute_product,
        )

    if mode == "diagonal":
        w = x - x.mean()
        T = PositionMap.from_diag(np.exp(-w))
        T._chart_solution = w
    else:
        S = obj._chart(x)
        lam, Q = np.linalg.eigh(S)
        T = PositionMap((Q * np.exp(-lam)) @ Q.T, (Q * np.exp(lam)) @ Q.T)
        T._chart_solution = x

    result = EllPositionResult(
        T=T,
        objective=float(np.sqrt(psi)),
        residual=residual,
        iterations=iters,
        converged=residual <= tol,
        mode=mode,
        objective_at_identity=float(np.sqrt(psi_id)),
    )
    if compute_product:
        prod = ell_product(T.apply(K), sample, threads=threads)
        result.product = prod.value
        result.product_se = prod.se
    return result


class ProductEstimate(NamedTuple):
    value: float
    se: float
    ell: float
    ell_star: float


def ell_product(K: bd.ConvexBody, sample: GaussianSample, threads: int = 1) -> ProductEstimate:
    """ell(K) * ell*(K) with a delta-method standard error under CRN."""

    def blockfn(G):
        a = K._gauge(G)
        b = K._support(G)
        return (
            float(a.sum()), float(b.sum()), float((a * a).sum()),
            float((b * b).sum()), float((a * b).sum()), a.size,
        )

    sa = sb = saa = sbb = sab = 0.0
    m = 0
    for pa, pb, paa, pbb, pab, pm in _map_blocks(sample, blockfn, threads):
        sa += pa
        sb += pb
        saa += paa
        sbb += pbb
        sab += pab
        m += pm
    mua, mub = sa / m, sb / m
    va = max(saa / m - mua**2, 0.0) * m / (m - 1)
    vb = max(sbb / m - mub**2, 0.0) * m / (m - 1)
    cab = (sab / m - mua * mub) * m / (m - 1)
    var = (mub**2 * va + mua**2 * vb + 2 * mua * mub * cab) / m
    return ProductEstimate(mua * mub, float(np.sqrt(max(var, 0.0))), mua, mub)


def balance_scale(K: bd.ConvexBody, theta: float, sample: GaussianSample, threads: int = 1) -> float:
    """The a > 0 with ell([aK, B_2]_theta) = ell*([aK, B_2]_theta).

    Scaling K by a scales the interpolant body by a^(1-theta), which divides
    its ell by a^(1-theta) and multiplies its ell* by the same factor, so
    a = (ell/ell*)^(1/(2(1-theta))) evaluated on [K, B_2]_theta.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    if K.as_weighted_lp() is None:
        raise ValueError("non-tractable family: balance scale needs a closed-form interpolant")
    Kth = interpolate(InterpolationPair(K, bd.WeightedLp(2.0, np.ones(K.dim)), theta))
    l = ell(Kth, 1, sample, threads=threads)
    ls = ell_star(Kth, 1, sample, threads=threads)
    return float((l.value / ls.value) ** (1.0 / (2.0 * (1.0 - theta))))
