"""Convex bodies as evaluatable norm oracles.

Every body here is origin-symmetric with the origin in its interior, so it
is the unit ball of a norm; ``gauge`` evaluates that norm and ``support``
the dual one.  The closed-form families (weighted l_p balls, ellipsoids,
H/V-polytopes and their invertible linear images) carry closed-form polars.
V-polytope gauges are solved by a small LP, documented to relative error
<= 1e-7.

Oracles accept a single vector or any array whose last axis matches the
body's dimension.  Bodies are immutable after construction, so all oracles
are pure and safe for unsynchronized concurrent evaluation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._ascent import ratio_extremum

__all__ = [
    "ConvexBody",
    "WeightedLp",
    "Ellipsoid",
    "PolytopeH",
    "PolytopeV",
    "LinearImage",
    "DegenerateBodyError",
    "Radii",
    "linear_image",
    "ball",
    "cube",
    "cross_polytope",
    "from_spec",
]

_SPD_TOL = 1e-12


class DegenerateBodyError(ValueError):
    """Raised when a body would have empty interior or be unbounded."""


class Radii(NamedTuple):
    """In-radius r and out-radius R with r*B_2 <= K <= R*B_2."""

    r: float
    R: float
    exact: bool


def _check_points(x, dim):
    """Coerce to a (m, dim) float array; returns (X, lead_shape, is_single)."""
    X = np.asarray(x, dtype=float)
    if X.ndim == 0 or X.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: expected last axis {dim}, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input")
    single = X.ndim == 1
    lead = X.shape[:-1]
    return X.reshape(-1, dim), lead, single


def _soft_max_ascent(L, lift):
    """_ascent_subgrad of a gauge max_j |L_j| of linear forms: the max-kink is
    softened to the gradient of the q=24 norm of L, lifted back by `lift`.

    With R = |L| / g and S = sum_j R_j^q, that gradient rescaled by the exact
    gauge g is lift(sign(L) R^(q-1)) / S: one power per entry.  S >= 1 on
    nonzero rows, whose largest R is exactly 1; zero rows give a zero direction.
    """
    q = 24.0
    A = np.abs(L)
    g = A.max(axis=-1)
    A /= np.where(g > 0, g, 1.0)[:, None]
    Y = A ** (q - 1.0)
    S = np.vecdot(Y, A)
    S[g == 0] = 1.0
    Y = lift(np.copysign(Y, L, out=Y))
    Y /= S[:, None]
    return g, Y


def _one_power(Z, p):
    """(m, R^(p-1), S) of the rows of Z = |s x| for 1 < p < inf, with m the
    row max, R = Z / m (in place) and S = sum R^p: the gauge is m S^(1/p).

    Dividing by m keeps the powers in range, and the one power p - 1 per
    entry is a square root at p = 1.5 and a square at p = 3; zero rows give
    S = 0."""
    m = Z.max(axis=-1)
    Z /= np.where(m > 0, m, 1.0)[:, None]
    Y = Z ** (p - 1.0)
    return m, Y, np.vecdot(Y, Z)


class ConvexBody:
    """Oracle bundle for one origin-symmetric convex body."""

    family = "abstract"
    exact = True            # gauge/support evaluate closed forms

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 1:
            raise DegenerateBodyError("dimension must be >= 1")
        self.dim = dim
        self.unconditional = False           # invariant under coordinate sign flips
        self._radii_cache: Radii | None = None
        self._polar_cache: ConvexBody | None = None

    # ------------------------------------------------------------------
    # raw oracles on (m, n) batches
    # ------------------------------------------------------------------

    def _gauge(self, X):
        raise NotImplementedError

    def _gauge_subgrad(self, X):
        """Return (gauge values, one subgradient per row)."""
        raise NotImplementedError

    def _ascent_subgrad(self, X):
        """(exact gauge, search direction field) for sphere ascents.

        Defaults to the exact subgradient; kinked families override with a
        smoothed direction (values stay exact, only directions are softened,
        so accept/reject logic in the searches remains sound).
        """
        return self._gauge_subgrad(X)

    def _support(self, Y):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # public vectorized wrappers
    # ------------------------------------------------------------------

    def gauge(self, x):
        """Minkowski functional ||x||_K; 0 iff x = 0."""
        X, lead, single = _check_points(x, self.dim)
        g = self._gauge(X)
        return float(g[0]) if single else g.reshape(lead)

    def gauge_subgrad(self, x):
        """One element of the subdifferential of the gauge at x."""
        X, lead, single = _check_points(x, self.dim)
        _, Y = self._gauge_subgrad(X)
        return Y[0] if single else Y.reshape(lead + (self.dim,))

    def support(self, y):
        """Support function h_K(y) = max_{x in K} <x, y>."""
        Y, lead, single = _check_points(y, self.dim)
        h = self._support(Y)
        return float(h[0]) if single else h.reshape(lead)

    # ------------------------------------------------------------------
    # derived bodies
    # ------------------------------------------------------------------

    def polar(self) -> "ConvexBody":
        if self._polar_cache is None:
            self._polar_cache = self._make_polar()
        return self._polar_cache

    def _make_polar(self) -> "ConvexBody":
        raise NotImplementedError(f"no closed-form polar for the {self.family!r} family")

    def scale(self, a: float) -> "ConvexBody":
        """The dilate a*K."""
        if not (np.isfinite(a) and a > 0):
            raise ValueError("scale factor must be positive and finite")
        return linear_image(float(a), self)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def radii(self) -> Radii:
        """Cached (r, R) with r*B_2 <= K <= R*B_2; heuristic families flag estimate."""
        if self._radii_cache is None:
            self._radii_cache = self._compute_radii()
        return self._radii_cache

    def _compute_radii(self) -> Radii:
        # R = max |x| / gauge(x) and r = min |x| / gauge(x) over the sphere
        return Radii(ratio_extremum(self, mode="min"), ratio_extremum(self, mode="max"), False)

    def as_weighted_lp(self):
        """(p, scales) when the body is a weighted l_p ball in the standard basis."""
        return None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim}>"


# ----------------------------------------------------------------------
# weighted l_p balls
# ----------------------------------------------------------------------


class WeightedLp(ConvexBody):
    """Unit ball of x -> ||s * x||_p, stored through the scales s_i > 0.

    The constructor convention for weights is (sum_i v_i |x_i|^p)^(1/p),
    i.e. s_i = v_i^(1/p); for p = inf the gauge is max_i v_i |x_i| and the
    weights are the scales themselves.  The polar swaps p for its conjugate
    and the scales for their reciprocals.
    """

    family = "weighted_lp"

    def __init__(self, p: float, scales):
        s = np.array(scales, dtype=float)
        if s.ndim != 1:
            raise ValueError("scales must be a 1-d array")
        if not np.all(np.isfinite(s)) or np.any(s <= 0):
            raise DegenerateBodyError("scales must be positive and finite")
        p = float(p)
        if not p >= 1:
            raise ValueError("p must lie in [1, inf]")
        super().__init__(s.size)
        self.p = p
        self.scales = s
        s.setflags(write=False)
        self.unconditional = True

    @classmethod
    def from_weights(cls, p, weights):
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise DegenerateBodyError("weights must be positive")
        if np.isinf(p):
            return cls(p, w)
        return cls(p, w ** (1.0 / float(p)))

    @property
    def weights(self):
        return self.scales if np.isinf(self.p) else self.scales**self.p

    @property
    def conjugate_p(self):
        p = self.p
        if p == 1:
            return np.inf
        if np.isinf(p):
            return 1.0
        return p / (p - 1.0)

    def _gauge(self, X):
        Z = np.abs(self.scales * X)
        p = self.p
        if np.isinf(p):
            return Z.max(axis=-1)
        if p == 1:
            return Z.sum(axis=-1)
        if p == 2:
            return np.sqrt((Z * Z).sum(axis=-1))
        m, _, S = _one_power(Z, p)
        return m * S ** (1.0 / p)

    def _gauge_subgrad(self, X):
        s = self.scales
        p = self.p
        if p == 1:
            Y = np.sign(X)
            Y *= s
            return np.vecdot(np.abs(X), s), Y
        Z = np.abs(s * X)
        if np.isinf(p):
            idx = Z.argmax(axis=-1)
            Y = np.zeros_like(X)
            rows = np.arange(X.shape[0])
            Y[rows, idx] = s[idx] * np.sign(X[rows, idx])
            return Z[rows, idx], Y
        # the gradient is s sign(x) R^(p-1) S^((1-p)/p)
        m, Y, S = _one_power(Z, p)
        S[m == 0] = 1.0     # S >= 1 on nonzero rows, whose largest R is exactly 1
        Y *= (S ** ((1.0 - p) / p))[:, None]
        Y *= s
        np.copysign(Y, X, out=Y)
        return m * S ** (1.0 / p), Y

    def _ascent_subgrad(self, X):
        if not np.isinf(self.p):
            return self._gauge_subgrad(X)
        return _soft_max_ascent(self.scales * X, lambda C: self.scales * C)

    def _support(self, Y):
        return WeightedLp(self.conjugate_p, 1.0 / self.scales)._gauge(Y)

    def _make_polar(self):
        return WeightedLp(self.conjugate_p, 1.0 / self.scales)

    def as_weighted_lp(self):
        return self.p, self.scales

    def _compute_radii(self):
        s = self.scales
        p = self.p

        def logsumexp(a):
            top = a.max()
            return top + np.log(np.exp(a - top).sum())

        # extremes of ||s*x||_p over the Euclidean unit sphere
        if p == 2:
            gmin, gmax = float(s.min()), float(s.max())
        elif p < 2:
            q = 2 * p / (2 - p)
            gmax = float(np.exp(logsumexp(q * np.log(s)) * (2 - p) / (2 * p)))
            gmin = float(s.min())
        else:
            gmax = float(s.max())
            if np.isinf(p):
                gmin = float(np.exp(-0.5 * logsumexp(-2 * np.log(s))))
            else:
                q = 2 * p / (p - 2)
                gmin = float(np.exp(-logsumexp(-q * np.log(s)) * (p - 2) / (2 * p)))
        return Radii(1.0 / gmax, 1.0 / gmin, True)

    def spec(self):
        p = "inf" if np.isinf(self.p) else self.p
        return {"family": "weighted_lp", "p": p, "weights": list(map(float, self.weights))}


# ----------------------------------------------------------------------
# ellipsoids
# ----------------------------------------------------------------------


class Ellipsoid(ConvexBody):
    """{x : x^T A x <= 1} for symmetric positive-definite A."""

    family = "ellipsoid"

    def __init__(self, A):
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        A = 0.5 * (A + A.T)
        w, V = np.linalg.eigh(A)
        if w[0] <= _SPD_TOL * max(1.0, w[-1]):
            raise DegenerateBodyError("quadratic form is not positive definite")
        super().__init__(A.shape[0])
        self.A = A
        A.setflags(write=False)
        self._eigvals = w
        self._eigvecs = V
        self._Ainv = (V / w) @ V.T
        self.unconditional = _is_diagonal(A, 1e-14)

    def _gauge(self, X):
        return np.sqrt(np.maximum(np.einsum("mi,ij,mj->m", X, self.A, X), 0.0))

    def _gauge_subgrad(self, X):
        g = self._gauge(X)
        safe = np.where(g > 0, g, 1.0)
        Y = (X @ self.A) / safe[:, None]
        Y[g == 0] = 0.0
        return g, Y

    def _support(self, Y):
        return np.sqrt(np.maximum(np.einsum("mi,ij,mj->m", Y, self._Ainv, Y), 0.0))

    def _make_polar(self):
        return Ellipsoid(self._Ainv)

    def as_weighted_lp(self):
        if self.unconditional:
            return 2.0, np.sqrt(np.diag(self.A))
        return None

    def _compute_radii(self):
        return Radii(float(self._eigvals[-1] ** -0.5), float(self._eigvals[0] ** -0.5), True)

    def spec(self):
        return {"family": "ellipsoid", "matrix": [list(map(float, row)) for row in self.A]}


# ----------------------------------------------------------------------
# polytopes
# ----------------------------------------------------------------------


class PolytopeH(ConvexBody):
    """{x : |<w_i, x>| <= 1 for every row w_i}; gauge(x) = max_i |<w_i, x>|."""

    family = "polytope_h"

    def __init__(self, rows):
        W = np.array(rows, dtype=float)
        if W.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        if not np.all(np.isfinite(W)):
            raise ValueError("non-finite rows")
        sv = np.linalg.svd(W, compute_uv=False)
        if W.shape[0] < W.shape[1] or sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise DegenerateBodyError("facet normals do not span; body is unbounded")
        super().__init__(W.shape[1])
        self.rows = W
        W.setflags(write=False)

    def _gauge(self, X):
        return np.abs(X @ self.rows.T).max(axis=-1)

    def _gauge_subgrad(self, X):
        P = X @ self.rows.T
        A = np.abs(P)
        idx = A.argmax(axis=-1)
        rows_sel = np.arange(X.shape[0])
        g = A[rows_sel, idx]
        Y = np.sign(P[rows_sel, idx])[:, None] * self.rows[idx]
        return g, Y

    def _ascent_subgrad(self, X):
        return _soft_max_ascent(X @ self.rows.T, lambda C: C @ self.rows)

    def _support(self, Y):
        return self.polar()._gauge(Y)

    def _make_polar(self):
        return PolytopeV(self.rows)

    def _compute_radii(self):
        r = 1.0 / float(np.linalg.norm(self.rows, axis=1).max())
        return Radii(r, ratio_extremum(self, mode="max"), False)

    def spec(self):
        return {"family": "polytope_h", "rows": [list(map(float, row)) for row in self.rows]}


class PolytopeV(ConvexBody):
    """conv{+-u_j}; the gauge is evaluated through the dual LP
    max <x, y> subject to |<u_j, y>| <= 1, solved by HiGHS (rel. error <= 1e-7)."""

    family = "polytope_v"
    exact = False

    def __init__(self, vertices):
        U = np.array(vertices, dtype=float)
        if U.ndim != 2:
            raise ValueError("vertices must be a 2-d array")
        if not np.all(np.isfinite(U)):
            raise ValueError("non-finite vertices")
        sv = np.linalg.svd(U, compute_uv=False)
        if U.shape[0] < U.shape[1] or sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise DegenerateBodyError("vertices do not span; body has empty interior")
        super().__init__(U.shape[1])
        self.vertices = U
        U.setflags(write=False)
        self._A_ub = np.vstack([U, -U])
        self._b_ub = np.ones(2 * U.shape[0])

    def _solve_one(self, x):
        from scipy.optimize import linprog

        res = linprog(
            c=-x,
            A_ub=self._A_ub,
            b_ub=self._b_ub,
            bounds=(None, None),
            method="highs",
        )
        if res.status != 0:
            raise DegenerateBodyError(f"degenerate body: gauge LP failed (status {res.status})")
        return -res.fun, res.x

    def _gauge(self, X):
        return np.array([self._solve_one(x)[0] for x in X])

    def _gauge_subgrad(self, X):
        vals, subs = [], []
        for x in X:
            g, y = self._solve_one(x)
            vals.append(g)
            subs.append(y)
        return np.array(vals), np.array(subs)

    def _support(self, Y):
        return np.abs(Y @ self.vertices.T).max(axis=-1)

    def _make_polar(self):
        return PolytopeH(self.vertices)

    def _compute_radii(self):
        R = float(np.linalg.norm(self.vertices, axis=1).max())
        # 1/r(K) = max gauge on the sphere = R(K polar) for the H-polytope polar
        r = 1.0 / self.polar().radii.R
        return Radii(r, R, False)

    def spec(self):
        return {"family": "polytope_v", "vertices": [list(map(float, v)) for v in self.vertices]}


# ----------------------------------------------------------------------
# linear images
# ----------------------------------------------------------------------


class LinearImage(ConvexBody):
    """T(K) for invertible T: gauge(x) = gauge_K(T^{-1} x)."""

    family = "linear_image"

    def __init__(self, T, base: ConvexBody):
        T = np.array(T, dtype=float)
        if T.shape != (base.dim, base.dim):
            raise ValueError("map shape does not match body dimension")
        sv = np.linalg.svd(T, compute_uv=False)
        if sv[-1] <= 1e-14 * max(1.0, sv[0]):
            raise ValueError("singular map")
        super().__init__(base.dim)
        self.T = T
        T.setflags(write=False)
        self.Tinv = np.linalg.inv(T)
        self.base = base
        self.unconditional = base.unconditional and _is_diagonal(T, 1e-14)
        self.exact = base.exact

    def _gauge(self, X):
        return self.base._gauge(X @ self.Tinv.T)

    def _gauge_subgrad(self, X):
        g, Y = self.base._gauge_subgrad(X @ self.Tinv.T)
        return g, Y @ self.Tinv

    def _ascent_subgrad(self, X):
        g, Y = self.base._ascent_subgrad(X @ self.Tinv.T)
        return g, Y @ self.Tinv

    def _support(self, Y):
        return self.base._support(Y @ self.T)

    def _make_polar(self):
        return linear_image(self.Tinv.T, self.base.polar())

    def spec(self):
        return {
            "family": "linear_image",
            "matrix": [list(map(float, row)) for row in self.T],
            "base": self.base.spec(),
        }


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def _is_diagonal(M, rtol=1e-8):
    """Whether no off-diagonal entry of the square M exceeds rtol times its
    largest entry, in absolute value: a test that scales with M."""
    A = np.abs(M)
    return bool((A - np.diag(np.diag(A))).max() <= rtol * A.max())


def _as_matrix(T, dim):
    M = np.asarray(getattr(T, "matrix", T), dtype=float)
    if M.ndim == 0:
        M = float(M) * np.eye(dim)
    return M


def linear_image(T, K: ConvexBody) -> ConvexBody:
    """T(K) with closed-form family simplifications where available."""
    M = _as_matrix(T, K.dim)
    if M.shape != (K.dim, K.dim):
        raise ValueError("map shape does not match body dimension")
    d = np.diag(M)
    # a weighted l_p ball is unconditional: a sign flip of an axis maps it onto itself
    if isinstance(K, WeightedLp) and _is_diagonal(M) and np.all(d != 0):
        return WeightedLp(K.p, K.scales / np.abs(d))
    if isinstance(K, Ellipsoid):
        Minv = np.linalg.inv(M)
        return Ellipsoid(Minv.T @ K.A @ Minv)
    if isinstance(K, PolytopeV):
        return PolytopeV(K.vertices @ M.T)
    if isinstance(K, PolytopeH):
        return PolytopeH(K.rows @ np.linalg.inv(M))
    if isinstance(K, LinearImage):
        return linear_image(M @ K.T, K.base)
    return LinearImage(M, K)


def ball(n: int) -> Ellipsoid:
    """Euclidean unit ball B_2^n."""
    return Ellipsoid(np.eye(n))


def cube(n: int) -> WeightedLp:
    """B_inf^n = [-1, 1]^n."""
    return WeightedLp(np.inf, np.ones(n))


def cross_polytope(n: int) -> WeightedLp:
    """B_1^n."""
    return WeightedLp(1.0, np.ones(n))


def _parse_p(p):
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity"):
            return np.inf
        return float(p)
    return float(p)


def from_spec(spec: dict) -> ConvexBody:
    """Build a body from the structured-config DSL."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError("body spec must be a dict with a 'family' key")
    fam = spec["family"]
    if fam == "weighted_lp":
        return WeightedLp.from_weights(_parse_p(spec["p"]), spec["weights"])
    if fam == "ellipsoid":
        return Ellipsoid(np.array(spec["matrix"], dtype=float))
    if fam == "polytope_h":
        return PolytopeH(np.array(spec["rows"], dtype=float))
    if fam == "polytope_v":
        return PolytopeV(np.array(spec["vertices"], dtype=float))
    if fam == "polar":
        return from_spec(spec["base"]).polar()
    if fam == "linear_image":
        return linear_image(np.array(spec["matrix"], dtype=float), from_spec(spec["base"]))
    raise ValueError(f"unknown body family {fam!r}")
