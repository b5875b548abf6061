"""Haar sampling on Grassmannians and the flag manifold; sections,
projections, radii and geometric distance.

Subspaces are stored as column-orthonormal bases.  The span of an n x m
standard Gaussian matrix is Haar-distributed on G_{n,m} regardless of the
basis chosen for it, so orthonormalization is a Householder QR.  Section
and projection bodies simplify to closed families where possible
(ellipsoids, l_1 balls / V-polytopes); everything else evaluates through
the parent's oracles, with projection gauges solved by an inner convex
program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bodies as bd
from ._ascent import _haar, ratio_extremum, run_surveys, survey
from .positions import _lbfgs

__all__ = [
    "Subspace",
    "SectionBody",
    "haar_grassmannian",
    "haar_flag_batch",
    "section",
    "project",
    "out_radius",
    "in_radius",
    "geometric_distance_to_ball",
    "perp_identity_check",
    "subspace_intersection",
    "section_out_radii",
]

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """An m-dimensional subspace of R^n via a column-orthonormal basis."""

    basis: np.ndarray  # (n, m)

    def __post_init__(self):
        B = np.array(self.basis, dtype=float)
        if B.ndim != 2 or B.shape[1] < 1 or B.shape[1] > B.shape[0]:
            raise ValueError("basis must be n x m with 1 <= m <= n")
        G = B.T @ B
        if np.abs(G - np.eye(B.shape[1])).max() > _ORTHO_TOL:
            raise ValueError("basis columns are not orthonormal")
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def complement(self) -> "Subspace":
        Q, _ = np.linalg.qr(self.basis, mode="complete")
        return Subspace(Q[:, self.dim :])

    def contains(self, other: "Subspace", tol=_ORTHO_TOL) -> bool:
        resid = other.basis - self.projector() @ other.basis
        return bool(np.abs(resid).max() <= tol)

    def coords(self, x):
        """Coordinates of ambient points in this basis (left-inverse of the injection)."""
        return np.asarray(x, dtype=float) @ self.basis


def haar_grassmannian_batch(rng, n, m, count):
    """(count, n, m) stack of Haar bases (batched QR)."""
    return _haar(rng.standard_normal((count, n, m)))


def haar_flag_batch(rng, n, k, count):
    """(F, E, E2) stacks of count Haar flags, with E2 = F^perp + E.

    F is uniform on G_{n, n-k+1} and E uniform inside F: the leading
    n-2k+2 columns of one Haar basis span E, all n-k+1 columns span F.  E2
    is the orthocomplement of the k-1 trailing columns, so F contains
    E2^perp and F cap E2 = E.
    """
    if not 1 <= k <= n // 2:
        raise ValueError("need 1 <= k <= n/2")
    m2 = n - 2 * k + 2
    F = haar_grassmannian_batch(rng, n, n - k + 1, count)
    Q, _ = np.linalg.qr(F[:, :, m2:], mode="complete")
    return F, F[:, :, :m2], Q[:, :, k - 1 :]


def haar_grassmannian(rng, n: int, m: int) -> Subspace:
    """Haar-distributed m-dimensional subspace of R^n."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    return Subspace(haar_grassmannian_batch(rng, n, m, 1)[0])


# ----------------------------------------------------------------------
# section and projection bodies
# ----------------------------------------------------------------------


class SectionBody(bd.ConvexBody):
    """K cap F (mode 'section') or P_F K (mode 'projection') in carrier coordinates.

    Section gauges evaluate exactly through the parent; projection gauges
    minimize the parent gauge over the fiber x + F^perp (an LP for
    max/sum-affine gauges, else a smooth convex solve).
    """

    family = "section_body"

    def __init__(self, parent: bd.ConvexBody, carrier: Subspace, mode: str):
        if carrier.ambient != parent.dim:
            raise ValueError("carrier ambient dimension must match the parent body")
        if mode not in ("section", "projection"):
            raise ValueError("mode must be 'section' or 'projection'")
        super().__init__(carrier.dim)
        self.parent = parent
        self.carrier = carrier
        self.mode = mode
        self.exact = parent.exact and mode == "section"
        self._comp = carrier.complement().basis if mode == "projection" else None

    # -- projection oracles ----------------------------------------------

    def _fiber_min_one(self, x0):
        """(value, fiber minimizer w) of min_w gauge_parent(x0 + C w)."""
        parent, C = self.parent, self._comp
        rep = _affine_rep(parent)
        if rep is not None:
            return _fiber_min_lp(*rep, x0, C)[:2]
        nw = C.shape[1]

        def fun(w):
            z = x0 + C @ w
            g, y = parent._gauge_subgrad(z[None, :])
            return float(g[0]), C.T @ y[0]

        wstar, val, _, nit, converged = _lbfgs(fun, np.zeros(nw), maxiter=400, ftol=1e-16, gtol=1e-12)
        # on an exact smooth parent, an _lbfgs stop short of maxiter is a stop at
        # rounding (its ftol rule or a failed line search), which Powell cannot improve
        if not parent.exact or not (converged or (nit < 400 and _smooth(parent))):
            from scipy.optimize import minimize

            # derivative-free polish for inexact or kinked parents and for minima left above gtol
            res2 = minimize(lambda w: float(parent._gauge((x0 + C @ w)[None, :])[0]),
                            wstar, method="Powell",
                            options={"maxiter": 4000, "xtol": 1e-10, "ftol": 1e-12})
            if float(res2.fun) < val:
                val, wstar = float(res2.fun), res2.x
        return val, wstar

    # -- ConvexBody interface ----------------------------------------------

    def _gauge(self, U):
        X0 = U @ self.carrier.basis.T
        if self.mode == "section":
            return self.parent._gauge(X0)
        return np.array([self._fiber_min_one(x0)[0] for x0 in X0])

    def _gauge_subgrad(self, U):
        X0 = U @ self.carrier.basis.T
        if self.mode == "section":
            g, Y = self.parent._gauge_subgrad(X0)
            return g, Y @ self.carrier.basis
        # the LP duals give a subgradient of the fiber minimum in x0; else the parent
        # subgradient at the minimizer does when the parent is smooth (envelope theorem);
        # on a kinked parent it need not, so there is no subgradient to give
        rep = _affine_rep(self.parent)
        if rep is None and not _smooth(self.parent):
            raise NotImplementedError(f"no projection subgradient for a kinked {self.parent.family} parent "
                                      "without an LP form")
        g = np.empty(U.shape[0])
        Y = np.empty_like(U)
        for i, x0 in enumerate(X0):
            if rep is not None:
                g[i], _, y = _fiber_min_lp(*rep, x0, self._comp)
            else:
                g[i], w = self._fiber_min_one(x0)
                y = self.parent._gauge_subgrad((x0 + self._comp @ w)[None, :])[1][0]
            Y[i] = y @ self.carrier.basis
        return g, Y

    def _support(self, V):
        if self.mode == "projection":
            # h_{P_F K} = h_K restricted to F (exact identity)
            return self.parent._support(V @ self.carrier.basis.T)
        return self.polar()._gauge(V)

    def _make_polar(self):
        if self.mode == "section":
            return project(self.parent.polar(), self.carrier)
        return section(self.parent.polar(), self.carrier)

    def _compute_radii(self):
        return bd.Radii(in_radius(self), out_radius(self), False)

    def spec(self):
        return {
            "family": "section_body",
            "mode": self.mode,
            "basis": [list(map(float, row)) for row in self.carrier.basis],
            "base": self.parent.spec(),
        }


def _affine_rep(K):
    """(kind, M) with gauge(x) = max_i |(Mx)_i| ('max') or sum_i |(Mx)_i| ('sum')."""
    if isinstance(K, bd.PolytopeH):
        return "max", K.rows
    if isinstance(K, bd.WeightedLp):
        if np.isinf(K.p):
            return "max", np.diag(K.scales)
        if K.p == 1:
            return "sum", np.diag(K.scales)
    if isinstance(K, bd.LinearImage):
        rep = _affine_rep(K.base)
        if rep is not None:
            kind, M = rep
            return kind, M @ K.Tinv
    if isinstance(K, SectionBody) and K.mode == "section":
        rep = _affine_rep(K.parent)
        if rep is not None:
            kind, M = rep
            return kind, M @ K.carrier.basis
    return None


def _smooth(K):
    """Whether the gauge of K is differentiable away from the origin."""
    if isinstance(K, bd.WeightedLp):
        return 1.0 < K.p < np.inf
    if isinstance(K, bd.Ellipsoid):
        return True
    if isinstance(K, bd.LinearImage):
        return _smooth(K.base)
    if isinstance(K, SectionBody) and K.mode == "section":
        return _smooth(K.parent)
    return False


def _fiber_min_lp(kind, M, x0, C):
    """(value, minimizer w, subgradient in x0) of min_w reduce(|M(x0 + Cw)|),
    via an LP in (w, t); the subgradient comes from the LP duals."""
    nrows = M.shape[0]
    nw = C.shape[1]
    MC = M @ C
    mx = M @ x0
    if kind == "max":
        # vars (w, t): Mx + MCw <= t, -(...) <= t
        A = np.block([[MC, -np.ones((nrows, 1))], [-MC, -np.ones((nrows, 1))]])
        b = np.concatenate([-mx, mx])
        c = np.zeros(nw + 1)
        c[-1] = 1.0
    else:
        # vars (w, t_i): |Mx + MCw|_i <= t_i, minimize sum t
        A = np.block([[MC, -np.eye(nrows)], [-MC, -np.eye(nrows)]])
        b = np.concatenate([-mx, mx])
        c = np.zeros(nw + nrows)
        c[nw:] = 1.0
    from scipy.optimize import linprog

    res = linprog(c=c, A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"projection gauge LP failed (status {res.status})")
    # d value / d b is the marginals mu, and b = (-M x0, M x0)
    mu = res.ineqlin.marginals
    return float(res.fun), res.x[:nw], M.T @ (mu[nrows:] - mu[:nrows])


def section(K: bd.ConvexBody, F: Subspace) -> bd.ConvexBody:
    """K cap F in carrier coordinates; closed family for ellipsoids."""
    if F.ambient != K.dim:
        raise ValueError("subspace ambient dimension must match the body")
    B = F.basis
    if isinstance(K, bd.Ellipsoid):
        return bd.Ellipsoid(B.T @ K.A @ B)
    return SectionBody(K, F, "section")


def project(K: bd.ConvexBody, F: Subspace) -> bd.ConvexBody:
    """P_F K in carrier coordinates; closed families for ellipsoids and
    V-polytopes (projection of the convex hull is the hull of projections)."""
    if F.ambient != K.dim:
        raise ValueError("subspace ambient dimension must match the body")
    B = F.basis
    if isinstance(K, bd.Ellipsoid):
        Ainv_s = B.T @ K._Ainv @ B
        return bd.Ellipsoid(np.linalg.inv(Ainv_s))
    if isinstance(K, bd.PolytopeV):
        return bd.PolytopeV(K.vertices @ B)
    if isinstance(K, bd.WeightedLp) and K.p == 1:
        return bd.PolytopeV(B / K.scales[:, None])
    if isinstance(K, bd.LinearImage) and isinstance(K.base, bd.PolytopeV):
        return bd.PolytopeV(K.base.vertices @ K.T.T @ B)
    return SectionBody(K, F, "projection")


# ----------------------------------------------------------------------
# radii and distance
# ----------------------------------------------------------------------


def out_radius(S: bd.ConvexBody, rng=None) -> float:
    """max |x| over S: S.radii.R for a whole body; for a generic section or
    projection a certified lower bound by ratio ascent at the RADIUS effort."""
    if not isinstance(S, SectionBody):
        return S.radii.R
    if S.mode == "projection":
        # R(P_F K) = max_z |P_F z| / gauge_K(z)
        return ratio_extremum(S.parent, P=S.carrier.basis.T, mode="max", rng=rng)
    return ratio_extremum(S.parent, Z=S.carrier.basis, mode="max", rng=rng)


def in_radius(S: bd.ConvexBody, rng=None) -> float:
    """max radius of a centered ball inside S: S.radii.r for a whole body; for a
    generic section or projection an upper-bound heuristic at the RADIUS effort."""
    if not isinstance(S, SectionBody):
        return S.radii.r
    if S.mode == "projection":
        # r(P_F K) = 1 / R(K polar cap F)
        return 1.0 / out_radius(section(S.parent.polar(), S.carrier), rng=rng)
    return ratio_extremum(S.parent, Z=S.carrier.basis, mode="min", rng=rng)


def geometric_distance_to_ball(S: bd.ConvexBody) -> float:
    """d_G(S, B_2) = R(S)/r(S) >= 1."""
    return max(out_radius(S) / in_radius(S), 1.0)


def section_out_radii(K: bd.ConvexBody, bases, rng, Ps=None):
    """max |Ps[i] z| / gauge_K(z) (|z| when Ps is None: R(K cap F)) over unit z
    in col(bases[i]), for a (count, n, m) stack of section bases and an
    optional (count, q, n) stack Ps: the one survey of section radii.  The
    ascent (at the SURVEY effort, where no exact or vertex route applies)
    draws its probes from a seed drawn from rng.  A (count,) array."""
    return run_surveys([survey(K, bases, Ps, "max", rng)])[0]


# ----------------------------------------------------------------------
# nested projection identities
# ----------------------------------------------------------------------


def subspace_intersection(E1: Subspace, E2: Subspace) -> Subspace:
    """Orthonormal basis of E1 cap E2 (nullspace of the stacked complements)."""
    C = np.vstack([E1.complement().basis.T, E2.complement().basis.T])
    _, s, Vt = np.linalg.svd(C)
    tol = max(C.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int((s > tol).sum())
    N = Vt[rank:].T
    if N.shape[1] == 0:
        raise ValueError("subspaces intersect trivially")
    return Subspace(N)


def perp_identity_check(A: bd.ConvexBody, E1: Subspace, E2: Subspace, rng=None,
                        ndirs: int = 1000) -> float:
    """Max gauge residual of P_{E1 cap E2}(A cap E1) = (P_{E2} A) cap E1 over
    sampled directions.  Requires E1 to contain E2^perp."""
    if E1.ambient != A.dim or E2.ambient != A.dim:
        raise ValueError("subspace ambient dimension must match the body")
    if not E1.contains(E2.complement(), tol=1e-9):
        raise ValueError("hypothesis violated: E1 does not contain the orthocomplement of E2")
    rng = np.random.default_rng(0) if rng is None else rng
    G = subspace_intersection(E1, E2)
    lhs = project(section(A, E1), Subspace(E1.coords(G.basis.T).T))
    rhs = section(project(A, E2), Subspace(E2.coords(G.basis.T).T))
    U = rng.standard_normal((ndirs, G.dim))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return float(np.abs(lhs.gauge(U) - rhs.gauge(U)).max())
