"""Haar sampling on Grassmannians and the flag manifold; sections,
projections, radii and geometric distance.

Subspaces are stored as column-orthonormal bases.  The span of an n x m
standard Gaussian matrix is Haar-distributed on G_{n,m} regardless of the
basis chosen for it, so orthonormalization is a Householder QR.  Sections
of ellipsoids are ellipsoids; any other section evaluates exactly through
its parent's oracles.  Projections are formed only in closed form
(ellipsoids, V-polytopes, weighted l_1 balls and linear images of
V-polytopes): a projection radius elsewhere is a survey of |P z| / ||z||_K
over sections of K itself, as (P_F K) cap E = P_E (K cap E2) reduces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bodies as bd
from ._ascent import _haar, ratio_extremum, run_surveys, survey

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
# sections and projections
# ----------------------------------------------------------------------


class SectionBody(bd.ConvexBody):
    """K cap F in carrier coordinates: its gauge and subgradient evaluate
    exactly through the parent, and its polar is the projection of the
    parent's polar onto F."""

    family = "section_body"

    def __init__(self, parent: bd.ConvexBody, carrier: Subspace):
        if carrier.ambient != parent.dim:
            raise ValueError("carrier ambient dimension must match the parent body")
        super().__init__(carrier.dim)
        self.parent = parent
        self.carrier = carrier
        self.exact = parent.exact

    def _gauge(self, U):
        return self.parent._gauge(U @ self.carrier.basis.T)

    def _gauge_subgrad(self, U):
        g, Y = self.parent._gauge_subgrad(U @ self.carrier.basis.T)
        return g, Y @ self.carrier.basis

    def _support(self, V):
        return self.polar()._gauge(V)

    def _make_polar(self):
        return project(self.parent.polar(), self.carrier)

    def _compute_radii(self):
        return bd.Radii(in_radius(self), out_radius(self), False)


def section(K: bd.ConvexBody, F: Subspace) -> bd.ConvexBody:
    """K cap F in carrier coordinates; closed family for ellipsoids."""
    if F.ambient != K.dim:
        raise ValueError("subspace ambient dimension must match the body")
    B = F.basis
    if isinstance(K, bd.Ellipsoid):
        return bd.Ellipsoid(B.T @ K.A @ B)
    return SectionBody(K, F)


def project(K: bd.ConvexBody, F: Subspace) -> bd.ConvexBody:
    """P_F K in carrier coordinates, for the families with a closed-form
    projection: ellipsoids (the Schur form) and V-polytopes, weighted l_1
    balls and linear images of V-polytopes (the projection of a convex hull
    is the hull of the projections).  Any other family raises
    NotImplementedError; a projection radius is a survey of |P_F z| / ||z||_K
    over K instead (see ratio_extremum)."""
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
    raise NotImplementedError(f"no closed-form projection for the {K.family!r} family")


# ----------------------------------------------------------------------
# radii and distance
# ----------------------------------------------------------------------


def out_radius(S: bd.ConvexBody, rng=None) -> float:
    """max |x| over S: S.radii.R for a whole body; for a generic section a
    certified lower bound by ratio ascent at the RADIUS effort."""
    if not isinstance(S, SectionBody):
        return S.radii.R
    return ratio_extremum(S.parent, Z=S.carrier.basis, mode="max", rng=rng)


def in_radius(S: bd.ConvexBody, rng=None) -> float:
    """max radius of a centered ball inside S: S.radii.r for a whole body; for
    a generic section a certified upper bound by ratio descent at the RADIUS
    effort."""
    if not isinstance(S, SectionBody):
        return S.radii.r
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
    sampled directions.  Requires E1 to contain E2^perp.  On an ellipsoid every
    side is a closed form; on other families project raises
    NotImplementedError."""
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
