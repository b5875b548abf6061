"""Benchmark inputs and exact references, in plain numpy.

Nothing here imports regpos: the references must not come from the code
they check.

- Haar bases are QR factors of Gaussian matrices with the sign of R's
  diagonal fixed, so the span is Haar-distributed on the Grassmannian.
- Weighted l_1 hyperplane sections: every vertex of
  {sum_i s_i |x_i| <= 1} cap a^perp lies on an edge of the ball, so it has
  support of size at most 2.  The vertex on {i, j} is proportional to
  (a_j, -a_i), which gives
  R = max_{i<j} |(a_i, a_j)|_2 / (s_i |a_j| + s_j |a_i|),
  and for s = 1 the B_1 pair formula |(a_i, a_j)|_2 / |(a_i, a_j)|_1.
- Ellipsoid sections {x^T A x <= 1} cap span(B), B orthonormal:
  R = lambda_min(B^T A B)^(-1/2).
"""

from __future__ import annotations

import numpy as np

N = 32                     # ambient dimension of every workload
SECTION_KS = (2, 4, 8, 16)
SECTION_SAMPLES = 200      # section_radii bases per k
PROBE_SAMPLES = 1000       # B_1 hyperplane sections behind radius_shortfall_p90


def haar_bases(rng, n, m, count):
    """(count, n, m) stack of orthonormal bases of Haar-random m-dim subspaces."""
    Q, R = np.linalg.qr(rng.standard_normal((count, n, m)))
    d = np.sign(np.diagonal(R, axis1=1, axis2=2))
    return Q * np.where(d == 0, 1.0, d)[:, None, :]


def hyperplane_normals(bases):
    """(count, n) unit normals of a stack of (count, n, n-1) hyperplane bases."""
    count, n, m = bases.shape
    if m != n - 1:
        raise ValueError("bases must span hyperplanes")
    Q, _ = np.linalg.qr(bases, mode="complete")
    return Q[:, :, -1]


def weighted_l1_hyperplane_radius(normals, scales):
    """Exact R(K cap a^perp) for K = {x : sum_i scales_i |x_i| <= 1}, per normal."""
    A = np.abs(np.asarray(normals, dtype=float))
    s = np.asarray(scales, dtype=float)
    i, j = np.triu_indices(A.shape[1], 1)
    num = np.hypot(A[:, i], A[:, j])
    den = s[i] * A[:, j] + s[j] * A[:, i]
    return (num / den).max(axis=1)


def ellipsoid_section_radius(A, bases):
    """Exact R({x^T A x <= 1} cap span B) for a stack of orthonormal bases B."""
    M = np.swapaxes(bases, 1, 2) @ np.asarray(A, dtype=float) @ bases
    return np.linalg.eigvalsh(M)[:, 0] ** -0.5


def exact_section_radii(spec, bases):
    """Exact section radii for a regpos body spec, or None where no exact route exists.

    Covered: ellipsoids (any section dimension) and weighted l_1 balls
    (hyperplane sections).
    """
    n, m = bases.shape[1], bases.shape[2]
    if spec["family"] == "ellipsoid":
        return ellipsoid_section_radius(spec["matrix"], bases)
    if spec["family"] == "weighted_lp" and float(spec["p"]) == 1.0 and m == n - 1:
        return weighted_l1_hyperplane_radius(hyperplane_normals(bases), spec["weights"])
    return None


def shortfall_p90(measured, exact):
    """p90 over subspaces of 1 - R_measured / R_exact."""
    return float(np.quantile(1.0 - np.asarray(measured) / np.asarray(exact), 0.9))
