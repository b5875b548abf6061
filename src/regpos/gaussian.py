"""Gaussian functionals ell_p(K), ell*(K), M*(K) by sample-average
approximation with common random numbers, and the one uncertainty layer
behind every reported number: _moments gives every mean, standard error and
covariance, and _bootstrap_ci every quantile CI.

A GaussianSample is a deterministic function of (seed, count, dim): block b
is drawn from the b-th spawn of SeedSequence([seed, dim]), so prefixes
agree across sample sizes; evaluation sums per-block results in block order.
Blocks are the unit of drawing and summing, row tiles the unit of
evaluation: _values runs a per-row value kernel over tiles of about _TILE
entries (2048 rows at N = 32), whose temporaries stay in cache, and joins
the tile values into each block's value array, so every value and sum is
that of the whole block.

The whole (M, N) array is drawn once, on first use, and is then held
read-only for the sample's lifetime (M * N * 8 bytes); blocks are views into
it.  A weighted l_p ell-position solve, or a balance pass, with finite p
other than 2 adds a read-only power table of the same size for its p
(positions._power_table builds and owns it), kept for the sample's lifetime
until a call with another p replaces it; the old table is released before
the new one is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GaussianSample",
    "FixedSample",
    "EllEstimate",
    "ell",
    "ell_star",
    "mstar",
    "crn_diff",
    "gauss_norm_mean",
]

BLOCK = 1 << 14
_TILE = 1 << 16   # entries of one row tile of a value kernel


@dataclass(frozen=True)
class GaussianSample:
    """M standard Gaussian vectors in R^N, drawn deterministically on first use."""

    seed: int
    count: int
    dim: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("need at least two sample vectors")

    @cached_property
    def array(self):
        """The read-only (M, N) sample; block b holds the draws of the b-th spawn."""
        arr = np.empty((self.count, self.dim))
        children = np.random.SeedSequence([int(self.seed), int(self.dim)]).spawn(self.n_blocks())
        for b, child in enumerate(children):
            np.random.default_rng(child).standard_normal(out=arr[b * BLOCK : (b + 1) * BLOCK])
        arr.setflags(write=False)
        return arr

    def n_blocks(self):
        return (self.count + BLOCK - 1) // BLOCK

    def block(self, b: int):
        return self.array[b * BLOCK : (b + 1) * BLOCK]

    def blocks(self):
        return map(self.block, range(self.n_blocks()))

    def vectors(self):
        """The full read-only (M, N) array."""
        return self.array

    def sign_symmetrized(self):
        """Sample closed under all coordinate sign flips (2^N copies per vector).

        Makes the SAA objective exactly invariant under sign-flip conjugation;
        only sensible for small N.
        """
        if self.dim > 12:
            raise ValueError("sign symmetrization is exponential in the dimension")
        base = self.vectors()
        signs = np.array(
            [[1.0 if (m >> i) & 1 == 0 else -1.0 for i in range(self.dim)]
             for m in range(1 << self.dim)]
        )
        return (base[:, None, :] * signs[None, :, :]).reshape(-1, self.dim)


class FixedSample(GaussianSample):
    """A sample over a given (M, N) array (e.g. symmetrized draws)."""

    __eq__, __hash__ = object.__eq__, object.__hash__   # two arrays of one shape differ

    def __init__(self, array, seed=-1):
        arr = np.array(array, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError("need an (M, N) array with M >= 2")
        arr.setflags(write=False)
        super().__init__(seed, *arr.shape)
        self.__dict__["array"] = arr   # the value of the cached property, never drawn


@dataclass(frozen=True)
class EllEstimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    se: float
    count: int
    p: int


def _moments(values):
    """(mean, unbiased variance, count) of per-block value arrays of shape (m,),
    or ((k,) means, (k, k) covariance, count) for shape (k, m).  The means are
    the block sums, added in block order, over the count; the (co)variances sum
    deviations about the first block's means (Chan, Golub & LeVeque 1983), so
    they do not cancel as E[x^2] - mean^2 does when the spread is small."""
    m = 0
    for v in values:
        if not m:
            shift, total, dev, sq = v.mean(axis=-1, keepdims=True), 0.0, 0.0, 0.0
        d = np.atleast_2d(v - shift)
        total = total + v.sum(axis=-1)
        dev = dev + d.sum(axis=-1)
        # einsum, not BLAS: the sums must not depend on the BLAS thread count
        sq = sq + np.einsum("im,jm->ij", d, d)
        m += v.shape[-1]
    cov = (sq - np.multiply.outer(dev, dev) / m) / (m - 1)
    np.fill_diagonal(cov, np.maximum(cov.diagonal(), 0.0))
    if v.ndim == 1:
        return float(total) / m, float(cov[0, 0]), m
    return total / m, cov, m


def _bootstrap_ci(values, stat, rng):
    """The 2.5 and 97.5 percentiles of stat, which maps (200, m) resamples to
    (200,) statistics, over 200 resamples of values drawn from rng at once."""
    values = np.asarray(values)
    stats = stat(values[rng.integers(0, len(values), size=(200, len(values)))])
    return float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))


def _estimate(values, p):
    """The EllEstimate of power p in {1, 2} from the per-block values |G|_K^p."""
    mean, var, m = _moments(values)
    if p == 1:
        return EllEstimate(mean, np.sqrt(var / m), m, 1)
    value = np.sqrt(mean)
    se = np.sqrt(var / m) / (2.0 * value)
    return EllEstimate(value, se, m, 2)


def _tiled(fn, G):
    """fn's per-row values (an array whose last axis runs over the rows) on
    the rows of G, evaluated over row tiles of about _TILE entries and joined."""
    step = max(_TILE // G.shape[1], 1)
    return np.concatenate([fn(G[i : i + step]) for i in range(0, len(G), step)], axis=-1)


def _values(fn, sample):
    """Per-block value arrays of the row kernel fn over the sample, in block order."""
    return (_tiled(fn, G) for G in sample.blocks())


# name -> (per-row values on rows G, the power p of the estimate)
_FUNCTIONALS = {
    "ell": (lambda K, G: K._gauge(G), 1),
    "ell2": (lambda K, G: K._gauge(G) ** 2, 2),
    "ell_star": (lambda K, G: K._support(G), 1),
    "ell2_star": (lambda K, G: K._support(G) ** 2, 2),
    "mstar": (lambda K, G: K._support(G / np.linalg.norm(G, axis=1, keepdims=True)), 1),
}


def _estimate_functional(K, name, sample):
    if name not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {name!r}")
    if sample.dim != K.dim:
        raise ValueError("sample dimension does not match the body")
    fn, p = _FUNCTIONALS[name]
    return _estimate(_values(lambda G: fn(K, G), sample), p)


def _power_name(p, names):
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    return names[int(p) - 1]


def ell(K, p: int, sample: GaussianSample) -> EllEstimate:
    """ell_p(K) = (E ||G_N||_K^p)^(1/p) for p in {1, 2}."""
    return _estimate_functional(K, _power_name(p, ("ell", "ell2")), sample)


def ell_star(K, p: int, sample: GaussianSample) -> EllEstimate:
    """ell*_p(K) = ell_p(K polar), evaluated through the support function."""
    return _estimate_functional(K, _power_name(p, ("ell_star", "ell2_star")), sample)


def mstar(K, sample: GaussianSample) -> EllEstimate:
    """M*(K), the spherical mean of the support function (normalized Gaussians)."""
    return _estimate_functional(K, "mstar", sample)


def crn_diff(bodyA, bodyB, functional: str, sample: GaussianSample) -> EllEstimate:
    """Paired-difference estimator of functional(A) - functional(B) under CRN."""
    if functional not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    if not bodyA.dim == bodyB.dim == sample.dim:
        raise ValueError("bodies and sample must share a dimension")
    fn = _FUNCTIONALS[functional][0]
    return _estimate(_values(lambda G: fn(bodyA, G) - fn(bodyB, G), sample), 1)


def gauss_norm_mean(N: int) -> float:
    """E |G_N| = sqrt(2) Gamma((N+1)/2) / Gamma(N/2)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((N + 1) / 2.0) - math.lgamma(N / 2.0))
