"""Discrepancy measures: relative Frobenius distance, Gaussian W2 and KL.

``w2_gaussian`` returns the *squared* 2-Wasserstein distance (the Bures form
in the covariances); callers that report an unsquared "W2" take the root.

The Gaussian routes are general full-matrix routes that never form
eigenvectors, and each factors every covariance of its (P, Q) pair once.
Each formula is one private kernel, on factors P = F_P F_P^T and
Q = F_Q F_Q^T:

* W2: the Bures trace term tr (Q^1/2 P Q^1/2)^1/2 is the sum of square roots
  of the eigenvalues of F_Q^T P F_Q = G G^T with G = F_Q^T F_P, which has the
  same spectrum; G G^T is one symmetric product.
* KL: from the Cholesky factors L_Q and L_P, tr(Q^-1 P) = ||L_Q^-1 L_P||_F^2
  and the quadratic form is ||L_Q^-1 dmu||^2, both by triangular solves. The
  trace is summed over column blocks of L_Q^-1 L_P, 128 columns at a time,
  so no n x n solve is held; the product is lower triangular, so the block of
  columns j, j+1, ... solves only with the trailing rows and columns j: of L_Q.

``w2_gaussian`` factors with :func:`numkit.psd_factor`, so either side may be
a point mass or rank-deficient; ``kl_gaussian`` needs both covariances
positive definite; ``w2_kl_gaussian`` returns both distances from one
Cholesky factor of each covariance. It factors Q beside P, and then runs W2
beside KL, on min(cores, 2) threads (:func:`numkit.ordered_map`). W2 works
through ``numpy``, whose products and ``linalg.eigvalsh`` release the GIL,
so it overlaps KL's ``scipy.linalg.solve_triangular`` calls, which hold it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    SingularDistribution,
    ZeroReference,
)
from .numkit import as_matrix, available_cores, cholesky, clip_psd, ordered_map, psd_factor

__all__ = ["GaussianDist", "rel_frobenius", "w2_gaussian", "kl_gaussian", "w2_kl_gaussian"]

_KL_BLOCK = 128  # columns of L_Q^-1 L_P per triangular solve, of G per product


@dataclass
class GaussianDist:
    """Mean vector and symmetric PSD covariance; zero covariance is a point
    mass (allowed in W2, rejected in KL)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        if not np.isfinite(self.mean).all():
            raise ValueError("mean contains NaN or Inf")
        self.cov = as_matrix(self.cov, "cov")
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise DimensionMismatch("covariance shape must match mean length")

    @property
    def dim(self) -> int:
        return self.mean.size


def rel_frobenius(a, b) -> float:
    """||A - B||_F / ||B||_F."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    ref = np.linalg.norm(b)
    if ref == 0.0:
        raise ZeroReference("reference matrix has zero Frobenius norm")
    return float(np.linalg.norm(a - b) / ref)


def _check_dims(p: GaussianDist, q: GaussianDist) -> None:
    if p.dim != q.dim:
        raise DimensionMismatch("distributions have different dimensions")


def _p_cholesky(p: GaussianDist) -> np.ndarray:
    """Cholesky factor of P for KL, which needs P non-singular."""
    try:
        lp = cholesky(p.cov)
    except NotPositiveDefinite as exc:
        raise SingularDistribution("P covariance is singular") from exc
    if np.any(np.diag(lp) <= 0.0):
        raise SingularDistribution("P covariance is singular")
    return lp


def _w2_sq(p: GaussianDist, q: GaussianDist, gram: np.ndarray) -> float:
    """Squared W2 from G G^T, G = F_Q^T F_P; raises :class:`NotPSD` for an
    eigenvalue below the PSD tolerance."""
    lam = clip_psd(np.linalg.eigvalsh(gram))
    dm = p.mean - q.mean
    val = dm @ dm + np.trace(p.cov) + np.trace(q.cov) - 2.0 * np.sum(np.sqrt(lam))
    return float(max(val, 0.0))


def _kl(p: GaussianDist, q: GaussianDist, lq: np.ndarray, lp: np.ndarray) -> float:
    """KL(P || Q) from the lower Cholesky factors of Q and P."""
    import scipy.linalg

    dim = p.dim
    trace = 0.0
    for j in range(0, dim, _KL_BLOCK):
        # Columns j: of L_Q^-1 L_P vanish above row j, so rows j: solve them.
        a = scipy.linalg.solve_triangular(lq[j:, j:], lp[j:, j:j + _KL_BLOCK], lower=True,
                                          check_finite=False)
        trace += float(np.vdot(a, a))
    b = scipy.linalg.solve_triangular(lq, q.mean - p.mean, lower=True,
                                      check_finite=False)
    quad = float(b @ b)
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(lq))))
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(lp))))
    val = 0.5 * (trace + quad - dim + logdet_q - logdet_p)
    return float(max(val, 0.0))


def w2_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """Squared 2-Wasserstein distance between two Gaussians (Bures form).

    Either covariance may be singular, down to a point mass. Raises
    :class:`DimensionMismatch` for an asymmetric covariance and
    :class:`NotPSD` for an indefinite one.
    """
    _check_dims(p, q)
    g = psd_factor(q.cov).T @ psd_factor(p.cov)
    return _w2_sq(p, q, g @ g.T)


def kl_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """KL(P || Q) for Gaussians; Q must be strictly positive definite and P
    non-singular. Determinants come from Cholesky factors for stability."""
    _check_dims(p, q)
    return _kl(p, q, cholesky(q.cov), _p_cholesky(p))


def w2_kl_gaussian(p: GaussianDist, q: GaussianDist) -> tuple[float, float]:
    """``(w2_gaussian(p, q), kl_gaussian(p, q))`` from one Cholesky factor of
    each covariance; both covariances must be positive definite, as for KL.

    Q is factored beside P, and then W2 runs beside KL, each pair on
    min(cores, 2) threads; with one core the four steps run on the calling
    thread in that order. Q's exception wins when both factors fail. KL
    reads L_Q and L_P while W2 runs, so W2 holds two n x n arrays of its
    own at a time: G = L_Q^T L_P and G G^T, then G G^T and the
    eigensolver's copy."""
    _check_dims(p, q)
    lq, lp = _both(lambda: cholesky(q.cov), lambda: _p_cholesky(p))
    return _both(lambda: _w2_sq(p, q, _gram(lq, lp)), lambda: _kl(p, q, lq, lp))


def _both(first, second) -> tuple:
    """``(first(), second())``, side by side on min(cores, 2) threads; if both
    raise, ``first``'s exception is the one raised."""
    return tuple(ordered_map(lambda f: f(), (first, second), min(available_cores(), 2)))


def _gram(lq: np.ndarray, lp: np.ndarray) -> np.ndarray:
    """G G^T for G = L_Q^T L_P. Column block j: of L_P is zero above row j,
    so it meets only rows j: of L_Q, which halves the work of G."""
    g = np.empty_like(lp)
    for j in range(0, lp.shape[1], _KL_BLOCK):
        np.matmul(lq[j:].T, lp[j:, j:j + _KL_BLOCK], out=g[:, j:j + _KL_BLOCK])
    return g @ g.T
