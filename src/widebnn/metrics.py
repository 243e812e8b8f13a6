"""Discrepancy measures: relative Frobenius distance, Gaussian W2 and KL.

``w2_gaussian`` returns the *squared* 2-Wasserstein distance (the Bures form
in the covariances); callers that report an unsquared "W2" take the root.

Both Gaussian routes are general full-matrix routes that factor each
covariance once and never form eigenvectors. ``w2_gaussian`` factors
Q = F F^T (Cholesky, or the symmetric square root when Q is only
semidefinite) and takes the Bures trace term tr (Q^1/2 P Q^1/2)^1/2 as the
sum of square roots of the eigenvalues of F^T P F, which has the same
spectrum, found in place in that product. ``kl_gaussian`` reuses the
Cholesky factors L_Q and L_P: tr(Q^-1 P) = ||L_Q^-1 L_P||_F^2 and the
quadratic form is ||L_Q^-1 dmu||^2, both by triangular solves. The trace is
summed over column blocks of L_Q^-1 L_P, 128 columns at a time, so no n x n
solve is held; the product is lower triangular, so the block of columns
j, j+1, ... solves only with the trailing rows and columns j: of L_Q.
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
from .numkit import as_matrix, check_symmetric, cholesky, clip_psd, psd_factor

__all__ = ["GaussianDist", "rel_frobenius", "w2_gaussian", "kl_gaussian"]

_KL_BLOCK = 128  # columns of L_Q^-1 L_P per triangular solve


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


def w2_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """Squared 2-Wasserstein distance between two Gaussians (Bures form).

    Raises :class:`DimensionMismatch` for an asymmetric covariance and
    :class:`NotPSD` for an indefinite one (P is checked through F^T P F).
    """
    if p.dim != q.dim:
        raise DimensionMismatch("distributions have different dimensions")
    import scipy.linalg

    check_symmetric(p.cov, "P covariance")
    f = psd_factor(q.cov)
    # F^T P F is a fresh array, so its spectrum is found in place: its
    # transpose is in Fortran order and LAPACK takes it without a copy.
    lam = clip_psd(scipy.linalg.eigvalsh((f.T @ p.cov @ f).T, overwrite_a=True,
                                         check_finite=False))
    dm = p.mean - q.mean
    val = dm @ dm + np.trace(p.cov) + np.trace(q.cov) - 2.0 * np.sum(np.sqrt(lam))
    return float(max(val, 0.0))


def kl_gaussian(p: GaussianDist, q: GaussianDist) -> float:
    """KL(P || Q) for Gaussians; Q must be strictly positive definite and P
    non-singular. Determinants come from Cholesky factors for stability."""
    import scipy.linalg

    if p.dim != q.dim:
        raise DimensionMismatch("distributions have different dimensions")
    lq = cholesky(q.cov)
    try:
        lp = cholesky(p.cov)
    except NotPositiveDefinite as exc:
        raise SingularDistribution("P covariance is singular") from exc
    if np.any(np.diag(lp) <= 0.0):
        raise SingularDistribution("P covariance is singular")
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
