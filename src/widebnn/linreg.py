"""Bayesian linear regression with a 1/n-scaled isotropic prior.

Closed-form posterior, prior-to-posterior discrepancy rates over a width-like
feature-count grid, the sqrt(n)/n reparametrisation comparison, and the
conjugate predictive used as an oracle for the rejection sampler. The rate
study's full-matrix check computes W2 and KL of one (posterior, prior) pair
per grid point and checks the rescaled pair through the identities of the
map x -> sqrt(n) x (:func:`rate_sweep`).

The prior is w ~ N(0, (alpha/n) I_n) with alpha = beta = 1 unless stated; the
design matrix has m rows (observations) and n columns (features).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
import scipy.special

from .errors import DimensionMismatch, RouteMismatch
from .kernels import GaussianPredictive, gp_posterior
from .metrics import GaussianDist, w2_kl_gaussian
from .numkit import GaussianStream, as_matrix, is_seed, solve_spd

__all__ = [
    "LinRegProblem",
    "linreg_posterior",
    "ntk_rescale",
    "linreg_predictive",
    "RateRow",
    "rate_sweep",
    "fit_loglog_slope",
    "uniform_design_rule",
]

# Rate-study rows for n up to this are checked against the general
# full-matrix routes, to this relative tolerance (:func:`rate_sweep`).
_DUAL_CHECK_MAX_N = 1024
_DUAL_CHECK_TOL = 1e-8


@dataclass
class LinRegProblem:
    """Design matrix X (m x n), targets y (length m), feature count n."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise DimensionMismatch("X must be 2-D")
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        if self.y.size != self.X.shape[0]:
            raise DimensionMismatch("y length must equal number of rows of X")
        if self.X.shape[1] < 1:
            raise ValueError("need at least one feature")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("X and y must be finite")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


def linreg_posterior(prob: LinRegProblem, method: str = "woodbury") -> GaussianDist:
    """Posterior over weights, N(mu_n, Sigma_n).

    ``method`` selects between the direct form Sigma_n = (I + X^T X / n)^(-1) / n
    and its Woodbury expansion; the two must agree and the tests check it.
    With no rows both give the prior N(0, I/n) exactly.
    """
    x, y, n, m = prob.X, prob.y, prob.n, prob.m
    gram = x @ x.T
    inner = np.eye(m) + gram / n
    mu = x.T @ solve_spd(inner, y) / n
    if method == "direct":
        cov = solve_spd(np.eye(n) + x.T @ x / n, np.eye(n)) / n
    elif method == "woodbury":
        cov = (np.eye(n) - x.T @ solve_spd(inner, x) / n) / n
    else:
        raise ValueError(f"unknown method {method!r}")
    cov = (cov + cov.T) / 2.0
    return GaussianDist(mu, cov)


def ntk_rescale(p: GaussianDist, n: int) -> GaussianDist:
    """Map N(mu, Sigma) to N(sqrt(n) mu, n Sigma)."""
    if p.dim != n:
        raise DimensionMismatch("distribution dimension must equal n")
    return GaussianDist(np.sqrt(n) * p.mean, n * p.cov)


def linreg_predictive(
    prob: LinRegProblem, sigma2: float, test_x, alpha: float = 1.0
) -> GaussianPredictive:
    """Gaussian predictive over f(x) = x^T w with observation noise sigma2:
    under w ~ N(0, (alpha/n) I), f is the GP with kernel (alpha/n) u^T v, so
    :func:`kernels.gp_posterior` with that kernel; with no rows, the prior."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be > 0")
    t = as_matrix(test_x, "test_X")
    c = alpha / prob.n  # prior variance of each weight
    if t.shape[1] != prob.n:
        raise DimensionMismatch("test inputs must have n columns")
    return gp_posterior(lambda a, b: c * (a @ b.T), prob.X, prob.y[:, None], sigma2, t)


@dataclass
class RateRow:
    """Per-n discrepancies between the posterior and the prior N(0, (1/n)I)."""

    n: int
    w2_sq: float
    kl: float
    n_mu_norm_sq: float
    trace_term: float
    trace_bound: float
    w2_ntk_sq: float
    kl_ntk: float


def uniform_design_rule(m: int, n: int, stream: GaussianStream) -> np.ndarray:
    """i.i.d. uniform [-1, 1] features: entries of X X^T / n stay bounded."""
    z = stream.normal(m * n)
    return (2.0 * scipy.special.ndtr(z) - 1.0).reshape(m, n)


def rate_sweep(
    n_grid: Sequence[int],
    m: int = 8,
    seed: int = 0,
) -> List[RateRow]:
    """Prior-to-posterior discrepancies along a feature-count grid.

    Grid point k's m x n design is :func:`uniform_design_rule` on
    ``GaussianStream(seed, 2 + k)`` and the m targets are normals of key
    ``(seed, 1)``. X^T X has rank at most m, so the spectral quantities take
    O(m^2 n) per grid point. For n up to 1024 the squared W2 and the KL are
    recomputed through the general full-matrix routines in
    :mod:`widebnn.metrics` and must agree with the spectral expansion within
    a relative 1e-8, else :class:`RouteMismatch` is raised; full matrices at
    the top of the grid would be too large to factor, so the dual route is
    capped. The general route takes one pair per grid point, (posterior,
    prior), whose W2 and KL come from one Cholesky factor of each covariance
    (:func:`metrics.w2_kl_gaussian`, on min(cores, 2) threads). The rescaled
    pair (N(sqrt(n) mu, n Sigma), N(0, I)) is the first pushed through
    x -> sqrt(n) x: KL is invariant under a map applied to both sides and
    the squared W2 scales by n, so ``w2_ntk_sq`` is checked against n times
    the general W2 and ``kl_ntk`` against the general KL. The four values
    are compared in the order W2, KL, rescaled W2, rescaled KL; every row
    comes from the spectral route, so rows do not depend on the core count.
    A seed outside [0, 2**64) raises ``ValueError``.
    """
    n_grid = [int(n) for n in n_grid]
    if not is_seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    if any(n < m for n in n_grid):
        raise ValueError(f"every n must be >= m = {m}")
    y = GaussianStream(seed, 1).normal(m)

    rows = []
    for idx, n in enumerate(n_grid):
        x = uniform_design_rule(m, n, GaussianStream(seed, 2 + idx))
        rows.append(_rate_row(x, y))
    return rows


def _rate_row(x: np.ndarray, y: np.ndarray) -> RateRow:
    m, n = x.shape
    gram = x @ x.T
    lam = np.clip(np.linalg.eigvalsh(gram), 0.0, None)  # nonzero spectrum of X^T X
    mu = x.T @ solve_spd(np.eye(m) + gram / n, y) / n
    mu2 = float(mu @ mu)

    trace_term = float(np.sum((1.0 / np.sqrt(n) - 1.0 / np.sqrt(n + lam)) ** 2))
    w2_sq = mu2 + trace_term

    trace_sigma = (n - m) / n + float(np.sum(1.0 / (n + lam)))
    logdet_sigma = -(n - m) * np.log(n) - float(np.sum(np.log(n + lam)))
    kl = float(0.5 * (n * mu2 - n + n * trace_sigma - n * np.log(n) - logdet_sigma))

    # Rescaled problem: posterior N(sqrt(n) mu, n Sigma) against prior N(0, I).
    e = n / (n + lam)  # non-unit eigenvalues of n Sigma
    w2_ntk_sq = n * mu2 + float(np.sum((1.0 - np.sqrt(e)) ** 2))
    kl_ntk = 0.5 * (
        float(np.sum(e)) + (n - m) + n * mu2 - n - float(np.sum(np.log(e)))
    )

    lam_min_kn = float(lam.min()) / n
    trace_bound = (m / n) * (1.0 - (1.0 + lam_min_kn) ** -0.5) ** 2

    if n <= _DUAL_CHECK_MAX_N:
        _dual_check(x, y, mu, w2_sq, kl, w2_ntk_sq, kl_ntk)

    return RateRow(
        n=n,
        w2_sq=w2_sq,
        kl=kl,
        n_mu_norm_sq=n * mu2,
        trace_term=trace_term,
        trace_bound=trace_bound,
        w2_ntk_sq=w2_ntk_sq,
        kl_ntk=kl_ntk,
    )


def _dual_check(x, y, mu, w2_sq, kl, w2_ntk_sq, kl_ntk):
    n = x.shape[1]
    post = linreg_posterior(LinRegProblem(x, y))
    if not np.allclose(post.mean, mu, rtol=0, atol=1e-12):
        raise RouteMismatch("posterior mean mismatch between routes")
    w2_gen, kl_gen = w2_kl_gaussian(post, GaussianDist(np.zeros(n), np.eye(n) / n))
    # The rescaled pair is this pair under x -> sqrt(n) x: W2^2 times n, same KL.
    for got, want, label in zip([w2_gen, kl_gen, n * w2_gen, kl_gen],
                                [w2_sq, kl, w2_ntk_sq, kl_ntk],
                                ["w2_sq", "kl", "w2_ntk_sq", "kl_ntk"]):
        if abs(got - want) > _DUAL_CHECK_TOL * max(1.0, abs(want)):
            raise RouteMismatch(
                f"{label}: spectral route {want!r} vs general route {got!r}"
            )


def fit_loglog_slope(ns: Sequence[int], values: Sequence[float], discard: int = 2) -> float:
    """OLS slope of log(value) against log(n), dropping the smallest
    ``discard`` grid points to reduce preasymptotic bias."""
    ns = np.asarray(ns, dtype=np.float64)[discard:]
    vals = np.asarray(values, dtype=np.float64)[discard:]
    if ns.size < 2:
        raise ValueError("need at least two points after discarding")
    coeffs = np.polyfit(np.log(ns), np.log(vals), 1)
    return float(coeffs[0])
