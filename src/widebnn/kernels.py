"""Infinite-width limits: NNGP and NTK kernel recursions and GP posteriors.

The layer recursion propagates the three bivariate-Gaussian moments
(var at x, var at x', cov) jointly and maps them through the closed forms

  erf:  E[phi(u) phi(v)]   = (2/pi) arcsin( 2c / sqrt((1+2a)(1+2b)) )
        E[phi'(u) phi'(v)] = (4/pi) ((1+2a)(1+2b) - 4 c^2)^(-1/2)
  relu: E[phi(u) phi(v)]   = sqrt(a b)/(2 pi) (sin t + (pi - t) cos t),
        E[phi'(u) phi'(v)] = (pi - t)/(2 pi),  t = arccos(c / sqrt(a b))

with (a, b, c) = (Var u, Var v, Cov(u, v)). Both are checked against a
bivariate Monte Carlo oracle in the test suite before being trusted here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .network import NetworkConfig
from .numkit import as_matrix, solve_spd

__all__ = [
    "KernelPair",
    "GaussianPredictive",
    "ew_cov",
    "ew_dcov",
    "nngp_kernel",
    "ntk_kernel",
    "gp_posterior",
    "ntk_posterior",
]


@dataclass
class KernelPair:
    """NNGP covariance K and NTK matrix Theta on the same point grid."""

    K: np.ndarray
    Theta: np.ndarray


@dataclass
class GaussianPredictive:
    """Gaussian over function values at test points, flattened point-major."""

    mean: np.ndarray
    cov: np.ndarray


def ew_cov(nonlinearity: str, a, b, c) -> np.ndarray:
    """E[phi(u) phi(v)] for (u, v) centred Gaussian with moments (a, b, c)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if nonlinearity == "identity":
        return np.broadcast_arrays(a * 0.0 + c)[0].copy()
    if nonlinearity == "erf":
        denom = np.sqrt((1.0 + 2.0 * a) * (1.0 + 2.0 * b))
        arg = np.clip(2.0 * c / denom, -1.0, 1.0)
        return (2.0 / np.pi) * np.arcsin(arg)
    if nonlinearity == "relu":
        ab = a * b
        safe = np.sqrt(np.maximum(ab, 1e-300))
        theta = np.arccos(np.clip(c / safe, -1.0, 1.0))
        val = safe / (2.0 * np.pi) * (np.sin(theta) + (np.pi - theta) * np.cos(theta))
        return np.where(ab <= 0.0, 0.0, val)
    raise ValueError(f"unknown nonlinearity {nonlinearity!r}")


def ew_dcov(nonlinearity: str, a, b, c) -> np.ndarray:
    """E[phi'(u) phi'(v)] under the same bivariate Gaussian."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if nonlinearity == "identity":
        return np.ones(np.broadcast(a, b, c).shape)
    if nonlinearity == "erf":
        det = np.maximum((1.0 + 2.0 * a) * (1.0 + 2.0 * b) - 4.0 * c * c, 1e-300)
        return (4.0 / np.pi) / np.sqrt(det)
    if nonlinearity == "relu":
        ab = a * b
        safe = np.sqrt(np.maximum(ab, 1e-300))
        theta = np.arccos(np.clip(c / safe, -1.0, 1.0))
        val = (np.pi - theta) / (2.0 * np.pi)
        return np.where(ab <= 0.0, 0.0, val)
    raise ValueError(f"unknown nonlinearity {nonlinearity!r}")


def _recursion(config: NetworkConfig, x1, x2, ntk: bool):
    """K^{L+1} between two point sets, and with ``ntk`` Theta^{L+1}
    (otherwise None), from one pass over the layers."""
    x1 = as_matrix(x1, "X1")
    x2 = as_matrix(x2, "X2")
    d0 = config.input_dim
    if x1.shape[1] != d0 or x2.shape[1] != d0:
        raise DimensionMismatch("input dimension does not match config")
    sw2, sb2 = config.sigma_w ** 2, config.sigma_b ** 2
    a = sb2 + sw2 * np.einsum("ij,ij->i", x1, x1) / d0
    b = sb2 + sw2 * np.einsum("ij,ij->i", x2, x2) / d0
    c = sb2 + sw2 * (x1 @ x2.T) / d0
    theta = c.copy() if ntk else None
    for _ in range(config.depth):
        if ntk:
            kdot = ew_dcov(config.nonlinearity, a[:, None], b[None, :], c)
        c = sb2 + sw2 * ew_cov(config.nonlinearity, a[:, None], b[None, :], c)
        if ntk:
            theta = c + sw2 * kdot * theta
        a = sb2 + sw2 * ew_cov(config.nonlinearity, a, a, a)
        b = sb2 + sw2 * ew_cov(config.nonlinearity, b, b, b)
    return c, theta


def nngp_kernel(config: NetworkConfig, x1, x2) -> np.ndarray:
    """NNGP covariance K^{L+1} between two point sets."""
    return _recursion(config, x1, x2, ntk=False)[0]


def ntk_kernel(config: NetworkConfig, x1, x2) -> KernelPair:
    """NNGP and NTK matrices between two point sets.

    Theta^1 = K^1 and Theta^{l+1} = K^{l+1} + sigma_w^2 Kdot^{l+1} * Theta^l,
    with Kdot^{l+1} the derivative moment under the layer-l Gaussian.
    """
    return KernelPair(*_recursion(config, x1, x2, ntk=True))


def _expand_outputs(mean_tp: np.ndarray, cov_tt: np.ndarray, p: int) -> GaussianPredictive:
    """Flatten a per-output-dim predictive to point-major vector form.

    Output dims carry independent identical kernels, so the flattened
    covariance is kron(cov, I_p).
    """
    mean = mean_tp.reshape(-1)
    cov = np.kron(cov_tt, np.eye(p)) if p > 1 else cov_tt
    return GaussianPredictive(mean=mean, cov=cov)


def gp_posterior(k_fn: Callable, train_x, train_y, sigma2: float, test_x) -> GaussianPredictive:
    """Closed-form GP regression posterior for kernel ``k_fn(X1, X2)``."""
    test_x = as_matrix(test_x, "test_X")
    ktt = k_fn(test_x, test_x)
    train_x = np.asarray(train_x, dtype=np.float64)
    if train_x.size == 0:
        t = ktt.shape[0]
        return GaussianPredictive(mean=np.zeros(t), cov=(ktt + ktt.T) / 2.0)
    train_x = as_matrix(train_x, "train_X")
    y = as_matrix(train_y, "train_Y")
    if y.shape[0] != train_x.shape[0]:
        raise DimensionMismatch("train_Y rows must match train_X rows")
    kxx = k_fn(train_x, train_x)
    ktx = k_fn(test_x, train_x)
    axx = kxx + sigma2 * np.eye(kxx.shape[0])
    mean = ktx @ solve_spd(axx, y)
    cov = ktt - ktx @ solve_spd(axx, ktx.T)
    cov = (cov + cov.T) / 2.0
    return _expand_outputs(mean, cov, y.shape[1])


def _clamp_psd(cov: np.ndarray) -> np.ndarray:
    cov = (cov + cov.T) / 2.0
    w, v = np.linalg.eigh(cov)
    if w.size and w[0] < 0.0:
        cov = (v * np.clip(w, 0.0, None)) @ v.T
        cov = (cov + cov.T) / 2.0
    return cov


def ntk_posterior(config: NetworkConfig, train_x, train_y, sigma2: float, test_x) -> GaussianPredictive:
    """Predictive of an infinitely wide network trained to convergence by
    gradient descent (gradient-flow mean via Theta, covariance mixing K and
    Theta); reduces exactly to :func:`gp_posterior` when Theta == K."""
    test_x = as_matrix(test_x, "test_X")
    train_x = np.asarray(train_x, dtype=np.float64)
    ktt = nngp_kernel(config, test_x, test_x)
    if train_x.size == 0:
        t = ktt.shape[0]
        return GaussianPredictive(mean=np.zeros(t), cov=_clamp_psd(ktt))
    train_x = as_matrix(train_x, "train_X")
    y = as_matrix(train_y, "train_Y")
    pair_xx = ntk_kernel(config, train_x, train_x)
    pair_tx = ntk_kernel(config, test_x, train_x)
    kxx, theta_xx = pair_xx.K, pair_xx.Theta
    kxt = pair_tx.K.T.copy()  # K(X, T)
    theta_tx = pair_tx.Theta
    m = kxx.shape[0]
    axx = theta_xx + sigma2 * np.eye(m)
    s_theta_xt = solve_spd(axx, theta_tx.T)  # S Theta(X, T)
    mean = s_theta_xt.T @ y
    mixed = s_theta_xt.T @ (kxx + sigma2 * np.eye(m)) @ s_theta_xt
    cross = s_theta_xt.T @ kxt  # Theta(T,X) S K(X,T)
    cov = ktt + mixed - cross - cross.T
    cov = _clamp_psd(cov)
    return _expand_outputs(mean, cov, y.shape[1])
