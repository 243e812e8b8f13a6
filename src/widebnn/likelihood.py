"""Bounded likelihoods of network outputs, in envelope (sup = 1) form.

The Gaussian likelihood is the unnormalised exponential of the summed squared
residuals; any constant factor would cancel in the rejection acceptance
probability, and sup = 1 maximises the acceptance rate. Everything is
accumulated in log space so poor fits do not underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, MalformedTarget
from .numkit import is_finite_number, is_int

__all__ = [
    "LikelihoodSpec",
    "gaussian_likelihood",
    "categorical_likelihood",
    "log_likelihood",
    "log_likelihood_batch",
]


@dataclass(frozen=True)
class LikelihoodSpec:
    """Either ``gaussian`` with noise variance sigma2 or ``categorical``
    with num_classes classes."""

    kind: str
    sigma2: Optional[float] = None
    num_classes: Optional[int] = None

    def __post_init__(self):
        if self.kind == "gaussian":
            if not (is_finite_number(self.sigma2) and self.sigma2 > 0):
                raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        elif self.kind == "categorical":
            if not (is_int(self.num_classes) and self.num_classes >= 2):
                raise ValueError(f"num_classes must be an integer >= 2, got {self.num_classes!r}")
        else:
            raise ValueError(f"unknown likelihood kind {self.kind!r}")


def _check_onehot(targets: np.ndarray) -> None:
    ok = np.all((targets == 0.0) | (targets == 1.0)) and np.all(
        targets.sum(axis=-1) == 1.0
    )
    if not ok:
        raise MalformedTarget("each target row must be one-hot")


def log_likelihood_batch(spec: LikelihoodSpec, outputs, targets) -> np.ndarray:
    """Log likelihood for a batch of output sets, shape (B, m, p) -> (B,)."""
    outputs = np.asarray(outputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if outputs.ndim != 3 or outputs.shape[1:] != targets.shape:
        raise DimensionMismatch(
            f"batch outputs shape {outputs.shape} does not match targets {targets.shape}"
        )
    if spec.kind == "gaussian":
        r = outputs - targets
        return -0.5 / spec.sigma2 * np.einsum("bmp,bmp->b", r, r)
    _check_onehot(targets)
    shifted = outputs - outputs.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return np.einsum("bmp,mp->b", log_probs, targets)


def log_likelihood(spec: LikelihoodSpec, outputs, targets) -> float:
    """Log likelihood of one output set: :func:`log_likelihood_batch` on a
    batch of one."""
    return float(log_likelihood_batch(spec, np.asarray(outputs)[None], targets)[0])


def gaussian_log_likelihood(outputs, targets, sigma2: float) -> float:
    return log_likelihood(LikelihoodSpec("gaussian", sigma2=sigma2), outputs, targets)


def gaussian_likelihood(outputs, targets, sigma2: float) -> float:
    """exp(-sum ||y_i - f(x_i)||^2 / (2 sigma2)); equals 1 at a perfect fit."""
    return float(np.exp(gaussian_log_likelihood(outputs, targets, sigma2)))


def categorical_log_likelihood(logits, onehot_targets) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    spec = LikelihoodSpec("categorical", num_classes=logits.shape[-1])
    return log_likelihood(spec, logits, onehot_targets)


def categorical_likelihood(logits, onehot_targets) -> float:
    """Product over examples of softmax(logits)[target class]."""
    return float(np.exp(categorical_log_likelihood(logits, onehot_targets)))
