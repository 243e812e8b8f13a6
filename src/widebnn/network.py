"""Finite-width fully connected Bayesian network.

Configuration, prior sampling under the standard and NTK parametrisations,
forward evaluation, and an exact function-space prior sampler that avoids
materialising weight matrices for very wide networks.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np
import scipy.special

from .errors import DimensionMismatch
from .numkit import BATCH_FLOATS, GaussianStream, as_matrix, chol_batch, is_int, ordered_map

__all__ = [
    "NetworkConfig",
    "ParameterSet",
    "nonlinearity_fn",
    "sample_prior",
    "forward",
    "reparametrise",
    "prior_function_draws",
]

NONLINEARITIES = ("erf", "relu", "identity")
PARAMETRISATIONS = ("standard", "ntk")


def nonlinearity_fn(name: str):
    if name == "erf":
        return scipy.special.erf
    if name == "relu":
        return lambda x: np.maximum(x, 0.0)
    if name == "identity":
        return lambda x: x
    raise ValueError(f"unknown nonlinearity {name!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and prior scales of a fully connected BNN.

    ``depth`` counts hidden layers; the network has ``depth + 1`` weight
    matrices. All hidden layers share ``hidden_width``. Defaults
    sigma_w**2 = 2.0 and sigma_b**2 = 0.1 keep the deep erf kernel
    non-degenerate.
    """

    depth: int
    input_dim: int
    output_dim: int
    hidden_width: int
    sigma_w: float = float(np.sqrt(2.0))
    sigma_b: float = float(np.sqrt(0.1))
    nonlinearity: str = "erf"
    parametrisation: str = "standard"

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if min(self.input_dim, self.output_dim, self.hidden_width) < 1:
            raise ValueError("all dimensions must be >= 1")
        if not self.sigma_w > 0:
            raise ValueError("sigma_w must be > 0")
        if self.sigma_b < 0:
            raise ValueError("sigma_b must be >= 0")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}")
        if self.parametrisation not in PARAMETRISATIONS:
            raise ValueError(f"parametrisation must be one of {PARAMETRISATIONS}")

    # Computed once per config; a frozen dataclass without __slots__ allows it.
    @functools.cached_property
    def layer_dims(self) -> List[int]:
        """Unit counts per layer, input through output."""
        return [self.input_dim] + [self.hidden_width] * self.depth + [self.output_dim]

    @functools.cached_property
    def layer_shapes(self) -> List[tuple]:
        dims = self.layer_dims
        return [(dims[l + 1], dims[l]) for l in range(len(dims) - 1)]

    @functools.cached_property
    def n_params(self) -> int:
        return sum(o * i + o for (o, i) in self.layer_shapes)

    def __getstate__(self):  # the fields only, not the cached shapes
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_width(self, width: int) -> "NetworkConfig":
        return replace(self, hidden_width=width)


@dataclass
class ParameterSet:
    """Per-layer weights and biases of one network draw."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise DimensionMismatch("weights and biases must pair up per layer")


def _split_flat(flat: np.ndarray, config: NetworkConfig) -> ParameterSet:
    """Layer-major, weights (row-major) then bias, per the draw-order contract.

    Leading axes of ``flat`` stay leading axes of every weight and bias.
    """
    weights, biases, off = [], [], 0
    lead = flat.shape[:-1]
    for (out_d, in_d) in config.layer_shapes:
        w = flat[..., off:off + out_d * in_d].reshape(lead + (out_d, in_d))
        off += out_d * in_d
        b = flat[..., off:off + out_d]
        off += out_d
        weights.append(w)
        biases.append(b)
    return ParameterSet(weights, biases)


def sample_prior(config: NetworkConfig, stream: GaussianStream) -> ParameterSet:
    """Draw one parameter set from the prior.

    Standard parametrisation stores weights with variance sigma_w**2 / fan_in
    and biases with variance sigma_b**2; under the NTK parametrisation every
    stored entry is N(0, 1) and the scaling happens in :func:`forward`.
    """
    flat = stream.normal(config.n_params)
    params = _split_flat(flat, config)
    if config.parametrisation == "standard":
        dims = config.layer_dims
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            w *= config.sigma_w / np.sqrt(dims[l])
            b *= config.sigma_b
    return params


def forward(params: ParameterSet, config: NetworkConfig, x) -> np.ndarray:
    """Evaluate the network on a batch of inputs (rows).

    The nonlinearity is applied to hidden layers only, never to the output
    layer. Parameters with a leading batch axis (from a stack of flat
    parameter vectors) give one output matrix per parameter set, shape
    ``(batch, points, output_dim)``.
    """
    h = as_matrix(x, "X")
    if h.shape[1] != config.input_dim:
        raise DimensionMismatch(
            f"inputs have {h.shape[1]} columns, expected {config.input_dim}"
        )
    if len(params.weights) != config.depth + 1:
        raise DimensionMismatch("parameter set does not match config depth")
    phi = nonlinearity_fn(config.nonlinearity)
    ntk = config.parametrisation == "ntk"
    dims = config.layer_dims
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        if w.shape[-2:] != (dims[l + 1], dims[l]):
            raise DimensionMismatch(
                f"layer {l} weights have shape {w.shape}, expected {(dims[l + 1], dims[l])}"
            )
        if l > 0:
            h = phi(h)
        if h.ndim == 2 and w.ndim > 2:  # inputs shared by every set: one GEMM
            prod = (w.reshape(-1, dims[l]) @ h.T).reshape(w.shape[:-1] + (-1,))
            prod = np.swapaxes(prod, -1, -2)
        else:
            prod = h @ np.swapaxes(w, -1, -2)
        b = b[..., None, :]
        if ntk:
            prod *= config.sigma_w / np.sqrt(dims[l])
            h = prod + config.sigma_b * b
        else:
            h = prod + b
    return h


def reparametrise(params_ntk: ParameterSet, config: NetworkConfig) -> ParameterSet:
    """Fold the NTK forward scaling into the stored parameters.

    The returned set evaluated under the standard convention equals the input
    evaluated under the NTK convention, exactly.
    """
    dims = config.layer_dims
    weights = [
        w * (config.sigma_w / np.sqrt(dims[l]))
        for l, w in enumerate(params_ntk.weights)
    ]
    biases = [b * config.sigma_b for b in params_ntk.biases]
    return ParameterSet(weights, biases)


def layer_cov(phi_units_by_points: np.ndarray, fan_in: int,
              sigma_w: float, sigma_b: float) -> np.ndarray:
    """Cross-point covariance of one unit's next-layer preactivation.

    Given activations of the previous layer (units x points, with any
    leading batch axes), each unit of the next layer is, conditionally, a
    zero-mean Gaussian over points with this covariance; the bias contributes
    a constant sigma_b**2 offset.
    """
    g = phi_units_by_points
    return (sigma_w ** 2 / fan_in) * (np.swapaxes(g, -1, -2) @ g) + sigma_b ** 2


def layer_step(config: NetworkConfig, g: np.ndarray, e: np.ndarray,
               cond: Optional[tuple] = None) -> np.ndarray:
    """Draw one layer's preactivations at new points, exactly.

    ``g`` holds the previous layer's activations there, units by points with
    any leading batch axes (the inputs, transposed, for the first layer).
    Given ``g`` the units are i.i.d. N(0, C) over the points, C =
    :func:`layer_cov` (Matthews et al. 2018; Lee et al. 2018), and ``e``
    holds the standard normals, one row per unit: the draw is
    ``e @ chol_batch(C).T``. With ``cond = (g_x, f_x)`` it is conditioned on
    this layer's values ``f_x`` at other points, where the previous layer
    was ``g_x``: ``f_x @ A + e @ S.T`` with ``A = C_xx^-1 C_xt``, solved with
    the ``chol_batch`` factor of C_xx that draws ``f_x``, and S the factor of
    the Schur complement ``C_tt - C_tx A``.
    """
    sw, sb = config.sigma_w, config.sigma_b
    d_in = g.shape[-2]
    c_tt = layer_cov(g, d_in, sw, sb)
    if cond is None:
        return e @ np.swapaxes(chol_batch(c_tt), -1, -2)
    import scipy.linalg  # here, not at module level, where it slows every import

    g_x, f_x = cond
    c_xx = layer_cov(g_x, d_in, sw, sb)
    c_xt = (sw ** 2 / d_in) * (np.swapaxes(g_x, -1, -2) @ g) + sb ** 2
    a_mat = scipy.linalg.cho_solve((chol_batch(c_xx), True), c_xt, check_finite=False)
    schur = c_tt - np.swapaxes(c_xt, -1, -2) @ a_mat
    return f_x @ a_mat + e @ np.swapaxes(chol_batch(schur), -1, -2)


def sample_layers(config: NetworkConfig, x: np.ndarray, normals: Iterable[np.ndarray],
                  x_cond: Optional[np.ndarray] = None,
                  f_cond: Optional[Sequence[np.ndarray]] = None) -> Iterator[np.ndarray]:
    """Yield each sampled layer's preactivations at the points ``x`` (rows),
    units by points, from the first hidden layer to the output layer.

    ``normals`` yields each layer's standard normals, ``(batch, units,
    points)``, and is advanced one layer at a time, so a caller drawing them
    from a stream keeps its draw order. With ``x_cond`` and ``f_cond`` (the
    layers as yielded at ``x_cond``, same batch), every layer is conditioned
    on its values there; zero conditioning points give the plain draw.
    """
    phi = nonlinearity_fn(config.nonlinearity)
    g, f = x.T, None
    g_x = None if x_cond is None else x_cond.T
    for li, e in enumerate(normals):
        if li > 0:
            g = phi(f)
            if x_cond is not None:
                g_x = phi(f_cond[li - 1])
        f = layer_step(config, g, e, None if x_cond is None else (g_x, f_cond[li]))
        yield f


def prior_function_draws(
    config: NetworkConfig,
    x,
    n_draws: int,
    stream: GaussianStream,
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """Exact samples of network outputs at fixed points under the prior.

    Instead of materialising weight matrices, each layer's activations at the
    requested points are drawn from their exact conditional Gaussian given the
    previous layer (rows of the preactivation matrix are i.i.d. across units).
    The returned array has shape ``(n_draws, n_points, output_dim)`` and is
    equal in distribution to ``forward(sample_prior(...), config, x)``.

    Draw i takes its normals, layer by layer, from substream ``s + i`` of the
    stream's key, ``s = stream.fresh_substream()``, and the stream is left at
    substream ``s + n_draws``: the result is deterministic given the stream,
    whatever ``batch_size`` and the core count. Draws are made ``batch_size``
    at a time, by default about 2**17 floats (1 MB) per array, 13 draws at
    width 1000 on 10 points, through :func:`numkit.ordered_map` on at most
    the available cores, so a call of one batch runs on the calling thread.
    """
    pts = as_matrix(x, "X")
    if pts.shape[1] != config.input_dim:
        raise DimensionMismatch(
            f"inputs have {pts.shape[1]} columns, expected {config.input_dim}"
        )
    if not is_int(n_draws) or n_draws < 0:
        raise ValueError(f"n_draws must be an integer >= 0, got {n_draws!r}")
    m = pts.shape[0]
    if batch_size is None:
        batch_size = max(1, BATCH_FLOATS // max(config.hidden_width * m, 1))
    if not is_int(batch_size) or batch_size < 1:
        raise ValueError("batch_size must be an integer >= 1")

    out = np.empty((n_draws, m, config.output_dim))
    first = stream.fresh_substream()

    def draw(lo):
        subs = [GaussianStream(stream.seed) for _ in range(min(batch_size, n_draws - lo))]
        for i, sub in enumerate(subs, first + lo):
            sub.rekey(stream.stream_id, i)
        def normals():
            # One layer at a time: whole rows held at once page-fault per batch.
            for r in config.layer_dims[1:]:
                e = np.empty((len(subs), r, m))
                for row, sub in zip(e, subs):
                    sub.normal(r * m, out=row.reshape(-1))
                yield e
        for f in sample_layers(config, pts, normals()):
            pass
        out[lo:lo + len(subs)] = np.swapaxes(f, 1, 2)

    starts = range(0, n_draws, batch_size)
    # One batch runs on the calling thread, so that it makes no pool thread
    # and no glibc malloc arena of its own.
    for _ in ordered_map(draw, starts, min(_available_cores(), len(starts))):
        pass
    stream.rekey(stream.stream_id, first + n_draws)
    return out


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
