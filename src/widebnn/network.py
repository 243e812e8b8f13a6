"""Finite-width fully connected Bayesian network.

Configuration, prior sampling under the standard and NTK parametrisations,
forward evaluation, and an exact layer-by-layer prior sampler that avoids
materialising weight matrices for very wide networks: a layer with no more
weights per unit than points is drawn in weight space, any other in
function space.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np
import scipy.special

from .errors import DimensionMismatch
from .numkit import (BATCH_FLOATS, GaussianStream, as_matrix, chol_batch, is_finite_number,
                     is_int, ordered_map)
from .numkit import available_cores as _available_cores  # module-level, so tests can patch it

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
    """The elementwise nonlinearity ``name``, called as ``phi(x)`` or, to
    write into an existing array, ``phi(x, out=...)``."""
    if name == "erf":
        return scipy.special.erf
    if name == "relu":
        return lambda x, out=None: np.maximum(x, 0.0, out=out)
    if name == "identity":
        return lambda x, out=None: np.positive(x, out=out)
    raise ValueError(f"unknown nonlinearity {name!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and prior scales of a fully connected BNN.

    ``depth`` counts hidden layers; the network has ``depth + 1`` weight
    matrices. All hidden layers share ``hidden_width``, which a width sweep
    sets per width. Defaults sigma_w**2 = 2.0 and sigma_b**2 = 0.1 keep the
    deep erf kernel non-degenerate.
    """

    depth: int
    input_dim: int
    output_dim: int
    hidden_width: int = 1
    sigma_w: float = float(np.sqrt(2.0))
    sigma_b: float = float(np.sqrt(0.1))
    nonlinearity: str = "erf"
    parametrisation: str = "standard"

    def __post_init__(self):
        for name, least in (("depth", 0), ("input_dim", 1), ("output_dim", 1), ("hidden_width", 1)):
            value = getattr(self, name)
            if not is_int(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (is_finite_number(self.sigma_w) and self.sigma_w > 0):
            raise ValueError(f"sigma_w must be finite and > 0, got {self.sigma_w!r}")
        if not (is_finite_number(self.sigma_b) and self.sigma_b >= 0):
            raise ValueError(f"sigma_b must be finite and >= 0, got {self.sigma_b!r}")
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
    """Layer-major, weights (row-major) then bias, per the draw-order contract."""
    weights, biases, off = [], [], 0
    for (out_d, in_d) in config.layer_shapes:
        weights.append(flat[off:off + out_d * in_d].reshape(out_d, in_d))
        off += out_d * in_d
        biases.append(flat[off:off + out_d])
        off += out_d
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
    """Evaluate the network of one parameter set on a batch of inputs (rows).

    The nonlinearity is applied to hidden layers only, never to the output
    layer. Returns a ``(points, output_dim)`` matrix.
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
        if w.shape != (dims[l + 1], dims[l]):
            raise DimensionMismatch(
                f"layer {l} weights have shape {w.shape}, expected {(dims[l + 1], dims[l])}"
            )
        if l > 0:
            h = phi(h)
        h = h @ w.T
        if ntk:
            h *= config.sigma_w / np.sqrt(dims[l])
            if config.sigma_b != 0.0:
                h += config.sigma_b * b
        else:
            h += b
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
               cond: Optional[tuple] = None, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw one layer's preactivations at new points in function space, exactly.

    ``g`` holds the previous layer's activations there, units by points with
    any leading batch axes (the inputs, transposed, for the first layer).
    Given ``g`` the units are i.i.d. N(0, C) over the points, C =
    :func:`layer_cov` (Matthews et al. 2018; Lee et al. 2018), and ``e``
    holds the standard normals, one row per unit: the draw is
    ``e @ chol_batch(C).T``, written into ``out`` if given. With ``cond =
    (g_x, f_x)`` it is conditioned on this layer's values ``f_x`` at other
    points, where the previous layer was ``g_x``: ``f_x @ A + e @ S.T`` with
    ``A = C_xx^-1 C_xt``, solved with the ``chol_batch`` factor of C_xx that
    draws ``f_x``, and S the factor of the Schur complement ``C_tt - C_tx A``.
    A product whose inner dimension is 1 (one new point, or one conditioning
    point) is taken as a broadcast product, which gives the matmul's bits.
    """
    sw, sb = config.sigma_w, config.sigma_b
    d_in = g.shape[-2]
    c_tt = layer_cov(g, d_in, sw, sb)
    if cond is None:
        l_tt = chol_batch(c_tt)
        if c_tt.shape[-1] == 1:
            return np.multiply(e, l_tt, out=out)
        return np.matmul(e, np.swapaxes(l_tt, -1, -2), out=out)
    import scipy.linalg  # here, not at module level, where it slows every import

    g_x, f_x = cond
    c_xx = layer_cov(g_x, d_in, sw, sb)
    c_xt = (sw ** 2 / d_in) * (np.swapaxes(g_x, -1, -2) @ g) + sb ** 2
    if c_xx.shape[-1] == 1:  # one point: OpenBLAS's potrs, without cho_solve's
        inv = 1.0 / chol_batch(c_xx)  # Python loop over the batch
        a_mat = c_xt * inv * inv
        mean = f_x * a_mat
    else:
        a_mat = scipy.linalg.cho_solve((chol_batch(c_xx), True), c_xt, check_finite=False)
        mean = f_x @ a_mat
    schur = c_tt - np.swapaxes(c_xt, -1, -2) @ a_mat
    return mean + e @ np.swapaxes(chol_batch(schur), -1, -2)


def weight_space(fan_in: int, points: int) -> bool:
    """Whether a layer of ``fan_in`` inputs is drawn in weight space at
    ``points`` points: when its ``fan_in + 1`` weights per unit are no more
    than the points, so that it takes no more normals than its values would,
    and no factorisation. This is the default rule of :func:`layer_normals`,
    :func:`normals_per_draw` and :func:`sample_layers`; a rule is any
    function of ``(fan_in, points)`` that returns this decision."""
    return fan_in + 1 <= points


def normals_per_draw(config: NetworkConfig, m: int, rule=weight_space) -> int:
    """Normals that one draw of every sampled layer at ``m`` points takes:
    ``units * (fan_in + 1)`` for a layer that ``rule`` draws in weight space,
    else ``units * m``."""
    dims = config.layer_dims
    return sum(dims[l + 1] * (dims[l] + 1 if rule(dims[l], m) else m)
               for l in range(len(dims) - 1))


def layer_normals(z: np.ndarray, config: NetworkConfig, m: int,
                  rule=weight_space) -> Iterator[np.ndarray]:
    """Split each row of ``z`` into the normals of every sampled layer drawn
    at ``m`` points, layer by layer. A layer that ``rule`` draws in weight
    space takes its parameters in the draw-order layout of
    :func:`sample_prior`, W (units x fan_in) row-major then b, as a ``(batch,
    units * (fan_in + 1))`` slice; so with every layer in weight space a row
    is the flat NTK parameter vector. Every other layer takes ``(batch,
    units, m)`` normals."""
    off = 0
    dims = config.layer_dims
    for l in range(len(dims) - 1):
        units = dims[l + 1]
        if rule(dims[l], m):
            yield z[:, off:off + units * (dims[l] + 1)]
            off += units * (dims[l] + 1)
        else:
            yield z[:, off:off + units * m].reshape(z.shape[0], units, m)
            off += units * m


def sample_layers(config: NetworkConfig, x: np.ndarray, normals: Iterable[np.ndarray],
                  x_cond: Optional[np.ndarray] = None,
                  f_cond: Optional[Sequence[Optional[np.ndarray]]] = None,
                  out: Optional[Sequence[np.ndarray]] = None,
                  rule=weight_space, g_cond: Optional[dict] = None,
                  g_out: Optional[dict] = None) -> Iterator[np.ndarray]:
    """Yield each sampled layer's preactivations at the points ``x`` (rows),
    units by points, from the first hidden layer to the output layer.

    ``normals`` yields each layer's standard normals as :func:`layer_normals`
    splits them under the same ``rule``, and is advanced one layer at a
    time, so a caller drawing them from a stream keeps its draw order. A
    layer that ``rule`` puts in weight space (by default :func:`weight_space`:
    no more weights per unit than points) takes its weights W and biases b
    as normals, and its values are ``sigma_w / sqrt(fan_in) * W phi(h) +
    sigma_b * b``, with ``phi(h)`` the previous layer's activations (the
    inputs for the first layer): the NTK-convention forward pass, the
    weight-space view of the same Gaussian (Rasmussen & Williams 2006,
    sections 2.1-2.2). Inputs that every draw shares (the first layer's) make
    one matrix product for the whole batch. Every other layer is drawn in
    function space by :func:`layer_step`, from ``(batch, units, points)``
    normals.

    With ``x_cond`` and ``f_cond`` (the layers as yielded at ``x_cond``, same
    batch), the layers are extended from ``x_cond`` to ``x``. The rule is
    applied at ``x_cond``'s points: a weight-space layer takes the W and b it
    was drawn with there as its normals, and every other layer is
    conditioned on its values there; zero conditioning points give the plain
    draw. Only a function-space layer and the layer before it are read from
    ``f_cond``, so the others may be None. ``g_out``, a dict, receives the
    activations each function-space layer after the first is drawn from
    (``phi`` of the layer before, units by points), keyed by layer index;
    given such a dict at ``x_cond`` as ``g_cond``, a conditioned extension
    reads them from it instead of recomputing them from ``f_cond``, which
    then needs only the function-space layers.

    ``out``, two flat float arrays that each hold one layer's values (batch
    x units x points), makes a plain draw allocate no batch-sized arrays:
    layer ``l`` is written into ``out[l % 2]`` and the next layer overwrites
    it with its activations, so a yielded layer is valid only until the next
    is drawn.
    """
    phi = nonlinearity_fn(config.nonlinearity)
    sw, sb = config.sigma_w, config.sigma_b
    dims = config.layer_dims
    points = x.shape[0]
    m = points if x_cond is None else x_cond.shape[0]
    g, f = x.T, None
    for li, e in enumerate(normals):
        d, units = dims[li], dims[li + 1]
        if li > 0:
            g = phi(f) if out is None else phi(f, out=f)
        batch = e.shape[0]
        dest = None
        if out is not None:
            dest = out[li % 2][:batch * units * points].reshape(batch, units, points)
        if rule(d, m):
            if g.ndim == 2:  # inputs shared by every draw: one GEMM of each
                # unit's [W b] with [sigma_w / sqrt(d) * g; sigma_b * 1^T]
                wb = np.empty((batch, units, d + 1))
                wb[..., :d] = e[:, :units * d].reshape(batch, units, d)
                wb[..., d] = e[:, units * d:]
                feats = np.vstack([sw / np.sqrt(d) * g, np.full((1, points), sb)])
                f = np.matmul(wb.reshape(-1, d + 1), feats,
                              out=None if dest is None else dest.reshape(-1, points))
                f = f.reshape(batch, units, points)
            else:
                f = np.matmul(e[:, :units * d].reshape(batch, units, d), g, out=dest)
                f *= sw / np.sqrt(d)
                if sb != 0.0:
                    f += sb * e[:, units * d:, None]
        else:
            if g_out is not None and li > 0:
                g_out[li] = g
            cond = None
            if x_cond is not None:
                g_x = (x_cond.T if li == 0 else
                       phi(f_cond[li - 1]) if g_cond is None else g_cond[li])
                cond = (g_x, f_cond[li])
            f = layer_step(config, g, e, cond, out=dest)
        yield f


def prior_function_draws(
    config: NetworkConfig,
    x,
    n_draws: int,
    stream: GaussianStream,
) -> np.ndarray:
    """Exact samples of network outputs at fixed points under the prior.

    Instead of materialising weight matrices, each layer is drawn by
    :func:`sample_layers` from its exact conditional Gaussian given the
    previous layer: in weight space where a layer has no more weights per
    unit than there are points (``fan_in + 1 <= n_points``, the first layer
    at 1-D inputs), else in function space (rows of the preactivation matrix
    are i.i.d. across units). The returned array has shape ``(n_draws,
    n_points, output_dim)`` and is equal in distribution to
    ``forward(sample_prior(...), config, x)``.

    Draw i takes its normals, layer by layer as :func:`layer_normals` splits
    them, starting with the first layer's weights W and then biases b, from
    substream ``s + i`` of the stream's key, ``s =
    stream.fresh_substream()``, and the stream is left at substream ``s +
    n_draws``: the result is deterministic given the stream, whatever the
    batch size and the core count. Draws are made in batches of about
    ``numkit.BATCH_FLOATS`` (2**17) floats (1 MB) per layer, 13 draws at
    width 1000 on 10 points, through :func:`numkit.ordered_map` on at most
    the available cores, so a call of one batch runs on the calling thread.
    Each thread of a call allocates its batch arrays once, at its first
    batch, and writes every later batch into them.
    """
    pts = as_matrix(x, "X")
    if pts.shape[1] != config.input_dim:
        raise DimensionMismatch(
            f"inputs have {pts.shape[1]} columns, expected {config.input_dim}"
        )
    if not is_int(n_draws) or n_draws < 0:
        raise ValueError(f"n_draws must be an integer >= 0, got {n_draws!r}")
    m = pts.shape[0]
    batch_size = max(1, BATCH_FLOATS // max(config.hidden_width * m, 1))

    draws = np.empty((n_draws, m, config.output_dim))
    first = stream.fresh_substream()
    total = normals_per_draw(config, m)
    cap = min(batch_size, n_draws)
    local = threading.local()  # this call's batch arrays, one set per thread

    def draw(lo):
        if not hasattr(local, "z"):
            layer_floats = cap * max(config.layer_dims[1:]) * m
            local.sub = GaussianStream(stream.seed)
            local.z = np.empty((cap, total))
            local.layers = (np.empty(layer_floats), np.empty(layer_floats))
        z = local.z[:min(batch_size, n_draws - lo)]
        for i, row in enumerate(z, first + lo):
            local.sub.rekey(stream.stream_id, i)
            local.sub.normal(total, out=row)
        for f in sample_layers(config, pts, layer_normals(z, config, m), out=local.layers):
            pass
        draws[lo:lo + len(z)] = np.swapaxes(f, 1, 2)

    starts = range(0, n_draws, batch_size)
    # One batch runs on the calling thread, so that it makes no pool thread
    # and no glibc malloc arena of its own.
    for _ in ordered_map(draw, starts, min(_available_cores(), len(starts))):
        pass
    stream.rekey(stream.stream_id, first + n_draws)
    return draws
