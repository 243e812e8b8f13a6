"""Exact posterior sampling of the finite BNN by rejection against the prior.

Proposal i derives all of its randomness from ``GaussianStream(seed, i)``:
the parameter draw first, then one extra normal mapped through the standard
normal CDF to give the acceptance uniform. Acceptance happens in log space
(``log u < log likelihood``). Proposals are processed in fixed-size chunks
merged in ascending order, so results are invariant to the worker count.

Two internal evaluation paths produce identically distributed results:

* ``parameter`` draws the weight matrices literally and pushes them through
  the forward pass (and can record posterior marginals of individual
  parameter coordinates);
* ``function`` samples the network outputs at the train points directly from
  their exact per-layer conditional Gaussians (unit rows of each
  preactivation matrix are i.i.d. given the previous layer), and extends
  accepted proposals to the eval points by Gaussian conditioning. This skips
  the O(width^2) weight materialisation, which is what makes wide-network
  sweeps tractable, and is distributionally exact, not an approximation.

``mode="auto"`` picks the mode that draws fewer normals per proposal:
``parameter`` draws ``n_params + 1``, ``function`` draws
``(depth * width + output_dim) * m_train + 1``. It picks ``parameter`` on a
tie and whenever parameter recording is requested. The counts leave out the
accept path, where function mode conditions every accepted proposal on its
train path, so at acceptance rates of a percent or more parameter mode can
be the faster one at small widths.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.special

from .errors import DimensionMismatch, InsufficientSamples, NotPositiveDefinite
from .likelihood import LikelihoodSpec, log_likelihood_batch
from .network import NetworkConfig, layer_cov, nonlinearity_fn
from .numkit import GaussianStream, as_matrix, solve_spd

__all__ = [
    "MomentAccumulator",
    "SamplerReport",
    "accumulate",
    "merge",
    "finalize",
    "rejection_sample",
]

_BATCH_BUDGET = 1 << 21  # doubles held per gather batch (~16 MB)


@dataclass
class MomentAccumulator:
    """Streaming count / mean / centred scatter in Welford form."""

    count: int
    mean: np.ndarray
    scatter: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "MomentAccumulator":
        return cls(0, np.zeros(dim), np.zeros((dim, dim)))

    def update(self, sample) -> None:
        x = np.asarray(sample, dtype=np.float64).reshape(-1)
        if x.size != self.mean.size:
            raise DimensionMismatch("sample dimension does not match accumulator")
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        # (x - new_mean) is delta * (count-1)/count, so the outer product
        # stays exactly symmetric.
        self.scatter += np.outer(delta, delta) * ((self.count - 1) / self.count)

    def update_block(self, samples) -> None:
        """Add every row of ``samples`` at once.

        The block's mean and centred scatter (one matmul) are merged in by
        :meth:`merge_in`, the pairwise update of Chan, Golub & LeVeque
        (1979); the result equals sequential :meth:`update` up to rounding.
        """
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.mean.size:
            raise DimensionMismatch("sample dimension does not match accumulator")
        if x.shape[0] == 0:
            return
        mean = x.mean(axis=0)
        centred = x - mean
        scatter = centred.T @ centred
        # Averaging with the transpose makes the block scatter exactly
        # symmetric whatever product the BLAS computed.
        self.merge_in(MomentAccumulator(x.shape[0], mean, (scatter + scatter.T) / 2.0))

    def merge_in(self, other: "MomentAccumulator") -> None:
        if other.mean.size != self.mean.size:
            raise DimensionMismatch("accumulator dimensions differ")
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean.copy()
            self.scatter = other.scatter.copy()
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / total)
        self.scatter = (
            self.scatter
            + other.scatter
            + np.outer(delta, delta) * (self.count * other.count / total)
        )
        self.count = total


def accumulate(acc: MomentAccumulator, sample) -> MomentAccumulator:
    """Single-pass Welford update; returns the updated accumulator."""
    acc.update(sample)
    return acc


def merge(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    """Pairwise merge equal to sequential accumulation of both sample sets."""
    out = MomentAccumulator(a.count, a.mean.copy(), a.scatter.copy())
    out.merge_in(b)
    return out


def finalize(acc: MomentAccumulator) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased covariance; requires at least two samples."""
    if acc.count < 2:
        raise InsufficientSamples(f"need >= 2 samples, have {acc.count}")
    cov = acc.scatter / (acc.count - 1)
    return acc.mean.copy(), (cov + cov.T) / 2.0


class _ScalarStats:
    """Per-coordinate Welford mean/variance for recorded parameters."""

    def __init__(self, k: int):
        self.count = 0
        self.mean = np.zeros(k)
        self.m2 = np.zeros(k)

    def update_block(self, values: np.ndarray) -> None:
        """Add every row of ``values`` at once, merged in by :meth:`merge_in`."""
        if len(values) == 0:
            return
        block = _ScalarStats(values.shape[1])
        block.count = len(values)
        block.mean = values.mean(axis=0)
        block.m2 = np.square(values - block.mean).sum(axis=0)
        self.merge_in(block)

    def merge_in(self, other: "_ScalarStats") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean.copy(), other.m2.copy()
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / total)
        self.m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / total)
        self.count = total


@dataclass
class SamplerReport:
    """Outcome of one rejection-sampling run.

    ``moments_valid`` is False when fewer than two proposals were accepted;
    a zero-accept run is reported, not raised, so sweeps can surface it as
    an ``accepts = 0`` row.
    """

    proposals: int
    accepts: int
    accept_rate: float
    posterior_mean: Optional[np.ndarray]
    posterior_cov: Optional[np.ndarray]
    moments_valid: bool
    recorded_param_stats: Optional[Dict[int, Tuple[float, float]]] = None
    mode: str = "parameter"


def _param_scales(config: NetworkConfig, indices: Sequence[int]) -> np.ndarray:
    """Scale mapping raw N(0,1) draws to declared-parametrisation values."""
    if config.parametrisation == "ntk":
        return np.ones(len(indices))
    dims = config.layer_dims
    bounds = []
    off = 0
    for l, (out_d, in_d) in enumerate(config.layer_shapes):
        bounds.append((off, off + out_d * in_d, config.sigma_w / np.sqrt(dims[l])))
        off += out_d * in_d
        bounds.append((off, off + out_d, config.sigma_b))
        off += out_d
    scales = np.empty(len(indices))
    for k, idx in enumerate(indices):
        if not 0 <= idx < config.n_params:
            raise IndexError(f"parameter index {idx} out of range")
        for lo, hi, s in bounds:
            if lo <= idx < hi:
                scales[k] = s
                break
    return scales


def _forward_raw_batch(z: np.ndarray, config: NetworkConfig, x: np.ndarray) -> np.ndarray:
    """Forward pass for a batch of raw N(0,1) parameter vectors.

    The per-layer sigma_w / sqrt(fan_in) and sigma_b scalings are folded into
    the matmul, which makes the standard and NTK conventions literally the
    same code path (they induce the same functions by construction).
    """
    b = z.shape[0]
    m = x.shape[0]
    phi = nonlinearity_fn(config.nonlinearity)
    dims = config.layer_dims
    h = np.broadcast_to(x, (b, m, dims[0]))
    off = 0
    for l, (out_d, in_d) in enumerate(config.layer_shapes):
        w = z[:, off:off + out_d * in_d].reshape(b, out_d, in_d)
        off += out_d * in_d
        bias = z[:, off:off + out_d]
        off += out_d
        if l > 0:
            h = phi(h)
        scale = config.sigma_w / np.sqrt(dims[l])
        h = scale * (h @ np.swapaxes(w, 1, 2)) + config.sigma_b * bias[:, None, :]
    return h


def _gather(seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    """Row j holds the first ``count`` normals of proposal ``lo + j``'s stream,
    ``GaussianStream(seed, lo + j)``; one stream is re-keyed per row."""
    z = np.empty((hi - lo, count))
    stream = GaussianStream(seed, lo)
    for j in range(hi - lo):
        stream.rekey(lo + j)
        stream.normal(count, out=z[j])
    return z


class _ChunkResult:
    def __init__(self, accepts: int, acc: MomentAccumulator, pstats: Optional[_ScalarStats]):
        self.accepts = accepts
        self.acc = acc
        self.pstats = pstats


def _run_chunk_parameter(config, train_x, train_y, lik, eval_x, seed, lo, hi,
                         indices, scales) -> _ChunkResult:
    n_par = config.n_params
    p_eval = eval_x.shape[0] * config.output_dim
    acc = MomentAccumulator.zeros(p_eval)
    pstats = _ScalarStats(len(indices)) if indices is not None else None
    batch = max(1, min(hi - lo, _BATCH_BUDGET // (n_par + 1)))
    accepts = 0
    pos = lo
    while pos < hi:
        end = min(pos + batch, hi)
        z = _gather(seed, pos, end, n_par + 1)
        outs = _forward_raw_batch(z[:, :n_par], config, train_x)
        logl = log_likelihood_batch(lik, outs, train_y)
        log_u = scipy.special.log_ndtr(z[:, n_par])
        hit = np.nonzero(log_u < logl)[0]
        if hit.size:
            accepts += int(hit.size)
            f_eval = _forward_raw_batch(z[hit, :n_par], config, eval_x)
            acc.update_block(f_eval.reshape(hit.size, -1))
            if pstats is not None:
                pstats.update_block(z[hit][:, indices] * scales)
        pos = end
    return _ChunkResult(accepts, acc, pstats)


def _chol_batch(cov: np.ndarray, m: int) -> np.ndarray:
    """Batched Cholesky with escalating relative jitter, up to 1e-4; raises
    :class:`NotPositiveDefinite` when that fails too."""
    tr = np.trace(cov, axis1=-2, axis2=-1)
    eye = np.eye(m)
    jitter = 1e-12
    while True:
        try:
            bump = (jitter * (tr / m + 1.0))[..., None, None] * eye
            return np.linalg.cholesky(cov + bump)
        except np.linalg.LinAlgError:
            jitter *= 100.0
            if jitter > 1e-4:
                raise NotPositiveDefinite(
                    "batched matrix is not positive definite (jitter up to 1e-4)"
                ) from None


class _FunctionPlan:
    """Precomputed quantities shared by every proposal in function mode."""

    def __init__(self, config: NetworkConfig, train_x: np.ndarray, eval_x: np.ndarray):
        self.config = config
        self.m_t = train_x.shape[0]
        self.m_e = eval_x.shape[0]
        d, p, L = config.hidden_width, config.output_dim, config.depth
        # Unit counts of the layers whose activations get sampled, in order.
        self.row_counts = ([d] * L + [p]) if L > 0 else [p]
        self.train_sizes = [r * self.m_t for r in self.row_counts]
        self.eval_sizes = [r * self.m_e for r in self.row_counts]
        self.total_train = sum(self.train_sizes) + 1  # + acceptance normal

        joint = np.vstack([train_x, eval_x])
        c = layer_cov(joint.T, config.input_dim, config.sigma_w, config.sigma_b)
        mt = self.m_t
        self.c1_xx = c[:mt, :mt]
        self.c1_xt = c[:mt, mt:]
        self.c1_tt = c[mt:, mt:]
        if mt > 0:
            self.l1 = _chol_batch(self.c1_xx[None], mt)[0]
            self.a1 = solve_spd(
                self.c1_xx + 1e-12 * (np.trace(self.c1_xx) / mt + 1.0) * np.eye(mt),
                self.c1_xt,
            )
            schur = self.c1_tt - self.c1_xt.T @ self.a1
            self.l1_schur = _chol_batch(schur[None], self.m_e)[0]
        else:
            self.l1_eval = _chol_batch(self.c1_tt[None], self.m_e)[0]


def _sample_train_path(plan: _FunctionPlan, z: np.ndarray) -> List[np.ndarray]:
    """Per-layer activations at the train points for a batch of proposals."""
    cfg = plan.config
    b = z.shape[0]
    mt = plan.m_t
    phi = nonlinearity_fn(cfg.nonlinearity)
    layers = []
    off = 0
    f = None
    for li, rows in enumerate(plan.row_counts):
        e = z[:, off:off + rows * mt].reshape(b, rows, mt)
        off += rows * mt
        if li == 0:
            f = e @ plan.l1.T
        else:
            g = phi(f)
            d_in = f.shape[1]
            cov = (cfg.sigma_w ** 2 / d_in) * (np.swapaxes(g, 1, 2) @ g)
            cov += cfg.sigma_b ** 2
            low = _chol_batch(cov, mt)
            f = e @ np.swapaxes(low, 1, 2)
        layers.append(f)
    return layers


def _extend_to_eval(plan: _FunctionPlan, train_layers: List[np.ndarray],
                    z_eval: np.ndarray) -> np.ndarray:
    """Sample eval-point outputs conditioned on the accepted train path."""
    cfg = plan.config
    a = z_eval.shape[0]
    mt, me = plan.m_t, plan.m_e
    phi = nonlinearity_fn(cfg.nonlinearity)
    sw2, sb2 = cfg.sigma_w ** 2, cfg.sigma_b ** 2
    off = 0
    f_t = None
    for li, rows in enumerate(plan.row_counts):
        e = z_eval[:, off:off + rows * me].reshape(a, rows, me)
        off += rows * me
        f_x = train_layers[li]
        if li == 0:
            f_t = f_x @ plan.a1 + e @ plan.l1_schur.T
        else:
            g_x = phi(train_layers[li - 1])
            g_t = phi(f_t)
            d_in = g_x.shape[1]
            g_xt = np.swapaxes(g_x, 1, 2)
            c_xx = (sw2 / d_in) * (g_xt @ g_x) + sb2
            c_xt = (sw2 / d_in) * (g_xt @ g_t) + sb2
            c_tt = (sw2 / d_in) * (np.swapaxes(g_t, 1, 2) @ g_t) + sb2
            tr = np.trace(c_xx, axis1=-2, axis2=-1)
            c_xx = c_xx + (1e-12 * (tr / mt + 1.0))[:, None, None] * np.eye(mt)
            a_mat = np.linalg.solve(c_xx, c_xt)
            schur = c_tt - np.swapaxes(c_xt, 1, 2) @ a_mat
            low = _chol_batch(schur, me)
            f_t = f_x @ a_mat + e @ np.swapaxes(low, 1, 2)
    return f_t  # (a, output_dim, m_e)


def _run_chunk_function(config, train_x, train_y, lik, eval_x, seed, lo, hi,
                        plan: _FunctionPlan) -> _ChunkResult:
    mt, me = plan.m_t, plan.m_e
    p_eval = me * config.output_dim
    acc = MomentAccumulator.zeros(p_eval)
    accepts = 0
    batch = max(1, min(hi - lo, _BATCH_BUDGET // max(plan.total_train, 1)))
    eval_total = sum(plan.eval_sizes)
    pos = lo
    while pos < hi:
        end = min(pos + batch, hi)
        z = _gather(seed, pos, end, plan.total_train)
        if mt > 0:
            train_layers = _sample_train_path(plan, z[:, :-1])
            outs = np.swapaxes(train_layers[-1], 1, 2)  # (b, m_t, p)
            logl = log_likelihood_batch(lik, outs, train_y)
        else:
            train_layers = None
            logl = np.zeros(end - pos)
        log_u = scipy.special.log_ndtr(z[:, -1])
        hit = np.nonzero(log_u < logl)[0]
        if hit.size:
            accepts += int(hit.size)
            # Continue each accepted proposal's stream past its train draws.
            z_eval = np.empty((hit.size, eval_total))
            stream = GaussianStream(seed, pos)
            for j, local in enumerate(hit):
                stream.rekey(pos + int(local))
                stream.normal(plan.total_train)
                stream.normal(eval_total, out=z_eval[j])
            if mt > 0:
                picked = [layer[hit] for layer in train_layers]
                f_t = _extend_to_eval(plan, picked, z_eval)
            else:
                f_t = _unconditional_eval(plan, z_eval)
            acc.update_block(np.swapaxes(f_t, 1, 2).reshape(hit.size, -1))
        pos = end
    return _ChunkResult(accepts, acc, None)


def _unconditional_eval(plan: _FunctionPlan, z_eval: np.ndarray) -> np.ndarray:
    """Eval outputs when there is nothing to condition on (empty train set)."""
    cfg = plan.config
    a = z_eval.shape[0]
    me = plan.m_e
    phi = nonlinearity_fn(cfg.nonlinearity)
    off = 0
    f = None
    for li, rows in enumerate(plan.row_counts):
        e = z_eval[:, off:off + rows * me].reshape(a, rows, me)
        off += rows * me
        if li == 0:
            f = e @ plan.l1_eval.T
        else:
            g = phi(f)
            d_in = f.shape[1]
            cov = (cfg.sigma_w ** 2 / d_in) * (np.swapaxes(g, 1, 2) @ g)
            cov += cfg.sigma_b ** 2
            low = _chol_batch(cov, me)
            f = e @ np.swapaxes(low, 1, 2)
    return f


def rejection_sample(
    config: NetworkConfig,
    train_x,
    train_y,
    likelihood: LikelihoodSpec,
    eval_x,
    n_proposals: int,
    seed: int,
    record_params: Optional[Sequence[int]] = None,
    workers: int = 1,
    chunk_size: int = 1024,
    mode: str = "auto",
) -> SamplerReport:
    """Draw exact posterior samples of network outputs at ``eval_x``.

    Each proposal is an independent prior draw accepted with probability
    equal to its (sup-1) likelihood on the training set; accepted draws are
    exact i.i.d. samples from the posterior pushed through the network.
    Deterministic given (seed, chunk_size); independent of ``workers``.
    """
    if n_proposals < 1:
        raise ValueError("n_proposals must be >= 1")
    train_x = np.asarray(train_x, dtype=np.float64)
    if train_x.size == 0:
        train_x = np.zeros((0, config.input_dim))
        train_y = np.zeros((0, config.output_dim))
    else:
        train_x = as_matrix(train_x, "train_X")
        train_y = as_matrix(train_y, "train_Y")
        if train_y.shape != (train_x.shape[0], config.output_dim):
            raise DimensionMismatch("train_Y shape must be (m, output_dim)")
    if train_x.shape[1] != config.input_dim:
        raise DimensionMismatch("train_X columns must equal input_dim")
    eval_x = as_matrix(eval_x, "eval_X")
    if eval_x.shape[1] != config.input_dim:
        raise DimensionMismatch("eval_X columns must equal input_dim")

    if mode == "auto":
        # Normals per proposal: all parameters, or every sampled layer's
        # train activations; each mode adds the acceptance normal.
        function_normals = (config.depth * config.hidden_width
                            + config.output_dim) * train_x.shape[0] + 1
        if record_params is not None or config.n_params + 1 <= function_normals:
            mode = "parameter"
        else:
            mode = "function"
    if mode not in ("parameter", "function"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "function" and record_params is not None:
        raise ValueError("parameter recording requires mode='parameter'")

    indices = scales = None
    if record_params is not None:
        indices = np.asarray(list(record_params), dtype=np.intp)
        scales = _param_scales(config, indices)

    if mode == "function":
        plan = _FunctionPlan(config, train_x, eval_x)

        def run(span):
            return _run_chunk_function(
                config, train_x, train_y, likelihood, eval_x, seed, span[0], span[1], plan
            )
    else:
        def run(span):
            return _run_chunk_parameter(
                config, train_x, train_y, likelihood, eval_x, seed, span[0], span[1],
                indices, scales
            )

    spans = [(lo, min(lo + chunk_size, n_proposals))
             for lo in range(0, n_proposals, chunk_size)]
    if workers <= 1:
        results = [run(s) for s in spans]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run, spans))

    p_eval = eval_x.shape[0] * config.output_dim
    acc = MomentAccumulator.zeros(p_eval)
    pstats = _ScalarStats(len(indices)) if indices is not None else None
    accepts = 0
    for res in results:  # ascending chunk order
        accepts += res.accepts
        acc.merge_in(res.acc)
        if pstats is not None and res.pstats is not None:
            pstats.merge_in(res.pstats)

    if acc.count >= 2:
        mean, cov = finalize(acc)
        valid = True
    elif acc.count == 1:
        mean, cov, valid = acc.mean.copy(), None, False
    else:
        mean, cov, valid = None, None, False

    recorded = None
    if pstats is not None and pstats.count >= 2:
        var = pstats.m2 / (pstats.count - 1)
        recorded = {
            int(idx): (float(pstats.mean[k]), float(var[k]))
            for k, idx in enumerate(indices)
        }

    return SamplerReport(
        proposals=n_proposals,
        accepts=accepts,
        accept_rate=accepts / n_proposals,
        posterior_mean=mean,
        posterior_cov=cov,
        moments_valid=valid,
        recorded_param_stats=recorded,
        mode=mode,
    )
