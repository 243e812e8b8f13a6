"""Exact posterior sampling of the finite BNN by rejection against the prior.

Proposals are keyed in blocks of fixed work (Philox keying as in Salmon et
al., "Random123", SC'11): at n normals per block row a block holds
``G = 64 * ceil(64 / n)`` proposals, so every key draws at least 4,096
normals, and rows of 64 or more normals keep blocks of 64. Proposal i takes
row ``i % G`` of ``GaussianStream(seed, i // G)``, which draws its block's
rows in proposal order. G depends only on the config, the train points and
the mode, never on the worker count. A stage-1 row holds the normals of
every layer at the stage-1 train points (below), as
:func:`network.layer_normals` splits them, then one extra normal mapped
through the standard normal CDF to give the acceptance uniform; the block
row holds the whole stage-1 row, or in a screened run only its end, the
output layer's normals at the screening point and the acceptance normal
(stage 0, below). Proposal i draws its other normals from its own key
``(seed, 2**63 + i)``, apart from the block ids and from
``experiments.DATASET_STREAM_ID`` (2**62): stage k's from substream k (the
rest of its stage-1 row from substream 1), the eval points of its
function-space layers, once accepted, from substream 0. The accept test
``log u < log likelihood`` runs in linear space first and leaves near ties
to ``log_ndtr`` (:func:`_accepted`). By default proposals run in chunks
that hold about ``numkit.BATCH_FLOATS`` floats of what every proposal of
the chunk holds at once (its train-path values, or in a screened run its
stage-1 floats), in whole blocks of G at the stage-1 row's n, merged in
ascending order, so results are invariant to the worker count. A chunk that
starts inside a block (a screened run's blocks hold 2,048 proposals at one
output) draws and discards the block's earlier rows (fewer than ``G * n``:
below 8,192 normals for rows under 64 normals, 63 rows otherwise), so
accepts do not depend on the chunk size.

One chunk runner draws every proposal layer by layer through
:func:`network.sample_layers`, the layer loop that prior draws use too; the
mode is only its per-layer rule, decided at the ``m_train`` train points. A
weight-space layer takes its weights and biases as normals, W (units x
fan_in) row-major then b as in :func:`network.sample_prior`, and its values
are the NTK-convention forward pass of that layer, with no factorisation. A
function-space layer is drawn from its exact conditional Gaussian given the
previous layer (unit rows of each preactivation matrix are i.i.d. given
it), one normal per unit and point. Both views give the same Gaussian
(Rasmussen & Williams 2006, sections 2.1-2.2), so both modes are exact:

* ``parameter`` puts every layer in weight space, so a row holds the flat
  NTK parameter vector (raw N(0, 1) parameters under the NTK convention
  induce the same functions as scaled ones under the standard convention),
  which parameter recording indexes directly;
* ``function`` puts a layer in weight space only when its ``fan_in + 1``
  weights per unit are no more than the ``m_train`` train points. So a whole
  train path takes ``sum over layers of units * (fan_in + 1 if fan_in + 1
  <= m_train else m_train) + 1`` normals: 9, 105 and 10,005 at widths 1, 10
  and 1000, depth 3 and 4 train points, against 17, 125 and 12,005 with
  every layer in function space.

Each likelihood factor is at most 1, so ``u >= prod l_i`` over any subset
of the train points rejects a proposal exactly (delayed acceptance, Christen
& Fox 2005). With a function-space layer and two or more train points a
proposal is drawn in stages over the train points, taken in train order
after the screening point p, the point of least survival ``E[l_i]`` under
the NNGP marginal ``f_i ~ N(0, K_ii)`` (:func:`_survival`; the lowest index
on a tie). On the default data ascending survival would take x = pi/3 second,
whose output is anti-correlated with p's and so passes with it: 5.5% of
proposals would survive two points instead of 4.6%, and the evidence's
relative standard error would be 8.6% instead of 8.0% at width 100.

* Stage 0 draws no hidden layer. A function-space output layer at p is
  ``f_p = s * e``, with e its block-row normals, one per output unit, and s
  the ``chol_batch`` factor of ``C = sigma_w^2 / d * sum_j phi(h_j)^2 +
  sigma_b^2``. C lies in ``[sigma_b^2, sigma_w^2 + sigma_b^2]`` for erf
  (``erf^2 <= 1``), in ``[sigma_b^2, inf)`` for relu and identity, and is
  ``sigma_w^2 / d * ||x_p||^2 + sigma_b^2`` at depth 0 (:func:`_scale_range`,
  widened for the jitter). Stage 0 rejects ``u >= B``, B the sup of
  ``l_p(s * e)`` over that range (:func:`_log_bound`): for the Gaussian
  likelihood at the least-squares s clipped to the range, for the
  categorical with each term ``exp(s (e_k - e_y))`` of the softmax
  denominator at its own end. It rejects only with a margin for rounding.
  With the output layer in weight space B is 1 and nothing is rejected.
  On the default sweep's data 37.6% pass at sigma2 = 0.1 and 30% at 0.01;
  relu, whose range has no upper end, passes 71% at width 30 and 0.1.
* Stage 1 draws the rest of its row at p from substream 1 of its key: each
  weight-space layer's W and b, one normal per unit of each function-space
  layer (4,001 normals at width 1000, 41 at width 10), and screens out
  ``u >= l_p``. About 21% of all proposals survive at sigma2 = 0.1.
* Stage k >= 2 extends the survivors of stage k - 1 to as many new train
  points as all earlier stages drew together (1, 1, 2, 4, ... points;
  :func:`_stage_sizes`), conditioned on every point drawn so far by the
  conditioned route of :func:`network.sample_layers`: ``units * points``
  normals per function-space layer from substream k, weight-space layers
  reusing their W and b. It screens out ``u >= prod l_i`` over the points
  drawn so far. On the default data (4 points: stages of 1, 1 and 2) 4.6%
  of all proposals survive two points, and the 0.3% that survive all four
  are accepted.

So width 1000 takes about 2,100 train-path normals per proposal, against
about 2,800 with a single stage after stage 1 and 10,005 unscreened. A
5,120-proposal call of the default sweep takes about 30% less CPU time
than with a single stage after stage 1 at width 1000, 40% less at width
100 and 20% less at width 10. Each stage re-keys a stream per proposal
(about 2 us), yet with chunks sized at stage 1 a screened call at width 10
(41 normals at p) takes about 35% less CPU time than an unscreened one,
and relu at width 30 about 40% less. The evidence estimate is the mean over all
proposals of ``1{u < L_prefix} * l_last``, with ``L_prefix`` the product of
``l_i`` over the points before the last stage and ``l_last`` over the last
stage's points, and zero for every proposal screened out before the last
stage (Horvitz & Thompson 1952); it is unbiased since ``P(u < L_prefix | f)
= L_prefix``, and stage 0 rejects only proposals with ``u >= l_p``. An
accepted proposal is extended to the eval points given every train point,
in stage order: weight-space layers reuse their W and b, function-space
layers take ``m_eval`` fresh normals per unit.

Every function-space layer covariance is factored by
:func:`numkit.chol_batch` (a fixed jitter, one attempt, else
``NotPositiveDefinite``); weight-space layers factor nothing. The closed
forms the samples are compared with use :func:`numkit.cholesky`, which
does not accept a singular matrix.

``mode="auto"`` picks the mode that holds fewer floats per proposal on the
train path (``_proposal_floats``), which also sizes the default chunks, and
``parameter`` on a tie or for parameter recording. The counts leave out the
accept path, so at acceptance rates of a percent or more parameter mode
can be the faster one at small widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.special

from .errors import DimensionMismatch, InsufficientSamples
from .kernels import nngp_kernel
from .likelihood import LikelihoodSpec, log_likelihood_batch
from .network import NetworkConfig, layer_normals, normals_per_draw, sample_layers, weight_space
from .numkit import BATCH_FLOATS as _BATCH_BUDGET  # doubles held per gather batch
from .numkit import GaussianStream, as_matrix, available_cores, is_int, ordered_map

__all__ = [
    "MomentAccumulator",
    "SamplerReport",
    "accumulate",
    "merge",
    "finalize",
    "rejection_sample",
]

_BLOCK = 64  # proposals per Philox key at 64 or more normals per proposal
_EVAL_KEYS = 1 << 63  # proposal i's own key is _EVAL_KEYS + i: stage k's normals
# at its substream k, eval normals at substream 0
_MARGIN = 1e-9  # relative gap of u and ell below which the log test decides
_TINY = 1e-290  # u or ell below this is decided by the log test
# Stage 0 widens the output scale's range by this much, relative and absolute
# (the chol_batch jitter adds 1e-12 * (C + 1); rounding far less), and
# rejects only when log u exceeds the log bound b by _BOUND_MARGIN * (1 - b).
_SCALE_SLACK = 1e-9
_BOUND_MARGIN = 1e-6
# Per mode, the rule that puts a layer of fan_in inputs at m points in weight space.
_RULES = {"parameter": lambda fan_in, points: True, "function": weight_space}


@dataclass
class MomentAccumulator:
    """Streaming count / mean / centred scatter, merged pairwise."""

    count: int
    mean: np.ndarray
    scatter: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "MomentAccumulator":
        return cls(0, np.zeros(dim), np.zeros((dim, dim)))

    def update(self, sample) -> None:
        """Add one sample: :meth:`update_block` on one row."""
        self.update_block(np.asarray(sample, dtype=np.float64).reshape(1, -1))

    def update_block(self, samples) -> None:
        """Add every row of ``samples`` at once.

        The block's mean and centred scatter (one matmul) are merged in by
        :meth:`merge_in`, the pairwise update of Chan, Golub & LeVeque
        (1979); the result equals adding the rows one by one up to rounding.
        """
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.mean.size:
            raise DimensionMismatch("sample dimension does not match accumulator")
        if x.shape[0] == 0:
            return
        mean = x.sum(axis=0) / x.shape[0]  # np.mean's bits, without its wrapper
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
    """Add one sample (:meth:`MomentAccumulator.update`); returns the accumulator."""
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


@dataclass
class SamplerReport:
    """Outcome of one rejection-sampling run.

    ``moments_valid`` is False when fewer than two proposals were accepted;
    a zero-accept run is reported, not raised, so sweeps can surface it as
    an ``accepts = 0`` row.
    ``survivors`` counts the proposals that pass stage 1 (all when nothing
    is screened). ``mean_likelihood`` then averages ``1{u < L_prefix} *
    l_last`` over all proposals, zero for those screened out before the
    last stage: unbiased, with about 2.5-2.6 times the plain mean's variance
    at widths 10 and 100, sigma2 = 0.1, about 1.5 times that of a single
    stage after stage 1 at widths 10-1000. It reads 0.0 with no standard
    error (``mean_likelihood_se`` None) when no proposal adds a non-zero
    term: none survives stage 1, none reaches the last stage, or every
    likelihood underflows. A zero standard error there would claim a
    certainty that the run does not have.
    """

    proposals: int
    accepts: int
    accept_rate: float
    posterior_mean: Optional[np.ndarray]
    posterior_cov: Optional[np.ndarray]
    moments_valid: bool
    recorded_param_stats: Optional[Dict[int, Tuple[float, float]]] = None
    mode: str = "parameter"
    # Mean over all proposals of the (sup-1) likelihood, the expected accept
    # rate, and its Monte Carlo standard error (None below two proposals or
    # when every term is zero).
    mean_likelihood: Optional[float] = None
    mean_likelihood_se: Optional[float] = None
    survivors: Optional[int] = None


def _param_scales(config: NetworkConfig, indices: np.ndarray) -> np.ndarray:
    """Scale mapping raw N(0,1) draws to declared-parametrisation values."""
    bad = indices[(indices < 0) | (indices >= config.n_params)]
    if bad.size:
        raise IndexError(f"parameter index {bad[0]} out of range")
    if config.parametrisation == "ntk":
        return np.ones(len(indices))
    return np.concatenate([np.repeat([config.sigma_w / np.sqrt(i), config.sigma_b], [o * i, o])
                           for o, i in config.layer_shapes])[indices]


def _block_size(count: int) -> int:
    """Proposals per Philox key at ``count`` normals per proposal:
    ``G(n) = 64 * ceil(64 / n)``, so every key draws at least 4,096 normals
    and rows of 64 or more normals keep blocks of 64."""
    return _BLOCK * -(-_BLOCK // count)


def _gather(seed: int, lo: int, hi: int, count: int):
    """Yield ``(pos, z)`` for consecutive batches of proposals ``lo .. hi - 1``.

    Row j of ``z`` holds the ``count`` normals of proposal ``i = pos + j``:
    row ``i % G`` of ``GaussianStream(seed, i // G)`` with ``G =
    _block_size(count)``, which draws its block's rows in proposal order.
    One stream is re-keyed once per block and draws each block's rows of a
    batch in one call; the rows of ``lo``'s block before ``lo`` are drawn
    and discarded. A batch holds at most ``_BATCH_BUDGET`` doubles (one row
    if a row is larger) and ends on a block boundary when it holds at least
    one block.
    """
    size = _block_size(count)
    rows = max(1, _BATCH_BUDGET // count)
    if rows >= size:
        rows -= rows % size
    block = lo // size
    stream = GaussianStream(seed, block)
    skip = lo % size
    while skip:
        k = min(skip, rows)
        stream.normal(k * count)
        skip -= k
    pos = lo
    while pos < hi:
        end = min(hi, pos + rows if rows < size else (pos + rows) // size * size)
        z = np.empty((end - pos, count))
        row = pos
        while row < end:
            if row // size != block:
                block = row // size
                stream.rekey(block)
            stop = min(end, (block + 1) * size)
            stream.normal((stop - row) * count, out=z[row - pos:stop - pos].reshape(-1))
            row = stop
        yield pos, z
        pos = end


def _rule_at(mode: str, m_train: int):
    """The mode's rule decided at ``m_train`` points, whatever points a stage draws."""
    return lambda fan_in, points: _RULES[mode](fan_in, m_train)


def _layout(config: NetworkConfig, m_train: int, mode: str):
    """Per sampled layer, whether the mode's rule puts it in weight space, and
    whether a conditioned extension keeps floats of its size at the
    conditioning points: a function-space layer's values, and the layer
    before it, whose activations that layer is drawn from."""
    space = [_RULES[mode](d, m_train) for d in config.layer_dims[:-1]]
    return space, [not w or (l + 1 < len(space) and not space[l + 1]) for l, w in enumerate(space)]


def _normals_per_proposal(config: NetworkConfig, m_train: int, mode: str,
                          points: Optional[int] = None) -> int:
    """Normals one proposal draws at ``points`` train points (all ``m_train``
    by default) under the mode's rule at ``m_train``
    (:func:`network.normals_per_draw`), then the acceptance normal."""
    m = m_train if points is None else points
    return normals_per_draw(config, m, _rule_at(mode, m_train)) + 1


def _proposal_floats(config: NetworkConfig, m_train: int, mode: str) -> int:
    """Floats one proposal holds on the train path, which size the default
    chunks and decide ``mode="auto"``: a layer's train values if the eval
    extension keeps them (they are at least its normals), else its normals
    (``n_params`` in parameter mode); then the acceptance normal."""
    dims = config.layer_dims
    return sum(dims[l + 1] * (m_train if keep else dims[l] + 1)
               for l, keep in enumerate(_layout(config, m_train, mode)[1])) + 1


def _survival(config: NetworkConfig, train_x: np.ndarray, train_y: np.ndarray,
              lik: LikelihoodSpec) -> np.ndarray:
    """Each train point's survival ``E[l_i]`` under the NNGP marginal ``f_i ~
    N(0, K_ii)``: per Gaussian output ``sqrt(s2 / (s2 + K_ii)) * exp(-y^2 /
    (2 (s2 + K_ii)))``; 1/C for the categorical, by symmetry."""
    if lik.kind != "gaussian":
        return np.full(train_x.shape[0], 1.0 / lik.num_classes)
    var = np.diag(nngp_kernel(config, train_x, train_x))[:, None] + lik.sigma2
    return np.prod(np.sqrt(lik.sigma2 / var) * np.exp(-0.5 * train_y ** 2 / var), axis=1)


def _stage_sizes(m: int) -> list:
    """Train points that each stage of a screened run draws, out of ``m``:
    one at stage 1, then at each later stage as many as all earlier stages
    drew together (1, 1, 2, 4, ...), the last stage taking what is left."""
    sizes = [1]
    while sum(sizes) < m:
        sizes.append(min(sum(sizes), m - sum(sizes)))
    return sizes


def _scale_range(config: NetworkConfig, x_p: np.ndarray) -> Tuple[float, float]:
    """The range of the output layer's scale s at the one point ``x_p``, the
    ``chol_batch`` factor of ``C = sigma_w^2 / d * sum_j phi(h_j)^2 +
    sigma_b^2``, over every last hidden layer h: C is ``sigma_w^2 / d *
    ||x_p||^2 + sigma_b^2`` at depth 0, in ``[sigma_b^2, sigma_w^2 +
    sigma_b^2]`` for erf (``erf^2 <= 1``) and at least ``sigma_b^2``
    otherwise. The range of C is widened by ``_SCALE_SLACK``."""
    sw2, sb2 = config.sigma_w ** 2, config.sigma_b ** 2
    if config.depth == 0:
        lo = hi = sw2 / config.input_dim * float(x_p @ x_p) + sb2
    else:
        lo, hi = sb2, sw2 + sb2 if config.nonlinearity == "erf" else np.inf
    return np.sqrt(lo * (1.0 - _SCALE_SLACK)), np.sqrt(hi * (1.0 + _SCALE_SLACK) + _SCALE_SLACK)


def _log_bound(lik: LikelihoodSpec, y_p: np.ndarray, e: np.ndarray, s_lo: float,
               s_hi: float) -> np.ndarray:
    """Per row of ``e`` (the output layer's normals at p, one per output), the
    log of the sup of ``l_p(s * e)`` over ``s`` in ``[s_lo, s_hi]``. Gaussian:
    the least-squares ``s = e.y / e.e``, clipped to the range. Categorical,
    ``l_p = 1 / sum_k exp(s (e_k - e_y))``: each term at its own endpoint,
    ``s_lo`` where ``e_k > e_y`` and ``s_hi`` where ``e_k < e_y``."""
    if lik.kind == "gaussian":
        ee, ey = np.einsum("bk,bk->b", e, e), e @ y_p
        s = np.clip(np.divide(ey, ee, out=np.zeros_like(ey), where=ee > 0), s_lo, s_hi)
        r = s[:, None] * e - y_p
        return -0.5 / lik.sigma2 * np.einsum("bk,bk->b", r, r)
    diff = e - (e @ y_p)[:, None]
    a = np.where(diff > 0, s_lo * diff, 0.0)
    np.multiply(s_hi, diff, out=a, where=diff < 0)
    return -scipy.special.logsumexp(a, axis=1)


def _accepted(z: np.ndarray, logl: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Indices of the proposals with ``log_ndtr(z) < logl``; ``ell = exp(logl)``.
    ``u = ndtr(z)`` and ``ell`` err by a few ulps from ``_TINY`` up, far below
    ``_MARGIN``, so outside the margin ``u < ell`` is the log-space decision;
    near ties and tiny values go to ``log_ndtr``."""
    u = scipy.special.ndtr(z)
    hit = u < ell
    near = (np.abs(u - ell) <= _MARGIN * ell) | (u < _TINY) | (ell < _TINY)
    if near.any():
        hit[near] = scipy.special.log_ndtr(z[near]) < logl[near]
    return np.nonzero(hit)[0]


def _slices(hit: np.ndarray, floats: int):
    """Cut the rows ``hit`` into slices whose arrays hold at most
    ``_BATCH_BUDGET`` floats at ``floats`` per proposal (one row if larger)."""
    step = max(1, _BATCH_BUDGET // floats)
    return (hit[k:k + step] for k in range(0, hit.size, step))


def _keyed_normals(stream: GaussianStream, keys: np.ndarray, substream: int,
                   total: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row j: ``total`` normals from ``substream`` of key ``_EVAL_KEYS +
    keys[j]``, written into the rows of ``out`` if given."""
    z = np.empty((keys.size, total)) if out is None else out
    for j, key in enumerate(keys if total else ()):
        stream.rekey(_EVAL_KEYS + int(key), substream)
        stream.normal(total, out=z[j])
    return z


def _eval_normals(z_eval: np.ndarray, train_normals, part: np.ndarray,
                  space: Sequence[bool], dims: Sequence[int], me: int):
    """Each sampled layer's normals for extending the proposals ``part`` to
    ``me`` new points: a layer drawn in weight space (``space``) reuses
    those proposals' W and b from ``train_normals``; every other layer takes
    its ``units * me`` normals from the rows of ``z_eval``, in layer order."""
    off = 0
    for l, theta in enumerate(train_normals):
        if space[l]:
            yield theta[part]
        else:
            yield z_eval[:, off:off + dims[l + 1] * me].reshape(z_eval.shape[0], dims[l + 1], me)
            off += dims[l + 1] * me


def _stage_one_floats(config: NetworkConfig, m_train: int, mode: str) -> int:
    """Floats one proposal of a screened run holds at stage 1, which size its
    default chunks and its stage-1 slices: its stage-1 row or one layer's
    values at its one point, whichever is larger."""
    return max(_normals_per_proposal(config, m_train, mode, 1), max(config.layer_dims[1:]))


def _run_chunk(config, train_x, train_y, lik, eval_x, seed, lo, hi, mode, indices, scales,
               order=None):
    mt, me = train_x.shape[0], eval_x.shape[0]
    dims = config.layer_dims
    rule = _rule_at(mode, mt)
    space = _layout(config, mt, mode)[0]
    # Stage k draws the train points cond_x[ends[k - 1]:ends[k]]: all of them
    # at stage 1, or in a screened run the stage groups in the screening
    # `order`. The eval extension conditions on all of them.
    sizes, cond_x, y = [mt], train_x, train_y
    if order is not None:
        sizes, cond_x, y = _stage_sizes(mt), train_x[order], train_y[order]
    ends = np.cumsum([0] + sizes)
    mh = sizes[0]
    head, y_head = cond_x[:mh], y[:mh]
    units = sum(dims[l + 1] for l in range(len(space)) if not space[l])  # in function space
    eval_total = units * me
    row = _normals_per_proposal(config, mt, mode, mh)  # a stage-1 row
    # A screened run's block row holds the output layer's normals at p and the
    # acceptance normal, the tail of a stage-1 row; stage 0 keeps a proposal
    # unless u is above its bound, and a kept one draws the head of its row
    # from its own key.
    head_total, scale = 0, None
    if order is not None:
        head_total = row - 1 - dims[-1] * (dims[-2] + 1 if space[-1] else 1)
        scale = None if space[-1] else _scale_range(config, head[0])
    count = row - head_total
    acc = MomentAccumulator.zeros(me * config.output_dim)
    pstats = MomentAccumulator.zeros(len(indices)) if indices is not None else None
    lik_acc = MomentAccumulator.zeros(1)  # over the stage-1 survivors; the others add zeros
    # Floats held per stage-1 proposal (its row, a layer's values at p), per
    # stage-1 survivor (a later stage's normals, a layer's train values) and
    # per accept (eval normals, a layer's eval values, me x me covariances).
    per_accept = max(row, eval_total, max(dims) * me, me * me if eval_total else 0)
    per_live = max(row, units * (mt - mh), max(dims) * mt) if mt > mh else per_accept
    stream = GaussianStream(seed, _EVAL_KEYS + lo) if units else None

    def stage_one():
        """Yield each batch of the proposals that stage 1 draws, by index, with
        their stage-1 rows."""
        for pos, z in _gather(seed, lo, hi, count):
            kept = np.arange(z.shape[0])
            if order is None:
                yield pos + kept, z
                continue
            if scale is not None:
                cut = _log_bound(lik, y_head[0], z[:, :-1], *scale)
                cut += _BOUND_MARGIN * (1.0 - cut)
                kept = _accepted(z[:, -1], cut, np.exp(cut))
            for rows in _slices(kept, _stage_one_floats(config, mt, mode)):
                z_row = np.empty((rows.size, row))
                z_row[:, head_total:] = z[rows]
                _keyed_normals(stream, pos + rows, 1, head_total, z_row[:, :head_total])
                yield pos + rows, z_row

    for keys, z in stage_one():
        train_normals = list(layer_normals(z, config, mh, rule))
        # A conditioned extension reads each function-space layer's values and
        # its input activations at the points drawn so far, kept from the
        # stages before.
        acts, layers = {}, []
        for f, ws in zip(sample_layers(config, head, train_normals, rule=rule, g_out=acts),
                         space):
            layers.append(None if ws else f)
        logl = log_likelihood_batch(lik, np.swapaxes(f, 1, 2), y_head)  # (b, m, p)
        ell = np.exp(logl)
        if len(sizes) == 1:
            lik_acc.update_block(ell[:, None])
        for part in _slices(_accepted(z[:, -1], logl, ell), per_live):
            layers_p = [None if f is None else f[part] for f in layers]
            acts_p = {l: g[part] for l, g in acts.items()}
            logl_p = logl[part]
            # Evidence terms of these stage-1 survivors: l over the last
            # stage's points for those that reach it, zero for the others.
            terms, live = np.zeros(part.size), np.arange(part.size)
            for k in range(2, len(sizes) + 1):  # stage k: `part` at the next group
                a, b = ends[k - 1], ends[k]
                z_k = _keyed_normals(stream, keys[part], k, units * (b - a))
                normals = _eval_normals(z_k, train_normals, part, space, dims, b - a)
                new_acts = {}
                new = list(sample_layers(config, cond_x[a:b], normals, cond_x[:a], layers_p,
                                         rule=rule, g_cond=acts_p, g_out=new_acts))
                logl_new = log_likelihood_batch(lik, np.swapaxes(new[-1], 1, 2), y[a:b])
                if k == len(sizes):
                    terms[live] = np.exp(logl_new)
                logl_p = logl_p + logl_new
                hit = _accepted(z[part, -1], logl_p, np.exp(logl_p))
                part, logl_p, live = part[hit], logl_p[hit], live[hit]
                layers_p = [None if f is None else np.concatenate([f[hit], f_n[hit]], axis=-1)
                            for f, f_n in zip(layers_p, new)]
                acts_p = {l: np.concatenate([g[hit], new_acts[l][hit]], axis=-1)
                          for l, g in acts_p.items()}
            if len(sizes) > 1:
                lik_acc.update_block(terms[:, None])
            for sub in _slices(np.arange(part.size), per_accept):
                rows = part[sub]
                z_eval = _keyed_normals(stream, keys[rows], 0, eval_total)
                normals = _eval_normals(z_eval, train_normals, rows, space, dims, me)
                picked = [None if f is None else f[sub] for f in layers_p]
                g_picked = {l: g[sub] for l, g in acts_p.items()}
                for f_e in sample_layers(config, eval_x, normals, cond_x, picked, rule=rule,
                                         g_cond=g_picked):
                    pass
                acc.update_block(np.swapaxes(f_e, 1, 2).reshape(rows.size, -1))
                if pstats is not None:
                    pstats.update_block(z[rows][:, indices] * scales)
    return acc, pstats, lik_acc


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
    chunk_size: Optional[int] = None,
    mode: str = "auto",
) -> SamplerReport:
    """Draw exact posterior samples of network outputs at ``eval_x``.

    Each proposal is an independent prior draw accepted with probability
    equal to its (sup-1) likelihood on the training set; accepted draws are
    exact i.i.d. samples from the posterior pushed through the network.

    Every chunk runs through one runner, which draws each proposal layer by
    layer with :func:`network.sample_layers`; ``mode`` is its per-layer
    rule. ``"parameter"`` puts every layer in weight space, so a proposal's
    normals are its flat NTK parameter vector (per layer W row-major, then
    b), which ``record_params`` indexes; ``"function"`` puts a layer in
    weight space only when ``fan_in + 1 <= m_train`` and draws the others
    in function space; ``"auto"`` picks by ``_proposal_floats``. Proposals
    are screened where the module docstring says: on a bound of the output
    at one train point p before any hidden layer is drawn (stage 0), on the
    output at p (stage 1), then on the outputs at doubling groups of the
    other train points (stages 2, 3, ...).

    The default ``chunk_size`` holds ``numkit.BATCH_FLOATS // f`` proposals,
    rounded down to whole multiples of ``64 * ceil(64 / n)`` proposals at
    ``n`` normals per stage-1 row and at least one such multiple, so it
    depends only on the config, ``train_x`` and the mode. ``f`` is what every
    proposal of a chunk holds at once: its train-path floats
    (``_proposal_floats``), or in a screened run its stage-1 row or one
    layer's values at p, whichever is larger (320 proposals at width 100 and
    3,072 at width 10 on the default data); later stages run in slices of
    their survivors. A screened run's block row is shorter than its stage-1
    row, so its chunks can start inside a block. Chunks run on
    ``min(workers, numkit.available_cores())`` threads, at most twice that
    many submitted ahead of the merge, so threads and memory stay bounded
    whatever ``workers`` is; a failing chunk cancels the queued ones.
    Accepted proposals are extended to ``eval_x`` in slices of about
    ``BATCH_FLOATS`` floats per array.
    Deterministic given (seed, chunk_size); independent of ``workers``.
    """
    for name, value in (("n_proposals", n_proposals),
                        ("chunk_size", 1 if chunk_size is None else chunk_size),
                        ("workers", workers)):
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
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

    mt = train_x.shape[0]
    if mode == "auto":
        fewer = (_proposal_floats(config, mt, "parameter")
                 <= _proposal_floats(config, mt, "function"))
        mode = "parameter" if record_params is not None or fewer else "function"
    if mode not in _RULES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "function" and record_params is not None:
        raise ValueError("parameter recording requires mode='parameter'")
    order = None  # the train points in stage order; None: one stage
    if mt >= 2 and not all(_layout(config, mt, mode)[0]):
        p = int(np.argmin(_survival(config, train_x, train_y, likelihood)))
        order = np.r_[p, np.delete(np.arange(mt), p)]
    if chunk_size is None:
        if order is None:
            floats, points = _proposal_floats(config, mt, mode), mt
        else:
            floats, points = _stage_one_floats(config, mt, mode), 1
        block = _block_size(_normals_per_proposal(config, mt, mode, points))
        per_chunk = _BATCH_BUDGET // floats
        chunk_size = max(block, per_chunk - per_chunk % block)

    indices = scales = None
    if record_params is not None:
        indices = np.asarray(list(record_params), dtype=np.intp)
        scales = _param_scales(config, indices)

    def run(lo):
        hi = min(lo + chunk_size, n_proposals)
        return _run_chunk(config, train_x, train_y, likelihood, eval_x, seed, lo, hi,
                          mode, indices, scales, order)

    acc = MomentAccumulator.zeros(eval_x.shape[0] * config.output_dim)
    pstats = MomentAccumulator.zeros(len(indices)) if indices is not None else None
    lik_acc = MomentAccumulator.zeros(1)
    # Each chunk is merged as it arrives, in ascending chunk order.
    for chunk_acc, chunk_pstats, chunk_lik in ordered_map(
            run, range(0, n_proposals, chunk_size), min(workers, available_cores())):
        acc.merge_in(chunk_acc)
        lik_acc.merge_in(chunk_lik)
        if pstats is not None:
            pstats.merge_in(chunk_pstats)
    n = n_proposals
    # Each proposal screened out at stage 0 or 1 adds a zero to the evidence.
    survivors = lik_acc.count
    lik_acc.merge_in(MomentAccumulator(n - survivors, np.zeros(1), np.zeros((1, 1))))
    # Every term is >= 0, so a zero mean means no proposal added a non-zero one.
    se = float(np.sqrt(lik_acc.scatter[0, 0] / (n - 1) / n)) if n > 1 and lik_acc.mean[0] else None

    if acc.count >= 2:
        mean, cov = finalize(acc)
        valid = True
    elif acc.count == 1:
        mean, cov, valid = acc.mean.copy(), None, False
    else:
        mean, cov, valid = None, None, False

    recorded = None
    if pstats is not None and pstats.count >= 2:
        p_mean, p_cov = finalize(pstats)
        var = np.diag(p_cov)
        recorded = {
            int(idx): (float(p_mean[k]), float(var[k]))
            for k, idx in enumerate(indices)
        }

    return SamplerReport(
        proposals=n,
        accepts=acc.count,
        accept_rate=acc.count / n,
        posterior_mean=mean,
        posterior_cov=cov,
        moments_valid=valid,
        recorded_param_stats=recorded,
        mode=mode,
        mean_likelihood=float(lik_acc.mean[0]),
        mean_likelihood_se=se,
        survivors=survivors,
    )
