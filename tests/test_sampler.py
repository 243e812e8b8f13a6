import collections
import concurrent.futures
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.special

from widebnn import sampler
from widebnn.errors import DimensionMismatch, InsufficientSamples
from widebnn.experiments import DATASET_STREAM_ID
from widebnn.kernels import nngp_kernel
from widebnn.numkit import BATCH_FLOATS
from widebnn.likelihood import LikelihoodSpec, log_likelihood_batch
from widebnn.linreg import LinRegProblem, linreg_predictive
from widebnn.network import (NONLINEARITIES, NetworkConfig, layer_cov, layer_normals,
                             layer_step, nonlinearity_fn, normals_per_draw, sample_layers)
from widebnn.numkit import GaussianStream, chol_batch
from widebnn.sampler import (
    MomentAccumulator,
    _gather,
    accumulate,
    finalize,
    merge,
    rejection_sample,
)


class TestMomentAccumulator:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((50, 4))
        acc = MomentAccumulator.zeros(4)
        for s in samples:
            accumulate(acc, s)
        mean, cov = finalize(acc)
        assert np.allclose(mean, samples.mean(axis=0))
        assert np.allclose(cov, np.cov(samples.T))

    def test_merge_equals_sequential(self):
        rng = np.random.default_rng(1)
        a_samples = rng.standard_normal((20, 3))
        b_samples = rng.standard_normal((35, 3))
        a = MomentAccumulator.zeros(3)
        b = MomentAccumulator.zeros(3)
        for s in a_samples:
            a.update(s)
        for s in b_samples:
            b.update(s)
        merged = merge(a, b)
        seq = MomentAccumulator.zeros(3)
        for s in np.vstack([a_samples, b_samples]):
            seq.update(s)
        assert merged.count == seq.count
        assert np.allclose(merged.mean, seq.mean)
        assert np.allclose(merged.scatter, seq.scatter)

    def test_merge_with_empty(self):
        a = MomentAccumulator.zeros(2)
        b = MomentAccumulator.zeros(2)
        b.update([1.0, 2.0])
        b.update([3.0, -1.0])
        assert np.allclose(merge(a, b).mean, b.mean)
        assert np.allclose(merge(b, a).mean, b.mean)

    def test_scatter_stays_symmetric(self):
        rng = np.random.default_rng(2)
        acc = MomentAccumulator.zeros(5)
        for s in rng.standard_normal((200, 5)):
            acc.update(s)
        assert np.array_equal(acc.scatter, acc.scatter.T)

    def test_finalize_requires_two(self):
        acc = MomentAccumulator.zeros(2)
        with pytest.raises(InsufficientSamples):
            finalize(acc)
        acc.update([0.0, 0.0])
        with pytest.raises(InsufficientSamples):
            finalize(acc)

    def test_dimension_check(self):
        acc = MomentAccumulator.zeros(2)
        with pytest.raises(DimensionMismatch):
            acc.update([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            acc.update_block(np.zeros((4, 3)))

    @pytest.mark.parametrize("rows", [0, 1, 2, 300])
    def test_block_update_matches_numpy_and_sequential(self, rows):
        rng = np.random.default_rng(3)
        head = rng.standard_normal((7, 6)) + 5.0
        block = rng.standard_normal((rows, 6)) * 2.0 - 1.0
        seq = MomentAccumulator.zeros(6)
        for s in head:
            seq.update(s)
        blocked = merge(seq, MomentAccumulator.zeros(6))
        blocked.update_block(block)
        for s in block:
            seq.update(s)
        assert blocked.count == seq.count == 7 + rows
        assert np.allclose(blocked.mean, seq.mean, rtol=1e-12, atol=0)
        assert np.allclose(blocked.scatter, seq.scatter, rtol=1e-12, atol=1e-12)
        assert np.array_equal(blocked.scatter, blocked.scatter.T)
        both = np.vstack([head, block])
        mean, cov = finalize(blocked)
        assert np.allclose(mean, both.mean(axis=0))
        assert np.allclose(cov, np.cov(both.T))

    @pytest.mark.parametrize("rows", [0, 1, 300])
    def test_block_update_from_empty(self, rows):
        block = np.random.default_rng(4).standard_normal((rows, 5))
        acc = MomentAccumulator.zeros(5)
        acc.update_block(block)
        assert acc.count == rows
        assert np.array_equal(acc.scatter, acc.scatter.T)
        centred = block - block.mean(axis=0) if rows else block
        assert np.allclose(acc.mean, block.mean(axis=0) if rows else 0.0)
        assert np.allclose(acc.scatter, centred.T @ centred)


def linear_config():
    # f(x) = w x with w ~ N(0, 1): conjugate with linreg_predictive.
    return NetworkConfig(depth=0, input_dim=1, output_dim=1, hidden_width=1,
                         sigma_w=1.0, sigma_b=0.0, nonlinearity="identity")


TX = np.array([[-1.0], [0.5], [1.0]])
TY = np.array([[-0.7], [0.2], [0.9]])
EX = np.array([[-0.5], [0.25], [2.0]])
LIK = LikelihoodSpec("gaussian", sigma2=0.1)


class TestRejectionSampler:
    def test_conjugate_oracle(self):
        report = rejection_sample(linear_config(), TX, TY, LIK, EX, 100_000, seed=3)
        pred = linreg_predictive(LinRegProblem(TX, TY[:, 0]), 0.1, EX, alpha=1.0)
        assert report.moments_valid and report.accepts > 5000
        n = report.accepts
        var = np.diag(report.posterior_cov)
        se_mean = np.sqrt(var / n)
        assert np.all(np.abs(report.posterior_mean - pred.mean) < 5 * se_mean)
        se_var = var * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(var - np.diag(pred.cov)) < 5 * se_var)

    def test_conjugate_oracle_in_function_mode(self):
        # Its one layer (fan-in 1) is drawn in weight space on the 3 train
        # points, and accepted proposals reuse those weights at eval points.
        report = rejection_sample(linear_config(), TX, TY, LIK, EX, 100_000, seed=3,
                                  mode="function")
        pred = linreg_predictive(LinRegProblem(TX, TY[:, 0]), 0.1, EX, alpha=1.0)
        assert report.mode == "function" and report.accepts > 5000
        n = report.accepts
        var = np.diag(report.posterior_cov)
        assert np.all(np.abs(report.posterior_mean - pred.mean) < 4 * np.sqrt(var / n))
        assert np.all(np.abs(var - np.diag(pred.cov)) < 4 * var * np.sqrt(2.0 / (n - 1)))

    def test_deterministic_and_worker_invariant(self, monkeypatch):
        monkeypatch.setattr(sampler, "available_cores", lambda: 2)  # a pool on any host
        kw = dict(n_proposals=20_000, seed=9)
        r1 = rejection_sample(linear_config(), TX, TY, LIK, EX, workers=1, **kw)
        r2 = rejection_sample(linear_config(), TX, TY, LIK, EX, workers=4, **kw)
        assert r1.accepts == r2.accepts
        assert np.array_equal(r1.posterior_mean, r2.posterior_mean)
        assert np.array_equal(r1.posterior_cov, r2.posterior_cov)

    def test_chunk_size_preserves_results(self):
        r1 = rejection_sample(linear_config(), TX, TY, LIK, EX, 8_000, seed=9,
                              chunk_size=1024)
        r2 = rejection_sample(linear_config(), TX, TY, LIK, EX, 8_000, seed=9,
                              chunk_size=127)
        r3 = rejection_sample(linear_config(), TX, TY, LIK, EX, 8_000, seed=9,
                              chunk_size=64)
        assert r1.accepts == r2.accepts == r3.accepts
        assert np.allclose(r1.posterior_mean, r2.posterior_mean)
        assert np.allclose(r1.posterior_mean, r3.posterior_mean)
        # The oracle job: 3 normals per proposal, so 1,408 proposals per
        # Philox block; chunks of 1,000 and 1,409 start inside blocks.
        assert sampler._block_size(3) == 1408
        kw = dict(n_proposals=5_000, seed=9)
        whole = rejection_sample(linear_config(), TX, TY, LIK, EX, **kw)
        for chunk, workers in ((1000, 1), (1409, 1), (1409, 2)):
            r = rejection_sample(linear_config(), TX, TY, LIK, EX, chunk_size=chunk,
                                 workers=workers, **kw)
            assert r.accepts == whole.accepts
            assert np.allclose(r.posterior_mean, whole.posterior_mean)
            assert np.allclose(r.posterior_cov, whole.posterior_cov)
            assert np.allclose(r.mean_likelihood, whole.mean_likelihood)

    def test_function_mode_chunk_and_worker_invariant(self, monkeypatch):
        monkeypatch.setattr(sampler, "available_cores", lambda: 2)  # a pool on any host
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=20)
        tx = np.linspace(-1, 1, 3)[:, None]
        lik = LikelihoodSpec("gaussian", sigma2=0.25)
        kw = dict(n_proposals=5_000, seed=13, mode="function")
        runs = [rejection_sample(cfg, tx, np.sin(tx), lik, EX, chunk_size=c, **kw)
                for c in (1024, 127, 64)]
        assert runs[0].moments_valid and runs[0].mode == "function"
        for r in runs[1:]:
            assert r.accepts == runs[0].accepts
            assert np.allclose(r.posterior_mean, runs[0].posterior_mean)
            assert np.allclose(r.posterior_cov, runs[0].posterior_cov)
        # The default chunks (a screened run's are sized at stage 1) at one
        # worker and at two give the same bits.
        r1 = rejection_sample(cfg, tx, np.sin(tx), lik, EX, workers=1, **kw)
        r2 = rejection_sample(cfg, tx, np.sin(tx), lik, EX, workers=2, **kw)
        assert r1.accepts == r2.accepts == runs[0].accepts
        assert np.allclose(r1.posterior_mean, runs[0].posterior_mean)
        assert np.array_equal(r2.posterior_mean, r1.posterior_mean)
        assert np.array_equal(r2.posterior_cov, r1.posterior_cov)
        assert r2.mean_likelihood == r1.mean_likelihood

    def test_chunk_size_none_is_the_default(self):
        r1 = rejection_sample(linear_config(), TX, TY, LIK, EX, 1000, seed=0)
        r2 = rejection_sample(linear_config(), TX, TY, LIK, EX, 1000, seed=0,
                              chunk_size=None)
        assert r1.accepts == r2.accepts
        assert np.array_equal(r1.posterior_mean, r2.posterior_mean)

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_chunk_size_must_be_positive(self, chunk):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            rejection_sample(linear_config(), TX, TY, LIK, EX, 1000, seed=0,
                             chunk_size=chunk)

    @pytest.mark.parametrize("name,value", [
        ("n_proposals", 1000.5), ("n_proposals", True), ("chunk_size", 2.5),
        ("chunk_size", True), ("workers", 2.5), ("workers", True),
    ])
    def test_integer_arguments_must_be_integers(self, name, value):
        kw = dict(n_proposals=1000, seed=0, chunk_size=256, workers=1)
        kw[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            rejection_sample(linear_config(), TX, TY, LIK, EX, **kw)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            rejection_sample(linear_config(), TX, TY, LIK, EX, 1000, seed=0,
                             workers=workers)

    def test_chunks_are_merged_as_they_arrive(self):
        # 200 chunks of 64, each with a 100 x 100 scatter (80 KB): kept until
        # the last chunk, they would hold 16 MB.
        ex = np.linspace(-2.0, 2.0, 100)[:, None]
        tracemalloc.start()
        try:
            report = rejection_sample(linear_config(), TX, TY, LIK, ex, 200 * 64,
                                      seed=5, chunk_size=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.accepts > 0
        assert peak < 20 * 100 * 100 * 8

    def test_empty_train_accepts_everything(self):
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=50)
        ex = np.linspace(-1, 1, 4)[:, None]
        report = rejection_sample(cfg, np.zeros((0, 1)), np.zeros((0, 1)), LIK,
                                  ex, 20_000, seed=2)
        assert report.accepts == report.proposals
        # Posterior reduces to the prior: covariance near the finite-width
        # prior covariance, which at width 50 is itself close to the NNGP.
        k = nngp_kernel(cfg, ex, ex)
        assert np.linalg.norm(report.posterior_cov - k) / np.linalg.norm(k) < 0.2
        assert np.abs(report.posterior_mean).max() < 0.1

    def test_modes_agree_statistically(self):
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=20)
        tx = np.linspace(-1, 1, 3)[:, None]
        ty = np.sin(tx)
        lik = LikelihoodSpec("gaussian", sigma2=0.25)
        rp = rejection_sample(cfg, tx, ty, lik, EX, 30_000, seed=11, mode="parameter")
        rf = rejection_sample(cfg, tx, ty, lik, EX, 30_000, seed=11, mode="function")
        assert rp.mode == "parameter" and rf.mode == "function"
        # Different internal randomness usage, same distribution.
        rate_se = np.sqrt(rp.accept_rate / rp.proposals)
        assert abs(rp.accept_rate - rf.accept_rate) < 5 * rate_se
        scale = np.abs(rp.posterior_mean).max()
        assert np.abs(rp.posterior_mean - rf.posterior_mean).max() < 0.1 * scale

    @pytest.mark.parametrize("case", ["oracle", "depth 3 width 1"])
    def test_modes_coincide_when_every_layer_has_one_unit(self, case):
        # Every layer has fan-in 1 (the oracle) or one unit, so both rules
        # put every layer in weight space, and the two modes draw the same
        # normals into the same layers. The default chunks are sized per
        # mode, so both runs take the same explicit size.
        if case == "oracle":
            cfg, tx, ty, ex = linear_config(), TX, TY, EX
        else:
            cfg = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=1)
            tx = np.linspace(-np.pi, np.pi, 4)[:, None]
            ty, ex = np.sin(tx), np.linspace(-np.pi, np.pi, 7)[:, None]
        lik = LikelihoodSpec("gaussian", sigma2=0.5)
        kw = dict(n_proposals=20_000, seed=6, chunk_size=3_000)
        rp = rejection_sample(cfg, tx, ty, lik, ex, mode="parameter", **kw)
        rf = rejection_sample(cfg, tx, ty, lik, ex, mode="function", **kw)
        assert rp.mode == "parameter" and rf.mode == "function"
        assert rp.moments_valid and rp.accepts == rf.accepts
        assert rp.posterior_mean.tobytes() == rf.posterior_mean.tobytes()
        assert rp.posterior_cov.tobytes() == rf.posterior_cov.tobytes()
        assert rp.mean_likelihood == rf.mean_likelihood
        assert rp.mean_likelihood_se == rf.mean_likelihood_se

    def test_auto_mode_switches_on_size(self):
        cfg_small = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=5)
        r = rejection_sample(cfg_small, TX, TY, LIK, EX, 512, seed=0)
        assert r.mode == "parameter"
        cfg_big = cfg_small.with_width(600)  # > 200k parameters at depth 1? no
        cfg_big = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=400)
        r = rejection_sample(cfg_big, TX, TY, LIK, EX, 512, seed=0)
        assert r.mode == "function"
        # The default sweep's depth 3 on 4 train points: width 10 has 251
        # parameters against (3*10 + 1)*4 train activations, width 1 has 8
        # against (3*1 + 1)*4.
        tx4 = np.linspace(-1, 1, 4)[:, None]
        ty4 = np.sin(tx4)
        cfg10 = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=10)
        r = rejection_sample(cfg10, tx4, ty4, LIK, EX, 64, seed=0)
        assert r.mode == "function"
        r = rejection_sample(cfg10.with_width(1), tx4, ty4, LIK, EX, 64, seed=0)
        assert r.mode == "parameter"
        # The L=0 oracle: 2 parameters against 3 train outputs.
        r = rejection_sample(linear_config(), TX, TY, LIK, EX, 64, seed=0)
        assert r.mode == "parameter"
        # Recording parameters needs parameter mode, whatever the size.
        r = rejection_sample(cfg10, tx4, ty4, LIK, EX, 64, seed=0, record_params=[0])
        assert r.mode == "parameter"
        r = rejection_sample(cfg_big, TX, TY, LIK, EX, 64, seed=0, record_params=[0])
        assert r.mode == "parameter"

    def test_function_mode_rejects_param_recording(self):
        with pytest.raises(ValueError):
            rejection_sample(linear_config(), TX, TY, LIK, EX, 100, seed=0,
                             record_params=[0], mode="function")

    def test_no_accepts_is_flagged_not_raised(self):
        lik = LikelihoodSpec("gaussian", sigma2=1e-12)
        report = rejection_sample(linear_config(), TX, TY, lik, EX, 200, seed=0)
        assert report.accepts == 0
        assert not report.moments_valid
        assert report.posterior_cov is None

    def test_recorded_params_match_conjugate_posterior(self):
        # For the linear model the weight posterior is known in closed form.
        report = rejection_sample(linear_config(), TX, TY, LIK, EX, 100_000,
                                  seed=4, record_params=[0, 1])
        prec = 1.0 + float(TX[:, 0] @ TX[:, 0]) / 0.1
        mu_w = float(TX[:, 0] @ TY[:, 0]) / 0.1 / prec
        mean_w, var_w = report.recorded_param_stats[0]
        n = report.accepts
        assert abs(mean_w - mu_w) < 5 * np.sqrt(var_w / n)
        assert abs(var_w - 1.0 / prec) < 5 * (1.0 / prec) * np.sqrt(2.0 / n)
        # The bias coordinate has sigma_b = 0, so it is identically zero.
        mean_b, var_b = report.recorded_param_stats[1]
        assert mean_b == 0.0 and var_b == 0.0

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            rejection_sample(linear_config(), TX, TY[:2], LIK, EX, 10, seed=0)
        with pytest.raises(DimensionMismatch):
            rejection_sample(linear_config(), np.zeros((2, 3)), TY[:2], LIK, EX,
                             10, seed=0)

    def test_empty_training_set_is_zero_rows_of_input_dim_columns(self):
        cfg = NetworkConfig(depth=1, input_dim=2, output_dim=1, hidden_width=3)
        ex = np.zeros((2, 2))
        report = rejection_sample(cfg, np.zeros((0, 2)), np.zeros((0, 1)), LIK, ex, 10, seed=0)
        assert report.accepts == 10
        with pytest.raises(DimensionMismatch):  # a bare [] is one column wide
            rejection_sample(cfg, [], [], LIK, ex, 10, seed=0)


@pytest.mark.parametrize("count,block", [
    (1, 4096), (3, 1408), (9, 512), (13, 320), (63, 128), (64, 64), (125, 64),
    (12_005, 64),
])
def test_block_size_draws_at_least_4096_normals_per_key(count, block):
    assert sampler._block_size(count) == block
    assert block % sampler._BLOCK == 0 and block * count >= 4096
    # The smallest such multiple of 64 proposals.
    assert block == sampler._BLOCK or (block - sampler._BLOCK) * count < 4096


@pytest.mark.parametrize("chunk", [1, 127, 1024])
def test_gather_rows_are_block_stream_rows(chunk, monkeypatch):
    count, block = 13, sampler._block_size(13)
    assert block == 320
    lo = 5 * chunk + 3  # inside a block
    streams = {}
    # The default budget; batches of 3 blocks; of 10 rows, so that batches end
    # inside a block; and one row per batch, for a row larger than the budget.
    for budget in (sampler._BATCH_BUDGET, count * 3 * block, count * 10, 5):
        monkeypatch.setattr(sampler, "_BATCH_BUDGET", budget)
        batches = list(_gather(17, lo, lo + chunk, count))
        assert [pos for pos, _ in batches] == list(
            np.cumsum([lo] + [len(z) for _, z in batches[:-1]]))
        for pos, z in batches:
            assert z.size <= max(budget, count)
            if budget >= block * count and pos + len(z) < lo + chunk:
                assert (pos + len(z)) % block == 0
        z = np.vstack([z for _, z in batches])
        assert z.shape == (chunk, count)
        for j in range(chunk):
            i = lo + j
            if i // block not in streams:
                rows = GaussianStream(17, i // block).normal(block * count)
                streams[i // block] = rows.reshape(block, count)
            assert np.array_equal(z[j], streams[i // block][i % block])


@pytest.mark.parametrize("count", [64, 125])
def test_long_rows_keep_64_proposal_blocks(count):
    # Rows of 64 or more normals keep the 64-proposal layout, so their seeded
    # samples do not depend on the short-row block rule.
    lo, hi = 61, 61 + 200  # starts inside block 0, ends inside block 4
    rows = np.vstack([z for _, z in _gather(23, lo, hi, count)])
    expected = np.vstack([GaussianStream(23, b).normal(64 * count).reshape(64, count)
                          for b in range(5)])[lo:hi]
    assert np.array_equal(rows, expected)


def test_eval_keys_are_apart_from_block_ids_and_the_dataset_stream():
    top = (1 << 62) - 1  # the largest proposal index considered
    last_block = top // sampler._BLOCK
    # Eval keys span [_EVAL_KEYS, _EVAL_KEYS + top], block ids [0, last_block].
    assert sampler._EVAL_KEYS > DATASET_STREAM_ID > last_block
    # Philox keys are taken modulo 2**64, so no eval key wraps onto a block id.
    assert sampler._EVAL_KEYS + top < 1 << 64


def floats_per_proposal(cfg, m, mode):
    """Parameter mode holds its normals or the widest layer's train values,
    whichever is larger; function mode every layer's train values, or, when it
    screens (two or more train points; every function-mode case here has a
    function-space layer), its stage-1 row at one point or one layer's values
    there, whichever is larger."""
    if mode == "parameter":
        return max(cfg.n_params + 1, max(cfg.layer_dims[1:]) * m)
    if m >= 2:
        dims = cfg.layer_dims
        row = sum(u * (d + 1 if d + 1 <= m else 1) for d, u in zip(dims, dims[1:])) + 1
        return max(row, max(dims[1:]))
    return (cfg.depth * cfg.hidden_width + cfg.output_dim) * m + 1


SPAN_CASES = [
    (0, 1, 3, "parameter", 100_000, 43_648),  # the L=0 oracle: 3 normals
    (3, 1, 4, "parameter", 50_000, 14_336),   # 9 normals: blocks of 512
    (3, 10, 0, "function", 300_000, 131_072),  # no train points, 1 normal
    (3, 10, 4, "function", 5_000, 3_072),      # 42 floats at stage 1: blocks of 128
    (3, 100, 4, "function", 1_000, 320),       # 402 floats at stage 1: blocks of 64
    (3, 1000, 4, "function", 200, 64),         # 4,002 at stage 1: one block, over budget
    (1, 1000, 1, "parameter", 300, 64),        # 3,002 normals
    (1, 100, 1000, "parameter", 200, 64),      # 302 normals, 100,000 layer values
]


# Each case is named by its inputs alone, not by the chunk it expects.
@pytest.mark.parametrize("depth,width,m,mode,n,chunk", [
    pytest.param(*case, id="-".join(map(str, case[:5]))) for case in SPAN_CASES])
def test_default_spans_are_whole_blocks_within_budget(depth, width, m, mode, n, chunk,
                                                      monkeypatch):
    cfg = NetworkConfig(depth=depth, input_dim=1, output_dim=1, hidden_width=width,
                        nonlinearity="erf")
    tx = np.linspace(-1, 1, m)[:, None]
    spans = []
    name = "_run_chunk"

    def spy(config, train_x, train_y, lik, eval_x, seed, lo, hi, *extra):
        spans.append((lo, hi))
        empty = MomentAccumulator.zeros(eval_x.shape[0])
        return empty, None, MomentAccumulator(hi - lo, np.ones(1), np.zeros((1, 1)))

    monkeypatch.setattr(sampler, name, spy)
    report = rejection_sample(cfg, tx, np.sin(tx), LIK, EX, n, seed=0, mode=mode,
                              chunk_size=None)
    assert report.proposals == n and report.mean_likelihood == 1.0
    count = floats_per_proposal(cfg, m, mode)
    screened = mode == "function" and m >= 2
    block = sampler._block_size(sampler._normals_per_proposal(
        cfg, sampler._space(cfg, m, mode), 1 if screened else m))
    assert [lo for lo, _ in spans] == list(range(0, n, spans[0][1]))
    assert spans[-1][1] == n
    for lo, hi in spans:
        assert lo % block == 0
        if block * count > BATCH_FLOATS:
            assert hi - lo <= block
        else:
            assert (hi - lo) * count <= BATCH_FLOATS
    full = spans[0][1]
    assert full % block == 0 and full == min(chunk, n)
    if block * count <= BATCH_FLOATS:
        assert (full + block) * count > BATCH_FLOATS or len(spans) == 1


@pytest.mark.parametrize("width,count", [(1, 9), (10, 105), (1000, 10_005)])
def test_function_mode_normals_per_proposal(width, count):
    # Depth 3 on 4 train points: a layer of fan-in d takes d + 1 normals per
    # unit in weight space (d + 1 <= 4), else 4; plus the acceptance normal.
    cfg = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=width)
    assert sampler._normals_per_proposal(cfg, sampler._space(cfg, 4, "function"), 4) == count


@pytest.mark.parametrize("width,eval_keys", [(1, False), (10, True)])
def test_weight_space_layers_take_no_eval_normals(width, eval_keys, monkeypatch):
    # Width 1 draws every layer in weight space on 4 train points, so an
    # accepted proposal is extended with its train weights alone.
    drawn_from = []
    normal = GaussianStream.normal

    def spy(self, count, out=None):
        drawn_from.append(self.stream_id)
        return normal(self, count, out)

    monkeypatch.setattr(GaussianStream, "normal", spy)
    cfg = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=width)
    tx = np.linspace(-1, 1, 4)[:, None]
    report = rejection_sample(cfg, tx, np.sin(tx), LikelihoodSpec("gaussian", sigma2=1.0),
                              EX, 2_000, seed=4, mode="function")
    assert report.accepts > 100
    assert any(k >= sampler._EVAL_KEYS for k in drawn_from) == eval_keys


def test_layer_values_above_the_row_bound_an_unscreened_run():
    # Depth 1, width 100 on 1,000 train points in parameter mode: a stage-1
    # row is 302 normals, but the first layer's train values are 100,000
    # floats per proposal, so the stage-1 batches hold one proposal each.
    cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=100)
    tx = np.linspace(-3.0, 3.0, 1000)[:, None]
    ex = np.linspace(-3.0, 3.0, 10)[:, None]
    tracemalloc.start()
    try:
        report = rejection_sample(cfg, tx, np.sin(tx), LikelihoodSpec("gaussian", sigma2=1e3),
                                  ex, 256, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.mode == "parameter" and report.accepts == 143
    assert peak < 4 * BATCH_FLOATS * 8


def test_default_chunks_are_worker_invariant():
    # 2,405 normals per proposal: chunks of one block, 7 of them.
    cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=300)
    tx = np.linspace(-1, 1, 4)[:, None]
    lik = LikelihoodSpec("gaussian", sigma2=1.0)
    kw = dict(n_proposals=400, seed=21, mode="function")
    runs = [rejection_sample(cfg, tx, 0.0 * tx, lik, EX, workers=w, **kw)
            for w in (1, 2, 3)]
    assert runs[0].moments_valid and runs[0].mode == "function"
    for r in runs[1:]:
        assert r.accepts == runs[0].accepts
        assert np.array_equal(r.posterior_mean, runs[0].posterior_mean)
        assert np.array_equal(r.posterior_cov, runs[0].posterior_cov)
        assert r.mean_likelihood == runs[0].mean_likelihood
        assert r.mean_likelihood_se == runs[0].mean_likelihood_se
    fixed = rejection_sample(cfg, tx, 0.0 * tx, lik, EX, chunk_size=1024, **kw)
    assert fixed.accepts == runs[0].accepts
    assert np.allclose(fixed.posterior_mean, runs[0].posterior_mean)
    assert np.allclose(fixed.mean_likelihood, runs[0].mean_likelihood)


def test_accept_path_is_extended_in_bounded_slices():
    # No train points: every proposal is accepted, and one chunk holds all
    # 1,024. Extended at once, their 40 x 40 eval covariances alone take
    # 13 MB per array; in slices, each array holds about BATCH_FLOATS floats.
    cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=20)
    ex = np.linspace(-2.0, 2.0, 40)[:, None]
    tracemalloc.start()
    try:
        report = rejection_sample(cfg, np.zeros((0, 1)), np.zeros((0, 1)), LIK, ex,
                                  1024, seed=1, mode="function")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.accepts == 1024
    assert peak < 16 * BATCH_FLOATS * 8


def test_at_most_two_chunks_per_worker_are_in_flight(monkeypatch):
    main = threading.get_ident()
    state = {"submitted": 0, "merged": 0, "most": 0}
    merge_in = MomentAccumulator.merge_in

    def counting_merge_in(self, other):
        # Chunk moments merged into the total, not block updates on a worker.
        if threading.get_ident() == main and other.mean.size == EX.shape[0]:
            state["merged"] += 1
        return merge_in(self, other)

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            state["submitted"] += 1
            state["most"] = max(state["most"], state["submitted"] - state["merged"])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(MomentAccumulator, "merge_in", counting_merge_in)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(sampler, "available_cores", lambda: 2)
    report = rejection_sample(linear_config(), TX, TY, LIK, EX, 40 * 64, seed=5,
                              chunk_size=64, workers=2)
    assert state["submitted"] == 40 and report.accepts > 0
    assert state["most"] <= 2 * 2


def test_pool_threads_are_capped_at_the_cores(monkeypatch):
    # The spy records the pool size asked for and never starts more than two
    # threads, whatever that size is.
    sizes = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=min(max_workers, 2))

    kw = dict(n_proposals=20 * 64, seed=5, chunk_size=64)
    one = rejection_sample(linear_config(), TX, TY, LIK, EX, workers=1, **kw)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    monkeypatch.setattr(sampler, "available_cores", lambda: 3)
    many = rejection_sample(linear_config(), TX, TY, LIK, EX, workers=10 ** 6, **kw)
    assert sizes == [3]
    assert many.accepts == one.accepts > 0
    assert np.array_equal(many.posterior_mean, one.posterior_mean)
    assert np.array_equal(many.posterior_cov, one.posterior_cov)
    monkeypatch.setattr(sampler, "available_cores", lambda: 1)
    rejection_sample(linear_config(), TX, TY, LIK, EX, workers=10 ** 6, **kw)
    assert sizes == [3]  # one core: the chunks run on the calling thread


def test_failing_chunk_cancels_queued_chunks(monkeypatch):
    started = []
    runner = sampler._run_chunk

    def failing(config, train_x, train_y, lik, eval_x, seed, lo, hi, *extra):
        started.append(lo)
        if lo == 64:
            raise FloatingPointError("chunk failed")
        return runner(config, train_x, train_y, lik, eval_x, seed, lo, hi, *extra)

    monkeypatch.setattr(sampler, "_run_chunk", failing)
    monkeypatch.setattr(sampler, "available_cores", lambda: 2)
    with pytest.raises(FloatingPointError, match="chunk failed"):
        rejection_sample(linear_config(), TX, TY, LIK, EX, 100 * 64, seed=5,
                         chunk_size=64, workers=2)
    assert len(started) < 10


def test_mean_likelihood_matches_the_evidence_at_l0():
    # f = w x with w ~ N(0, 1), so f ~ N(0, K) at the train points, and the
    # mean of exp(-|y - f|^2 / (2 s2)) is det(I + K/s2)^(-1/2)
    # * exp(-y' (K + s2 I)^-1 y / 2).
    report = rejection_sample(linear_config(), TX, TY, LIK, EX, 50_000, seed=8)
    k = nngp_kernel(linear_config(), TX, TX)
    s2, y = LIK.sigma2, TY[:, 0]
    _, logdet = np.linalg.slogdet(np.eye(3) + k / s2)
    expected = np.exp(-0.5 * logdet - 0.5 * y @ np.linalg.solve(k + s2 * np.eye(3), y))
    assert abs(report.mean_likelihood - expected) < 4 * report.mean_likelihood_se
    # The accept rate estimates the same number, with a larger error.
    assert abs(report.accept_rate - expected) < 4 * np.sqrt(expected / report.proposals)


def test_mean_likelihood_is_reported_when_nothing_is_accepted():
    lik = LikelihoodSpec("gaussian", sigma2=1e-3)
    report = rejection_sample(linear_config(), TX, TY, lik, EX, 200, seed=0)
    assert report.accepts == 0
    assert 0.0 < report.mean_likelihood < 1.0 / 200
    assert report.mean_likelihood_se > 0.0


@pytest.mark.parametrize("depth, width, m, scale, sigma2, n", [
    (2, 20, 5, (3.0, 1.0), 0.02, 3000),   # screened: stage-1 survivors, no last-stage term
    (3, 1, 4, (1.0, 50.0), 1e-3, 2000),   # unscreened: every likelihood underflows
])
def test_all_zero_evidence_has_no_standard_error(depth, width, m, scale, sigma2, n):
    tx = np.linspace(-np.pi, np.pi, m)[:, None]
    ty = scale[1] * np.sin(scale[0] * tx)
    report = rejection_sample(NetworkConfig(depth, 1, 1, hidden_width=width), tx, ty,
                              LikelihoodSpec("gaussian", sigma2=sigma2), tx, n, seed=0)
    assert report.mode == ("function" if width > 1 else "parameter")
    assert report.survivors > 0 and report.accepts == 0
    assert report.mean_likelihood == 0.0 and report.mean_likelihood_se is None


class TestAcceptTest:
    """``sampler._accepted`` decides exactly as ``log_ndtr(z) < logl``."""

    @staticmethod
    def check(z, logl):
        z, logl = np.broadcast_arrays(np.asarray(z, float), np.asarray(logl, float))
        z, logl = z.ravel(), logl.ravel()
        with np.errstate(over="ignore", under="ignore"):
            got = sampler._accepted(z, logl, np.exp(logl))
        want = np.nonzero(scipy.special.log_ndtr(z) < logl)[0]
        assert np.array_equal(got, want)
        return want.size

    def test_threshold_and_its_ulp_neighbours(self):
        logl = np.linspace(-700.0, 0.0, 20_001)
        z = scipy.special.ndtri_exp(logl)
        below, above = z.copy(), z.copy()
        for k in range(1, 11):
            below = np.nextafter(below, -np.inf)
            above = np.nextafter(above, np.inf)
            if k in (1, 2, 10):
                self.check(below, logl)
                self.check(above, logl)
        self.check(z, logl)

    def test_just_outside_the_linear_margin(self):
        # u = ell (1 +- c 1e-9): decided in linear space for c > 1, near it.
        logl = np.linspace(-660.0, -1e-6, 5_001)
        for c in (0.5, 0.99, 1.01, 1.5, 2.0, 10.0):
            for sign in (-1.0, 1.0):
                self.check(scipy.special.ndtri_exp(logl + np.log1p(sign * c * 1e-9)), logl)

    def test_exact_ties_reject(self):
        z = np.linspace(-37.0, 8.0, 100_001)
        assert self.check(z, scipy.special.log_ndtr(z)) == 0

    def test_likelihood_one_subnormal_and_underflowed(self):
        z = np.linspace(-45.0, 45.0, 90_001)
        for logl in (0.0, -745.0, -800.0):
            self.check(z, logl)

    def test_extreme_normals(self):
        logl = np.concatenate([-np.logspace(-20, 3, 2_001), [0.0, -np.inf]])
        for z in (-40.0, -38.0, 38.0, 40.0):
            self.check(z, logl)

    def test_random_pairs(self):
        rng = np.random.default_rng(20261019)
        n = 1_000_000
        z = rng.standard_normal(n) * rng.choice([1.0, 3.0, 12.0], n)
        logl = -rng.exponential(1.0, n) * rng.choice([1e-3, 1.0, 30.0, 700.0], n)
        self.check(z, logl)


# Parameter-mode results recorded before parameter mode became the one chunk
# runner with every layer in weight space: the same normals, the same
# accepts and the same recorded parameters.
@pytest.mark.parametrize("seed,accepts", [(0, 609), (1, 615), (2, 564), (3, 627), (4, 561)])
def test_parameter_mode_oracle_accepts_are_pinned(seed, accepts):
    report = rejection_sample(linear_config(), TX, TY, LIK, EX, 5_000, seed=seed)
    assert report.mode == "parameter" and report.accepts == accepts


@pytest.mark.parametrize("parametrisation,stats", [
    ("standard", {0: (0.029276370267983246, 0.6211369460751679),
                  5: (-0.009463795046672363, 0.6057581935802017),
                  91: (0.09866272529317023, 0.07608864721585096)}),
    ("ntk", {0: (0.03585608433867368, 0.9317054191127517),
             5: (-0.011590734447313112, 0.9086372903703019),
             91: (0.3119989320859219, 0.7608864721585098)}),
])
def test_parameter_mode_recorded_params_are_pinned(parametrisation, stats):
    cfg = NetworkConfig(depth=2, input_dim=3, output_dim=1, hidden_width=7,
                        parametrisation=parametrisation)
    tx = np.array([[-1.0, 0.5, 0.2], [0.3, -0.4, 1.0], [0.8, 0.1, -0.6], [-0.2, 0.9, 0.4]])
    ex = np.array([[0.1, 0.2, 0.3], [-0.5, 0.0, 0.5]])
    lik = LikelihoodSpec("gaussian", sigma2=0.25)
    report = rejection_sample(cfg, tx, np.sin(tx.sum(axis=1, keepdims=True)), lik, ex,
                              20_000, seed=7, record_params=[0, 5, cfg.n_params - 1])
    assert cfg.n_params == 92 and report.mode == "parameter"
    assert report.accepts == 518
    assert report.recorded_param_stats.keys() == stats.keys()
    for idx, (mean, var) in stats.items():
        np.testing.assert_allclose(report.recorded_param_stats[idx], (mean, var), rtol=1e-12)


# Staged proposals: a screen at one train point, then groups of further
# points for the survivors only.
SCREEN_CFG = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=20)
SCREEN_X = np.linspace(-1, 1, 3)[:, None]


def test_modes_agree_on_the_evidence():
    # test_modes_agree_statistically's config: function mode screens in three
    # stages of one point and reports 1{u < L_prefix} * l_last, parameter mode
    # the plain mean.
    lik = LikelihoodSpec("gaussian", sigma2=0.25)
    ty = np.sin(SCREEN_X)
    rp = rejection_sample(SCREEN_CFG, SCREEN_X, ty, lik, EX, 30_000, seed=11, mode="parameter")
    rf = rejection_sample(SCREEN_CFG, SCREEN_X, ty, lik, EX, 30_000, seed=11, mode="function")
    assert rp.survivors == rp.proposals and 0 < rf.survivors < rf.proposals
    se = np.hypot(rp.mean_likelihood_se, rf.mean_likelihood_se)
    assert abs(rp.mean_likelihood - rf.mean_likelihood) < 4 * se


def screen_case(case):
    tx = np.linspace(-1, 1, 4)[:, None]
    if case == "gaussian":
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=2, hidden_width=20)
        return cfg, tx, np.hstack([np.sin(tx), np.cos(tx)]), LikelihoodSpec("gaussian", sigma2=0.5)
    cfg = NetworkConfig(depth=2, input_dim=1, output_dim=3, hidden_width=20)
    return cfg, tx, np.eye(3)[[0, 1, 2, 1]], LikelihoodSpec("categorical", num_classes=3)


@pytest.mark.parametrize("m,sizes", [
    (1, [1]), (2, [1, 1]), (3, [1, 1, 1]), (4, [1, 1, 2]), (5, [1, 1, 2, 1]),
    (6, [1, 1, 2, 2]), (7, [1, 1, 2, 3]), (8, [1, 1, 2, 4]), (9, [1, 1, 2, 4, 1]),
])
def test_stage_groups_double(m, sizes):
    # Each stage after the first draws as many points as all earlier stages
    # together, the last one what is left.
    assert sampler._stage_sizes(m) == sizes


@pytest.mark.parametrize("case", ["gaussian", "categorical"])
def test_staged_runs_agree_with_parameter_mode(case):
    # Four train points: stages of 1, 1 and 2 points in function mode, none in
    # parameter mode. Same accept rate, evidence and posterior mean, each
    # within 4 combined standard errors.
    cfg, tx, ty, lik = screen_case(case)
    kw = dict(n_proposals=60_000, seed=19)
    rp = rejection_sample(cfg, tx, ty, lik, EX, mode="parameter", **kw)
    rf = rejection_sample(cfg, tx, ty, lik, EX, mode="function", **kw)
    assert rp.survivors == rp.proposals and 0 < rf.survivors < rf.proposals
    assert min(rp.accepts, rf.accepts) > 300
    rate = (rp.accepts + rf.accepts) / (2 * kw["n_proposals"])
    assert abs(rp.accept_rate - rf.accept_rate) < 4 * np.sqrt(2 * rate / kw["n_proposals"])
    se = np.hypot(rp.mean_likelihood_se, rf.mean_likelihood_se)
    assert abs(rp.mean_likelihood - rf.mean_likelihood) < 4 * se
    se_mean = np.sqrt(np.diag(rp.posterior_cov) / rp.accepts
                      + np.diag(rf.posterior_cov) / rf.accepts)
    assert np.all(np.abs(rp.posterior_mean - rf.posterior_mean) < 4 * se_mean)


def test_staged_evidence_standard_error_is_honest():
    # Depth 0 on 5 inputs: the one layer is in function space on 5 train
    # points (stages of 1, 1, 2 and 1), and the evidence is known in closed
    # form. Over 30 seeds the z-scores of mean_likelihood against it have a
    # mean square near 1 (0.1% quantiles of chi^2_30 / 30: 0.45 and 1.98).
    cfg = NetworkConfig(depth=0, input_dim=5, output_dim=1, sigma_b=0.3,
                        nonlinearity="identity")
    rng = np.random.default_rng(12)
    tx = rng.standard_normal((5, 5))
    ty = tx @ rng.standard_normal((5, 1)) / np.sqrt(5)
    lik = LikelihoodSpec("gaussian", sigma2=0.3)
    k = nngp_kernel(cfg, tx, tx)
    s2, y = lik.sigma2, ty[:, 0]
    _, logdet = np.linalg.slogdet(np.eye(5) + k / s2)
    z_true = np.exp(-0.5 * logdet - 0.5 * y @ np.linalg.solve(k + s2 * np.eye(5), y))
    z = []
    for seed in range(30):
        r = rejection_sample(cfg, tx, ty, lik, tx[:2], 4_000, seed=seed, mode="function")
        assert r.survivors < r.proposals
        z.append((r.mean_likelihood - z_true) / r.mean_likelihood_se)
    z = np.array(z)
    assert 0.45 < np.mean(z ** 2) < 1.98
    assert abs(z.mean()) < 4 / np.sqrt(z.size)


@pytest.mark.parametrize("case", ["gaussian", "categorical"])
def test_screened_out_proposals_fail_the_full_test(case, monkeypatch):
    # Complete the train path of every proposal of a seeded run, screened out
    # or not, from its block row and the substreams of its own key, stage by
    # stage as the run draws it (4 points: groups of 1, 1 and 2): no proposal
    # screened out at stage 0 or at any later stage has u < l, the run drew
    # stage k for exactly the survivors of stage k - 1, and the full test
    # accepts what the run accepted.
    cfg, tx, ty, lik = screen_case(case)
    n, seed, mt, dims = 640, 3, tx.shape[0], cfg.layer_dims
    orders, drawn = [], collections.defaultdict(set)

    def spy(config, train_x, train_y, lik_, eval_x, seed_, lo, hi, space, indices, scales,
            order):
        orders.append(order)
        return runner(config, train_x, train_y, lik_, eval_x, seed_, lo, hi, space, indices,
                      scales, order)

    def rekey_spy(self, stream_id, substream=0):
        if substream:
            drawn[substream].add(stream_id - sampler._EVAL_KEYS)
        return rekey(self, stream_id, substream)

    runner, rekey = sampler._run_chunk, GaussianStream.rekey
    monkeypatch.setattr(sampler, "_run_chunk", spy)
    monkeypatch.setattr(GaussianStream, "rekey", rekey_spy)
    report = rejection_sample(cfg, tx, ty, lik, EX, n, seed=seed, mode="function",
                              chunk_size=256)
    monkeypatch.setattr(GaussianStream, "rekey", rekey)
    order, p = orders[0], int(np.argmin(sampler._survival(cfg, tx, ty, lik)))
    assert list(order) == [p] + [i for i in range(mt) if i != p]
    assert sorted(drawn) == [1, 2, 3]
    cx, cy = tx[order], ty[order]
    space = [d + 1 <= mt for d in dims[:-1]]  # decided at m_train
    row = sum(u * (d + 1 if ws else 1) for d, u, ws in zip(dims, dims[1:], space)) + 1
    count = dims[-1] + 1  # the block row: the output layer at p, then u

    def keyed(substream, total):  # every proposal's normals at a substream of its key
        z = np.empty((n, total))
        stream = GaussianStream(seed)
        for i in range(n):
            stream.rekey(sampler._EVAL_KEYS + i, substream)
            stream.normal(total, out=z[i])
        return z

    z = np.hstack([keyed(1, row - count)] + [rows for _, rows in _gather(seed, 0, n, count)])
    log_u = scipy.special.log_ndtr(z[:, -1])
    theta = list(layer_normals(z, cfg, 1, space))
    layers = list(sample_layers(cfg, cx[:1], theta))
    logl = log_likelihood_batch(lik, np.swapaxes(layers[-1], 1, 2), cy[:1])
    out_at_p = log_u >= logl
    assert 0 < out_at_p.sum() < n
    assert report.survivors == n - out_at_p.sum()
    # Stage 0 keeps a superset of the stage-1 survivors and rejects only
    # proposals with u >= l_p.
    out_at_0 = ~np.isin(np.arange(n), sorted(drawn[1]))
    assert 0 < out_at_0.sum() <= out_at_p.sum()
    assert not np.any(log_u[out_at_0] < logl[out_at_0])
    alive, screened_out = ~out_at_p, [out_at_p]
    for k, (a, b) in enumerate([(1, 2), (2, 4)], start=2):
        assert drawn[k] == set(np.nonzero(alive)[0])
        per_unit = [0 if ws else u * (b - a) for u, ws in zip(dims[1:], space)]
        z_k = keyed(k, sum(per_unit))
        cuts = np.cumsum([0] + per_unit)
        normals = [th if not w else z_k[:, c:c + w].reshape(n, -1, b - a)
                   for th, c, w in zip(theta, cuts, per_unit)]
        new = list(sample_layers(cfg, cx[a:b], normals, cx[:a], layers))
        layers = [np.concatenate([f, f_n], axis=-1) for f, f_n in zip(layers, new)]
        logl = logl + log_likelihood_batch(lik, np.swapaxes(new[-1], 1, 2), cy[a:b])
        screened_out.append(alive & (log_u >= logl))
        alive &= log_u < logl
        assert screened_out[-1].sum() > 0
    full = log_likelihood_batch(lik, np.swapaxes(layers[-1], 1, 2), cy)
    for out in screened_out:
        assert not np.any(log_u[out] < full[out])
    assert report.accepts == np.sum(log_u < full) == alive.sum() > 0


@pytest.mark.parametrize("nonlinearity", NONLINEARITIES)
@pytest.mark.parametrize("sigma_b", [0.0, 0.3])
@pytest.mark.parametrize("depth", [0, 3])
@pytest.mark.parametrize("case", ["gaussian-1", "gaussian-2", "categorical-3"])
def test_stage_zero_bound_holds_for_every_last_hidden_layer(nonlinearity, sigma_b, depth,
                                                            case):
    # The output layer at p, drawn through layer_step and chol_batch from
    # random last hidden layers (all zero, saturated, and spread over six
    # decades), never has a computed l_p above the stage-0 bound.
    kind, outputs = case.split("-")
    outputs = int(outputs)
    cfg = NetworkConfig(depth=depth, input_dim=3, output_dim=outputs, hidden_width=7,
                        sigma_b=sigma_b, nonlinearity=nonlinearity)
    rng = np.random.default_rng([depth, outputs, int(10 * sigma_b)])
    n, x_p = 6_000, np.array([0.7, -1.3, 2.1])
    if depth == 0:
        g = x_p[:, None]  # the inputs at p
    else:
        h = rng.standard_normal((n, 7, 1)) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1))
        h[:500] = 0.0  # phi = 0: C = sigma_b^2, the lower end
        h[500:1000] = 50.0 * np.sign(h[500:1000])  # erf saturates: C = sigma_w^2 + sigma_b^2
        g = nonlinearity_fn(nonlinearity)(h)
    e = rng.standard_normal((n, outputs, 1))
    if kind == "gaussian":
        lik = LikelihoodSpec("gaussian", sigma2=0.1)
        y_p = rng.uniform(-2.5, 2.5, outputs)
    else:
        lik = LikelihoodSpec("categorical", num_classes=outputs)
        y_p = np.eye(outputs)[1]
    f = layer_step(cfg, g, e)
    logl = log_likelihood_batch(lik, np.swapaxes(f, 1, 2), y_p[None])
    s_lo, s_hi = sampler._scale_range(cfg, x_p)
    bound = sampler._log_bound(lik, y_p, e[..., 0], s_lo, s_hi)
    assert np.all(logl <= bound + sampler._BOUND_MARGIN * (1.0 - bound))
    assert np.all(logl <= bound + 1e-12 * (1.0 - bound))  # the margin is for rounding only
    scale = chol_batch(layer_cov(g, g.shape[-2], cfg.sigma_w, cfg.sigma_b))[..., 0, 0]
    assert np.all((s_lo <= scale) & (scale <= s_hi))
    if depth == 0:  # s is known exactly: the bound is l_p itself
        np.testing.assert_allclose(bound, logl, rtol=1e-8, atol=1e-8)
    else:  # both ends of the range of s are met
        assert scale.min() ** 2 == pytest.approx(sigma_b ** 2, abs=2e-12)
        if nonlinearity == "erf":
            assert scale.max() == pytest.approx(s_hi, rel=1e-8)
        else:
            assert s_hi == np.inf


@pytest.mark.parametrize("nonlinearity", ["erf", "relu"])
def test_kept_activations_extend_like_recomputed_ones(nonlinearity):
    # The activations a draw records in g_out give, as g_cond, the same
    # extension bit for bit as recomputing them from every layer's values.
    cfg = NetworkConfig(depth=3, input_dim=2, output_dim=1, hidden_width=6,
                        nonlinearity=nonlinearity)
    rng = np.random.default_rng(4)
    x, x_new = rng.standard_normal((3, 2)), rng.standard_normal((5, 2))
    space = [d + 1 <= 3 for d in cfg.layer_dims[:-1]]  # decided at x
    z = GaussianStream(8).normal(10 * normals_per_draw(cfg, 3, space)).reshape(10, -1)
    theta = list(layer_normals(z, cfg, 3, space))
    acts = {}
    at_x = list(sample_layers(cfg, x, theta, g_out=acts))
    assert sorted(acts) == [1, 2, 3]  # layer 0 (fan_in 2) is in weight space
    phi = nonlinearity_fn(nonlinearity)
    assert all(np.array_equal(g, phi(at_x[l - 1])) for l, g in acts.items())
    e = GaussianStream(9).normal(10 * 13 * 5).reshape(10, 13, 5)

    def normals():  # layer 0 reuses its W and b; units 6, 6 and 1 take 5 each
        return [theta[0], e[:, :6], e[:, 6:12], e[:, 12:]]

    want = list(sample_layers(cfg, x_new, normals(), x, at_x))
    fs_only = [None] + at_x[1:]  # with g_cond only function-space layers are read
    got = list(sample_layers(cfg, x_new, normals(), x, fs_only, g_cond=acts))
    assert all(np.array_equal(a, b) for a, b in zip(want, got))


def test_screening_point_has_the_least_predicted_survival(monkeypatch):
    # The default sweep's data: 4 sin points on [-pi, pi] at sigma2 = 0.1.
    cfg = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=10)
    tx = np.linspace(-np.pi, np.pi, 4)[:, None]
    lik = LikelihoodSpec("gaussian", sigma2=0.1)
    survival = sampler._survival(cfg, tx, np.sin(tx), lik)
    np.testing.assert_allclose(survival, [0.287, 0.212, 0.212, 0.287], atol=5e-4)
    orders = []

    def spy(config, train_x, train_y, lik_, eval_x, seed, lo, hi, *extra):
        orders.append(None if extra[-1] is None else list(extra[-1]))
        return runner(config, train_x, train_y, lik_, eval_x, seed, lo, hi, *extra)

    runner = sampler._run_chunk
    monkeypatch.setattr(sampler, "_run_chunk", spy)
    rejection_sample(cfg, tx, np.sin(tx), lik, EX, 64, seed=0, mode="function")
    cat = LikelihoodSpec("categorical", num_classes=3)
    ccfg = NetworkConfig(depth=2, input_dim=1, output_dim=3, hidden_width=10)
    rejection_sample(ccfg, tx, np.eye(3)[[2, 1, 0, 1]], cat, EX, 64, seed=0, mode="function")
    # Nothing to screen: every layer in weight space, or one train point.
    rejection_sample(cfg, tx, np.sin(tx), lik, EX, 64, seed=0, mode="parameter")
    rejection_sample(cfg, tx[:1], np.sin(tx[:1]), lik, EX, 64, seed=0, mode="function")
    # p = 1 first, then the other points in train order; the categorical's
    # equal survivals give p = 0.
    assert orders == [[1, 0, 2, 3], [0, 1, 2, 3], None, None]
    np.testing.assert_array_equal(sampler._survival(ccfg, tx, np.eye(3)[[2, 1, 0, 1]], cat),
                                  np.full(4, 1 / 3))


def test_stage_two_substream_is_apart_from_block_ids_and_the_dataset_stream(monkeypatch):
    top = (1 << 62) - 1
    last_block = top // sampler._BLOCK
    assert sampler._EVAL_KEYS > DATASET_STREAM_ID > last_block
    assert sampler._EVAL_KEYS + top < 1 << 64
    # On proposal i's own key, stage k takes substream k (3 points: stages 1,
    # 2 and 3) and the eval extension substream 0, whose 2**128 Philox blocks
    # it never exhausts.
    keys = []
    rekey = GaussianStream.rekey

    def spy(self, stream_id, substream=0):
        keys.append((stream_id, substream))
        return rekey(self, stream_id, substream)

    monkeypatch.setattr(GaussianStream, "rekey", spy)
    n = 2_000
    report = rejection_sample(SCREEN_CFG, SCREEN_X, np.sin(SCREEN_X),
                              LikelihoodSpec("gaussian", sigma2=0.25), EX, n, seed=2,
                              mode="function", chunk_size=500)
    blocks = {k for k, s in keys if k < sampler._EVAL_KEYS}
    stages = [[k - sampler._EVAL_KEYS for k, s in keys if s == j] for j in (1, 2, 3)]
    evals = collections.Counter(k - sampler._EVAL_KEYS for k, s in keys
                                if k >= sampler._EVAL_KEYS and s == 0)
    assert {s for _, s in keys} == {0, 1, 2, 3}
    assert max(blocks) < DATASET_STREAM_ID and all(s == 0 for k, s in keys if k in blocks)
    assert all(0 <= i < n for i in stages[0])
    for earlier, later in zip([range(n)] + stages, stages):
        assert len(later) == len(set(later)) < len(earlier) and set(later) <= set(earlier)
    assert len(stages[1]) == report.survivors
    # Each chunk's stream starts at the chunk's first key; then every
    # accepted proposal re-keys once, and it reached the last stage.
    evals.subtract(range(0, n, 500))
    accepted = +evals
    assert sum(accepted.values()) == report.accepts > 0 and set(accepted) <= set(stages[2])


def test_weight_space_output_layer_passes_every_proposal_to_stage_one(monkeypatch):
    # 4 inputs on 3 train points put the first layer in function space and,
    # at width 1, the output layer in weight space: stage 0 has no bound and
    # every proposal draws its stage-1 row from substream 1 of its own key.
    cfg = NetworkConfig(depth=2, input_dim=4, output_dim=1, hidden_width=1)
    rng = np.random.default_rng(3)
    tx, ex = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
    ty = 0.5 * tx[:, :1]
    lik = LikelihoodSpec("gaussian", sigma2=0.25)
    heads, rekey = [], GaussianStream.rekey

    def spy(self, stream_id, substream=0):
        if substream == 1:
            heads.append(stream_id - sampler._EVAL_KEYS)
        return rekey(self, stream_id, substream)

    monkeypatch.setattr(GaussianStream, "rekey", spy)
    rf = rejection_sample(cfg, tx, ty, lik, ex, 20_000, seed=4, mode="function")
    assert sorted(heads) == list(range(20_000)) and 0 < rf.survivors < 20_000
    rp = rejection_sample(cfg, tx, ty, lik, ex, 20_000, seed=4, mode="parameter")
    assert abs(rp.mean_likelihood - rf.mean_likelihood) < 4 * np.hypot(
        rp.mean_likelihood_se, rf.mean_likelihood_se)


def test_modes_share_default_chunks_when_every_layer_is_in_weight_space():
    # Depth 3, width 1 on 4 points: both rules put every layer in weight
    # space, so function mode holds parameter mode's 9 floats per proposal
    # and runs its default chunks (14,336 proposals), bit for bit.
    cfg = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=1)
    tx = np.linspace(-np.pi, np.pi, 4)[:, None]
    assert sampler._proposal_floats(cfg, 4, "function") == 9
    assert sampler._proposal_floats(cfg, 4, "parameter") == 9
    lik = LikelihoodSpec("gaussian", sigma2=0.5)
    ex = np.linspace(-np.pi, np.pi, 7)[:, None]
    kw = dict(n_proposals=40_000, seed=6)
    rp = rejection_sample(cfg, tx, np.sin(tx), lik, ex, mode="parameter", **kw)
    rf = rejection_sample(cfg, tx, np.sin(tx), lik, ex, mode="function", **kw)
    assert rp.moments_valid and rp.accepts == rf.accepts
    assert rp.survivors == rf.survivors == 40_000
    assert rp.posterior_mean.tobytes() == rf.posterior_mean.tobytes()
    assert rp.posterior_cov.tobytes() == rf.posterior_cov.tobytes()
    assert rp.mean_likelihood == rf.mean_likelihood
    assert rp.mean_likelihood_se == rf.mean_likelihood_se


def test_survivors_do_not_depend_on_workers_or_chunks():
    lik = LikelihoodSpec("gaussian", sigma2=0.25)
    kw = dict(n_proposals=3_000, seed=5, mode="function")
    runs = [rejection_sample(SCREEN_CFG, SCREEN_X, np.sin(SCREEN_X), lik, EX, workers=w, **kw)
            for w in (1, 2, 3)]
    runs.append(rejection_sample(SCREEN_CFG, SCREEN_X, np.sin(SCREEN_X), lik, EX,
                                 chunk_size=127, **kw))
    assert 0 < runs[0].accepts < runs[0].survivors < 3_000
    for r in runs[1:]:
        assert r.survivors == runs[0].survivors and r.accepts == runs[0].accepts
    for r in runs[1:3]:
        assert r.mean_likelihood == runs[0].mean_likelihood
        assert r.mean_likelihood_se == runs[0].mean_likelihood_se
    # Nothing is screened in parameter mode.
    r = rejection_sample(SCREEN_CFG, SCREEN_X, np.sin(SCREEN_X), lik, EX, 3_000, seed=5,
                         mode="parameter")
    assert r.survivors == r.proposals


def test_no_survivor_reports_a_zero_evidence_without_an_error():
    lik = LikelihoodSpec("gaussian", sigma2=1e-12)
    r = rejection_sample(SCREEN_CFG, SCREEN_X, np.sin(SCREEN_X), lik, EX, 500, seed=0,
                         mode="function")
    assert r.survivors == 0 and r.accepts == 0
    assert r.mean_likelihood == 0.0 and r.mean_likelihood_se is None
