import concurrent.futures
import dataclasses
import math
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from widebnn import network
from widebnn.errors import DimensionMismatch, NotPositiveDefinite
from widebnn.kernels import nngp_kernel
from widebnn.metrics import rel_frobenius
from widebnn.network import (
    NetworkConfig,
    forward,
    layer_cov,
    prior_function_draws,
    reparametrise,
    sample_prior,
)
from widebnn.numkit import BATCH_FLOATS, GaussianStream


def small_config(**kw):
    base = dict(depth=2, input_dim=3, output_dim=2, hidden_width=5)
    base.update(kw)
    return NetworkConfig(**base)


class TestConfig:
    def test_layer_dims_and_params(self):
        cfg = small_config()
        assert cfg.layer_dims == [3, 5, 5, 2]
        assert cfg.layer_shapes == [(5, 3), (5, 5), (2, 5)]
        assert cfg.n_params == (5 * 3 + 5) + (5 * 5 + 5) + (2 * 5 + 2)

    def test_depth_zero(self):
        cfg = NetworkConfig(depth=0, input_dim=2, output_dim=1, hidden_width=1)
        assert cfg.layer_dims == [2, 1]
        assert cfg.n_params == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(depth=-1)
        with pytest.raises(ValueError):
            small_config(hidden_width=0)
        with pytest.raises(ValueError):
            small_config(sigma_w=0.0)
        with pytest.raises(ValueError):
            small_config(nonlinearity="tanh")
        with pytest.raises(ValueError):
            small_config(parametrisation="mup")

    def test_with_width(self):
        cfg = small_config().with_width(17)
        assert cfg.hidden_width == 17
        assert cfg.depth == small_config().depth

    def test_cached_shapes_are_fresh_per_config(self):
        cfg = small_config()
        assert cfg.n_params == 62 and cfg.layer_dims == [3, 5, 5, 2]
        wide = cfg.with_width(17)
        assert wide.layer_dims == [3, 17, 17, 2]
        assert wide.layer_shapes == [(17, 3), (17, 17), (2, 17)]
        assert wide.n_params == (17 * 3 + 17) + (17 * 17 + 17) + (2 * 17 + 2)
        deep = dataclasses.replace(cfg, depth=0, input_dim=4)
        assert deep.layer_dims == [4, 2]
        assert deep.layer_shapes == [(2, 4)]
        assert deep.n_params == 10
        assert cfg.layer_dims == [3, 5, 5, 2] and cfg.n_params == 62

    def test_cached_shapes_leave_equality_hash_and_pickle_alone(self):
        used, fresh = small_config(), small_config()
        assert used.n_params == 62 and used.layer_shapes[0] == (5, 3)
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert back == used and hash(back) == hash(used)
        assert back.layer_dims == [3, 5, 5, 2] and back.n_params == 62
        with pytest.raises(dataclasses.FrozenInstanceError):
            used.depth = 3


class TestSamplePrior:
    def test_deterministic(self):
        cfg = small_config()
        p1 = sample_prior(cfg, GaussianStream(1, 2))
        p2 = sample_prior(cfg, GaussianStream(1, 2))
        for w1, w2 in zip(p1.weights, p2.weights):
            assert np.array_equal(w1, w2)

    def test_standard_scales(self):
        cfg = small_config(hidden_width=400, depth=1)
        stats_w, stats_b = [], []
        for i in range(30):
            p = sample_prior(cfg, GaussianStream(7, i))
            stats_w.append(p.weights[1].var() * cfg.layer_dims[1])
            stats_b.append(p.biases[0].var())
        assert abs(np.mean(stats_w) - cfg.sigma_w ** 2) < 0.05 * cfg.sigma_w ** 2
        assert abs(np.mean(stats_b) - cfg.sigma_b ** 2) < 0.3 * cfg.sigma_b ** 2

    def test_ntk_stores_unit_normals(self):
        cfg = small_config(hidden_width=300, parametrisation="ntk")
        p = sample_prior(cfg, GaussianStream(3, 0))
        assert abs(p.weights[1].var() - 1.0) < 0.05


class TestForward:
    def test_shape_and_nonlinearity_placement(self):
        cfg = small_config(nonlinearity="relu")
        p = sample_prior(cfg, GaussianStream(0, 0))
        x = np.random.default_rng(0).standard_normal((7, 3))
        out = forward(p, cfg, x)
        assert out.shape == (7, 2)
        # Output layer is affine: negating the last hidden layer's incoming
        # weights and biases negates nothing downstream of phi, but negating
        # the output weights negates the output exactly.
        p.weights[-1] *= -1.0
        p.biases[-1] *= -1.0
        assert np.allclose(forward(p, cfg, x), -out)

    def test_dimension_checks(self):
        cfg = small_config()
        p = sample_prior(cfg, GaussianStream(0, 0))
        with pytest.raises(DimensionMismatch):
            forward(p, cfg, np.zeros((4, 2)))

    def test_reparametrise_matches_ntk_forward(self):
        cfg = small_config(parametrisation="ntk")
        p_ntk = sample_prior(cfg, GaussianStream(5, 1))
        x = np.random.default_rng(1).standard_normal((6, 3))
        out_ntk = forward(p_ntk, cfg, x)
        cfg_std = dataclasses.replace(cfg, parametrisation="standard")
        p_std = reparametrise(p_ntk, cfg)
        assert np.allclose(forward(p_std, cfg_std, x), out_ntk)

    def test_parametrisations_agree_in_distribution(self):
        # Same seed, same raw draws: the induced functions are identical.
        x = np.random.default_rng(2).standard_normal((4, 3))
        outs = {}
        for par in ("standard", "ntk"):
            cfg = small_config(parametrisation=par)
            p = sample_prior(cfg, GaussianStream(11, 4))
            outs[par] = forward(p, cfg, x)
        assert np.allclose(outs["standard"], outs["ntk"])


class TestBatchedForward:
    """A stack of flat parameter vectors drawn by ``sample_layers`` with every
    layer in weight space is the batched NTK forward pass, its shared-input
    first layer one matrix product; it must equal one ``forward`` call per
    set."""

    @pytest.mark.parametrize("parametrisation", ["standard", "ntk"])
    @pytest.mark.parametrize("sigma_b", [0.0, 0.4])
    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("input_dim", [1, 3])
    def test_matches_one_set_at_a_time(self, parametrisation, sigma_b, depth, input_dim):
        cfg = NetworkConfig(depth=depth, input_dim=input_dim, output_dim=2, hidden_width=7,
                            sigma_b=sigma_b, parametrisation=parametrisation)
        ntk = dataclasses.replace(cfg, parametrisation="ntk")
        rng = np.random.default_rng(depth * 10 + input_dim)
        flat = rng.standard_normal((9, cfg.n_params + 1))[:, :-1]  # strided, as in the sampler
        x = rng.standard_normal((6, input_dim))
        everywhere = [True] * (depth + 1)
        assert network.normals_per_draw(cfg, 6, everywhere) == cfg.n_params
        for f in network.sample_layers(cfg, x, network.layer_normals(flat, cfg, 6, everywhere)):
            pass
        batched = np.swapaxes(f, 1, 2)
        stacked = np.stack([forward(network._split_flat(p, ntk), ntk, x) for p in flat])
        assert batched.shape == (9, 6, 2)
        np.testing.assert_allclose(batched, stacked, rtol=1e-14, atol=1e-14)


class TestLayerCov:
    def test_formula(self):
        g = np.random.default_rng(3).standard_normal((10, 4))  # units x points
        c = layer_cov(g, fan_in=10, sigma_w=1.5, sigma_b=0.3)
        want = (1.5 ** 2 / 10) * (g.T @ g) + 0.3 ** 2
        assert np.allclose(c, want)


class TestPriorFunctionDraws:
    def test_matches_parameter_space_moments(self):
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=8)
        x = np.array([[-1.0], [0.0], [1.5]])
        n = 40_000
        fn = prior_function_draws(cfg, x, n, GaussianStream(21, 0))[:, :, 0]
        # Parameter-space reference with independent seeds.
        ref = np.empty((n, 3))
        s = GaussianStream(22, 0)
        for i in range(n):
            ref[i] = forward(sample_prior(cfg, s), cfg, x)[:, 0]
        cf, cr = np.cov(fn.T), np.cov(ref.T)
        assert np.linalg.norm(cf - cr) / np.linalg.norm(cr) < 0.1
        assert np.abs(fn.mean(axis=0)).max() < 0.05

    @pytest.mark.parametrize("points", [1, 10, 11])
    def test_weight_and_function_space_layers_match_the_nngp(self, points):
        # Depth 3, width 10 (fan-in 10 after layer 1): on 1 point every
        # layer is drawn in function space, on 10 only layer 1 in weight
        # space, on 11 every layer. The finite-width bias is about 0.015.
        cfg = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=10)
        x = np.linspace(-np.pi, np.pi, points)[:, None]
        assert [network.weight_space(d, points) for d in cfg.layer_dims[:-1]] == {
            1: [False] * 4, 10: [True, False, False, False], 11: [True] * 4}[points]
        n = 20_000
        f = prior_function_draws(cfg, x, n, GaussianStream(5, 0))[:, :, 0]
        k = nngp_kernel(cfg, x, x)
        # Four root-mean-square errors of rel_frobenius at n draws, the
        # criterion-2 bound of bench/METRICS.md.
        fro2 = float(np.sum(k ** 2))
        bound = 4.0 * math.sqrt((fro2 + float(np.trace(k)) ** 2) / (n - 1) / fro2)
        assert rel_frobenius(np.atleast_2d(np.cov(f.T)), k) < bound

    def test_draw_starts_with_the_first_layers_weights_and_bias(self):
        # Layer 1 at 1-D inputs on 3 points takes its weights W, then its
        # biases b, so f = sigma_w * W x + sigma_b * b; the output layer
        # (fan-in 4) takes its 3 values' normals.
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=4)
        x = np.array([[0.5], [-0.25], [2.0]])
        assert network.normals_per_draw(cfg, 3) == 4 * 2 + 1 * 3
        row = GaussianStream(3, 1).normal(11)[None]
        layers = list(network.sample_layers(cfg, x, network.layer_normals(row, cfg, 3)))
        w, b = row[0, :4].reshape(4, 1), row[0, 4:8].reshape(4, 1)
        want = cfg.sigma_w * w * x.T + cfg.sigma_b * b
        np.testing.assert_allclose(layers[0][0], want, rtol=1e-14, atol=1e-14)
        draw = prior_function_draws(cfg, x, 1, GaussianStream(3, 1))
        assert np.array_equal(draw[0], layers[-1][0].T)

    @staticmethod
    def set_batch(monkeypatch, cfg, x, size):
        """Make prior_function_draws take ``size`` draws per batch at ``x``."""
        monkeypatch.setattr(network, "BATCH_FLOATS", size * cfg.hidden_width * len(x))

    @pytest.mark.parametrize("cores", [1, 2])
    def test_repeated_calls_with_a_short_last_batch_are_identical(self, monkeypatch, cores):
        # 23 draws in batches of 5: the last batch of 3 reuses the batch
        # arrays of its thread, and must not read what earlier batches left.
        monkeypatch.setattr(network, "_available_cores", lambda: cores)
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=2, hidden_width=30)
        x = np.linspace(-1.0, 1.0, 6)[:, None]
        self.set_batch(monkeypatch, cfg, x, 5)
        runs = [prior_function_draws(cfg, x, 23, GaussianStream(9, 4)).tobytes()
                for _ in range(3)]
        self.set_batch(monkeypatch, cfg, x, 1)
        single = prior_function_draws(cfg, x, 23, GaussianStream(9, 4))
        assert runs[0] == runs[1] == runs[2] == single.tobytes()

    def test_deterministic_for_fixed_batch_size(self, monkeypatch):
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=2, hidden_width=4)
        x = np.array([[0.5], [-0.25]])
        self.set_batch(monkeypatch, cfg, x, 7)
        a = prior_function_draws(cfg, x, 50, GaussianStream(1, 0))
        b = prior_function_draws(cfg, x, 50, GaussianStream(1, 0))
        assert np.array_equal(a, b)
        assert a.shape == (50, 2, 2)

    def test_identical_across_worker_counts(self, monkeypatch):
        # 50 draws in batches of 7: the last batch holds a single draw.
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=2, hidden_width=4)
        x = np.array([[0.5], [-0.25], [1.0]])
        self.set_batch(monkeypatch, cfg, x, 7)

        def run():
            return prior_function_draws(cfg, x, 50, GaussianStream(1, 0)).tobytes()

        default = run()
        draws = []
        for cores in (1, 2):
            monkeypatch.setattr(network, "_available_cores", lambda: cores)
            draws.append(run())
        assert draws[0] == draws[1] == default
        a = np.frombuffer(default).reshape(50, 3, 2)
        assert not np.array_equal(a[:7], a[7:14])  # batches use distinct substreams

    def test_stream_moves_past_its_batches(self, monkeypatch):
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=4)
        x = np.array([[0.5], [-0.25]])
        self.set_batch(monkeypatch, cfg, x, 4)
        s = GaussianStream(3, 0)
        first = prior_function_draws(cfg, x, 10, s)
        second = prior_function_draws(cfg, x, 10, s)
        assert not np.any(np.isin(second, first))

    def test_worker_failure_reaches_caller(self, monkeypatch):
        # A batched factorisation that fails on its fifth call, inside a worker.
        real = np.linalg.cholesky
        calls = []
        lock = threading.Lock()

        def failing(a):
            if np.ndim(a) == 3:
                with lock:
                    calls.append(1)
                    if len(calls) == 5:
                        raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        monkeypatch.setattr(network, "_available_cores", lambda: 2)
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=4)
        x = np.array([[0.5], [-0.25]])
        self.set_batch(monkeypatch, cfg, x, 2)
        with pytest.raises(NotPositiveDefinite):
            prior_function_draws(cfg, x, 40, GaussianStream(1, 0))

    def _record_pools_and_batches(self, monkeypatch, cores):
        pools, batches = [], []
        real_pool = concurrent.futures.ThreadPoolExecutor
        real_layers = network.sample_layers

        def recording_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        def recording_layers(*args, **kw):
            batches.append(1)
            return real_layers(*args, **kw)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(network, "sample_layers", recording_layers)
        monkeypatch.setattr(network, "_available_cores", lambda: cores)
        return pools, batches

    @pytest.mark.parametrize("cores", [2, 64])
    def test_default_batches_run_on_every_core(self, monkeypatch, cores):
        # 100 draws at width 1000 on 10 points: default batches of 13 draws.
        pools, batches = self._record_pools_and_batches(monkeypatch, cores)
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=1000)
        x = np.linspace(-1.0, 1.0, 10)[:, None]
        draws = prior_function_draws(cfg, x, 100, GaussianStream(4, 0))
        assert len(batches) == 8
        assert pools == [min(cores, 8)]
        self.set_batch(monkeypatch, cfg, x, 13)
        assert np.array_equal(draws, prior_function_draws(cfg, x, 100, GaussianStream(4, 0)))

    def test_default_batches_identical_across_core_counts(self, monkeypatch):
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=1000)
        x = np.linspace(-1.0, 1.0, 10)[:, None]
        draws = []
        for cores in (1, 2, 64):
            monkeypatch.setattr(network, "_available_cores", lambda: cores)
            draws.append(prior_function_draws(cfg, x, 100, GaussianStream(4, 0)).tobytes())
        assert draws[0] == draws[1] == draws[2]

    def test_one_batch_call_makes_no_pool(self, monkeypatch):
        pools, batches = self._record_pools_and_batches(monkeypatch, 64)
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=1000)
        x = np.linspace(-1.0, 1.0, 10)[:, None]
        prior_function_draws(cfg, x, 13, GaussianStream(4, 0))
        assert batches == [1] and pools == []

    def test_identical_across_batch_sizes_and_core_counts(self, monkeypatch):
        # Default batches hold 13 draws at width 1000 on 10 points.
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=1000)
        x = np.linspace(-1.0, 1.0, 10)[:, None]
        draws = set()
        for cores in (1, 2, 64):
            monkeypatch.setattr(network, "_available_cores", lambda: cores)
            for batch_size in (1, 7, 13, None):
                if batch_size is None:
                    monkeypatch.setattr(network, "BATCH_FLOATS", BATCH_FLOATS)
                else:
                    self.set_batch(monkeypatch, cfg, x, batch_size)
                draws.add(prior_function_draws(cfg, x, 30, GaussianStream(4, 2)).tobytes())
        assert len(draws) == 1

    def test_wide_output_batches_hold_the_widest_layer_within_budget(self):
        # Width 1 and 100 outputs on 10 points: a batch is sized by the output
        # layer, 131 draws, so besides the 160 MB result each thread holds
        # about 2 MB of layer values, not two layers of 13,107 draws.
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=100, hidden_width=1)
        x = np.linspace(-1.0, 1.0, 10)[:, None]
        tracemalloc.start()
        try:
            draws = prior_function_draws(cfg, x, 20_000, GaussianStream(0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draws.shape == (20_000, 10, 100)
        assert peak - draws.nbytes < 16 * BATCH_FLOATS * 8

    def test_draw_i_takes_substream_i(self):
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=4)
        x = np.array([[0.5], [-0.25]])
        s = GaussianStream(3, 7)
        draws = prior_function_draws(cfg, x, 5, s)
        assert s.fresh_substream() == 5
        one = GaussianStream(3, 7)
        one.rekey(7, substream=3)
        assert np.array_equal(draws[3:4], prior_function_draws(cfg, x, 1, one))
        assert np.array_equal(prior_function_draws(cfg, x, 2, s),
                              prior_function_draws(cfg, x, 7, GaussianStream(3, 7))[5:])

    def test_at_most_two_batches_per_worker_are_submitted_ahead(self, monkeypatch):
        state = {"submitted": 0, "consumed": 0, "most": 0}

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                state["submitted"] += 1
                state["most"] = max(state["most"], state["submitted"] - state["consumed"])
                future = super().submit(fn, *args, **kwargs)
                result = future.result

                def consume(*a, **kw):
                    state["consumed"] += 1
                    return result(*a, **kw)

                future.result = consume
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(network, "_available_cores", lambda: 2)
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=4)
        x = np.array([[0.5], [-0.25]])
        self.set_batch(monkeypatch, cfg, x, 1)
        prior_function_draws(cfg, x, 40, GaussianStream(1, 0))
        assert state["submitted"] == 40
        assert state["most"] <= 2 * 2

    @pytest.mark.parametrize("n_draws", [-1, 2.5, True, np.float64(3.0)])
    def test_n_draws_must_be_a_nonnegative_integer(self, n_draws):
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=4)
        with pytest.raises(ValueError, match="n_draws must be an integer >= 0"):
            prior_function_draws(cfg, np.array([[0.5]]), n_draws, GaussianStream(1, 0))

    def test_depth_zero_exact_cov(self):
        cfg = NetworkConfig(depth=0, input_dim=2, output_dim=1, hidden_width=1,
                            sigma_w=1.0, sigma_b=0.2, nonlinearity="identity")
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        draws = prior_function_draws(cfg, x, 100_000, GaussianStream(8, 0))[:, :, 0]
        want = layer_cov(x.T, 2, 1.0, 0.2)
        got = draws.T @ draws / draws.shape[0]
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.05
