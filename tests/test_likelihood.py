import numpy as np
import pytest

from widebnn.errors import DimensionMismatch, MalformedTarget
from widebnn.likelihood import (
    LikelihoodSpec,
    categorical_likelihood,
    categorical_log_likelihood,
    gaussian_likelihood,
    gaussian_log_likelihood,
    log_likelihood,
    log_likelihood_batch,
)


class TestSpec:
    def test_gaussian_requires_sigma2(self):
        with pytest.raises(ValueError):
            LikelihoodSpec("gaussian")
        with pytest.raises(ValueError):
            LikelihoodSpec("gaussian", sigma2=0.0)

    def test_categorical_requires_classes(self):
        with pytest.raises(ValueError):
            LikelihoodSpec("categorical", num_classes=1)
        LikelihoodSpec("categorical", num_classes=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LikelihoodSpec("poisson", sigma2=1.0)


class TestGaussian:
    def test_perfect_fit_is_one(self):
        y = np.array([[1.0], [2.0]])
        assert gaussian_likelihood(y, y, 0.3) == 1.0

    def test_value(self):
        out = np.array([[1.0], [0.0]])
        tgt = np.array([[0.0], [0.0]])
        assert np.isclose(gaussian_log_likelihood(out, tgt, 0.5), -1.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = rng.standard_normal((4, 2))
            tgt = rng.standard_normal((4, 2))
            assert 0.0 < gaussian_likelihood(out, tgt, 0.7) <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gaussian_log_likelihood(np.zeros((2, 1)), np.zeros((3, 1)), 1.0)

    def test_no_underflow_in_log_space(self):
        out = np.full((5, 1), 100.0)
        tgt = np.zeros((5, 1))
        ll = gaussian_log_likelihood(out, tgt, 0.01)
        assert np.isfinite(ll) and ll < -1e6


class TestCategorical:
    def test_uniform_logits(self):
        logits = np.zeros((2, 4))
        onehot = np.eye(4)[:2]
        assert np.isclose(categorical_likelihood(logits, onehot), 0.25 ** 2)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        onehot = np.eye(3)[rng.integers(0, 3, size=6)]
        for _ in range(20):
            logits = rng.standard_normal((6, 3)) * 5
            assert 0.0 < categorical_likelihood(logits, onehot) <= 1.0

    def test_rejects_malformed_targets(self):
        logits = np.zeros((2, 3))
        with pytest.raises(MalformedTarget):
            categorical_log_likelihood(logits, np.full((2, 3), 0.5))
        with pytest.raises(MalformedTarget):
            categorical_log_likelihood(logits, np.ones((2, 3)))

    def test_extreme_logits_stable(self):
        logits = np.array([[1000.0, -1000.0, 0.0]])
        onehot = np.array([[1.0, 0.0, 0.0]])
        assert np.isclose(categorical_log_likelihood(logits, onehot), 0.0)


class TestBatch:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(2)
        spec = LikelihoodSpec("gaussian", sigma2=0.4)
        outs = rng.standard_normal((7, 3, 2))
        tgt = rng.standard_normal((3, 2))
        batch = log_likelihood_batch(spec, outs, tgt)
        for b in range(7):
            assert np.isclose(batch[b], log_likelihood(spec, outs[b], tgt))

    def test_categorical_batch(self):
        rng = np.random.default_rng(3)
        spec = LikelihoodSpec("categorical", num_classes=3)
        outs = rng.standard_normal((5, 4, 3))
        tgt = np.eye(3)[rng.integers(0, 3, size=4)]
        batch = log_likelihood_batch(spec, outs, tgt)
        for b in range(5):
            assert np.isclose(batch[b], log_likelihood(spec, outs[b], tgt))

    def test_empty_training_set_is_log_one(self):
        spec = LikelihoodSpec("gaussian", sigma2=1.0)
        out = log_likelihood_batch(spec, np.zeros((6, 0, 1)), np.zeros((0, 1)))
        assert np.array_equal(out, np.zeros(6))

    def test_one_output_set_must_be_a_matrix(self):
        spec = LikelihoodSpec("gaussian", sigma2=1.0)
        with pytest.raises(DimensionMismatch):
            log_likelihood(spec, np.zeros(3), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            log_likelihood_batch(spec, np.zeros((2, 3)), np.zeros(3))
