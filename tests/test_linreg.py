import dataclasses
import threading

import numpy as np
import pytest

from widebnn import metrics
from widebnn.errors import DimensionMismatch, RouteMismatch
from widebnn.linreg import (
    LinRegProblem,
    fit_loglog_slope,
    linreg_posterior,
    linreg_predictive,
    ntk_rescale,
    rate_sweep,
    uniform_design_rule,
)
from widebnn.metrics import GaussianDist, kl_gaussian, w2_gaussian, w2_kl_gaussian
from widebnn.numkit import GaussianStream


def toy_problem(m=5, n=12, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    return LinRegProblem(x, y)


class TestProblem:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            LinRegProblem(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            LinRegProblem(np.zeros((2, 0)), np.zeros(2))

    def test_empty_rows_allowed(self):
        prob = LinRegProblem(np.zeros((0, 4)), np.zeros(0))
        assert prob.m == 0 and prob.n == 4


class TestPosterior:
    def test_methods_agree(self):
        prob = toy_problem()
        direct = linreg_posterior(prob, method="direct")
        woodbury = linreg_posterior(prob, method="woodbury")
        assert np.allclose(direct.mean, woodbury.mean)
        assert np.allclose(direct.cov, woodbury.cov, atol=1e-12)

    def test_textbook_form(self):
        # Sigma_n = (n I + X^T X)^{-1}, mu_n = Sigma_n X^T y.
        prob = toy_problem(seed=1)
        post = linreg_posterior(prob)
        cov = np.linalg.inv(prob.n * np.eye(prob.n) + prob.X.T @ prob.X)
        assert np.allclose(post.cov, cov, atol=1e-12)
        assert np.allclose(post.mean, cov @ prob.X.T @ prob.y)

    def test_no_data_returns_prior(self):
        prob = LinRegProblem(np.zeros((0, 6)), np.zeros(0))
        post = linreg_posterior(prob)
        assert np.allclose(post.mean, 0.0)
        assert np.allclose(post.cov, np.eye(6) / 6)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            linreg_posterior(toy_problem(), method="svd")


class TestNtkRescale:
    def test_kl_invariant_w2_scales(self):
        prob = toy_problem(m=4, n=9, seed=2)
        post = linreg_posterior(prob)
        prior = GaussianDist(np.zeros(9), np.eye(9) / 9)
        scaled_post = ntk_rescale(post, 9)
        scaled_prior = GaussianDist(np.zeros(9), np.eye(9))
        assert np.isclose(kl_gaussian(post, prior),
                          kl_gaussian(scaled_post, scaled_prior), rtol=1e-10)
        assert np.isclose(9 * w2_gaussian(post, prior),
                          w2_gaussian(scaled_post, scaled_prior), rtol=1e-10)

    def test_dimension_check(self):
        post = linreg_posterior(toy_problem(n=12))
        with pytest.raises(DimensionMismatch):
            ntk_rescale(post, 5)


class TestPredictive:
    def test_monte_carlo_consistency(self):
        # Predictive of f(x) = x^T w must equal the pushforward of the
        # weight posterior through x.
        prob = toy_problem(m=3, n=4, seed=3)
        s2 = 0.3
        t = np.random.default_rng(4).standard_normal((6, 4))
        pred = linreg_predictive(prob, s2, t, alpha=1.0)
        # Direct weight-space posterior with noise s2 and prior (1/n) I.
        prec = prob.n * np.eye(4) + prob.X.T @ prob.X / s2
        cov_w = np.linalg.inv(prec)
        mu_w = cov_w @ prob.X.T @ prob.y / s2
        assert np.allclose(pred.mean, t @ mu_w)
        assert np.allclose(pred.cov, t @ cov_w @ t.T, atol=1e-12)

    def test_prior_predictive_when_no_data(self):
        prob = LinRegProblem(np.zeros((0, 3)), np.zeros(0))
        t = np.eye(3)
        pred = linreg_predictive(prob, 0.1, t, alpha=1.0)
        assert np.allclose(pred.cov, np.eye(3) / 3)
        assert np.allclose(pred.mean, 0.0)


class TestRateSweep:
    def test_rows_and_identities(self):
        rows = rate_sweep([16, 32, 64, 128], m=8, seed=0)
        assert [r.n for r in rows] == [16, 32, 64, 128]
        for r in rows:
            # Rescaling identities (also enforced internally by dual checks).
            assert np.isclose(r.kl_ntk, r.kl, rtol=1e-8)
            assert np.isclose(r.w2_ntk_sq, r.n * r.w2_sq, rtol=1e-8)
            assert r.w2_sq > 0 and r.kl > 0

    def test_w2_shrinks_kl_persists(self):
        rows = rate_sweep([16, 64, 256, 1024, 4096], m=8, seed=1)
        w2 = [r.w2_sq for r in rows]
        assert all(a > b for a, b in zip(w2, w2[1:]))
        # n ||mu_n||^2 stays order one: within a factor of 2 over the top rows.
        tail = [r.n_mu_norm_sq for r in rows[-3:]]
        assert max(tail) / min(tail) < 2.0

    def test_rows_do_not_depend_on_the_core_count(self, monkeypatch):
        # The general route's factors, and then its W2 and KL, run on
        # min(cores, 2) threads; every row field comes from the spectral
        # route, so rows compare equal.
        real_map, workers, rows = metrics.ordered_map, [], {}

        def spy(fn, items, n):
            workers.append(n)
            return real_map(fn, items, n)

        monkeypatch.setattr(metrics, "ordered_map", spy)
        for cores in (1, 2, 8):
            monkeypatch.setattr(metrics, "available_cores", lambda: cores)
            rows[cores] = rate_sweep([16, 64, 256, 1024, 2048], m=8, seed=3)
        assert rows[1] == rows[2] == rows[8]
        # Two steps at each of the four n <= 1024, each time.
        assert workers == [1] * 8 + [2] * 8 + [2] * 8

    def test_wrong_general_route_raises_from_a_worker_thread(self, monkeypatch):
        real, threads = metrics._kl, []

        def wrong(*args):
            threads.append(threading.get_ident())
            return real(*args) + 1.0

        monkeypatch.setattr(metrics, "_kl", wrong)
        monkeypatch.setattr(metrics, "available_cores", lambda: 2)
        with pytest.raises(RouteMismatch, match=r"^kl: spectral route"):
            rate_sweep([16, 32], m=4, seed=1)
        assert threads and threading.get_ident() not in threads

    @pytest.mark.parametrize("n", [16, 128, 1024])
    def test_rescaled_pair_follows_from_the_first(self, n):
        # The dual check computes (posterior, prior) and carries it to
        # (rescaled posterior, N(0, I)) by x -> sqrt(n) x: W2^2 times n, the
        # same KL. Here the rescaled pair is computed in full.
        x = uniform_design_rule(8, n, GaussianStream(0, 2))
        post = linreg_posterior(LinRegProblem(x, GaussianStream(0, 1).normal(8)))
        w2, kl = w2_kl_gaussian(post, GaussianDist(np.zeros(n), np.eye(n) / n))
        w2_ntk, kl_ntk = w2_kl_gaussian(ntk_rescale(post, n),
                                        GaussianDist(np.zeros(n), np.eye(n)))
        assert abs(w2_ntk - n * w2) <= 1e-10 * n * w2
        assert abs(kl_ntk - kl) <= 1e-10 * kl
        (row,) = rate_sweep([n], m=8, seed=0)  # the same design and targets
        assert abs(row.w2_ntk_sq - w2_ntk) <= 1e-8 * row.w2_ntk_sq
        assert abs(row.kl_ntk - kl_ntk) <= 1e-8 * row.kl_ntk

    def test_row_fields_are_python_numbers(self):
        for row in rate_sweep([16, 64, 2048], m=4, seed=2):
            assert type(row.n) is int
            assert all(type(getattr(row, f.name)) is float
                       for f in dataclasses.fields(row) if f.name != "n")

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rate_sweep([32, 16], m=8)
        with pytest.raises(ValueError):
            rate_sweep([4], m=8)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer in"):
            rate_sweep([16, 32], m=4, seed=seed)

    def test_trace_term_bounds_with_extreme_eigenvalues(self):
        # trace_term = sum_i g(lambda_i / n) / n with g increasing, so the
        # per-eigenvalue envelope uses lambda_max above and lambda_min below:
        # (m/n) g(lambda_min/n) <= trace_term <= (m/n) g(lambda_max/n).
        rng = np.random.default_rng(5)
        for _ in range(10):
            m, n = 6, 64
            x = rng.standard_normal((m, n))
            lam = np.linalg.eigvalsh(x @ x.T)
            g = lambda k: (1.0 - (1.0 + k) ** -0.5) ** 2  # noqa: E731
            trace_term = np.sum(g(lam / n)) / n
            assert trace_term <= (m / n) * g(lam.max() / n) + 1e-15
            assert trace_term >= (m / n) * g(lam.min() / n) - 1e-15

    def test_reported_lambda_min_bound_is_a_lower_bound(self):
        # The RateRow.trace_bound field uses lambda_min, which bounds the
        # trace term from below, not above, for any non-degenerate spectrum.
        rows = rate_sweep([16, 64, 256], m=8, seed=2)
        for r in rows:
            assert r.trace_bound <= r.trace_term + 1e-15


class TestSlopeFit:
    def test_exact_power_law(self):
        ns = [16, 32, 64, 128, 256, 512]
        vals = [3.0 * n ** -0.5 for n in ns]
        assert np.isclose(fit_loglog_slope(ns, vals), -0.5)

    def test_discard_requires_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([16, 32, 64], [1, 2, 3], discard=2)


class TestDesignRule:
    def test_uniform_range_and_determinism(self):
        x1 = uniform_design_rule(4, 100, GaussianStream(0, 2))
        x2 = uniform_design_rule(4, 100, GaussianStream(0, 2))
        assert np.array_equal(x1, x2)
        assert x1.shape == (4, 100)
        assert x1.min() >= -1.0 and x1.max() <= 1.0
        assert abs(x1.mean()) < 0.1
