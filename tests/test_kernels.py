import numpy as np
import pytest

from widebnn.errors import DimensionMismatch
from widebnn.kernels import (
    ew_cov,
    ew_dcov,
    gp_posterior,
    nngp_kernel,
    ntk_kernel,
    ntk_posterior,
)
from widebnn.network import NetworkConfig, prior_function_draws
from widebnn.numkit import GaussianStream


def mc_moments(nonlinearity, a, b, c, n=400_000, seed=0):
    """Monte Carlo oracle for E[phi(u)phi(v)] and E[phi'(u)phi'(v)]."""
    rng = np.random.default_rng(seed)
    cov = np.array([[a, c], [c, b]])
    uv = rng.multivariate_normal([0.0, 0.0], cov, size=n)
    u, v = uv[:, 0], uv[:, 1]
    if nonlinearity == "erf":
        from scipy.special import erf

        pu, pv = erf(u), erf(v)
        du = 2.0 / np.sqrt(np.pi) * np.exp(-u * u)
        dv = 2.0 / np.sqrt(np.pi) * np.exp(-v * v)
    else:  # relu
        pu, pv = np.maximum(u, 0.0), np.maximum(v, 0.0)
        du, dv = (u > 0).astype(float), (v > 0).astype(float)
    return float(np.mean(pu * pv)), float(np.mean(du * dv))


def random_moment_triple(rng):
    low = rng.uniform(0.3, 1.5, size=(2, 2))
    cov = low @ low.T + 0.1 * np.eye(2)
    return cov[0, 0], cov[1, 1], cov[0, 1]


class TestClosedForms:
    @pytest.mark.parametrize("nonlinearity", ["erf", "relu"])
    def test_against_monte_carlo(self, nonlinearity):
        rng = np.random.default_rng(12)
        for trial in range(4):
            a, b, c = random_moment_triple(rng)
            mc_phi, mc_dphi = mc_moments(nonlinearity, a, b, c, seed=trial)
            assert np.isclose(ew_cov(nonlinearity, a, b, c), mc_phi, rtol=0.02, atol=0.01)
            assert np.isclose(ew_dcov(nonlinearity, a, b, c), mc_dphi, rtol=0.02, atol=0.01)

    def test_identity(self):
        assert ew_cov("identity", 1.0, 2.0, 0.5) == 0.5
        assert ew_dcov("identity", 1.0, 2.0, 0.5) == 1.0

    def test_erf_diagonal_special_case(self):
        # E[erf(u)^2] = (2/pi) arcsin(2a / (1+2a)).
        a = 0.8
        want = (2.0 / np.pi) * np.arcsin(2 * a / (1 + 2 * a))
        assert np.isclose(ew_cov("erf", a, a, a), want)

    def test_relu_diagonal_special_case(self):
        # E[relu(u)^2] = a/2 and E[relu'(u)^2] = 1/2.
        a = 1.7
        assert np.isclose(ew_cov("relu", a, a, a), a / 2.0)
        assert np.isclose(ew_dcov("relu", a, a, a), 0.5)

    def test_broadcasting(self):
        a = np.array([0.5, 1.0])
        out = ew_cov("erf", a[:, None], a[None, :], np.full((2, 2), 0.2))
        assert out.shape == (2, 2)


class TestNngpKernel:
    def test_depth_zero_is_affine_kernel(self):
        cfg = NetworkConfig(depth=0, input_dim=2, output_dim=1, hidden_width=1,
                            sigma_w=1.3, sigma_b=0.4)
        x = np.array([[1.0, 0.0], [0.5, -2.0]])
        k = nngp_kernel(cfg, x, x)
        want = 0.4 ** 2 + (1.3 ** 2 / 2) * (x @ x.T)
        assert np.allclose(k, want)

    def test_symmetry_and_psd(self):
        cfg = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=1)
        x = np.linspace(-2, 2, 7)[:, None]
        k = nngp_kernel(cfg, x, x)
        assert np.allclose(k, k.T)
        assert np.linalg.eigvalsh(k).min() > -1e-10

    def test_matches_wide_network_prior(self):
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=2000,
                            nonlinearity="relu")
        x = np.array([[-1.0], [0.3], [2.0]])
        k = nngp_kernel(cfg, x, x)
        draws = prior_function_draws(cfg, x, 20_000, GaussianStream(4, 0))[:, :, 0]
        emp = draws.T @ draws / draws.shape[0]
        assert np.linalg.norm(emp - k) / np.linalg.norm(k) < 0.05

    def test_input_dim_check(self):
        cfg = NetworkConfig(depth=1, input_dim=2, output_dim=1, hidden_width=3)
        with pytest.raises(DimensionMismatch):
            nngp_kernel(cfg, np.zeros((2, 3)), np.zeros((2, 3)))


class TestNtkKernel:
    def test_depth_zero_theta_equals_k(self):
        cfg = NetworkConfig(depth=0, input_dim=1, output_dim=1, hidden_width=1)
        x = np.array([[0.2], [1.1]])
        pair = ntk_kernel(cfg, x, x)
        assert np.allclose(pair.Theta, pair.K)

    def test_theta_dominates_k_on_diagonal(self):
        cfg = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=1)
        x = np.linspace(-1, 1, 5)[:, None]
        pair = ntk_kernel(cfg, x, x)
        assert np.all(np.diag(pair.Theta) >= np.diag(pair.K) - 1e-12)

    def test_identity_network_recursion(self):
        # With identity activations Kdot = 1, so Theta^{l+1} = K^{l+1} + sw2 Theta^l.
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=1,
                            sigma_w=0.9, sigma_b=0.1, nonlinearity="identity")
        x = np.array([[0.7], [-0.4]])
        sw2, sb2 = 0.9 ** 2, 0.1 ** 2
        k1 = sb2 + sw2 * (x @ x.T)
        k2 = sb2 + sw2 * k1
        k3 = sb2 + sw2 * k2
        theta = k3 + sw2 * (k2 + sw2 * k1)
        pair = ntk_kernel(cfg, x, x)
        assert np.allclose(pair.K, k3)
        assert np.allclose(pair.Theta, theta)


def test_nngp_is_the_ntk_recursions_k():
    rng = np.random.default_rng(7)
    point_sets = [(rng.standard_normal((5, 2)), rng.standard_normal((3, 2))),
                  (np.linspace(-3.0, 3.0, 8).reshape(4, 2), np.eye(2))]
    for nonlinearity in ("erf", "relu", "identity"):
        for depth in range(4):
            cfg = NetworkConfig(depth=depth, input_dim=2, output_dim=1, hidden_width=1,
                                nonlinearity=nonlinearity)
            for x1, x2 in point_sets:
                assert np.array_equal(nngp_kernel(cfg, x1, x2), ntk_kernel(cfg, x1, x2).K)


class TestGpPosterior:
    def k_fn(self, a, b):
        return np.exp(-0.5 * (a[:, None, 0] - b[None, :, 0]) ** 2)

    def test_interpolates_as_noise_vanishes(self):
        tx = np.array([[-1.0], [0.0], [1.0]])
        ty = np.array([[0.3], [-0.2], [0.5]])
        post = gp_posterior(self.k_fn, tx, ty, 1e-10, tx)
        assert np.allclose(post.mean, ty[:, 0], atol=1e-4)
        assert np.abs(post.cov).max() < 1e-4

    def test_empty_train_returns_prior(self):
        t = np.array([[0.0], [2.0]])
        post = gp_posterior(self.k_fn, np.zeros((0, 1)), np.zeros((0, 1)), 0.1, t)
        assert np.allclose(post.mean, 0.0)
        assert np.allclose(post.cov, self.k_fn(t, t))

    def test_manual_two_point_formula(self):
        tx = np.array([[0.0]])
        ty = np.array([[1.0]])
        t = np.array([[0.5]])
        s2 = 0.2
        post = gp_posterior(self.k_fn, tx, ty, s2, t)
        kxt = self.k_fn(t, tx)[0, 0]
        kxx = self.k_fn(tx, tx)[0, 0]
        assert np.isclose(post.mean[0], kxt / (kxx + s2))
        assert np.isclose(post.cov[0, 0], 1.0 - kxt ** 2 / (kxx + s2))

    def test_multi_output_kron(self):
        tx = np.array([[0.0], [1.0]])
        ty = np.array([[1.0, -1.0], [0.0, 2.0]])
        t = np.array([[0.5]])
        post = gp_posterior(self.k_fn, tx, ty, 0.1, t)
        assert post.mean.shape == (2,)
        assert post.cov.shape == (2, 2)
        # Output dims are independent with the same kernel.
        assert np.isclose(post.cov[0, 0], post.cov[1, 1])
        assert np.isclose(post.cov[0, 1], 0.0)


class TestNtkPosterior:
    def test_reduces_to_gp_posterior_at_depth_zero(self):
        cfg = NetworkConfig(depth=0, input_dim=1, output_dim=1, hidden_width=1)
        tx = np.array([[-0.5], [0.8]])
        ty = np.array([[0.1], [0.9]])
        t = np.linspace(-1, 1, 4)[:, None]
        ntk = ntk_posterior(cfg, tx, ty, 0.1, t)
        gp = gp_posterior(lambda a, b: nngp_kernel(cfg, a, b), tx, ty, 0.1, t)
        assert np.allclose(ntk.mean, gp.mean)
        assert np.allclose(ntk.cov, gp.cov, atol=1e-10)

    def test_interpolates_training_data(self):
        cfg = NetworkConfig(depth=2, input_dim=1, output_dim=1, hidden_width=1)
        tx = np.array([[-1.0], [0.5]])
        ty = np.array([[0.4], [-0.3]])
        post = ntk_posterior(cfg, tx, ty, 1e-10, tx)
        assert np.allclose(post.mean, ty[:, 0], atol=1e-4)

    def test_empty_train_is_nngp_prior(self):
        cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=1)
        t = np.array([[0.0], [1.0]])
        post = ntk_posterior(cfg, np.zeros((0, 1)), np.zeros((0, 1)), 0.1, t)
        assert np.allclose(post.cov, nngp_kernel(cfg, t, t), atol=1e-10)
        assert np.allclose(post.mean, 0.0)

    def test_covariance_is_psd(self):
        cfg = NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=1)
        tx = np.linspace(-2, 2, 4)[:, None]
        ty = np.sin(tx)
        t = np.linspace(-3, 3, 9)[:, None]
        post = ntk_posterior(cfg, tx, ty, 0.01, t)
        assert np.linalg.eigvalsh(post.cov).min() >= -1e-10


class TestEmptyTrainingSet:
    """Zero train rows take the general closed forms, which then give the
    prior predictive for every output."""

    CFG = NetworkConfig(depth=2, input_dim=1, output_dim=2, hidden_width=1)
    T = np.array([[-1.0], [0.3], [2.0]])
    POSTERIORS = {
        "gp": lambda cfg, *args: gp_posterior(lambda a, b: nngp_kernel(cfg, a, b), *args),
        "ntk": ntk_posterior,
    }

    @pytest.mark.parametrize("name", POSTERIORS)
    def test_multi_output_prior_is_kron_with_identity(self, name):
        post = self.POSTERIORS[name](self.CFG, np.zeros((0, 1)), np.zeros((0, 2)), 0.1, self.T)
        ktt = nngp_kernel(self.CFG, self.T, self.T)
        assert np.array_equal(post.mean, np.zeros(6))
        assert np.allclose(post.cov, np.kron(ktt, np.eye(2)), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", POSTERIORS)
    @pytest.mark.parametrize("train_rows,target_rows", [(2, 3), (0, 1)])
    def test_train_rows_must_match(self, name, train_rows, target_rows):
        with pytest.raises(DimensionMismatch, match="train_Y rows"):
            self.POSTERIORS[name](self.CFG, np.zeros((train_rows, 1)),
                                  np.zeros((target_rows, 2)), 0.1, self.T)
