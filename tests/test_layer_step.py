import numpy as np
import pytest

from widebnn.network import NetworkConfig, layer_cov, layer_step, nonlinearity_fn


def rel_err(f, want):
    """Per batch member: || f^T f - want ||_F / || want ||_F."""
    got = np.swapaxes(f, -1, -2) @ f
    return np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))


@pytest.mark.parametrize("nonlinearity", ["erf", "relu"])
def test_identity_normals_give_a_factor_of_the_layer_covariance(nonlinearity):
    # With e = I the draw e @ L.T is L.T, so f^T f is the covariance the step
    # samples from. Conditioning the eval draw on the train draw must give
    # the joint covariance over train + eval points.
    cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=12,
                        nonlinearity=nonlinearity)
    k, m, d = 3, 4, 12
    rng = np.random.default_rng(7)
    g = nonlinearity_fn(nonlinearity)(rng.standard_normal((2, d, k + m)))
    g_x, g_t = g[..., :k], g[..., k:]
    eye = np.broadcast_to(np.eye(k + m), (2, k + m, k + m))

    f_x = layer_step(cfg, g_x, eye[..., :k])
    f_t = layer_step(cfg, g_t, eye[..., k:], (g_x, f_x))
    joint = np.concatenate([f_x, f_t], axis=-1)
    want = layer_cov(g, d, cfg.sigma_w, cfg.sigma_b)
    assert np.all(rel_err(joint, want) < 1e-10)

    alone = layer_step(cfg, g_t, eye[..., :m, :m])
    assert np.all(rel_err(alone, layer_cov(g_t, d, cfg.sigma_w, cfg.sigma_b)) < 1e-10)


@pytest.mark.parametrize("nonlinearity", ["erf", "relu"])
def test_conditioning_on_one_point_matches_the_cholesky_solve(nonlinearity):
    # One conditioning point (a screened proposal's stage 2) takes the
    # scalar solve; it must give the joint covariance and cho_solve's draw.
    import scipy.linalg

    from widebnn.numkit import chol_batch

    cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=12,
                        nonlinearity=nonlinearity)
    m, d = 3, 12
    rng = np.random.default_rng(11)
    g = nonlinearity_fn(nonlinearity)(rng.standard_normal((5, d, 1 + m)))
    g_x, g_t = g[..., :1], g[..., 1:]
    eye = np.broadcast_to(np.eye(1 + m), (5, 1 + m, 1 + m))
    f_x = layer_step(cfg, g_x, eye[..., :1])
    f_t = layer_step(cfg, g_t, eye[..., 1:], (g_x, f_x))
    want = layer_cov(g, d, cfg.sigma_w, cfg.sigma_b)
    assert np.all(rel_err(np.concatenate([f_x, f_t], axis=-1), want) < 1e-10)

    e = rng.standard_normal((5, 4, m))
    f_x = rng.standard_normal((5, 4, 1))
    c = layer_cov(g, d, cfg.sigma_w, cfg.sigma_b)
    a_mat = np.stack([scipy.linalg.cho_solve((chol_batch(c[i, :1, :1]), True), c[i, :1, 1:])
                      for i in range(5)])
    schur = c[:, 1:, 1:] - np.swapaxes(c[:, :1, 1:], -1, -2) @ a_mat
    expected = f_x @ a_mat + e @ np.swapaxes(chol_batch(schur), -1, -2)
    np.testing.assert_allclose(layer_step(cfg, g_t, e, (g_x, f_x)), expected,
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("batch,units", [(1, 1), (1, 1000), (7, 3), (64, 1000), (333, 1),
                                         (333, 17)])
def test_one_point_products_equal_the_matmul(batch, units):
    # A draw at one point (e @ L.T) and a conditioning on one point (f_x @ A)
    # have an inner dimension of 1; layer_step takes them as broadcast
    # products, which must give the matmul's bits.
    from widebnn.numkit import chol_batch

    cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=12)
    sw, sb, d, t = cfg.sigma_w, cfg.sigma_b, 12, 3
    rng = np.random.default_rng(batch * 1000 + units)
    g = nonlinearity_fn("erf")(3.0 * rng.standard_normal((batch, d, 1 + t)))
    g_x, g_t = g[..., :1], g[..., 1:]
    e_x = rng.standard_normal((batch, units, 1))
    l_xx = chol_batch(layer_cov(g_x, d, sw, sb))
    want = e_x @ np.swapaxes(l_xx, -1, -2)
    assert np.array_equal(layer_step(cfg, g_x, e_x), want)
    out = np.empty_like(want)
    assert layer_step(cfg, g_x, e_x, out=out) is out and np.array_equal(out, want)
    # Inputs every draw shares (a first layer) broadcast the same way.
    x = g_x[0]
    assert np.array_equal(layer_step(cfg, x, e_x),
                          e_x @ np.swapaxes(chol_batch(layer_cov(x, d, sw, sb)), -1, -2))

    f_x = rng.standard_normal((batch, units, 1))
    e_t = rng.standard_normal((batch, units, t))
    c_xt = (sw ** 2 / d) * (np.swapaxes(g_x, -1, -2) @ g_t) + sb ** 2
    inv = 1.0 / l_xx
    a_mat = c_xt * inv * inv
    schur = layer_cov(g_t, d, sw, sb) - np.swapaxes(c_xt, -1, -2) @ a_mat
    want = f_x @ a_mat + e_t @ np.swapaxes(chol_batch(schur), -1, -2)
    assert np.array_equal(layer_step(cfg, g_t, e_t, (g_x, f_x)), want)


@pytest.mark.parametrize("k,t", [(2, 1), (3, 1), (3, 4)])
def test_conditioning_on_several_points_solves_with_the_drawing_factor(k, t, monkeypatch):
    # On two or more conditioning points A = C_xx^-1 C_xt comes from batched
    # numpy.linalg solves with the chol_batch factor of C_xx, the jittered
    # matrix that drew f_x: it matches scipy's cho_solve with that factor to
    # rounding, and scipy's GIL-holding wrapper is not called.
    import scipy.linalg

    from widebnn.numkit import chol_batch

    cfg = NetworkConfig(depth=1, input_dim=1, output_dim=1, hidden_width=12)
    sw, sb, d, b = cfg.sigma_w, cfg.sigma_b, 12, 6
    rng = np.random.default_rng(100 * k + t)
    g = nonlinearity_fn("erf")(rng.standard_normal((b, d, k + t)))
    g_x, g_t = g[..., :k], g[..., k:]
    f_x, e = rng.standard_normal((b, 5, k)), rng.standard_normal((b, 5, t))
    c = layer_cov(g, d, sw, sb)
    l_xx = chol_batch(c[:, :k, :k])
    a_mat = np.stack([scipy.linalg.cho_solve((l_xx[i], True), c[i, :k, k:]) for i in range(b)])
    schur = c[:, k:, k:] - np.swapaxes(c[:, :k, k:], -1, -2) @ a_mat
    want = f_x @ a_mat + e @ np.swapaxes(chol_batch(schur), -1, -2)

    def refuse(*args, **kwargs):
        raise AssertionError("cho_solve called")

    monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)
    np.testing.assert_allclose(layer_step(cfg, g_t, e, (g_x, f_x)), want, rtol=1e-10, atol=1e-12)
