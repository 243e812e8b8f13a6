import threading

import numpy as np
import pytest

from widebnn.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotPSD,
    SingularDistribution,
    ZeroReference,
)
from widebnn import metrics
from widebnn.metrics import (
    GaussianDist,
    kl_gaussian,
    rel_frobenius,
    w2_gaussian,
    w2_kl_gaussian,
)


def _eigh_sqrt(a):
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def w2_reference(p, q):
    """Squared W2 through two full eigendecompositions:
    |dmu|^2 + tr P + tr Q - 2 tr (Q^1/2 P Q^1/2)^1/2."""
    sq = _eigh_sqrt(q.cov)
    inner = _eigh_sqrt(sq @ p.cov @ sq)
    dm = p.mean - q.mean
    return dm @ dm + np.trace(p.cov) + np.trace(q.cov) - 2.0 * np.trace(inner)


def kl_reference(p, q):
    """KL(P || Q) through a dense solve and log-determinants."""
    dm = q.mean - p.mean
    trace = np.trace(np.linalg.solve(q.cov, p.cov))
    quad = dm @ np.linalg.solve(q.cov, dm)
    logdet_q = np.linalg.slogdet(q.cov)[1]
    logdet_p = np.linalg.slogdet(p.cov)[1]
    return 0.5 * (trace + quad - p.dim + logdet_q - logdet_p)


def random_pd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.1 * np.eye(n)


def random_psd(rng, n, rank):
    b = rng.standard_normal((n, rank))
    return b @ b.T / rank


def random_dist(rng, cov):
    return GaussianDist(rng.standard_normal(cov.shape[0]), cov)


def asymmetric(n):
    cov = np.eye(n)
    cov[0, 1] = 0.5
    return cov


class TestRelFrobenius:
    def test_zero_distance(self):
        a = np.arange(4.0).reshape(2, 2)
        assert rel_frobenius(a, a) == 0.0

    def test_value(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        b = np.zeros((2, 2))
        # ||a - 2I||_F / ||2I||_F
        ref = 2 * np.eye(2)
        assert np.isclose(rel_frobenius(a, ref), np.sqrt(1 + 4) / np.sqrt(8))
        with pytest.raises(ZeroReference):
            rel_frobenius(a, b)

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            rel_frobenius(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_column_vectors(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        assert np.isclose(rel_frobenius(a, b), np.sqrt(2.0))


class TestW2:
    def test_mean_shift_only(self):
        cov = np.eye(3) * 0.5
        p = GaussianDist(np.array([1.0, 0.0, -2.0]), cov)
        q = GaussianDist(np.zeros(3), cov)
        assert np.isclose(w2_gaussian(p, q), 1.0 + 4.0)

    def test_univariate_closed_form(self):
        p = GaussianDist([0.3], [[2.0]])
        q = GaussianDist([-0.1], [[0.5]])
        want = 0.4 ** 2 + (np.sqrt(2.0) - np.sqrt(0.5)) ** 2
        assert np.isclose(w2_gaussian(p, q), want)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        p = GaussianDist(rng.standard_normal(3), a @ a.T + np.eye(3))
        q = GaussianDist(rng.standard_normal(3), b @ b.T + np.eye(3))
        assert np.isclose(w2_gaussian(p, q), w2_gaussian(q, p))

    def test_point_mass_allowed(self):
        # Squared W2 between delta_0 and N(0, (1/n) I_n) is exactly 1.
        for n in (1, 10, 100):
            p = GaussianDist(np.zeros(n), np.zeros((n, n)))
            q = GaussianDist(np.zeros(n), np.eye(n) / n)
            assert abs(w2_gaussian(p, q) - 1.0) < 1e-12

    def test_commuting_covariances(self):
        d1 = np.array([1.0, 4.0])
        d2 = np.array([9.0, 1.0])
        p = GaussianDist(np.zeros(2), np.diag(d1))
        q = GaussianDist(np.zeros(2), np.diag(d2))
        want = np.sum((np.sqrt(d1) - np.sqrt(d2)) ** 2)
        assert np.isclose(w2_gaussian(p, q), want)


    @pytest.mark.parametrize("n", [1, 5, 50, 300])
    def test_random_pd_pairs_match_eigh_reference(self, n):
        rng = np.random.default_rng(n)
        p = random_dist(rng, random_pd(rng, n))
        q = random_dist(rng, random_pd(rng, n))
        want = w2_reference(p, q)
        assert abs(w2_gaussian(p, q) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("side", ["p", "q"])
    @pytest.mark.parametrize("n,rank", [(5, 1), (50, 5), (300, 30)])
    def test_rank_deficient_matches_eigh_reference(self, side, n, rank):
        rng = np.random.default_rng(10 * n + rank)
        low = random_dist(rng, random_psd(rng, n, rank))
        full = random_dist(rng, random_pd(rng, n))
        p, q = (low, full) if side == "p" else (full, low)
        want = w2_reference(p, q)
        assert abs(w2_gaussian(p, q) - want) <= 1e-7 * abs(want)

    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_point_mass_on_either_side(self, n):
        rng = np.random.default_rng(n)
        point = GaussianDist(rng.standard_normal(n), np.zeros((n, n)))
        full = random_dist(rng, random_pd(rng, n))
        dm = point.mean - full.mean
        want = dm @ dm + np.trace(full.cov)
        for p, q in [(point, full), (full, point)]:
            assert abs(w2_gaussian(p, q) - want) <= 1e-12 * want

    def test_indefinite_covariance_raises(self):
        rng = np.random.default_rng(3)
        bad = GaussianDist(np.zeros(4), np.diag([1.0, 2.0, -0.5, 1.0]))
        good = random_dist(rng, random_pd(rng, 4))
        with pytest.raises(NotPSD):
            w2_gaussian(bad, good)
        with pytest.raises(NotPSD):
            w2_gaussian(good, bad)

    def test_asymmetric_covariance_raises(self):
        bad = GaussianDist(np.zeros(3), asymmetric(3))
        good = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            w2_gaussian(bad, good)
        with pytest.raises(DimensionMismatch):
            w2_gaussian(good, bad)


class TestKL:
    def test_self_is_zero(self):
        p = GaussianDist([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        assert kl_gaussian(p, p) == 0.0

    def test_univariate_closed_form(self):
        p = GaussianDist([1.0], [[2.0]])
        q = GaussianDist([0.0], [[1.0]])
        want = 0.5 * (2.0 + 1.0 - 1.0 - np.log(2.0))
        assert np.isclose(kl_gaussian(p, q), want)

    def test_asymmetric(self):
        p = GaussianDist([0.0], [[2.0]])
        q = GaussianDist([0.0], [[0.5]])
        assert not np.isclose(kl_gaussian(p, q), kl_gaussian(q, p))

    def test_singular_p_rejected(self):
        p = GaussianDist(np.zeros(2), np.zeros((2, 2)))
        q = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(SingularDistribution):
            kl_gaussian(p, q)

    @pytest.mark.parametrize("n", [1, 5, 50, 300])
    def test_random_pd_pairs_match_dense_reference(self, n):
        rng = np.random.default_rng(n)
        p = random_dist(rng, random_pd(rng, n))
        q = random_dist(rng, random_pd(rng, n))
        want = kl_reference(p, q)
        assert abs(kl_gaussian(p, q) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("block", [1, 7, 128, 299, 300, 512])
    def test_blocked_trace_matches_dense_reference(self, block, monkeypatch):
        # n = 300 is no multiple of the default 128-column block, so its last
        # block is partial; other widths cover one column, one block and more.
        n = 300
        assert n % metrics._KL_BLOCK
        monkeypatch.setattr(metrics, "_KL_BLOCK", block)
        rng = np.random.default_rng(17)
        p = random_dist(rng, random_pd(rng, n))
        q = random_dist(rng, random_pd(rng, n))
        want = kl_reference(p, q)
        assert abs(kl_gaussian(p, q) - want) <= 1e-10 * abs(want)

    def test_asymmetric_covariance_is_not_reported_singular(self):
        bad = GaussianDist(np.zeros(3), asymmetric(3))
        good = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            kl_gaussian(bad, good)
        with pytest.raises(DimensionMismatch):
            kl_gaussian(good, bad)

    def test_dimension_check(self):
        p = GaussianDist(np.zeros(2), np.eye(2))
        q = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            kl_gaussian(p, q)
        with pytest.raises(DimensionMismatch):
            w2_gaussian(p, q)


class TestW2KL:
    @pytest.mark.parametrize("n", [1, 5, 50, 300])
    def test_equals_the_separate_routes(self, n):
        rng = np.random.default_rng(100 + n)
        p = random_dist(rng, random_pd(rng, n))
        q = random_dist(rng, random_pd(rng, n))
        w2, kl = w2_kl_gaussian(p, q)
        assert abs(w2 - w2_gaussian(p, q)) <= 1e-12 * abs(w2)
        assert abs(kl - kl_gaussian(p, q)) <= 1e-12 * abs(kl)
        assert type(w2) is float and type(kl) is float

    def test_factors_each_covariance_once(self, monkeypatch):
        real, calls = np.linalg.cholesky, []

        def spy(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        rng = np.random.default_rng(8)
        for n in (5, 300):
            calls.clear()
            w2_kl_gaussian(random_dist(rng, random_pd(rng, n)),
                           random_dist(rng, random_pd(rng, n)))
            assert calls == [(n, n), (n, n)]

    def test_inputs_are_left_unchanged(self):
        rng = np.random.default_rng(9)
        p = random_dist(rng, random_pd(rng, 200))
        q = random_dist(rng, random_pd(rng, 200))
        before = [a.copy() for a in (p.mean, p.cov, q.mean, q.cov)]
        w2_kl_gaussian(p, q)
        for a, b in zip(before, (p.mean, p.cov, q.mean, q.cov)):
            assert np.array_equal(a, b)

    @staticmethod
    def check_rejections():
        good = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(SingularDistribution):
            w2_kl_gaussian(GaussianDist(np.zeros(3), np.zeros((3, 3))), good)
        with pytest.raises(DimensionMismatch):
            w2_kl_gaussian(GaussianDist(np.zeros(3), asymmetric(3)), good)
        with pytest.raises(DimensionMismatch):
            w2_kl_gaussian(GaussianDist(np.zeros(2), np.eye(2)), good)

    def test_rejects_what_kl_rejects(self):
        self.check_rejections()

    def test_same_values_and_errors_on_one_and_two_cores(self, monkeypatch):
        real_kl, kl_threads = metrics._kl, []

        def spy(*args):
            kl_threads.append(threading.get_ident())
            return real_kl(*args)

        monkeypatch.setattr(metrics, "_kl", spy)
        rng = np.random.default_rng(11)
        pairs = [(random_dist(rng, random_pd(rng, n)), random_dist(rng, random_pd(rng, n)))
                 for n in (1, 5, 300)]
        got = {}
        for cores in (1, 2):
            monkeypatch.setattr(metrics, "available_cores", lambda: cores)
            kl_threads.clear()
            got[cores] = [w2_kl_gaussian(p, q) for p, q in pairs]
            on_caller = [t == threading.get_ident() for t in kl_threads]
            assert on_caller == [cores == 1] * len(pairs)
            self.check_rejections()
            # Both factors fail: Q's error wins, as on one thread.
            with pytest.raises(NotPositiveDefinite):
                w2_kl_gaussian(GaussianDist(np.zeros(3), np.zeros((3, 3))),
                               GaussianDist(np.zeros(3), np.zeros((3, 3))))
        assert got[1] == got[2]

    def test_scipy_eigvalsh_is_never_called(self, monkeypatch):
        # scipy.linalg.eigvalsh holds the GIL, so two pool threads running it
        # take turns; numpy.linalg.eigvalsh releases it and they overlap.
        import scipy.linalg

        from widebnn.linreg import rate_sweep

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg.eigvalsh called")

        monkeypatch.setattr(scipy.linalg, "eigvalsh", forbidden)
        rng = np.random.default_rng(10)
        p = random_dist(rng, random_pd(rng, 50))
        q = random_dist(rng, random_psd(rng, 50, 5))
        assert w2_gaussian(p, q) > 0 and w2_gaussian(q, p) > 0
        assert len(rate_sweep([16, 64, 1024], m=8, seed=0)) == 3


class TestGaussianDist:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            GaussianDist(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, bad):
        # Without the check W2 and KL return nan or inf for such a mean.
        with pytest.raises(ValueError, match="mean contains NaN or Inf"):
            GaussianDist([bad, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="cov contains NaN or Inf"):
            GaussianDist([0.0, 0.0], [[bad, 0.0], [0.0, 1.0]])
