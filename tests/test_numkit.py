import threading
from pathlib import Path

import numpy as np
import pytest

from widebnn.errors import DimensionMismatch, NotPositiveDefinite, NotPSD
from widebnn.numkit import (
    GaussianStream,
    as_matrix,
    chol_batch,
    cholesky,
    ordered_map,
    solve_spd,
    sym_sqrt,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "widebnn"


def random_spd(dim, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


class TestCholesky:
    def test_roundtrip(self):
        a = random_spd(6)
        low = cholesky(a)
        assert np.allclose(low @ low.T, a)
        assert np.allclose(np.triu(low, 1), 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_jitter_rescues_near_psd(self):
        # Rank-deficient up to rounding: one retry with relative jitter.
        v = np.array([[1.0], [2.0], [3.0]])
        a = v @ v.T
        low = cholesky(a)
        assert np.allclose(low @ low.T, a, atol=1e-6)

    def test_symmetry_tolerance_is_sharp(self):
        # The tolerance is 1e-12 * max(max |a|, 1) * dim; with a zero
        # off-diagonal pair, the asymmetry is exactly the entry put in.
        a = np.diag([2.0, 1.0, -0.5, 1.5]) + 1.5 * np.eye(4)
        tol = 1e-12 * 3.5 * 4
        above, below = a.copy(), a.copy()
        above[0, 1] = 1.01 * tol
        below[0, 1] = 0.99 * tol
        with pytest.raises(DimensionMismatch):
            cholesky(above)
        low = cholesky(below)
        assert np.allclose(low @ low.T, (below + below.T) / 2)
        # The scale is the largest magnitude, also when it is a negative entry.
        neg = np.eye(2) * 1e-3
        neg[1, 0] = -2.0
        neg[0, 1] = -2.0 + 0.99 * 1e-12 * 2.0 * 2
        with pytest.raises(NotPositiveDefinite):
            cholesky(neg)  # symmetric within tolerance, then indefinite
        neg[0, 1] = -2.0 + 1.01 * 1e-12 * 2.0 * 2
        with pytest.raises(DimensionMismatch):
            cholesky(neg)


class TestCholBatch:
    def test_failure_is_not_positive_definite(self):
        batch = np.stack([np.eye(3), -np.eye(3)])
        with pytest.raises(NotPositiveDefinite):
            chol_batch(batch)

    def test_only_the_last_member_indefinite(self):
        batch = np.stack([random_spd(3, seed=k) for k in range(4)] + [-np.eye(3)])
        with pytest.raises(NotPositiveDefinite):
            chol_batch(batch)

    def test_zero_stack_factors(self):
        # A layer of dead ReLU units with sigma_b = 0 has a zero covariance.
        low = chol_batch(np.zeros((2, 3, 3)))
        assert np.allclose(low, 1e-6 * np.eye(3), rtol=1e-12, atol=0.0)


def test_cholesky_is_called_only_in_numkit():
    calls = sorted(p.name for p in SRC.glob("*.py")
                   if "np.linalg.cholesky" in p.read_text())
    assert calls == ["numkit.py"]


class TestSolveSpd:
    def test_matches_inverse(self):
        a = random_spd(5, seed=1)
        b = np.random.default_rng(2).standard_normal((5, 3))
        assert np.allclose(solve_spd(a, b), np.linalg.solve(a, b))

    def test_vector_rhs(self):
        a = random_spd(4, seed=3)
        b = np.arange(4.0)
        assert np.allclose(a @ solve_spd(a, b), b)


class TestSymSqrt:
    def test_square_recovers(self):
        a = random_spd(5, seed=4)
        r = sym_sqrt(a)
        assert np.allclose(r @ r, a)
        assert np.allclose(r, r.T)

    def test_psd_with_zero_eigenvalue(self):
        v = np.array([[2.0], [1.0]])
        a = v @ v.T
        r = sym_sqrt(a)
        assert np.allclose(r @ r, a)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            sym_sqrt(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestAsMatrix:
    def test_rejects_tensor(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros((2, 2, 2)), "x")


class TestGaussianStream:
    def test_reproducible(self):
        a = GaussianStream(42, 7).normal(100)
        b = GaussianStream(42, 7).normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = GaussianStream(42, 0).normal(100)
        b = GaussianStream(42, 1).normal(100)
        c = GaussianStream(43, 0).normal(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sequential_draws_continue(self):
        s = GaussianStream(5, 5)
        first = s.normal(10)
        second = s.normal(10)
        both = GaussianStream(5, 5).normal(20)
        assert np.array_equal(np.concatenate([first, second]), both)

    @pytest.mark.parametrize("stream_id", [0, 2**40, 2**63 + 5, -7])
    def test_rekey_matches_a_fresh_stream(self, stream_id):
        s = GaussianStream(42, 3)
        for count in (1, 3, 4, 5, 17, 12005):
            s.normal(3)  # leave a partial Philox block buffered
            s.rekey(stream_id)
            assert s.stream_id == stream_id
            assert np.array_equal(s.normal(count),
                                  GaussianStream(42, stream_id).normal(count))

    @pytest.mark.parametrize("substream", [0, 3, 2**64 + 1])
    def test_rekey_a_substream_matches_a_reference_philox(self, substream):
        s = GaussianStream(42, 3)
        s.normal(3)  # leave a partial Philox block buffered
        s.rekey(2**63 + 5, substream=substream)
        bits = np.random.Philox(0)
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, substream % 2**64, substream >> 64],
                      "key": [42, 2**63 + 5]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        want = np.random.Generator(bits).standard_normal(1000)
        assert np.array_equal(s.normal(1000), want)
        # The substream starts where a Philox jump by ``substream`` lands.
        jumped = np.random.Philox(key=42 + ((2**63 + 5) << 64)).jumped(substream)
        assert np.array_equal(np.random.Generator(jumped).standard_normal(1000), want)

    def test_fresh_substream(self):
        s = GaussianStream(5, 5)
        assert s.fresh_substream() == 0
        s.rekey(5, substream=2**64 + 3)
        assert s.fresh_substream() == 2**64 + 3
        s.normal(1)  # substream 2**64 + 3 is no longer fresh
        assert s.fresh_substream() == 2**64 + 4

    def test_normal_into_out(self):
        out = np.full(9, np.nan)
        got = GaussianStream(3, 4).normal(9, out=out)
        assert got is out
        assert np.array_equal(out, GaussianStream(3, 4).normal(9))

    def test_marginals(self):
        z = GaussianStream(9, 0).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_order(self, workers):
        assert list(ordered_map(lambda i: i * i, range(20), workers)) == [
            i * i for i in range(20)]

    def test_one_worker_runs_on_the_calling_thread(self):
        threads = set(ordered_map(lambda _: threading.get_ident(), range(5), 1))
        assert threads == {threading.get_ident()}

    def test_failure_reaches_the_caller_and_cancels_queued_calls(self):
        started = []

        def fn(i):
            started.append(i)
            if i == 3:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            list(ordered_map(fn, range(1000), 2))
        assert len(started) < 1000
