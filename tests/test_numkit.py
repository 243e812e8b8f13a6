from pathlib import Path

import numpy as np
import pytest

from widebnn.errors import DimensionMismatch, NotPositiveDefinite, NotPSD
from widebnn.numkit import (
    GaussianStream,
    as_matrix,
    chol_batch,
    cholesky,
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

    def test_split_is_keyed_by_position(self):
        s = GaussianStream(5, 5)
        subs = [t.normal(10) for t in s.split(3)]
        again = [t.normal(10) for t in GaussianStream(5, 5).split(3)]
        assert all(np.array_equal(a, b) for a, b in zip(subs, again))
        # Substream 0 continues the parent's sequence; the others are fresh.
        assert np.array_equal(subs[0], GaussianStream(5, 5).normal(10))
        assert not np.array_equal(subs[1], subs[2])
        # The parent moves past all three substreams.
        after = s.normal(10)
        assert not any(np.array_equal(after, a) for a in subs)
        assert np.array_equal(after, GaussianStream(5, 5).split(4)[3].normal(10))

    def test_split_after_a_partial_block(self):
        # Three normals leave part of a Philox block buffered in the parent.
        s = GaussianStream(5, 5)
        head = s.normal(3)
        subs = s.split(2)
        both = GaussianStream(5, 5).normal(13)
        assert np.array_equal(np.concatenate([head, subs[0].normal(10)]), both)
        assert repr(subs[1]) == "GaussianStream(seed=5, stream_id=5, substream=(1,))"
        assert repr(subs[1].split(1)[0]).endswith("substream=(1, 0))")

    @pytest.mark.parametrize("stream_id", [0, 2**40, 2**63 + 5, -7])
    def test_rekey_matches_a_fresh_stream(self, stream_id):
        s = GaussianStream(42, 3)
        for count in (1, 3, 4, 5, 17, 12005):
            s.normal(3)  # leave a partial Philox block buffered
            s.rekey(stream_id)
            assert s.stream_id == stream_id
            assert np.array_equal(s.normal(count),
                                  GaussianStream(42, stream_id).normal(count))

    def test_rekey_a_substream(self):
        sub = GaussianStream(5, 5).split(3)[2]
        sub.normal(7)
        sub.rekey(11)
        assert repr(sub) == "GaussianStream(seed=5, stream_id=11)"
        assert np.array_equal(sub.normal(1000), GaussianStream(5, 11).normal(1000))

    def test_normal_into_out(self):
        out = np.full(9, np.nan)
        got = GaussianStream(3, 4).normal(9, out=out)
        assert got is out
        assert np.array_equal(out, GaussianStream(3, 4).normal(9))

    def test_marginals(self):
        z = GaussianStream(9, 0).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02
