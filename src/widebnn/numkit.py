"""Dense symmetric linear algebra, reproducible Gaussian streams, one ordered pool.

Everything downstream works with plain float64 ``numpy`` arrays; the helpers
here add the validation, jitter and error policy the rest of the package
relies on. Every random number comes from a Philox stream at a key
(seed, stream_id) and a substream (:meth:`GaussianStream.rekey`), so it
depends on its position, never on which :func:`ordered_map` thread draws it.

Every Cholesky factorisation in the package happens here, by one of two
routes. :func:`cholesky` serves the closed forms (kernel posteriors, linear
regression, W2/KL): an exact factor first, then one retry at
``1e-10 * trace / dim``, so a singular matrix such as a zero covariance
raises (:func:`psd_factor`, for W2, takes a symmetric square root instead
of raising). :func:`chol_batch` serves the samplers: ``1e-12 * (trace / dim + 1)``
on the diagonal and one attempt, so a zero covariance (dead ReLU units with
``sigma_b = 0``) gives a point mass, and each draw's factor depends on its
own matrix only. Neither policy serves both: without the ``+ 1`` floor,
covariances met while sampling default networks fail to factor; with it, a
singular covariance that a distance must reject would factor.

LAPACK work meant to run on :func:`ordered_map` threads goes through
``numpy.linalg``, which releases the GIL: the sampler's conditioned layer
draws solve with their ``chol_batch`` factor by batched ``numpy.linalg.solve``
(:func:`widebnn.network.layer_step`). The ``scipy.linalg`` wrappers used in
the closed forms (``cho_solve`` in :func:`solve_spd`; ``solve_triangular`` in
the KL of :mod:`widebnn.metrics`) hold it, so at most one pool thread runs
them: :func:`widebnn.metrics.w2_kl_gaussian` runs its KL beside a W2 that
works through ``numpy``.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotPSD

__all__ = [
    "as_matrix",
    "cholesky",
    "chol_batch",
    "solve_spd",
    "sym_sqrt",
    "psd_factor",
    "clip_psd",
    "check_symmetric",
    "GaussianStream",
    "available_cores",
    "ordered_map",
]

_SYM_RTOL = 1e-12
_JITTER_REL = 1e-10
_SAMPLE_JITTER = 1e-12
_PSD_TOL = 1e-10
# Floats per array in one batch of prior draws or of sampler proposals (1 MB).
BATCH_FLOATS = 1 << 17
_ZERO_SEED = np.random.SeedSequence(0)  # hashed once, not once per stream


def is_int(value) -> bool:
    """True for a Python or NumPy integer; False for a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_seed(value) -> bool:
    """True for an integer in [0, 2**64): :class:`GaussianStream` keys Philox
    with the seed modulo 2**64, so only these seeds give distinct streams."""
    return is_int(value) and 0 <= value < 1 << 64


def is_finite_number(value) -> bool:
    """True for an integer (:func:`is_int`) or a finite Python or NumPy float."""
    return is_int(value) or (isinstance(value, (float, np.floating)) and bool(np.isfinite(value)))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf")
    return m


def check_symmetric(a: np.ndarray, name: str) -> None:
    """Raise :class:`DimensionMismatch` unless ``a`` is square and symmetric
    within a tolerance relative to its largest entry."""
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    # max|x| as max(max x, -min x): two passes and no |a| temporary.
    scale = max(a.max(), -a.min())
    if scale > 0:
        skew = a - a.T
        if max(skew.max(), -skew.min()) > _SYM_RTOL * max(scale, 1.0) * a.shape[0]:
            raise DimensionMismatch(f"{name} is not symmetric within tolerance")


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    The route for closed forms: retries once with a diagonal jitter of
    ``1e-10 * trace / dim`` before raising, because analytic kernel matrices
    on near-duplicate inputs are routinely semidefinite only up to rounding.
    A matrix that is singular beyond rounding, such as a zero matrix, raises
    :class:`NotPositiveDefinite`. Samplers use :func:`chol_batch` instead.
    """
    m = as_matrix(a, "A")
    check_symmetric(m, "A")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    dim = m.shape[0]
    jitter = _JITTER_REL * max(np.trace(m), 0.0) / dim
    try:
        return np.linalg.cholesky(m + jitter * np.eye(dim))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "matrix is not positive definite (jitter retry failed)"
        ) from None


def chol_batch(a) -> np.ndarray:
    """Lower Cholesky factors of a stack of symmetric PSD matrices ``(..., n, n)``.

    The route for sampling: each matrix gets ``1e-12 * (trace / n + 1)`` on
    its diagonal and is factored in one attempt; if any matrix of the stack
    fails, :class:`NotPositiveDefinite` is raised. A zero matrix factors to
    ``1e-6 * I``, and a stack of 0 x 0 matrices (no points) to itself.
    """
    n = a.shape[-1]
    tr = np.trace(a, axis1=-2, axis2=-1)
    bump = (_SAMPLE_JITTER * (tr / max(n, 1) + 1.0))[..., None, None] * np.eye(n)
    try:
        return np.linalg.cholesky(a + bump)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "covariance is not positive definite (after sampling jitter)"
        ) from None


def solve_spd(a, b) -> np.ndarray:
    """Solve ``A X = B`` for symmetric positive definite ``A``."""
    import scipy.linalg

    m = as_matrix(a, "A")
    rhs = np.asarray(b, dtype=np.float64)
    squeeze = rhs.ndim == 1
    if squeeze:
        rhs = rhs[:, None]
    if rhs.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"B has {rhs.shape[0]} rows, expected {m.shape[0]}"
        )
    lower = cholesky(m)
    x = scipy.linalg.cho_solve((lower, True), rhs, check_finite=False)
    return x[:, 0] if squeeze else x


def sym_sqrt(a) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``[-1e-10 * scale, 0)`` are clamped to zero; anything more
    negative raises :class:`NotPSD`.
    """
    m = as_matrix(a, "A")
    check_symmetric(m, "A")
    w, v = np.linalg.eigh(m)
    s = (v * np.sqrt(clip_psd(w))) @ v.T
    return (s + s.T) / 2.0


def clip_psd(w: np.ndarray) -> np.ndarray:
    """Clamp ascending eigenvalues of a PSD matrix to be nonnegative.

    Eigenvalues in ``[-1e-10 * scale, 0)`` become zero; anything more
    negative raises :class:`NotPSD`.
    """
    tol = _PSD_TOL * max(1.0, float(np.abs(w).max()) if w.size else 0.0)
    if w.size and w[0] < -tol:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below PSD tolerance")
    return np.clip(w, 0.0, None)


def psd_factor(a) -> np.ndarray:
    """A factor ``F`` with ``A = F F^T`` of a symmetric PSD matrix.

    ``F`` is the lower Cholesky factor when ``A`` is positive definite, and
    the symmetric square root (:func:`sym_sqrt`) only when Cholesky fails, as
    for a point mass or a rank-deficient covariance. No jitter is added, so
    ``F F^T`` reproduces ``A`` to rounding.
    """
    m = as_matrix(a, "A")
    check_symmetric(m, "A")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return sym_sqrt(m)


class GaussianStream:
    """Deterministic standard-normal stream keyed by (seed, stream_id).

    Backed by the counter-based Philox generator, so distinct stream ids give
    statistically independent sequences and the output never depends on which
    thread consumes the stream. Consecutive :meth:`normal` calls continue the
    same sequence. A key holds 2**128 substreams of 2**128 Philox blocks each
    (Salmon et al., "Random123", SC'11).
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        # A fixed seed only builds the generator (no OS entropy is drawn);
        # rekey then sets its whole state.
        self._gen = np.random.Generator(np.random.Philox(_ZERO_SEED))
        self.rekey(stream_id)

    def rekey(self, stream_id: int, substream: int = 0) -> None:
        """Restart this stream at ``substream`` of the key ``(seed, stream_id)``.

        Sets the Philox key to ``(seed, stream_id)`` modulo 2**64, the counter
        to ``(0, 0, substream, 0)`` (carrying into the last word from 2**64)
        and the buffer to empty; substream 0 starts as a fresh
        ``GaussianStream(self.seed, stream_id)``. Cheaper than a new generator.
        """
        self.stream_id = int(stream_id)
        k = int(substream) % (1 << 128)
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": (0, 0, k % (1 << 64), k >> 64),
                "key": (self.seed % (1 << 64), self.stream_id % (1 << 64)),
            },
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # all four words of the buffer used up
            "has_uint32": 0,
            "uinteger": 0,
        }

    def fresh_substream(self) -> int:
        """The first substream of this key with nothing drawn from it yet."""
        c0, c1, c2, c3 = map(int, self._gen.bit_generator.state["state"]["counter"])
        return c2 + (c3 << 64) + (c0 > 0 or c1 > 0)

    def normal(self, count: int, out: np.ndarray = None) -> np.ndarray:
        """Draw ``count`` standard normal float64 values, into ``out`` if
        given (a float64 array of ``count`` elements), and return them."""
        return self._gen.standard_normal(int(count), out=out)

    def __repr__(self) -> str:
        return f"GaussianStream(seed={self.seed}, stream_id={self.stream_id})"


def available_cores() -> int:
    """The cores this process may run on, which size every internal pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, items, workers: int):
    """Yield ``fn(item)`` for each of ``items``, in order: on the calling
    thread if ``workers <= 1``, else on that many threads with at most
    ``2 * workers`` calls submitted ahead; a failure cancels the queued ones."""
    if workers <= 1:
        yield from map(fn, items)
        return
    with concurrent.futures.ThreadPoolExecutor(workers) as ex:
        ahead = collections.deque()
        try:
            for item in items:
                ahead.append(ex.submit(fn, item))
                if len(ahead) == 2 * workers:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()
        except BaseException:
            ex.shutdown(cancel_futures=True)
            raise
