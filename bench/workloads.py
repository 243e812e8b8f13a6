"""The four benchmark workloads: inputs, one job, and the checks of its output.

Constructing a workload builds its inputs and references (what ``setup_s``
times). :meth:`job` is the timed unit of work; it calls the program through
module attributes, so a tracer installed later sees every call. A workload
has one or more job ``kinds``; a run cycles through them in order, so one
round of jobs is one job of every kind. ``quantile`` is the quantile of
each kind's job seconds that the throughput is taken at: 0.9 where a run
holds well over a hundred jobs of a kind, so that ten or more lie beyond it,
and the median elsewhere. :meth:`check` returns the problems found in one
job's output and :meth:`check_run` those found in the outputs of the whole
run. Every bound comes from an acceptance criterion or from the Monte Carlo
error at the run's size.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``src/widebnn``."""


def load_program():
    """Import widebnn from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "widebnn"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"no package at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import widebnn

    if Path(widebnn.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"widebnn was imported from {widebnn.__file__}, not {pkg}")
    return widebnn


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def job_seed(seed: int, j: int) -> int:
    """Program seed of job ``j`` of a run started with ``seed``."""
    return seed * 1_000_000 + j


class Oracle:
    """Criterion 1: the L=0 identity network is Bayesian linear regression."""

    name = "oracle"
    quantile = 0.9
    work_name = "proposals_per_s"
    samples = True
    kinds = ("rejection_sample",)
    FULL = {"n_proposals": 5_000}
    TINY = {"n_proposals": 2_048}

    def __init__(self, seed: int, tiny: bool = False, out_dir: Path = None):
        from widebnn import likelihood, linreg, network

        self.seed = seed
        self.n = (self.TINY if tiny else self.FULL)["n_proposals"]
        self.cfg = network.NetworkConfig(depth=0, input_dim=1, output_dim=1, hidden_width=1,
                                         sigma_w=1.0, sigma_b=0.0, nonlinearity="identity")
        self.train_x = np.array([[-1.0], [0.5], [1.0]])
        self.train_y = np.array([[-0.7], [0.2], [0.9]])
        self.eval_x = np.array([[-2.0], [-0.5], [0.25], [1.5], [2.0]])
        self.sigma2 = 0.1
        self.lik = likelihood.LikelihoodSpec("gaussian", sigma2=self.sigma2)
        self.reference = linreg.linreg_predictive(
            linreg.LinRegProblem(self.train_x, self.train_y[:, 0]), self.sigma2,
            self.eval_x, alpha=1.0)
        self.pool = []

    def job(self, kind: int, j: int):
        from widebnn import sampler

        rep = sampler.rejection_sample(self.cfg, self.train_x, self.train_y, self.lik,
                                       self.eval_x, self.n, seed=job_seed(self.seed, j),
                                       workers=1)
        return rep.proposals, rep.accepts, rep

    def check(self, rep) -> list:
        if rep.proposals != self.n:
            return [f"{rep.proposals} proposals, expected {self.n}"]
        if not rep.moments_valid:
            return [f"only {rep.accepts} accepts"]
        var = np.diag(rep.posterior_cov)
        if not (np.all(np.isfinite(rep.posterior_mean)) and np.all(np.isfinite(var))):
            return ["non-finite posterior moments"]
        self.pool.append((rep.accepts, rep.posterior_mean, var))
        return []

    def check_run(self) -> list:
        """Pooled posterior mean and variance within 4 SE of the conjugate
        predictive, the criterion-1 test at the run's total accept count."""
        if not self.pool:
            return []
        counts = np.array([c for c, _, _ in self.pool], dtype=float)
        means = np.array([m for _, m, _ in self.pool])
        variances = np.array([v for _, _, v in self.pool])
        n = counts.sum()
        mean = counts @ means / n
        m2 = (counts - 1) @ variances + counts @ (means - mean) ** 2
        var = m2 / (n - 1)
        mean_dev = np.abs(mean - self.reference.mean) / np.sqrt(var / n)
        var_dev = np.abs(var - np.diag(self.reference.cov)) / (var * np.sqrt(2.0 / (n - 1)))
        if mean_dev.max() < 4.0 and var_dev.max() < 4.0:
            return []
        return [f"pooled over {int(n)} accepts: mean {mean_dev.max():.2f} SE, "
                f"variance {var_dev.max():.2f} SE from linreg_predictive (limit 4)"]


class Sweep:
    """The paper's width sweep, once at workers=1 and once at workers=nproc.

    A job is one width, swept at both worker counts with the same seed; the
    kinds are the widths 1, 10, 100 and 1000 in turn."""

    name = "sweep"
    quantile = 0.5
    work_name = "proposals_per_s"
    samples = True
    # At sigma2 = 0.1 width 1 accepts about 7.5e-4 of its proposals and the
    # other widths about 2.7e-3. Width 1 with more proposals gives every
    # width about 13 expected accepts, so each gets the two that the
    # moments, the NNGP/NTK posteriors and rel_frobenius need.
    FULL = {"proposals": {1: 16_384, 10: 5_120, 100: 5_120, 1000: 5_120}, "test_m": 100}
    TINY = {"proposals": {1: 256, 10: 256, 100: 256, 1000: 256}, "test_m": 10}
    kinds = tuple(f"width {w}" for w in FULL["proposals"])

    def __init__(self, seed: int, tiny: bool = False, out_dir: Path = None):
        from widebnn import experiments, likelihood, network

        size = self.TINY if tiny else self.FULL
        self.seed = seed
        self.out_dir = out_dir
        self.workers = (1, nproc())
        self.base = experiments.ExperimentConfig(
            network=network.NetworkConfig(depth=3, input_dim=1, output_dim=1,
                                          hidden_width=1, nonlinearity="erf"),
            likelihood=likelihood.LikelihoodSpec("gaussian", sigma2=0.1),
            train_m=4, target_rule="sin", test_m=size["test_m"], seed=seed)
        self.proposals = list(size["proposals"].items())

    def job(self, kind: int, j: int):
        from widebnn import experiments

        width, n = self.proposals[kind]
        out = []
        for w in self.workers:
            cfg = dataclasses.replace(self.base, widths=(width,), n_proposals=n,
                                      seed=job_seed(self.seed, j), workers=w)
            rows = experiments.width_sweep(cfg)
            path = self.out_dir / f"sweep-w{w}-width{width}.csv"
            experiments.write_sweep_csv(rows, str(path))
            out.append((n, rows, path.read_text()))
        proposals = sum(r.proposals for _, rows, _ in out for r in rows)
        accepts = sum(r.accepts for _, rows, _ in out for r in rows)
        return proposals, accepts, out

    def check(self, out) -> list:
        problems = []
        tables = []
        for n, rows, text in out:
            for r in rows:
                if r.proposals != n:
                    problems.append(f"width {r.width}: {r.proposals} proposals, expected {n}")
                for field in ("rf_mean_nngp", "rf_cov_nngp", "rf_mean_ntk", "rf_cov_ntk"):
                    value = getattr(r, field)
                    if value is None or not math.isfinite(value):
                        problems.append(f"width {r.width}: {field} = {value} "
                                        f"({r.accepts} accepts)")
            tables.append([line.rsplit(",", 1)[0] for line in text.splitlines()])
        if any(t != tables[0] for t in tables):
            problems.append(f"statistical CSV columns differ between worker counts "
                            f"{self.workers}")
        return problems

    def check_run(self) -> list:
        return []


class PriorLimit:
    """Criterion 2: finite-width prior draws against the NNGP kernel."""

    name = "prior-limit"
    quantile = 0.9
    work_name = "draws_per_s"
    samples = False
    kinds = ("prior_function_draws",)
    FULL = {"n_draws": 100}
    TINY = {"n_draws": 64}

    def __init__(self, seed: int, tiny: bool = False, out_dir: Path = None):
        from widebnn import kernels, network

        self.seed = seed
        self.n = (self.TINY if tiny else self.FULL)["n_draws"]
        self.cfg = network.NetworkConfig(depth=3, input_dim=1, output_dim=1, hidden_width=1000)
        self.grid = np.linspace(-np.pi, np.pi, 10)[:, None]
        self.kernel = kernels.nngp_kernel(self.cfg, self.grid, self.grid)
        self.pool = [0, np.zeros(len(self.grid)), np.zeros((len(self.grid),) * 2)]

    def bound(self, n: int) -> float:
        """Four root-mean-square errors of rel_frobenius at n draws.

        For n Gaussian draws, E||S - K||_F^2 = (||K||_F^2 + tr(K)^2) / (n - 1).
        rf^2 is a weighted chi-square with that mean (in units of ||K||_F^2),
        so four root-mean-square errors are exceeded with probability < 1e-4.
        """
        fro2 = float(np.sum(self.kernel ** 2))
        return 4.0 * math.sqrt((fro2 + float(np.trace(self.kernel)) ** 2) / (n - 1) / fro2)

    def job(self, kind: int, j: int):
        from widebnn import metrics, network, numkit

        draws = network.prior_function_draws(self.cfg, self.grid, self.n,
                                             numkit.GaussianStream(job_seed(self.seed, j), 9))
        f = draws[:, :, 0]
        emp = np.cov(f.T)
        return self.n, None, (f, metrics.rel_frobenius(emp, self.kernel))

    def check(self, out) -> list:
        f, rf = out
        self.pool[0] += len(f)
        self.pool[1] += f.sum(axis=0)
        self.pool[2] += f.T @ f
        if math.isfinite(rf) and rf < self.bound(self.n):
            return []
        return [f"rel Frobenius {rf:.4f} to nngp_kernel, bound {self.bound(self.n):.4f} "
                f"at {self.n} draws"]

    def check_run(self) -> list:
        """The same test on the covariance of all the run's draws."""
        n, total, outer = self.pool
        if n < 2:
            return []
        mean = total / n
        emp = (outer - n * np.outer(mean, mean)) / (n - 1)
        rf = float(np.linalg.norm(emp - self.kernel) / np.linalg.norm(self.kernel))
        if math.isfinite(rf) and rf < self.bound(n):
            return []
        return [f"pooled rel Frobenius {rf:.4f} to nngp_kernel, bound {self.bound(n):.4f} "
                f"at {n} draws"]


class Rates:
    """Criterion 4: the Bayesian linear regression rate study."""

    name = "rates"
    quantile = 0.5
    work_name = "rate_points_per_s"
    samples = False
    kinds = ("rate_sweep",)
    FULL = {"k_max": 14}
    TINY = {"k_max": 8}

    def __init__(self, seed: int, tiny: bool = False, out_dir: Path = None):
        self.seed = seed
        self.m = 8
        self.n_grid = [2 ** k for k in range(4, (self.TINY if tiny else self.FULL)["k_max"] + 1)]

    def job(self, kind: int, j: int):
        from widebnn import linreg

        # rate_sweep runs its own spectral-vs-general dual check for n <= 1024
        # and raises when the two routes disagree.
        rows = linreg.rate_sweep(self.n_grid, m=self.m, seed=job_seed(self.seed, j))
        slope = linreg.fit_loglog_slope([r.n for r in rows],
                                        [math.sqrt(r.w2_sq) for r in rows], discard=2)
        return len(rows), None, (rows, slope)

    def check(self, out) -> list:
        rows, slope = out
        problems = []
        if not -0.6 <= slope <= -0.4:
            problems.append(f"W2 slope {slope:.3f} outside [-0.6, -0.4]")
        for r in rows:
            if abs(r.kl_ntk - r.kl) > 1e-8 * max(1.0, abs(r.kl)):
                problems.append(f"KL invariance broken at n={r.n}")
            if abs(r.w2_ntk_sq - r.n * r.w2_sq) > 1e-6 * r.w2_ntk_sq:
                problems.append(f"W2 x n scaling broken at n={r.n}")
        return problems

    def check_run(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (Oracle, Sweep, PriorLimit, Rates)}
