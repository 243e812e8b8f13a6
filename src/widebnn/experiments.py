"""Experiment orchestration: datasets, width sweeps, rate study, CSV output.

Configs are plain JSON documents mirroring :class:`ExperimentConfig` field
names exactly; unknown keys are rejected. CSV values are rendered with 17
significant digits so runs with the same config are byte-identical apart
from the wall_seconds column.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BadRange, ConfigError
from .kernels import gp_posterior, nngp_kernel, ntk_posterior
from .likelihood import LikelihoodSpec
from .linreg import RateRow, fit_loglog_slope, rate_sweep
from .metrics import rel_frobenius
from .network import NetworkConfig, forward, sample_prior
from .numkit import GaussianStream, is_int
from .sampler import rejection_sample

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "build_dataset",
    "width_sweep",
    "write_sweep_csv",
    "linreg_rates_csv",
    "DATASET_STREAM_ID",
]

# Keys of GaussianStream(seed, stream_id): proposal i's block i // G, G >= 64
# (sampler._block_size); accepted proposal i's eval points, 2**63 + i; the
# dataset, this id, between the two. Draw i of a prior_function_draws call
# takes substream s + i of the caller's key (numkit.GaussianStream.rekey).
DATASET_STREAM_ID = 1 << 62

TARGET_RULES = ("sin", "prior_draw")


@dataclass
class ExperimentConfig:
    network: NetworkConfig
    likelihood: LikelihoodSpec
    train_m: int = 4
    train_range: Tuple[float, float] = (-np.pi, np.pi)
    target_rule: str = "sin"
    test_m: int = 100
    test_range: Tuple[float, float] = (-np.pi, np.pi)
    widths: Sequence[int] = (1, 10, 100, 1000)
    n_proposals: int = 200_000
    seed: int = 0
    workers: int = 1
    output_path: str = "sweep.csv"

    def __post_init__(self):
        widths = list(self.widths)
        bad = [w for w in widths if not is_int(w) or w < 1]
        if bad:
            raise ConfigError(f"widths must be integers >= 1, got {bad[0]!r}")
        if not widths or any(b <= a for a, b in zip(widths, widths[1:])):
            raise ConfigError("widths must be nonempty and strictly increasing")
        self.widths = [int(w) for w in widths]
        for name, least in (("train_m", 0), ("test_m", 1), ("n_proposals", 1),
                            ("seed", None), ("workers", 1)):
            value = getattr(self, name)
            if not is_int(value) or (least is not None and value < least):
                bound = "" if least is None else f" >= {least}"
                raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
        if self.target_rule not in TARGET_RULES:
            raise ConfigError(f"target_rule must be one of {TARGET_RULES}")


def _take(obj: dict, allowed: dict, where: str) -> dict:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return {k: obj[k] for k in obj}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document, strictly."""
    top = _take(doc, dict.fromkeys(
        ["network", "likelihood", "dataset", "eval", "widths",
         "n_proposals", "seed", "workers", "output_path"]), "config")
    try:
        net_doc = _take(top.get("network", {}), dict.fromkeys(
            ["depth", "input_dim", "output_dim", "hidden_width",
             "sigma_w", "sigma_b", "nonlinearity", "parametrisation"]), "network")
        net_doc.setdefault("hidden_width", 1)  # overridden per sweep width
        network = NetworkConfig(**net_doc)
        lik_doc = _take(top.get("likelihood", {}), dict.fromkeys(
            ["kind", "sigma2", "num_classes"]), "likelihood")
        likelihood = LikelihoodSpec(**lik_doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    ds = _take(top.get("dataset", {}), dict.fromkeys(
        ["train_m", "train_range", "target_rule"]), "dataset")
    ev = _take(top.get("eval", {}), dict.fromkeys(
        ["test_m", "test_range"]), "eval")
    kwargs = dict(
        network=network,
        likelihood=likelihood,
    )
    if "train_m" in ds:
        kwargs["train_m"] = ds["train_m"]
    if "train_range" in ds:
        kwargs["train_range"] = tuple(float(v) for v in ds["train_range"])
    if "target_rule" in ds:
        kwargs["target_rule"] = ds["target_rule"]
    if "test_m" in ev:
        kwargs["test_m"] = ev["test_m"]
    if "test_range" in ev:
        kwargs["test_range"] = tuple(float(v) for v in ev["test_range"])
    for key in ("widths", "n_proposals", "seed", "workers", "output_path"):
        if key in top:
            kwargs[key] = top[key]
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(doc)


def _grid(m: int, lo: float, hi: float) -> np.ndarray:
    if lo > hi or (m > 1 and lo == hi):
        raise BadRange(f"invalid range [{lo}, {hi}] for {m} points")
    if m == 0:
        return np.zeros((0, 1))
    return np.linspace(lo, hi, m)[:, None]


def build_dataset(config: ExperimentConfig, stream: GaussianStream):
    """Equidistant train/test grids plus targets per the configured rule."""
    if config.network.input_dim != 1:
        raise ConfigError("grid datasets require input_dim = 1")
    train_x = _grid(config.train_m, *config.train_range)
    test_x = _grid(config.test_m, *config.test_range)
    if config.train_m == 0:
        train_y = np.zeros((0, config.network.output_dim))
    elif config.target_rule == "sin":
        train_y = np.tile(np.sin(train_x), (1, config.network.output_dim))
    else:  # prior_draw: realizable targets from one fixed draw at max width
        cfg = config.network.with_width(max(config.widths))
        params = sample_prior(cfg, stream)
        train_y = forward(params, cfg, train_x)
    return train_x, train_y, test_x


@dataclass
class SweepRow:
    width: int
    proposals: int
    accepts: int
    rf_mean_nngp: Optional[float]
    rf_cov_nngp: Optional[float]
    rf_mean_ntk: Optional[float]
    rf_cov_ntk: Optional[float]
    mean_likelihood: Optional[float]
    mean_likelihood_se: Optional[float]
    wall_seconds: float


def width_sweep(config: ExperimentConfig) -> List[SweepRow]:
    """Run the rejection sampler at every width and measure the relative
    Frobenius distance of its posterior moments to the NNGP and NTK ones."""
    if config.likelihood.kind != "gaussian":
        raise ConfigError("the width sweep requires a gaussian likelihood")
    stream = GaussianStream(config.seed, DATASET_STREAM_ID)
    train_x, train_y, test_x = build_dataset(config, stream)
    sigma2 = config.likelihood.sigma2

    rows = []
    for width in config.widths:
        cfg = config.network.with_width(width)
        t0 = time.perf_counter()
        report = rejection_sample(
            cfg, train_x, train_y, config.likelihood, test_x,
            config.n_proposals, config.seed, workers=config.workers,
        )
        wall = time.perf_counter() - t0
        dists = (None,) * 4
        if report.moments_valid:
            k_fn = lambda a, b: nngp_kernel(cfg, a, b)  # noqa: E731
            nngp = gp_posterior(k_fn, train_x, train_y, sigma2, test_x)
            ntk = ntk_posterior(cfg, train_x, train_y, sigma2, test_x)
            mean = report.posterior_mean[:, None]
            dists = (rel_frobenius(mean, nngp.mean[:, None]),
                     rel_frobenius(report.posterior_cov, nngp.cov),
                     rel_frobenius(mean, ntk.mean[:, None]),
                     rel_frobenius(report.posterior_cov, ntk.cov))
        rows.append(SweepRow(width, report.proposals, report.accepts, *dists,
                             report.mean_likelihood, report.mean_likelihood_se, wall))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_sweep_csv(rows: Sequence[SweepRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["width", "proposals", "accepts", "rf_mean_nngp",
                         "rf_cov_nngp", "rf_mean_ntk", "rf_cov_ntk",
                         "mean_likelihood", "mean_likelihood_se", "wall_seconds"])
        for r in rows:
            writer.writerow([_fmt(r.width), _fmt(r.proposals), _fmt(r.accepts),
                             _fmt(r.rf_mean_nngp), _fmt(r.rf_cov_nngp),
                             _fmt(r.rf_mean_ntk), _fmt(r.rf_cov_ntk),
                             _fmt(r.mean_likelihood), _fmt(r.mean_likelihood_se),
                             _fmt(r.wall_seconds)])


def linreg_rates_csv(n_grid: Sequence[int], m: int, seed: int, path: str) -> List[RateRow]:
    """Rate study CSV: per-n discrepancies plus a footer of log-log slopes.

    The W2 columns report the unsquared distance (root of the squared form
    computed internally). A grid the study cannot run raises
    :class:`ConfigError`: fewer than two points (no slope), not strictly
    increasing, or a point below ``m``."""
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 2:
        raise ConfigError("n_grid needs at least two points for the slope footer")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("n_grid must be strictly increasing")
    if m < 1:
        raise ConfigError("m must be >= 1")
    if n_grid[0] < m:
        raise ConfigError(f"every n must be >= m = {m}")
    rows = rate_sweep(n_grid=n_grid, m=m, seed=seed)
    ns = [r.n for r in rows]
    cols = {
        "w2": [float(np.sqrt(r.w2_sq)) for r in rows],
        "kl": [r.kl for r in rows],
        "n_mu_norm_sq": [r.n_mu_norm_sq for r in rows],
        "trace_term": [r.trace_term for r in rows],
        "w2_ntk_scaled": [float(np.sqrt(r.w2_ntk_sq)) for r in rows],
        "kl_ntk_scaled": [r.kl_ntk for r in rows],
    }
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + list(cols))
        for i, n in enumerate(ns):
            writer.writerow([_fmt(n)] + [_fmt(cols[c][i]) for c in cols])
        discard = max(0, min(2, len(ns) - 2))
        slopes = [_fmt(fit_loglog_slope(ns, cols[c], discard=discard)) for c in cols]
        writer.writerow(["slope"] + slopes)
    return rows
