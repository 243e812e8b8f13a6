"""Experiment orchestration: datasets, width sweeps, rate study, CSV output.

Config keys are the fields of the config dataclasses (:func:`config_from_dict`)
and sweep CSV columns those of :class:`SweepRow`; unknown keys are rejected.
CSV values are rendered with 17 significant digits so runs with the same
config are byte-identical apart from the wall_seconds column.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BadRange, ConfigError, ZeroReference
from .kernels import gp_posterior, nngp_kernel, ntk_posterior
from .likelihood import LikelihoodSpec
from .linreg import RateRow, fit_loglog_slope, rate_sweep
from .metrics import rel_frobenius
from .network import NetworkConfig, forward, sample_prior
from .numkit import GaussianStream, is_finite_number, is_int, is_seed
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
# The config sections that group ExperimentConfig fields; every other field
# is a top-level key.
SECTIONS = {"dataset": ("train_m", "train_range", "target_rule"),
            "eval": ("test_m", "test_range")}


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
        for name, least in (("train_m", 0), ("test_m", 1), ("n_proposals", 1), ("workers", 1)):
            value = getattr(self, name)
            if not is_int(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if not is_seed(self.seed):
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.target_rule not in TARGET_RULES:
            raise ConfigError(f"target_rule must be one of {TARGET_RULES}")
        if not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        for name in ("train_range", "test_range"):
            value = getattr(self, name)
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(is_finite_number, value))):
                raise ConfigError(f"{name} must be two finite numbers, got {value!r}")
            setattr(self, name, tuple(float(v) for v in value))


def _take(doc, where: str, keys) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return doc


def _names(cls) -> List[str]:
    return [f.name for f in fields(cls)]


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document, strictly.

    ``network`` and ``likelihood`` take the fields of :class:`NetworkConfig`
    and :class:`LikelihoodSpec`; the other :class:`ExperimentConfig` fields are
    top-level keys or sit in their ``SECTIONS`` object. Each dataclass
    validates its fields; any failure raises :class:`ConfigError`."""
    grouped = {k for keys in SECTIONS.values() for k in keys}
    top = _take(doc, "config", (set(_names(ExperimentConfig)) - grouped) | set(SECTIONS))
    kwargs = {k: v for k, v in top.items() if k not in SECTIONS}
    for section, keys in SECTIONS.items():
        kwargs.update(_take(top.get(section, {}), section, keys))
    try:
        for key, cls in (("network", NetworkConfig), ("likelihood", LikelihoodSpec)):
            kwargs[key] = cls(**_take(top.get(key, {}), key, _names(cls)))
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(doc)


def _grid(m: int, lo: float, hi: float) -> np.ndarray:
    if lo > hi or (m > 1 and lo == hi):
        raise BadRange(f"invalid range [{lo}, {hi}] for {m} points")
    return np.linspace(lo, hi, m)[:, None]


def build_dataset(config: ExperimentConfig):
    """Equidistant train/test grids plus targets per the configured rule; a
    ``prior_draw`` rule draws its network from ``GaussianStream(config.seed,
    DATASET_STREAM_ID)``. Both make real-valued targets: a Gaussian likelihood."""
    if config.network.input_dim != 1:
        raise ConfigError("grid datasets require input_dim = 1")
    if config.likelihood.kind != "gaussian":
        raise ConfigError("grid datasets require a gaussian likelihood")
    train_x = _grid(config.train_m, *config.train_range)
    test_x = _grid(config.test_m, *config.test_range)
    if config.target_rule == "sin":
        train_y = np.tile(np.sin(train_x), (1, config.network.output_dim))
    else:  # prior_draw: realizable targets from one fixed draw at max width
        cfg = config.network.with_width(max(config.widths))
        params = sample_prior(cfg, GaussianStream(config.seed, DATASET_STREAM_ID))
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


def _rel_distance(a, b) -> Optional[float]:
    """:func:`rel_frobenius`, or None against a zero reference ``b``."""
    try:
        return rel_frobenius(a, b)
    except ZeroReference:
        return None


def width_sweep(config: ExperimentConfig) -> List[SweepRow]:
    """Run the rejection sampler at every width and measure the relative
    Frobenius distance of its posterior moments to the NNGP and NTK ones;
    a distance is None below two accepts or against a zero reference.
    Neither limit reads the hidden width, so both are computed once."""
    train_x, train_y, test_x = build_dataset(config)
    net, sigma2 = config.network, config.likelihood.sigma2
    nngp = gp_posterior(lambda a, b: nngp_kernel(net, a, b), train_x, train_y, sigma2, test_x)
    ntk = ntk_posterior(net, train_x, train_y, sigma2, test_x)

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
            mean = report.posterior_mean[:, None]
            dists = (_rel_distance(mean, nngp.mean[:, None]),
                     _rel_distance(report.posterior_cov, nngp.cov),
                     _rel_distance(mean, ntk.mean[:, None]),
                     _rel_distance(report.posterior_cov, ntk.cov))
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
    """One column per :class:`SweepRow` field, in order; an empty cell for None."""
    names = _names(SweepRow)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in rows:
            writer.writerow([_fmt(getattr(r, name)) for name in names])


def linreg_rates_csv(n_grid: Sequence[int], m: int, seed: int, path: str) -> List[RateRow]:
    """Rate study CSV: per-n discrepancies plus a footer of log-log slopes.

    The W2 columns report the unsquared distance (root of the squared form
    computed internally). A grid the study cannot run raises
    :class:`ConfigError`: fewer than two points (no slope), not strictly
    increasing, or a point below ``m``."""
    if len(n_grid) < 2:
        raise ConfigError("n_grid needs at least two points for the slope footer")
    try:
        rows = rate_sweep(n_grid, m, seed)
    except ValueError as exc:  # the grid checks of rate_sweep
        raise ConfigError(str(exc)) from exc
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
