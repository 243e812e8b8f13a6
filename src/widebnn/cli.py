"""Command-line entry point.

Subcommands:
  sweep        run the width sweep from a JSON config and write its CSV
  linreg-rates run the linear-regression rate study and write its CSV
  nngp         print the analytic NNGP posterior for a config as JSON
  sample       run the rejection sampler at one width and print a report

Exit codes: 0 success, 2 configuration error, 3 sweep produced no usable
moments at any width.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, WideBnnError
from .experiments import (
    build_dataset,
    linreg_rates_csv,
    load_config,
    width_sweep,
    write_sweep_csv,
)
from .kernels import gp_posterior, nngp_kernel
from .sampler import rejection_sample

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="widebnn")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="width sweep against NNGP/NTK limits")
    p_sweep.add_argument("--config", required=True, help="JSON config path")
    p_sweep.add_argument("--out", default=None,
                         help="CSV path (default: output_path from the config)")

    p_rates = sub.add_parser("linreg-rates", help="linear regression rate study")
    p_rates.add_argument("--n-grid", required=True,
                         help="comma-separated increasing feature counts")
    p_rates.add_argument("--m", type=int, default=8, help="observation count")
    p_rates.add_argument("--seed", type=int, default=0)
    p_rates.add_argument("--out", required=True, help="CSV output path")

    p_nngp = sub.add_parser("nngp", help="print the analytic NNGP posterior")
    p_nngp.add_argument("--config", required=True, help="JSON config path")

    p_sample = sub.add_parser("sample", help="rejection sampler at one width")
    p_sample.add_argument("--config", required=True, help="JSON config path")
    p_sample.add_argument("--width", type=int, required=True)
    return parser


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    rows = width_sweep(config)
    out = args.out or config.output_path
    write_sweep_csv(rows, out)
    for r in rows:
        print(f"width={r.width} accepts={r.accepts}/{r.proposals}"
              + ("" if r.rf_cov_nngp is None else
                 f" rf_mean_nngp={r.rf_mean_nngp:.6g} rf_cov_nngp={r.rf_cov_nngp:.6g}"))
    print(f"wrote {out}")
    if all(r.rf_cov_nngp is None for r in rows):
        print("error: no width produced enough accepted samples", file=sys.stderr)
        return 3
    return 0


def _cmd_rates(args) -> int:
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --n-grid: {exc}") from exc
    linreg_rates_csv(n_grid, args.m, args.seed, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_nngp(args) -> int:
    config = load_config(args.config)
    if config.likelihood.kind != "gaussian":
        raise ConfigError("the NNGP posterior requires a gaussian likelihood")
    train_x, train_y, test_x = build_dataset(config)
    cfg = config.network.with_width(max(config.widths))
    post = gp_posterior(lambda a, b: nngp_kernel(cfg, a, b),
                        train_x, train_y, config.likelihood.sigma2, test_x)
    json.dump({"mean": post.mean.tolist(), "cov": post.cov.tolist()},
              sys.stdout, indent=2)
    print()
    return 0


def _cmd_sample(args) -> int:
    config = load_config(args.config)
    train_x, train_y, test_x = build_dataset(config)
    try:
        cfg = config.network.with_width(args.width)
    except ValueError as exc:
        raise ConfigError(f"bad --width: {exc}") from exc
    report = rejection_sample(
        cfg, train_x, train_y, config.likelihood, test_x,
        config.n_proposals, config.seed, workers=config.workers,
    )
    arrays = ("posterior_mean", "posterior_cov", "recorded_param_stats")
    doc = {"width": args.width, **{k: v for k, v in vars(report).items() if k not in arrays}}
    if report.moments_valid:
        doc["posterior_mean"] = report.posterior_mean.tolist()
        doc["posterior_cov_diag"] = np.diag(report.posterior_cov).tolist()
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "linreg-rates": _cmd_rates,
        "nngp": _cmd_nngp,
        "sample": _cmd_sample,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WideBnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
