"""Exact posteriors of finite-width Bayesian neural networks.

A numerical laboratory around three objects and the distances between them:

* the exact posterior of a finite fully connected BNN, sampled by rejection
  against its own prior (:mod:`widebnn.sampler`);
* the analytic infinite-width limits, the NNGP and NTK Gaussian posteriors
  (:mod:`widebnn.kernels`);
* a Bayesian linear regression model whose prior-to-posterior discrepancies
  admit closed forms, used to study convergence rates (:mod:`widebnn.linreg`).

Discrepancies are measured with the relative Frobenius distance, the
2-Wasserstein distance, and the KL divergence (:mod:`widebnn.metrics`).
"""

from .errors import (
    BadRange,
    ConfigError,
    DimensionMismatch,
    InsufficientSamples,
    MalformedTarget,
    NotPositiveDefinite,
    NotPSD,
    RouteMismatch,
    SingularDistribution,
    WideBnnError,
    ZeroReference,
)
from .kernels import (
    GaussianPredictive,
    KernelPair,
    ew_cov,
    ew_dcov,
    gp_posterior,
    nngp_kernel,
    ntk_kernel,
    ntk_posterior,
)
from .likelihood import LikelihoodSpec, log_likelihood, log_likelihood_batch
from .linreg import (
    LinRegProblem,
    RateRow,
    fit_loglog_slope,
    linreg_posterior,
    linreg_predictive,
    ntk_rescale,
    rate_sweep,
    uniform_design_rule,
)
from .metrics import GaussianDist, kl_gaussian, rel_frobenius, w2_gaussian, w2_kl_gaussian
from .network import (
    NetworkConfig,
    ParameterSet,
    forward,
    prior_function_draws,
    reparametrise,
    sample_prior,
)
from .numkit import GaussianStream
from .sampler import (
    MomentAccumulator,
    SamplerReport,
    accumulate,
    finalize,
    merge,
    rejection_sample,
)
from .experiments import (
    ExperimentConfig,
    SweepRow,
    build_dataset,
    linreg_rates_csv,
    width_sweep,
    write_sweep_csv,
)

__version__ = "1.0.0"

__all__ = [
    "WideBnnError", "DimensionMismatch", "NotPositiveDefinite", "NotPSD",
    "MalformedTarget", "InsufficientSamples", "ZeroReference",
    "SingularDistribution", "BadRange", "ConfigError", "RouteMismatch",
    "GaussianStream",
    "NetworkConfig", "ParameterSet", "sample_prior", "forward",
    "reparametrise", "prior_function_draws",
    "LikelihoodSpec", "log_likelihood", "log_likelihood_batch",
    "KernelPair", "GaussianPredictive", "ew_cov", "ew_dcov",
    "nngp_kernel", "ntk_kernel", "gp_posterior", "ntk_posterior",
    "GaussianDist", "rel_frobenius", "w2_gaussian", "kl_gaussian", "w2_kl_gaussian",
    "LinRegProblem", "linreg_posterior", "ntk_rescale", "linreg_predictive",
    "RateRow", "rate_sweep", "fit_loglog_slope", "uniform_design_rule",
    "MomentAccumulator", "SamplerReport", "accumulate", "merge", "finalize",
    "rejection_sample",
    "ExperimentConfig", "SweepRow", "build_dataset", "width_sweep",
    "write_sweep_csv", "linreg_rates_csv",
]
