"""Scaled heavy-tailed series priors in the normal sequence model.

A simulation library and experiment CLI for Bayesian nonparametric
regression: per-coordinate posteriors under heavy-tailed priors with
polynomial or near-exponential scale decay, hierarchical Gaussian and
wavelet-thresholding baselines, minimax rate bookkeeping over Sobolev and
Besov classes, and a reproducible experiment harness.
"""

from .errors import (
    ConvergenceError,
    HeavySeriesError,
    InvalidParameterError,
    ShapeError,
    StateError,
)
from .harness import ExperimentConfig, ErrorRecord, run_experiment
from .model import SequenceData, TrueSignal, simulate
from .posterior import PosteriorSummary, credible_band, fit_posterior
from .priors import (
    CAUCHY,
    GAUSSIAN,
    HORSESHOE,
    STUDENT3,
    PriorSpec,
    horseshoe_log_density,
    horseshoe_sandwich_bounds,
    make_prior,
    sample_prior,
)
from .quadrature import UnivariatePosterior, quadrature_mean_var
from .signals import make_truth
from .spaces import RateSpec, besov_norm, rate_exponent, resolve_rate, sobolev_norm
from .thresholding import hybrid_sureshrink
from .wavelets import WaveletFrame, analyze, synthesize

__version__ = "1.0.0"

__all__ = [
    "CAUCHY",
    "GAUSSIAN",
    "HORSESHOE",
    "STUDENT3",
    "ConvergenceError",
    "ErrorRecord",
    "ExperimentConfig",
    "HeavySeriesError",
    "InvalidParameterError",
    "PosteriorSummary",
    "PriorSpec",
    "RateSpec",
    "SequenceData",
    "ShapeError",
    "StateError",
    "TrueSignal",
    "UnivariatePosterior",
    "WaveletFrame",
    "analyze",
    "besov_norm",
    "credible_band",
    "fit_posterior",
    "horseshoe_log_density",
    "horseshoe_sandwich_bounds",
    "hybrid_sureshrink",
    "make_prior",
    "make_truth",
    "quadrature_mean_var",
    "rate_exponent",
    "resolve_rate",
    "run_experiment",
    "sample_prior",
    "simulate",
    "sobolev_norm",
    "synthesize",
]
