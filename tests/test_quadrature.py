"""Checks of the one-dimensional quadrature engine in `quadrature`.

The engine's older checks are in `test_posterior.py`, next to the fits
that call it; they patch its internals where they live, in `quadrature`.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from heavyseries import make_prior, make_truth, simulate
from heavyseries.errors import ConvergenceError
from heavyseries.posterior import fit_posterior
from heavyseries.priors import CAUCHY, GAUSSIAN, HORSESHOE, STUDENT3
from heavyseries.quadrature import UnivariatePosterior, quadrature_mean_var

_LEVELS = (0.05, 0.5, 0.95)


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("x", [5e-324, -5e-324], ids=["plus", "minus"])
def test_subnormal_observation_fits_like_zero(tail, x):
    # the panel [0, 5e-324] has half-width 0 after rounding, so all its
    # nodes sit on theta = 0, the horseshoe's pole; it carries no mass and
    # is dropped.  Measured: the x = 0 fit's variance and log normalizer
    # exactly, mean and quantiles within 1e-14 sd.
    mean, var, log_norm, qs = quadrature_mean_var(
        UnivariatePosterior(x, 1e3, 0.0, tail), quantiles=_LEVELS)
    z_mean, z_var, z_log_norm, z_qs = quadrature_mean_var(
        UnivariatePosterior(0.0, 1e3, 0.0, tail), quantiles=_LEVELS)
    sd = math.sqrt(z_var)
    assert z_mean == 0.0
    assert abs(mean) <= 1e-12 * sd
    assert var == pytest.approx(z_var, rel=1e-12)
    assert log_norm == pytest.approx(z_log_norm, abs=1e-12)
    for q in _LEVELS:
        assert abs(qs[q] - z_qs[q]) <= 1e-12 * sd, q


def _fit_or_error(post, levels):
    try:
        return quadrature_mean_var(post, quantiles=levels)
    except ConvergenceError as exc:
        return exc


# (log10 |x|, log10 n, log sigma): moderate inputs, and the ranges of
# `test_extreme_inputs_give_moments_or_convergence_error`
_MODERATE = st.tuples(st.floats(-4.0, 3.0), st.floats(-2.0, 8.0),
                      st.floats(-30.0, 5.0))
_EXTREME = st.tuples(st.floats(-300.0, 300.0), st.floats(-5.0, 300.0),
                     st.floats(-700.0, 700.0))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN]),
       st.one_of(_MODERATE, _MODERATE, _EXTREME),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_flipping_the_observation_mirrors_the_posterior(tail, inputs,
                                                        levels):
    # the posterior at -x is the one at x mirrored through 0: the mean
    # flips and the variance and normalizer stay, bit for bit, and the
    # q-quantile is minus the (1 - q)-quantile.  Measured over 3,000
    # random cases, 30% of them extreme: moments bit-exact, quantiles at
    # most 7.6e-14 sd apart, and identical errors wherever one side raised
    log10_x, log10_n, log_sigma = inputs
    x, n = 10.0**log10_x, 10.0**log10_n
    plus = _fit_or_error(UnivariatePosterior(x, n, log_sigma, tail),
                         [1.0 - q for q in levels])
    minus = _fit_or_error(UnivariatePosterior(-x, n, log_sigma, tail),
                          levels)
    if isinstance(plus, ConvergenceError) or isinstance(minus,
                                                        ConvergenceError):
        assert type(plus) is type(minus)
        assert str(plus) == str(minus)
        assert plus.achieved == minus.achieved
        return
    mean, var, log_norm, qs = plus
    m_mean, m_var, m_log_norm, m_qs = minus
    assert m_mean == -mean
    assert m_var == var
    assert m_log_norm == log_norm
    sd = math.sqrt(var)
    for q in levels:
        assert abs(m_qs[q] + qs[1.0 - q]) <= 1e-12 * sd, q


# The default experiments' regimes at seed 0: the `sobolev` priors at its
# smallest and largest n, `inhomogeneous` on bumps and `sparse-besov`'s
# last block.  Every fit was accepted at level 0 when measured, so no
# experiment output depends on how the refinement cap is handled.
_SOBOLEV_PRIORS = ("student3-ot", "cauchy-ot", "horseshoe-ot", "truncated-hs")


@pytest.mark.parametrize("truth,block,n,prior", [
    *[("sobolev-cos", 1, n, p) for n in (1e3, 1e5) for p in _SOBOLEV_PRIORS],
    ("bumps", 1, 1.0, "cauchy-wavelet-ot"),
    ("least-favorable", 4, 1e5, "cauchy-wavelet-ot"),
])
def test_default_experiment_coordinates_need_no_refinement(truth, block, n,
                                                           prior):
    signal = make_truth(truth, K=200, block_index=block, seed=0)
    data = simulate(signal, n, len(signal.coefficients), seed=0)
    spec = make_prior(prior, n=n)
    fit = fit_posterior(data, spec, tol=1e-6)
    active = int(spec.coordinate_scales(data.truncation)[1].sum())
    assert fit.diagnostics["quadrature_levels"] == {0: active}
