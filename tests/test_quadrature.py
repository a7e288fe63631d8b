"""Checks of the one-dimensional quadrature engine in `quadrature`.

The engine's older checks are in `test_posterior.py`, next to the fits
that call it; they patch its internals where they live, in `quadrature`.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from heavyseries import make_prior, make_truth, quadrature, simulate
from heavyseries.errors import ConvergenceError, InvalidParameterError
from heavyseries.posterior import fit_posterior
from heavyseries.priors import CAUCHY, GAUSSIAN, HORSESHOE, STUDENT3
from heavyseries.quadrature import UnivariatePosterior, quadrature_mean_var

_LEVELS = (0.05, 0.5, 0.95)


@pytest.mark.parametrize("levels", [(1.5,), (-0.2,), (math.nan,), (0.0,),
                                    (1.0,), (0.5, 1.5, -0.2, math.nan)])
def test_quantile_levels_outside_the_unit_interval_rejected(levels,
                                                            monkeypatch):
    # np.interp would clamp such levels to the end nodes and pass NaN
    # through, so they raise before any panel is made
    def no_work(post):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(quadrature, "_panel_edges", no_work)
    with pytest.raises(InvalidParameterError, match="quantile levels"):
        quadrature_mean_var(UnivariatePosterior(1.0, 100.0, 0.0, CAUCHY),
                            quantiles=levels)


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("x", [5e-324, -5e-324], ids=["plus", "minus"])
def test_subnormal_observation_fits_like_zero(tail, x):
    # the panel [0, 5e-324] has half-width 0 after rounding, so all its
    # nodes sit on theta = 0, the horseshoe's pole; it carries no mass and
    # is dropped.  Measured: the x = 0 fit's variance and log normalizer
    # exactly, mean and quantiles within 1e-14 sd.
    mean, var, log_norm, qs, *_ = quadrature_mean_var(
        UnivariatePosterior(x, 1e3, 0.0, tail), quantiles=_LEVELS)
    z_mean, z_var, z_log_norm, z_qs, *_ = quadrature_mean_var(
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
# quantile levels q in (0, 1) whose mirror 1 - q is one as well
_LEVEL = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).filter(
    lambda q: 1.0 - q < 1.0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN]),
       st.one_of(_MODERATE, _MODERATE, _EXTREME),
       st.lists(_LEVEL, min_size=1, max_size=3))
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
    mean, var, log_norm, qs, *_ = plus
    m_mean, m_var, m_log_norm, m_qs, *_ = minus
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
    data = simulate(signal, n, seed=0)
    spec = make_prior(prior, n=n)
    fit = fit_posterior(data, spec, tol=1e-6)
    active = int(spec.coordinate_scales(data.truncation)[1].sum())
    assert fit.diagnostics["quadrature_levels"] == {0: active}


# -- the integration domain [min(x - w, -w), max(x + w, w)] -----------------


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
def test_wide_prior_scales_add_no_panels(tail):
    # the domain is set by the likelihood alone, so a wider prior adds no
    # panels; measured: 84 at every log sigma for the heavy tails, and
    # 105, 87, 86 and 84 for the Gaussian one, whose conjugate edges
    # add panels while its posterior sits inside the domain
    def panels(log_sigma):
        post = UnivariatePosterior(1.0, 1e3, log_sigma, tail)
        return len(quadrature._panel_edges(post)) - 1

    base = panels(0.0)
    for log_sigma in (30.0, 340.0, 700.0):
        assert panels(log_sigma) <= base, log_sigma


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("sigma,n,x", [(1e5, 1.0, 0.5), (1e5, 1e4, 3e3),
                                       (1e3, 1e4, 30.0), (1e1, 1.0, 0.5)])
def test_wide_prior_matches_brute_force_oracle(oracle, tail, sigma, n, x):
    # prior scales far wider than the likelihood, where the panels stop
    # at x + 12/sqrt(n) and the oracle integrates out to 1e10 sigma, so
    # it sees any mass the domain cuts off.  Measured over sigma in {1e1,
    # 1e3, 1e5}, n in {1, 1e4} and x in {0.5, 30, 3e3}: at most 2.3e-9
    # relative, the horseshoe at (1e1, 1, 0.5); the bound is
    # `test_posterior_oracle_equivalence`'s
    mean, *_ = quadrature_mean_var(
        UnivariatePosterior(x, n, math.log(sigma), tail), tol=1e-8)
    ref, _ = oracle(x, n, sigma, tail)
    assert abs(mean - ref) <= 1e-6 * max(abs(ref), 1e-3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN]),
       st.floats(-2.0, 8.0), st.floats(-40.0, 0.0), st.floats(-60.0, 5.0))
def test_mean_shrinks_toward_zero_near_the_pole(tail, log10_n, log10_x,
                                                log_sigma_over_w):
    # for a prior symmetric and nonincreasing in |theta| the marginal m of
    # x is symmetric and unimodal, so Tweedie's formula, mean = x +
    # (log m)'(x)/n, puts the mean at most x for x >= 0; the likelihood
    # favouring theta over -theta puts it at least 0.  Drawn here from
    # x = 3w down to far below sigma, and sigma from e^-60 w, deep in the
    # horseshoe pole's reach, to e^5 w.  Measured over 3,000 random cases
    # at tol 1e-8 and 1e-6: no violation, at most 2e-16 of the scale
    tol = 1e-8
    n = 10.0**log10_n
    w = 12.0 / math.sqrt(n)
    x = 3.0 * w * 10.0**log10_x
    mean, var, *_ = quadrature_mean_var(
        UnivariatePosterior(x, n, math.log(w) + log_sigma_over_w, tail),
        tol=tol)
    slack = tol * max(abs(mean), math.sqrt(var), 1e-9)
    assert -slack <= mean <= x + slack
    assert var > 0.0


# -- the panel ladder: octaves w 2^m from 2^-30 min(sigma, w) outward --------


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("log_sigma", [-700.0, -300.0, -69.0, -20.0, 0.0,
                                       30.0])
def test_panel_ladder_has_no_gap_below_the_window(tail, log_sigma):
    # every octave from 2^-30 min(sigma, w) up to w has an edge, so no
    # panel spans the prior's scale kink or the horseshoe pole's decades;
    # a ladder of fixed length below w alone left one panel spanning a
    # factor of about 6e5 at log sigma = -69, n = 1
    for n in (1e-2, 1.0, 1e3, 1e8):
        w = 12.0 / math.sqrt(n)
        bottom = max(min(math.exp(min(log_sigma, 700.0)), w) * 2.0**-30,
                     5e-324)
        for x in (0.0, 1.0):
            edges = quadrature._panel_edges(
                UnivariatePosterior(x, n, log_sigma, tail))
            # the Gaussian tail's conjugate edges can add some below it
            below = edges[(edges >= bottom) & (edges <= w)]
            assert below[0] <= 2.0 * bottom, (n, x)
            assert below[-1] == w, (n, x)
            # subnormal rungs round to a multiple of 5e-324, so one can
            # sit a step past twice the rung before it
            assert (below[1:] <= 2.0 * below[:-1] + 5e-324).all(), (n, x)


@pytest.mark.parametrize("tail,x,n,log_sigma", [
    (CAUCHY, 12.0, 1.0, -69.0),
    (HORSESHOE, 10.0, 1.0, -69.0),
    (STUDENT3, 2.0, 100.0, -75.0),
], ids=["cauchy", "horseshoe", "student-3"])
def test_tiny_prior_scale_matches_brute_force_oracle(oracle, tail, x, n,
                                                     log_sigma):
    # sigma far below w 2^-84, where fixed halvings of w left one panel
    # over every decade between sigma and w 2^-84 and missed the prior's
    # mass there: the Cauchy and horseshoe cases raised ConvergenceError,
    # and the Student-3 one returned variance 4.76e-12 against 2.90e-12.
    # Measured with the ladder: mean within 3.6e-8 and variance within
    # 4.0e-8 relative.  The oracle's own breakpoints leave a gap below
    # log sigma ~ -90, so the cases stay above it.
    mean, var, *_ = quadrature_mean_var(
        UnivariatePosterior(x, n, log_sigma, tail), tol=1e-8)
    ref_mean, ref_var = oracle(x, n, math.exp(log_sigma), tail)
    assert abs(mean - ref_mean) <= 1e-6 * max(abs(ref_mean), 1e-3)
    assert var == pytest.approx(ref_var, rel=1e-6)
