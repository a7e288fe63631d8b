"""Checks of the one-dimensional posterior engine in `quadrature`, and of
the G7/K15 engine in `kronrod` that the tests keep as its second oracle.

The engine's older checks are in `test_posterior.py`, next to the fits
that call it.
"""

import copy
import math

import pytest
from hypothesis import given, settings, strategies as st

import kronrod
from heavyseries import make_prior, make_truth, simulate
from heavyseries.errors import ConvergenceError, InvalidParameterError
from heavyseries.posterior import fit_posterior
from heavyseries.priors import CAUCHY, GAUSSIAN, HORSESHOE, STUDENT3
from heavyseries.quadrature import (UnivariatePosterior, conjugate_mean_var,
                                   quadrature_mean_var)

_LEVELS = (0.05, 0.5, 0.95)


@pytest.mark.parametrize("levels", [(1.5,), (-0.2,), (math.nan,), (0.0,),
                                    (1.0,), (0.5, 1.5, -0.2, math.nan)])
def test_quantile_levels_outside_the_unit_interval_rejected(levels,
                                                            monkeypatch):
    # the quantile solve would bracket such levels at the ends of the
    # posterior's support and pass NaN through, so they raise before the
    # tail's mixing density is evaluated
    def no_work(u):
        raise AssertionError("quadrature ran")

    tail = copy.copy(CAUCHY)  # the shared tail stays unpatched
    monkeypatch.setattr(tail, "log_density_mixing", no_work)
    with pytest.raises(InvalidParameterError, match="quantile levels"):
        quadrature_mean_var(UnivariatePosterior(1.0, 100.0, 0.0, tail),
                            quantiles=levels)


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("x", [5e-324, -5e-324], ids=["plus", "minus"])
def test_subnormal_observation_fits_like_zero(tail, x):
    # x = 5e-324 gives the window of x = 0 and x^2 / v underflows to 0,
    # so only the means s x of the mixture's components differ.
    # Measured: the x = 0 fit's variance and log normalizer exactly, mean
    # and quantiles within 5e-15 sd.
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
    # q-quantile is minus the (1 - q)-quantile.  The engine works on |x|,
    # so moments and quantiles are bit-exact mirrors, and errors identical
    # wherever one side raised
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


# -- the G7/K15 oracle's domain [min(x - w, -w), max(x + w, w)] --------------


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
def test_wide_prior_scales_add_no_panels(tail):
    # the domain is set by the likelihood alone, so a wider prior adds no
    # panels; measured: 84 at every log sigma for the heavy tails, and
    # 105, 87, 86 and 84 for the Gaussian one, whose conjugate edges
    # add panels while its posterior sits inside the domain
    def panels(log_sigma):
        post = UnivariatePosterior(1.0, 1e3, log_sigma, tail)
        return len(kronrod._panel_edges(post)) - 1

    base = panels(0.0)
    for log_sigma in (30.0, 340.0, 700.0):
        assert panels(log_sigma) <= base, log_sigma


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("sigma,n,x", [(1e5, 1.0, 0.5), (1e5, 1e4, 3e3),
                                       (1e3, 1e4, 30.0), (1e1, 1.0, 0.5)])
def test_wide_prior_matches_brute_force_oracle(oracle, tail, sigma, n, x):
    # prior scales far wider than the likelihood, where the oracle
    # integrates out to 1e10 sigma, so it sees any mass the engine's
    # window cuts off.  Measured over sigma in {1e1,
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


# -- the oracle's panel ladder: octaves w 2^m from 2^-30 min(sigma, w) ------


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
            edges = kronrod._panel_edges(
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
    # sigma far below w 2^-84, where the G7/K15 engine's fixed halvings of
    # w once left one panel over every decade between sigma and w 2^-84
    # and missed the prior's mass there: the Cauchy and horseshoe cases
    # raised ConvergenceError, and the Student-3 one returned variance
    # 4.76e-12 against 2.90e-12.  Measured: mean within 3.6e-8 and
    # variance within 4.0e-8 relative, the oracle's own grid error.  The
    # oracle's breakpoints leave a gap below log sigma ~ -90, so the cases
    # stay above it.
    mean, var, *_ = quadrature_mean_var(
        UnivariatePosterior(x, n, log_sigma, tail), tol=1e-8)
    ref_mean, ref_var = oracle(x, n, math.exp(log_sigma), tail)
    assert abs(mean - ref_mean) <= 1e-6 * max(abs(ref_mean), 1e-3)
    assert var == pytest.approx(ref_var, rel=1e-6)


# -- the corners the G7/K15 engine answered wrongly within tol ---------------


def test_horseshoe_mass_far_below_the_spike_keeps_the_variance():
    # nearly all the posterior mass sits in the horseshoe's spike at 0,
    # whose scale is sigma = e^-511.8, while the variance comes from the
    # likelihood's reach out to theta ~ 1/sqrt(n), below e^-745 of the
    # spike's density: the G7/K15 engine dropped that mass and returned
    # variance 1.97e-284 within tol.  The reference integrates the
    # horseshoe's closed form over theta in mpmath, whose exponents do not
    # underflow, on breakpoints sigma e^j, j = -40, -30, ...; other
    # breakpoint sets moved it by up to 5e-5 relative.  Measured: variance
    # 6e-8 and mean 2e-7 relative from the reference
    mp = pytest.importorskip("mpmath")
    x, n, log_sigma = 0.0253, 0.0266, -511.8
    with mp.workdps(20):
        sigma = mp.exp(log_sigma)
        norm = 1 / mp.sqrt(2 * mp.pi**3)

        def density(t, power):
            z = (t / sigma) ** 2 / 2
            return (t**power * mp.exp(-n * (x - t) ** 2 / 2)
                    * norm * mp.exp(z) * mp.e1(z) / sigma)

        edges = [sigma * mp.exp(j) for j in range(-40, 518, 10)] + [20, 60]
        grid = [-t for t in reversed(edges)] + [0] + edges
        mass, first, second = (mp.quad(lambda t: density(t, k), grid)
                               for k in range(3))
        ref_mean = float(first / mass)
        ref_var = float(second / mass - (first / mass) ** 2)
    mean, var, *_ = quadrature_mean_var(
        UnivariatePosterior(x, n, log_sigma, HORSESHOE), tol=1e-8)
    assert var == pytest.approx(ref_var, rel=1e-3, abs=0.0)
    assert mean == pytest.approx(ref_mean, rel=1e-3, abs=0.0)


def test_gaussian_tail_matches_the_closed_form_below_the_observation_ulp():
    # sigma = e^-45.757 is below ulp(x) / 2 at x = 1.9369e7, where the
    # G7/K15 engine's -n (x - theta)^2 / 2 rounded every theta near the
    # prior to the same value and returned variance 1.65e-29 within tol,
    # against the closed form's 1.80e-40; the mixture forms the shrinkage
    # in the log domain and never subtracts theta from x
    x, n, log_sigma = 1.9369e7, 8.4912e12, -45.757
    tol = 1e-8
    mean, var, *_ = quadrature_mean_var(
        UnivariatePosterior(x, n, log_sigma, GAUSSIAN), tol=tol)
    ref_mean, ref_var = conjugate_mean_var(x, n, math.exp(log_sigma))
    assert mean == pytest.approx(ref_mean, rel=tol, abs=0.0)
    assert var == pytest.approx(ref_var, rel=tol, abs=0.0)


# -- both oracles over the experiments' range of inputs ----------------------


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN]),
       st.sampled_from([-1.0, 1.0]), st.floats(0.0, 6.0),
       st.floats(-3.0, math.log10(50.0)), st.floats(-10.0, 1.0))
def test_engine_matches_kronrod_and_brute_force_oracles(
        oracle, tail, sign, log10_n, log10_x_sqrt_n, log_sigma):
    # n from 1 to 1e6, |x| sqrt(n) from 1e-3 to 50, log sigma from -10 to
    # 1.  The step study (CHANGES.md) over h in {0.2, 0.1, 0.05} and W in
    # {20, 30, 40} measured, at h = 0.1 and W = 30, at most 4.8e-12 from
    # the G7/K15 oracle at tol 1e-10 over 400 random inputs (mean in sd,
    # variance relative; no setting got closer, so that is the oracle's own
    # error) and 3.7e-8 from the brute-force oracle over 48 (mean relative
    # to max(|mean|, 1e-3), variance relative; the same for every setting,
    # so that is the brute-force grid's).  The bounds leave a factor of
    # about 20 over each
    n = 10.0**log10_n
    x = sign * 10.0**log10_x_sqrt_n / math.sqrt(n)
    post = UnivariatePosterior(x, n, log_sigma, tail)
    mean, var, *_ = quadrature_mean_var(post, tol=1e-10)
    k_mean, k_var, *_ = kronrod.kronrod_mean_var(post, tol=1e-10)
    assert abs(mean - k_mean) <= 1e-10 * math.sqrt(k_var)
    assert var == pytest.approx(k_var, rel=1e-10, abs=0.0)
    b_mean, b_var = oracle(x, n, math.exp(log_sigma), tail)
    assert abs(mean - b_mean) <= 1e-6 * max(abs(b_mean), 1e-3)
    assert var == pytest.approx(b_var, rel=1e-6, abs=0.0)
