import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heavyseries import (basis, model, posterior, quadrature, rng, signals,
                         wavelets)
from heavyseries.errors import ConvergenceError, InvalidParameterError, StateError
from heavyseries.posterior import (
    PosteriorSummary,
    credible_band,
    fit_posterior,
    gibbs_hierarchical_gaussian,
)
from heavyseries.quadrature import (
    QUANTILES,
    UnivariatePosterior,
    conjugate_mean_var,
    quadrature_mean_var,
)
from heavyseries.priors import (
    CAUCHY,
    GAUSSIAN,
    HORSESHOE,
    STUDENT3,
    ConstantTruncatedScaling,
    GaussianHierarchicalScaling,
    OTScaling,
    PriorSpec,
    ScalingRule,
    coordinate_index,
    hierarchical_log_scale,
    make_prior,
)

# Fixed-grid trapezoid oracle value for the Cauchy tail at
# (x, n, sigma) = (3, 1, 1), domain [-60, 60], 10^7 points; frozen.
_CAUCHY_ORACLE_MEAN = 2.28513942905472
_CAUCHY_ORACLE_VAR = 1.11486368629567


def _post(x, n, sigma, tail):
    return UnivariatePosterior(x, n, math.log(sigma), tail)


# -- quadrature --------------------------------------------------------------


def test_frozen_cauchy_oracle():
    mean, var, *_ = quadrature_mean_var(_post(3.0, 1.0, 1.0, CAUCHY), tol=1e-10)
    assert mean == pytest.approx(_CAUCHY_ORACLE_MEAN, abs=2e-11)
    assert var == pytest.approx(_CAUCHY_ORACLE_VAR, abs=2e-11)


def test_zero_observation_exact_zero_mean():
    for tail in (CAUCHY, STUDENT3, HORSESHOE):
        mean, var, *_ = quadrature_mean_var(_post(0.0, 10.0, 0.1, tail))
        assert mean == 0.0
        assert var > 0.0


def test_gaussian_conjugacy():
    for x, n, sigma in [(2.0, 1.0, 1.0), (-5.0, 1e3, 0.01), (0.3, 1e6, 1e-4)]:
        mean, var, *_ = quadrature_mean_var(_post(x, n, sigma, GAUSSIAN),
                                            tol=1e-10)
        cm, cv = conjugate_mean_var(x, n, sigma)
        assert mean == pytest.approx(cm, abs=1e-10 * max(1.0, abs(cm)))
        assert var == pytest.approx(cv, rel=1e-8)


def test_sign_equivariance():
    for tail in (CAUCHY, HORSESHOE):
        mp, *_ = quadrature_mean_var(_post(4.0, 100.0, 0.01, tail))
        mn, *_ = quadrature_mean_var(_post(-4.0, 100.0, 0.01, tail))
        assert mn == -mp


def test_shrinkage_monotone_in_scale():
    # larger prior scale shrinks less: mean non-decreasing in sigma
    sigmas = np.logspace(-8, 0, 17)
    for tail in (CAUCHY, STUDENT3, HORSESHOE):
        means = [quadrature_mean_var(_post(2.0, 10.0, s, tail), tol=1e-9)[0]
                 for s in sigmas]
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:])), tail.name
        assert all(0.0 <= m <= 2.0 for m in means)


def test_bimodal_regime_against_oracle(oracle):
    # sigma << 1/sqrt(n) << x: well-separated modes near 0 and near x
    x, n, sigma = 5.0, 1e4, 1e-6
    om, ov = oracle(x, n, sigma, HORSESHOE)
    qm, qv, *_ = quadrature_mean_var(_post(x, n, sigma, HORSESHOE), tol=1e-8)
    assert qm == pytest.approx(om, rel=1e-7)
    assert qv == pytest.approx(ov, rel=1e-6)


def test_quantiles_bracket_mean():
    _, _, _, qs, *_ = quadrature_mean_var(_post(1.5, 100.0, 0.5, STUDENT3),
                                          quantiles=(0.05, 0.5, 0.95))
    assert qs[0.05] < qs[0.5] < qs[0.95]


def test_degenerate_scale():
    # a coordinate forced to 0 (log sigma = -inf) is skipped by every
    # fit, so the engine takes finite scales only and the fit itself
    # gives that coordinate mean 0 and variance 0
    with pytest.raises(InvalidParameterError, match="log_scale"):
        UnivariatePosterior(3.0, 1.0, -math.inf, CAUCHY)
    truth, _ = _sim(K=10)
    data = model.SequenceData(np.full(10, 3.0), 1.0, truth.basis, 0)
    summary = fit_posterior(
        data, PriorSpec(CAUCHY, ConstantTruncatedScaling(1.0, 4)))
    assert np.all(summary.means[4:] == 0.0)
    assert np.all(summary.variances[4:] == 0.0)
    assert np.all(summary.means[:4] > 0.0)


def test_invalid_inputs():
    with pytest.raises(InvalidParameterError):
        UnivariatePosterior(math.nan, 1.0, 0.0, CAUCHY)
    with pytest.raises(InvalidParameterError):
        UnivariatePosterior(1.0, 0.0, 0.0, CAUCHY)
    for log_scale in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match="log_scale"):
            UnivariatePosterior(1.0, 1.0, log_scale, CAUCHY)
    with pytest.raises(InvalidParameterError):
        quadrature_mean_var(_post(1.0, 1.0, 1.0, CAUCHY), tol=0.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=8.0),
       st.sampled_from([1.0, 1e3]),
       st.floats(min_value=-6.0, max_value=0.0))
def test_mean_between_zero_and_observation(x, n, log10_sigma):
    # symmetric unimodal prior: posterior mean lies in [0, x]
    mean, *_ = quadrature_mean_var(
        _post(x, n, 10.0**log10_sigma, STUDENT3), tol=1e-8)
    assert -1e-9 <= mean <= x + 1e-9


_TAIL_STRATEGY = st.sampled_from([CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN])


@settings(max_examples=150, deadline=None)
@given(_TAIL_STRATEGY, st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0),
       st.floats(-5.0, 300.0), st.floats(-700.0, 700.0))
# x = 3.83e171 and n = 5.70e127: the G7 mean's squared distance from the
# K15 mean overflows, which once raised OverflowError for this tail only
@example(GAUSSIAN, 1.0, 171.582955419379, 127.7562007304052,
         -55.84855640635999)
def test_extreme_inputs_give_moments_or_convergence_error(
        tail, sign, log10_x, log10_n, log_sigma):
    # |x| from 1e-300 to 1e300, n from 1e-5 to 1e300, sigma from e^-700 to
    # e^700: a finite mean and a variance >= 0, or a typed error
    post = UnivariatePosterior(sign * 10.0**log10_x, 10.0**log10_n,
                               log_sigma, tail)
    try:
        mean, var, *_ = quadrature_mean_var(post)
    except ConvergenceError:
        return
    assert math.isfinite(mean)
    assert 0.0 <= var < math.inf


@settings(max_examples=100, deadline=None)
@given(_TAIL_STRATEGY, st.floats(-5.0, 5.0),
       st.floats(0.0, 6.0), st.floats(-12.0, 1.0), st.integers(-6, 6))
def test_posterior_scales_with_the_observation(tail, x, log10_n, log_sigma,
                                               k):
    # theta -> c theta with c = 2^k maps the posterior at (x, n, sigma) to
    # the one at (c x, n / c^2, c sigma), so the moments scale by c and c^2.
    # Measured over 24,000 random cases and the corners of these ranges:
    # at most 2.0e-10 (Gaussian tail at n = 1e6, where n x^2 / 2 carries
    # rounding of about 2e-9 into the log density), 2e-12 for the others.
    # Subnormal x are drawn too: the horseshoe panels next to its pole
    # that are too narrow for their nodes are dropped
    c = 2.0**k
    n = 10.0**log10_n
    mean, var, *_ = quadrature_mean_var(
        UnivariatePosterior(x, n, log_sigma, tail))
    m_c, v_c, *_ = quadrature_mean_var(
        UnivariatePosterior(c * x, n / c**2, log_sigma + k * math.log(2.0),
                            tail))
    assert abs(m_c - c * mean) <= 1e-9 * c * math.sqrt(var)
    assert abs(v_c / (c * c * var) - 1.0) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("log_sigma", [340.0, 360.0, 600.0, 700.0, 750.0])
def test_extreme_prior_scale_gives_likelihood_answer(tail, log_sigma):
    # a prior this wide is flat across the likelihood N(1, 1/1000), so the
    # posterior is the likelihood's; far panels must not turn its variance
    # into NaN (inf * 0) nor overflow while building
    mean, var, _, qs, *_ = quadrature_mean_var(
        UnivariatePosterior(1.0, 1e3, log_sigma, tail), tol=1e-6,
        quantiles=(0.05, 0.5, 0.95))
    assert mean == pytest.approx(1.0, abs=1e-5)
    assert var == pytest.approx(1e-3, rel=1e-5)
    assert all(math.isfinite(q) for q in qs.values())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
def test_unrepresentable_moments_raise(tail):
    # a prior far wider than the likelihood N(1, 1/n): variance about
    # 1/n = 1e320, past the largest double
    with pytest.raises(ConvergenceError, match="moments not representable"):
        quadrature_mean_var(UnivariatePosterior(1.0, 1e-320, 400.0, tail),
                            tol=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
def test_tiny_precision_moments_finite(tail):
    # likelihood sd 1e150 around x = 1 and a prior of scale e^300, about
    # 1.9e130: the posterior is nearly the prior cut off at about 1e150,
    # and its variance (1e260 to 1e280) is representable, although the
    # panel widths reach 1e150
    sigma = math.exp(300.0)
    mean, var, log_norm, *_ = quadrature_mean_var(
        UnivariatePosterior(1.0, 1e-300, 300.0, tail))
    assert math.isfinite(log_norm)
    assert 0.0 < var < math.inf
    assert abs(mean) < 1e-6 * math.sqrt(var)
    expected = {
        "gaussian": sigma**2,            # sigma^2 / (1 + n sigma^2)
        "student-3": 3.0 * sigma**2,     # df / (df - 2) sigma^2
        # the Cauchy density 1/(pi sigma t^2) against the likelihood
        "cauchy": sigma * math.sqrt(2.0 / (math.pi * 1e-300)),
    }
    if tail.name in expected:
        assert var == pytest.approx(expected[tail.name], rel=1e-6)


_QUANTILE_LEVELS = (0.05, 0.5, 0.95)


def _fine_grid_quantiles(post):
    """Quantiles on the engine's panels split 64 times, one mid-point node
    per piece carrying its piece's mass, the CDF centred on the nodes.  It
    shares the panel layout with the engine, not the rule or the horseshoe
    spline (the tails' exact log_density)."""
    edges = quadrature._split_edges(quadrature._panel_edges(post), 64)
    mid = (edges[:-1] + edges[1:]) / 2.0
    logf = (-0.5 * post.noise_precision * (post.observation - mid) ** 2
            + post.tail.log_density(mid / math.exp(post.log_scale)))
    mass = np.diff(edges) * np.exp(logf - logf.max())
    mass /= mass.sum()
    centred = np.cumsum(mass) - mass / 2.0
    return {q: float(np.interp(q, centred, mid)) for q in _QUANTILE_LEVELS}


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
def test_quantiles_match_fine_grid_oracle(tail):
    # measured: at most 1.1e-3 posterior sd over these cases (the oracle
    # itself moves by about 1.5e-5 sd from 64 to 512 pieces per panel);
    # the node-CDF interpolation it replaced was 1.8e-2 sd off; the bound
    # leaves a margin of about 3 over the measurement
    worst = 0.0
    for x, n, sigma in [(1.5, 1e3, 1e-3), (1.5, 1e3, 0.05), (1.5, 1e3, 1.0),
                        (0.3, 1e4, 0.01), (-2.0, 100.0, 0.1),
                        (5.0, 1e4, 1e-6)]:
        post = _post(x, n, sigma, tail)
        _, var, _, qs, *_ = quadrature_mean_var(post, tol=1e-6,
                                                quantiles=_QUANTILE_LEVELS)
        ref = _fine_grid_quantiles(post)
        worst = max(worst, max(abs(qs[q] - ref[q]) for q in ref)
                    / math.sqrt(var))
    assert worst < 3e-3


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
def test_default_coordinate_evaluates_one_pass(tail):
    # a G7/K15 pass evaluates 15 nodes per panel; a second, confirming
    # pass over split panels would evaluate at least 30
    points = []
    counted = copy.copy(tail)  # the shared tail stays unwrapped

    def log_density_scaled(theta, log_scale):
        points.append(np.size(theta))
        return tail.log_density_scaled(theta, log_scale)

    counted.log_density_scaled = log_density_scaled
    for x, n, sigma in [(0.3, 1e3, 0.05), (0.01, 1e5, 1e-3), (2.0, 1e4, 1.0)]:
        post = _post(x, n, sigma, counted)
        panels = len(quadrature._panel_edges(post)) - 1
        points.clear()
        quadrature_mean_var(post, tol=1e-6, quantiles=_QUANTILE_LEVELS)
        assert 0 < sum(points) <= 15 * panels, (x, n, sigma)


def test_fit_posterior_reports_capped_coordinates(monkeypatch):
    _, data = _sim(K=10)
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    tol = 1e-6
    plain = fit_posterior(data, prior, method="quadrature", tol=tol)
    diag = plain.diagnostics
    assert diag == {"method": "quadrature", "quadrature_levels": {0: 10},
                    "quadrature_max_achieved": diag["quadrature_max_achieved"]}
    assert 0.0 < diag["quadrature_max_achieved"] <= tol
    real = quadrature._kronrod_pass

    def stalled(post, edges):
        # coordinates 3 and 7 never get below tol: 3 ends within 10 tol,
        # 7 beyond it; every coordinate above tol at the cap raises
        *moments, achieved = real(post, edges)
        for i, err in ((3, 5.0 * tol), (7, 20.0 * tol)):
            if abs(post.observation) == abs(data.observations[i]):
                achieved = err
        return (*moments, achieved)

    monkeypatch.setattr(quadrature, "_kronrod_pass", stalled)
    with pytest.raises(ConvergenceError) as info:
        fit_posterior(data, prior, method="quadrature", tol=tol)
    assert info.value.index == 3
    assert info.value.achieved == 5.0 * tol
    # with coordinate 7 truncated away, 3 still raises
    truncated = PriorSpec(CAUCHY, ConstantTruncatedScaling(0.5, 7))
    with pytest.raises(ConvergenceError) as info:
        fit_posterior(data, truncated, method="quadrature", tol=tol)
    assert info.value.index == 3
    assert info.value.achieved == 5.0 * tol
    with pytest.raises(ConvergenceError) as info:
        quadrature_mean_var(UnivariatePosterior(
            data.observations[7], data.noise_precision,
            prior.scaling.log_scale(8), CAUCHY), tol=tol)
    assert info.value.achieved == 20.0 * tol
    # with both truncated away, every coordinate is accepted at level 0
    fit = fit_posterior(data, PriorSpec(CAUCHY,
                                        ConstantTruncatedScaling(0.5, 3)),
                        tol=tol)
    assert fit.diagnostics["quadrature_levels"] == {0: 3}


# -- quadrature oracle: the panel builders it replaced -----------------------


def _reference_panel_edges(post):
    """The panel builder as it was before it was assembled from arrays:
    a set of Python floats.  Kept verbatim as the oracle for
    `_panel_edges`."""
    from heavyseries.priors import GaussianTail

    x = post.observation
    n = post.noise_precision
    sigma = math.exp(min(post.log_scale, 700.0))
    w = quadrature._WINDOW / math.sqrt(n)
    lo, hi = x - w, x + w
    a = min(lo, -w)
    b = max(hi, w)
    edges = set()
    for c in quadrature._LIKE_OFFSETS:
        edges.add(x - c / math.sqrt(n))
        edges.add(x + c / math.sqrt(n))
    if isinstance(post.tail, GaussianTail) and sigma > 0:
        m0 = x * n * sigma**2 / (1.0 + n * sigma**2)
        sd0 = sigma / math.sqrt(1.0 + n * sigma**2)
        for c in quadrature._LIKE_OFFSETS:
            edges.add(m0 - c * sd0)
            edges.add(m0 + c * sd0)
    if a < 0.0 < b:
        edges.add(0.0)
    bottom = max(math.ldexp(min(sigma, w), -quadrature._LADDER_DEPTH), 5e-324)
    e_w = math.frexp(w)[1]
    for m in range(math.frexp(bottom)[1] - e_w,
                   math.frexp(max(abs(a), abs(b)))[1] - e_w + 1):
        for s in (-math.ldexp(w, m), math.ldexp(w, m)):
            if a < s < b:
                edges.add(s)
    edges.add(a)
    edges.add(b)
    return np.array(sorted(e for e in edges if a <= e <= b))


def _reference_split_edges(edges, factor):
    """The generator-based panel splitter `_split_edges` replaced."""
    if factor <= 1:
        return edges
    out = [edges[0]]
    for left, right in zip(edges[:-1], edges[1:]):
        step = (right - left) / factor
        out.extend(left + step * (i + 1) for i in range(factor))
    return np.array(out)


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
def test_panel_edges_match_reference(tail):
    # np.array_equal compares values: where the set and the sort keep a
    # different one of 0.0 and -0.0, no node, weight or split edge differs
    for x in (0.0, -0.0, -2.5, 1.0, 1e6):
        # sigma = exp(-800) underflows to 0: the ladder's 5e-324 floor
        for log_sigma in (-800.0, -700.0, -20.0, math.log(1e-3), 0.0,
                          30.0):
            for n in (1e-2, 1.0, 1e3, 1e8):
                post = UnivariatePosterior(x, n, log_sigma, tail)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    edges = quadrature._panel_edges(post)
                ref = _reference_panel_edges(post)
                assert np.array_equal(edges, ref), (x, log_sigma, n)
                for factor in range(1, 17):
                    assert np.array_equal(
                        quadrature._split_edges(edges, factor),
                        _reference_split_edges(ref, factor)), factor


def test_quadrature_matches_reference_panels(monkeypatch):
    posts = [_post(x, n, sigma, tail)
             for tail in (CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN)
             for x, n, sigma in [(0.0, 10.0, 0.1), (-1.3, 1e3, 0.05),
                                 (5.0, 1e4, 1e-6), (0.02, 1e8, 1e-3)]]
    levels = (0.05, 0.5, 0.95)
    got = [quadrature_mean_var(p, tol=1e-8, quantiles=levels) for p in posts]
    _, data = _sim(K=30)
    truncated = PriorSpec(HORSESHOE, ConstantTruncatedScaling(1e-3, 12))
    fit = fit_posterior(data, truncated, method="quadrature")
    monkeypatch.setattr(quadrature, "_panel_edges", _reference_panel_edges)
    monkeypatch.setattr(quadrature, "_split_edges", _reference_split_edges)
    for p, (mean, var, log_norm, qs, *_) in zip(posts, got):
        r_mean, r_var, r_log_norm, r_qs, *_ = quadrature_mean_var(
            p, tol=1e-8, quantiles=levels)
        assert np.array_equal([mean, var, log_norm, *qs.values()],
                              [r_mean, r_var, r_log_norm, *r_qs.values()])
    ref = fit_posterior(data, truncated, method="quadrature")
    assert np.array_equal(fit.means, ref.means)
    assert np.array_equal(fit.variances, ref.variances)
    for q in levels:
        assert np.array_equal(fit.quantiles[q], ref.quantiles[q])


# -- Metropolis --------------------------------------------------------------


def _batch_se(draws):
    # batch-means standard error, robust to autocorrelation
    b = 50
    k = len(draws) // b
    means = draws[: k * b].reshape(k, b).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(k)


@pytest.mark.parametrize("x,n,sigma,tail", [
    (2.0, 1.0, 1.0, CAUCHY),
    (3.0, 100.0, 0.05, STUDENT3),
    (5.0, 1e4, 1e-6, HORSESHOE),   # bimodal
    (0.5, 10.0, 1e-4, HORSESHOE),
])
def test_metropolis_matches_quadrature(x, n, sigma, tail):
    qm, qv, *_ = quadrature_mean_var(_post(x, n, sigma, tail), tol=1e-9)
    (draws,), (acc,) = posterior._metropolis_block(
        [x], n, [math.log(sigma)], tail, 4000, 2000, 0, [0])
    se = max(_batch_se(draws), math.sqrt(qv / len(draws)))
    assert abs(draws.mean() - qm) < 3.0 * se
    assert 0.0 < acc < 1.0


def test_metropolis_conjugate_case():
    cm, cv = conjugate_mean_var(1.0, 10.0, 1.0)
    (draws,), _ = posterior._metropolis_block(
        [1.0], 10.0, [0.0], GAUSSIAN, 4000, 2000, 1, [0])
    assert abs(draws.mean() - cm) < 3.0 * _batch_se(draws)
    assert draws.var() == pytest.approx(cv, rel=0.2)


def test_metropolis_degenerate_precision():
    (draws,), _ = posterior._metropolis_block(
        [2.0], 1e12, [0.0], CAUCHY, 2000, 2000, 2, [0])
    assert np.max(np.abs(draws - 2.0)) < 1e-4


def test_metropolis_deterministic():
    a, _ = posterior._metropolis_block(
        [1.0], 10.0, [math.log(0.1)], CAUCHY, 100, 100, 3, [0])
    b, _ = posterior._metropolis_block(
        [1.0], 10.0, [math.log(0.1)], CAUCHY, 100, 100, 3, [0])
    assert np.array_equal(a, b)


# -- assembled fits ----------------------------------------------------------


def _sim(K=30, n=1e3, seed=0):
    truth = signals.truth_sobolev_cos(K)
    return truth, model.simulate(truth, n, seed=seed)


def test_fit_posterior_quadrature_beats_zero_estimator():
    truth, data = _sim()
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    summary = fit_posterior(data, prior, method="quadrature")
    err = np.linalg.norm(summary.means - truth.coefficients)
    assert err < np.linalg.norm(truth.coefficients)


def test_fit_posterior_zero_data():
    truth, _ = _sim(K=10)
    data = model.SequenceData(np.zeros(10), 100.0, truth.basis, 0)
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    summary = fit_posterior(data, prior, method="quadrature")
    assert np.array_equal(summary.means, np.zeros(10))


def test_convergence_error_names_coordinate(monkeypatch):
    truth, data = _sim(K=10)
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    real = posterior.quadrature_mean_var

    def failing(post, **kwargs):
        # as at the refinement cap, for coordinate 6 only
        if post.observation == data.observations[6]:
            raise ConvergenceError("quadrature did not reach tol=1e-06",
                                   achieved=3e-5)
        return real(post, **kwargs)

    monkeypatch.setattr(posterior, "quadrature_mean_var", failing)
    with pytest.raises(ConvergenceError) as info:
        fit_posterior(data, prior, method="quadrature")
    exc = info.value
    assert exc.index == 6
    assert exc.observation == data.observations[6]
    assert exc.noise_precision == data.noise_precision
    assert exc.log_scale == prior.scaling.log_scale(7)
    assert exc.tail == "cauchy"
    assert exc.achieved == 3e-5
    assert "at coordinate 6 " in str(exc)
    assert f"x={float(data.observations[6])!r}" in str(exc)


def test_truncated_coordinates_exactly_zero():
    truth, data = _sim(K=30)
    prior = PriorSpec(HORSESHOE, ConstantTruncatedScaling(1e-3, 12))
    summary = fit_posterior(data, prior, method="quadrature")
    assert np.all(summary.means[12:] == 0.0)
    assert np.all(summary.variances[12:] == 0.0)
    ((mat, _),) = posterior.metropolis_draws([(data, prior)], draws=50,
                                             burn_in=50)
    assert np.all(mat[12:] == 0.0)


def test_metropolis_chunk_invariance(monkeypatch):
    _, data = _sim(K=20)
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    monkeypatch.setattr(posterior, "_CHUNK", 7)
    ((a, _),) = posterior.metropolis_draws([(data, prior)], draws=200,
                                           burn_in=200, seed=0)
    monkeypatch.setattr(posterior, "_CHUNK", 1024)
    ((b, _),) = posterior.metropolis_draws([(data, prior)], draws=200,
                                           burn_in=200, seed=0)
    assert np.array_equal(a, b)


# -- the engine's log-prior kernel: the dispatching one it replaced ---------


def _reference_student_log_abs(tail, log_abs_x):
    """TailFamily.log_density_log_abs with StudentTail.log_density_large,
    as they were before the large-argument branch moved into
    StudentTail.log_density_log_abs, with the Student log_density of
    that time written out."""
    def log_density(x):
        return tail._log_norm - 0.5 * (tail.df + 1) * np.log1p(
            x * x / tail.df)

    u = np.asarray(log_abs_x, dtype=float)
    big = u > 150.0
    if not big.any():
        return log_density(np.exp(u))
    out = np.empty_like(u)
    out[big] = tail._log_norm - (tail.df + 1) * (
        np.asarray(u[big]) - 0.5 * math.log(tail.df)
    )
    out[~big] = log_density(np.exp(u[~big]))
    return out


def _reference_log_tail(theta, log_scale, tail):
    """posterior._log_tail as it was before each tail had its own
    `log_density_scaled`: it picked the horseshoe's spline by type and
    gave exact zeros a value per tail.  Kept verbatim, with the horseshoe
    spline path under its new name, as the bit-for-bit oracle."""
    from heavyseries.priors import HorseshoeTail, StudentTail

    horseshoe = isinstance(tail, HorseshoeTail)
    if horseshoe:
        density = tail._engine_log_abs
    elif isinstance(tail, StudentTail):
        def density(u):
            return _reference_student_log_abs(tail, u)
    else:
        density = tail.log_density_log_abs
    ax = np.abs(theta)
    zero = ax == 0.0
    if not zero.any():
        return density(np.log(ax) - log_scale)
    out = np.empty(ax.shape)
    # the horseshoe pole is integrable; quadrature nodes avoid it
    out[zero] = np.inf if horseshoe else tail.log_density(0.0)
    rest = ~zero
    if rest.any():
        if np.ndim(log_scale):
            log_scale = log_scale[rest]
        out[rest] = density(np.log(ax[rest]) - log_scale)
    return out


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, GAUSSIAN, HORSESHOE],
                         ids=lambda tail: tail.name)
def test_log_density_scaled_matches_reference(tail):
    gen = np.random.default_rng(17)
    # exact zeros among magnitudes from subnormal to near overflow, so
    # log|theta| - log_scale crosses every branch: the Student large
    # argument (> 150), the horseshoe spline range [-80, 80] and beyond
    theta = np.concatenate([
        [0.0, -0.0, 5e-324, -1e-300, 1e-160, 1.0, -2.5, 1e150, -1e300,
         1.7e308],
        gen.standard_cauchy(300) * 10.0 ** gen.uniform(-300, 300, 300)])
    theta[10::9] = 0.0
    per_element = gen.uniform(-745.0, 709.0, theta.size)
    nonzero = theta != 0.0
    cases = [(theta, ls) for ls in (0.0, -3.0, -744.0, 300.0, 709.0)]
    cases += [
        (theta, per_element),
        (theta[nonzero], per_element[nonzero]),
        (theta[nonzero], -3.0),
        (np.zeros(4), per_element[:4]),
        (np.zeros(4), -2.0),
        (np.asarray(0.0), -2.0),
        (np.asarray(3.0), -2.0),
    ]
    for th, ls in cases:
        got = tail.log_density_scaled(th, ls)
        ref = _reference_log_tail(th, ls, tail)
        assert np.array_equal(got, ref), (th, ls)
        assert np.shape(got) == np.shape(ref)


# -- Metropolis oracle: the (chain, step) sampler it replaced ---------------


def _reference_metropolis_block(xs, n, log_scales, tail, draws, burn_in,
                                seed, indices):
    """The sampler as it was before its random inputs were laid out by
    step: four (chain, step) arrays, proposals built inside the step loop.
    Kept verbatim as the bit-for-bit oracle for `_metropolis_block`."""
    from heavyseries import rng
    from heavyseries.priors import HorseshoeTail

    xs = np.asarray(xs, dtype=float)
    k = len(xs)
    total = draws + burn_in
    z = np.empty((k, total))
    u_acc = np.empty((k, total))
    u_mix = np.empty((k, total))
    u_jump = np.empty((k, total))
    cur = np.empty(k)
    for ci, idx in enumerate(indices):
        gen = rng.coord_generator(seed, rng.STREAM_CHAIN, idx)
        cur[ci] = gen.uniform(-2.0, 2.0)
        z[ci] = gen.standard_normal(total)
        u_acc[ci] = gen.random(total)
        u_mix[ci] = gen.random(total)
        u_jump[ci] = gen.random(total)
    sig_log = np.asarray(log_scales, dtype=float)

    def target(theta):
        lp = -0.5 * n * (xs - theta) ** 2
        ax = np.abs(theta)
        out = np.empty(k)
        zero = ax == 0.0
        if isinstance(tail, HorseshoeTail):
            out[zero] = np.inf
            if np.any(~zero):
                out[~zero] = tail._engine_log_abs(
                    np.log(ax[~zero]) - sig_log[~zero])
        else:
            if np.any(zero):
                out[zero] = tail.log_density(0.0)
            if np.any(~zero):
                out[~zero] = tail.log_density_log_abs(
                    np.log(ax[~zero]) - sig_log[~zero])
        return lp + out

    step = np.maximum(np.exp(sig_log), 0.5 / math.sqrt(n))
    big = np.maximum(1.0, np.abs(xs))
    sig = np.exp(sig_log)
    like_sd = 1.0 / math.sqrt(n)

    def log_envelope(theta):
        lc = -np.log(math.pi * sig * (1.0 + (theta / sig) ** 2))
        ln = (-0.5 * ((theta - xs) / like_sd) ** 2
              - math.log(like_sd) - 0.5 * math.log(2.0 * math.pi))
        return np.logaddexp(lc, ln) + math.log(0.5)

    cur_lp = target(cur)
    cur_lq = log_envelope(cur)
    out = np.empty((k, draws))
    window_acc = np.zeros(k)
    kept = np.zeros(k)
    for t in range(total):
        um = u_mix[:, t]
        jump = um < posterior._JUMP_PROB
        sd = np.where(um < posterior._JUMP_PROB + posterior._BIG_STEP_PROB,
                      big, step)
        walk = cur + sd * z[:, t]
        uj = u_jump[:, t]
        cauchy = sig * np.tan(math.pi * (2.0 * uj - 0.5))
        ind = np.where(uj < 0.5, cauchy, xs + like_sd * z[:, t])
        prop = np.where(jump, ind, walk)
        lp = target(prop)
        lq = log_envelope(prop)
        ratio = lp - cur_lp + np.where(jump, cur_lq - lq, 0.0)
        with np.errstate(invalid="ignore"):
            accept = np.log(u_acc[:, t]) < ratio
        accept &= np.isfinite(ratio) | (ratio == np.inf)
        cur = np.where(accept, prop, cur)
        cur_lp = np.where(accept, lp, cur_lp)
        cur_lq = np.where(accept, lq, cur_lq)
        if t < burn_in:
            window_acc += accept
            if (t + 1) % posterior._ADAPT_EVERY == 0:
                rate = window_acc / posterior._ADAPT_EVERY
                step = step * np.where(
                    rate > 0.5, 1.6, np.where(rate < 0.3, 1.0 / 1.6, 1.0))
                window_acc[:] = 0.0
        else:
            kept += accept
            out[:, t - burn_in] = cur
    return out, kept / draws


def _chain_inputs(k, seed):
    """Observations and log prior scales for k chains: spread-out signals,
    scales from 1 down to far below the noise level, and every fourth
    scale the smallest subnormal, so that Cauchy independence proposals
    round to exactly theta = 0 while the envelope there stays finite."""
    gen = np.random.default_rng(seed)
    xs = gen.normal(0.0, 2.0, size=k)
    log_scales = gen.uniform(-12.0, 0.0, size=k)
    log_scales[::4] = math.log(5e-324)
    return xs, log_scales


def _assert_block_matches_reference(tail, chains, refill=None):
    xs, log_scales = _chain_inputs(chains, seed=chains)
    if chains == 1:  # the lone chain gets an ordinary scale
        log_scales[0] = -3.0
    indices = np.arange(chains) * 3 + 5
    if refill is not None:
        refill(chains)
    args = (xs, 1e3, log_scales, tail, 150, 150, 7, indices)
    draws, acc = posterior._metropolis_block(*args)
    ref_draws, ref_acc = _reference_metropolis_block(*args)
    assert np.array_equal(draws, ref_draws)
    assert np.array_equal(acc, ref_acc)


def _assert_jump_extremes_match_reference(monkeypatch, tail, jump_prob,
                                          big_step_prob, refill=None):
    # the envelope terms are evaluated only for the chains that jump: none
    # of them, or all of them, at every step
    monkeypatch.setattr(posterior, "_JUMP_PROB", jump_prob)
    monkeypatch.setattr(posterior, "_BIG_STEP_PROB", big_step_prob)
    xs, log_scales = _chain_inputs(60, seed=13)
    indices = np.arange(60) * 3 + 5
    if refill is not None:
        refill(len(xs))
    args = (xs, 1e3, log_scales, tail, 120, 130, 7, indices)
    draws, acc = posterior._metropolis_block(*args)
    ref_draws, ref_acc = _reference_metropolis_block(*args)
    assert np.array_equal(draws, ref_draws)
    assert np.array_equal(acc, ref_acc)


def _assert_merged_block_matches_reference(tail, supply_out, refill=None):
    # one block over three noise precisions; every group reuses the same
    # stream indices, and two chains within a group share one as well
    ns = (1.0, 1e3, 1e6)
    xs, log_scales = _chain_inputs(40, seed=11)
    indices = np.arange(40) * 3 + 5
    indices[7] = indices[2]
    k = 3 * len(xs)
    if refill is not None:
        refill(k)
    args = (np.tile(xs, 3), np.repeat(ns, len(xs)), np.tile(log_scales, 3),
            tail, 120, 130, 7, np.tile(indices, 3))
    if supply_out:
        parent = np.full((k + 2, 120), np.nan)
        out = parent[1:k + 1]
        draws, acc = posterior._metropolis_block(*args, out=out)
        assert draws is out
        assert np.all(np.isnan(parent[[0, -1]]))
    else:
        draws, acc = posterior._metropolis_block(*args)
    for g, n in enumerate(ns):
        rows = slice(g * len(xs), (g + 1) * len(xs))
        ref_draws, ref_acc = _reference_metropolis_block(
            xs, n, log_scales, tail, 120, 130, 7, indices)
        assert np.array_equal(draws[rows], ref_draws), n
        assert np.array_equal(acc[rows], ref_acc), n


# Refill widths that end `_metropolis_block`'s input tables inside
# adaptation batches, at batch edges and across the end of burn-in (burn-in
# 130 and 150 are not multiples of `_ADAPT_EVERY`); the tests without
# `refill` run at the shipped budget, whose width these short chains never
# reach.  The fixture returns a function that sets the scratch budget to
# that width for a block of the given number of chains.
@pytest.fixture(params=[1, 7, 50, 130], ids=lambda w: f"refill-{w}")
def refill(request, monkeypatch):
    def set_width(chains):
        monkeypatch.setattr(wavelets, "_BLOCK_VALUES", request.param * chains)
    return set_width


_TAILS = pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE,
                                          GAUSSIAN], ids=lambda t: t.name)
_JUMP_EXTREMES = pytest.mark.parametrize(
    "jump_prob,big_step_prob", [(0.0, 0.4), (1.0, 0.0)],
    ids=["no-chain-jumps", "every-chain-jumps"])
# subnormal scales overflow theta / sigma in the envelope; that is expected
_envelope_warnings = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


@_envelope_warnings
@_TAILS
@pytest.mark.parametrize("chains", [1, 200])
def test_metropolis_block_matches_reference(tail, chains):
    _assert_block_matches_reference(tail, chains)


@_envelope_warnings
@_TAILS
@pytest.mark.parametrize("chains", [1, 200])
def test_metropolis_block_matches_reference_across_refills(tail, chains,
                                                           refill):
    _assert_block_matches_reference(tail, chains, refill)


@_envelope_warnings
@_TAILS
@_JUMP_EXTREMES
def test_metropolis_block_matches_reference_at_jump_extremes(
        monkeypatch, tail, jump_prob, big_step_prob):
    _assert_jump_extremes_match_reference(monkeypatch, tail, jump_prob,
                                          big_step_prob)


@_envelope_warnings
@_TAILS
@_JUMP_EXTREMES
def test_jump_extremes_match_reference_across_refills(
        monkeypatch, tail, jump_prob, big_step_prob, refill):
    _assert_jump_extremes_match_reference(monkeypatch, tail, jump_prob,
                                          big_step_prob, refill)


@_envelope_warnings
@_TAILS
@pytest.mark.parametrize("supply_out", [False, True], ids=["new", "out"])
def test_merged_block_matches_per_n_reference(tail, supply_out):
    _assert_merged_block_matches_reference(tail, supply_out)


@_envelope_warnings
@_TAILS
@pytest.mark.parametrize("supply_out", [False, True], ids=["new", "out"])
def test_merged_block_matches_reference_across_refills(tail, supply_out,
                                                       refill):
    _assert_merged_block_matches_reference(tail, supply_out, refill)


def test_shared_streams_cut_block_memory():
    import tracemalloc

    gen = np.random.default_rng(12)
    xs = gen.normal(0.0, 2.0, size=600)
    log_scales = gen.uniform(-12.0, 0.0, size=600)
    ns = np.repeat([1.0, 1e3, 1e6], 200)
    peaks = []
    for indices in (np.tile(np.arange(200), 3), np.arange(600)):
        tracemalloc.start()
        try:
            posterior._metropolis_block(xs, ns, log_scales, STUDENT3, 600,
                                        600, 3, indices)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the random inputs are stored once per distinct stream
    assert peaks[0] < 0.7 * peaks[1]


def test_block_scratch_does_not_grow_with_chain_length(scratch_peak):
    # Random inputs are made one refill at a time.  Measured with `out`
    # supplied, 256 Student-3 chains: 6.45 MB of scratch at 4000 + 2000
    # steps and 6.39 MB at 800 + 400 (1024-step refills); whole-run input
    # tables took 30.6 and 7.1 MB.  The bound leaves 10% for allocator noise.
    gen = np.random.default_rng(5)
    xs = gen.normal(0.0, 2.0, size=256)
    log_scales = gen.uniform(-12.0, 0.0, size=256)
    peaks = [scratch_peak(posterior._metropolis_block, xs, 1e3, log_scales,
                          STUDENT3, draws, burn_in, 3, np.arange(256),
                          np.empty((256, draws)))
             for draws, burn_in in ((4000, 2000), (800, 400))]
    assert peaks[0] < 1.1 * peaks[1], peaks


def test_wide_block_scratch_stays_within_budget(scratch_peak):
    # A full chunk of distinct streams, as `inhomogeneous` runs it: its
    # tables hold 2^18 values each whatever the chain length.  Measured
    # with `out` supplied, 1024 Cauchy chains: 10.35 MB of scratch at
    # 4000 + 2000 steps and 10.30 MB at 800 + 400 (500-step refills into
    # three float tables took 21.4 MB).  The bounds leave 10% for
    # allocator noise.
    gen = np.random.default_rng(8)
    xs = gen.normal(0.0, 2.0, size=1024)
    log_scales = gen.uniform(-12.0, 0.0, size=1024)
    peaks = [scratch_peak(posterior._metropolis_block, xs, 1.0, log_scales,
                          CAUCHY, draws, burn_in, 0, np.arange(1024),
                          np.empty((1024, draws)))
             for draws, burn_in in ((4000, 2000), (800, 400))]
    assert peaks[0] < 1.1 * peaks[1], peaks
    assert peaks[0] < 1.1 * 10.35e6, peaks


def _reference_fit_draws(data, prior, draws, burn_in, seed, chunk=1024):
    prior.check_basis(data.basis)
    log_s, active = prior.coordinate_scales(data.truncation)
    draw_mat = np.zeros((data.truncation, draws))
    acc = np.zeros(data.truncation)
    act_idx = np.flatnonzero(active)
    for start in range(0, len(act_idx), chunk):
        sel = act_idx[start:start + chunk]
        draw_mat[sel], acc[sel] = _reference_metropolis_block(
            data.observations[sel], data.noise_precision, log_s[sel],
            prior.tail, draws, burn_in, seed, sel)
    return draw_mat, acc[active]


@pytest.mark.parametrize("K,prior", [
    (1100, PriorSpec(CAUCHY, OTScaling(0.5))),  # two chunks of chains
    (30, PriorSpec(HORSESHOE, ConstantTruncatedScaling(1e-3, 12))),
], ids=["two-chunks", "truncated"])
def test_fit_metropolis_matches_reference(K, prior):
    truth = signals.truth_sobolev_cos(K)
    data = model.simulate(truth, 1e3, seed=4)
    ((mat, acc),) = posterior.metropolis_draws([(data, prior)], draws=60,
                                               burn_in=100, seed=9)
    ref_draws, ref_acc = _reference_fit_draws(data, prior, 60, 100, 9)
    assert np.array_equal(mat, ref_draws)
    assert np.array_equal(acc, ref_acc)


@pytest.mark.parametrize("chunk", [7, 1024])
def test_fit_metropolis_matches_separate_fits(chunk, monkeypatch):
    # one batched `metropolis_draws` call gives each pair the draws and
    # acceptance of a call for that pair alone
    truth = signals.truth_sobolev_cos(30)
    pairs = [
        (model.simulate(truth, 1e3, seed=4),
         PriorSpec(HORSESHOE, OTScaling(0.5))),
        (model.simulate(truth, 1e4, seed=4),
         PriorSpec(HORSESHOE, ConstantTruncatedScaling(1e-3, 12))),
        (model.simulate(truth, 1e5, seed=5),
         PriorSpec(HORSESHOE, OTScaling(0.5))),
    ]
    monkeypatch.setattr(posterior, "_CHUNK", chunk)
    batched = posterior.metropolis_draws(pairs, draws=60, burn_in=100, seed=9)
    assert len(batched) == len(pairs)
    for (mat, acc), (data, prior) in zip(batched, pairs):
        ((alone, alone_acc),) = posterior.metropolis_draws(
            [(data, prior)], draws=60, burn_in=100, seed=9)
        assert np.array_equal(mat, alone)
        assert np.array_equal(acc, alone_acc)
    assert np.all(batched[1][0][12:] == 0.0)


def test_metropolis_draws_returns_draw_stacks():
    truth = signals.truth_sobolev_cos(8)
    data = model.simulate(truth, 1e3, seed=4)
    prior = PriorSpec(CAUCHY, ConstantTruncatedScaling(1e-1, 5))
    (stack,) = posterior.metropolis_draws([(data, prior)], draws=20,
                                          burn_in=10, seed=9)
    assert isinstance(stack, posterior.DrawStack)
    assert stack.draws.shape == (8, 20)
    assert stack.acceptance.shape == (5,)
    # it unpacks as the (draws, acceptance) pair it replaced
    mat, acc = stack
    assert mat is stack.draws and acc is stack.acceptance


def test_fit_metropolis_rejects_mixed_tails():
    _, data = _sim(K=5)
    with pytest.raises(InvalidParameterError):
        posterior.metropolis_draws(
            [(data, PriorSpec(CAUCHY, OTScaling(0.5))),
             (data, PriorSpec(STUDENT3, OTScaling(0.5)))], draws=10,
            burn_in=10)


def test_invalid_chain_lengths_rejected():
    _, data = _sim(K=5)
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    _, wavelet_data = _wavelet_data()
    hierarchical = make_prior("gaussian-hierarchical")
    for draws, burn_in in [(0, 10), (10, -5)]:
        with pytest.raises(InvalidParameterError):
            fit_posterior(wavelet_data, hierarchical, draws=draws,
                          burn_in=burn_in)
        # fixed scales go through quadrature, which runs no chain, and
        # still reject the lengths as every prior does
        with pytest.raises(InvalidParameterError):
            fit_posterior(data, prior, draws=draws, burn_in=burn_in)
        with pytest.raises(InvalidParameterError):
            posterior.metropolis_draws([(data, prior)], draws=draws,
                                       burn_in=burn_in)


def _moment_rows(count):
    return wavelets._BLOCK_VALUES // count


# the last two shapes cross `_draw_moments`'s row block
@pytest.mark.parametrize("shape", [(200, 4000), (7, 13),
                                   (_moment_rows(13) + 1, 13),
                                   (2 * _moment_rows(40) + 7, 40)])
def test_draw_moments_quantiles_match_per_level_calls(shape):
    draws = np.random.default_rng(6).standard_cauchy(size=shape)
    means, variances, quantiles = posterior._draw_moments(draws)
    assert tuple(quantiles) == QUANTILES
    for q in QUANTILES:
        assert np.array_equal(quantiles[q], np.quantile(draws, q, axis=1)), q
    assert np.array_equal(means, draws.mean(axis=1))
    assert np.array_equal(variances, draws.var(axis=1))


def test_draw_moments_scratch_does_not_grow_with_draws(scratch_peak):
    # Measured on a 2048-coordinate stack: 2.25 MB of scratch at 1000
    # draws and 2.22 MB at 3000; the whole-stack calls took 16.7 and
    # 49.5 MB.  The bound leaves 10% for allocator noise.
    gen = np.random.default_rng(7)
    peaks = [scratch_peak(posterior._draw_moments,
                          gen.standard_cauchy(size=(2048, count)))
             for count in (1000, 3000)]
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_gaussian_tail_fit_matches_closed_form():
    # a Gaussian tail with fixed scales goes through quadrature, whose
    # mean is within tol of max(|mean|, sd) and whose variance is within
    # tol relative, as every coordinate's achieved error is
    _, data = _sim(K=15)
    prior = PriorSpec(GAUSSIAN, OTScaling(0.5), baseline=True)
    tol = 1e-6
    summary = fit_posterior(data, prior, tol=tol)
    assert summary.diagnostics["method"] == "quadrature"
    assert summary.diagnostics["quadrature_max_achieved"] <= tol
    sig = np.exp(prior.scaling.log_scale(np.arange(1, 16)))
    cm, cv = conjugate_mean_var(data.observations, data.noise_precision, sig)
    scale = np.maximum(np.abs(cm), np.sqrt(cv))
    assert np.all(np.abs(summary.means - cm) <= tol * scale)
    assert np.all(np.abs(summary.variances - cv) <= tol * cv)


def test_unknown_method_rejected():
    _, data = _sim(K=5)
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    for method in ("laplace", "conjugate", "metropolis"):
        with pytest.raises(InvalidParameterError):
            fit_posterior(data, prior, method=method)


def test_summary_validation():
    with pytest.raises(InvalidParameterError):
        PosteriorSummary(np.zeros(3), np.array([1.0, -1.0, 0.0]), {})


# -- hierarchical Gaussian baseline ------------------------------------------


def _wavelet_data(seed=0, n=1.0):
    from heavyseries.wavelets import WaveletFrame

    frame = WaveletFrame("symmlet-8", 256, 4)
    truth = signals.truth_quartet("heavisine", frame)
    return truth, model.simulate(truth, n, seed=seed)


def test_gibbs_runs_and_mixes():
    _, data = _wavelet_data()
    summary = gibbs_hierarchical_gaussian(data, draws=600, burn_in=300, seed=0)
    assert 0.1 <= summary.diagnostics["acceptance_hyper"] <= 0.7
    assert summary.draws.shape == (256, 600)
    assert np.all(summary.variances >= 0.0)


def test_gibbs_marginal_identity():
    # the analytic marginal log-likelihood equals brute-force integration
    # over the coefficients on a 3-coordinate problem
    from scipy import integrate

    x = np.array([0.7, -1.2, 0.4])
    n = 4.0
    levels = np.array([-1, 0, 1])
    u, v = 0.3, -0.2
    analytic = posterior._gibbs_log_marginal(x * x, n, levels.astype(float),
                                             np.arange(3), u, v)
    tau, alpha = math.exp(u), math.exp(v)
    log_prior = -u - math.exp(-u) + v - math.exp(v)
    total = 0.0
    for xi, j in zip(x, levels):
        sig = tau * 2.0 ** (-max(j, 0) * (0.5 + alpha))

        def f(theta, xi=xi, sig=sig):
            return (math.exp(-0.5 * n * (xi - theta) ** 2)
                    * math.sqrt(n / (2 * math.pi))
                    * math.exp(-0.5 * theta**2 / sig**2)
                    / (sig * math.sqrt(2 * math.pi)))

        val, _ = integrate.quad(f, -20 * sig, 20 * sig, limit=400)
        total += math.log(val)
    assert analytic == pytest.approx(total + log_prior, abs=1e-10)


def _per_coordinate_log_marginal(x, n, levels, u, v):
    log_sig = hierarchical_log_scale(u, math.exp(v), levels)
    var = 1.0 / n + np.exp(2.0 * log_sig)
    loglik = -0.5 * np.sum(np.log(2 * math.pi * var) + x * x / var)
    return loglik + (-u - math.exp(-u) + v - math.exp(v))


def _per_coordinate_gibbs(data, draws, burn_in, seed):
    """The Gibbs sampler with its scales formed on every coordinate."""
    x, n, K = data.observations, data.noise_precision, data.truncation
    levels = coordinate_index(K, level_indexed=True).astype(float)
    gen = rng.coord_generator(seed, rng.STREAM_GIBBS, 0)
    u, v = 0.0, 0.0
    cur_lp = _per_coordinate_log_marginal(x, n, levels, u, v)
    out = np.empty((K, draws))
    window_acc = 0
    sd = posterior._GIBBS_PROPOSAL_SD
    for t in range(draws + burn_in):
        pu = u + sd * gen.standard_normal()
        pv = v + sd * gen.standard_normal()
        lp = _per_coordinate_log_marginal(x, n, levels, pu, pv)
        if math.log(gen.random()) < lp - cur_lp:
            u, v, cur_lp = pu, pv, lp
            window_acc += 1
        if t < burn_in and (t + 1) % posterior._ADAPT_EVERY == 0:
            rate = window_acc / posterior._ADAPT_EVERY
            if rate > 0.5:
                sd *= 1.5
            elif rate < 0.15:
                sd /= 1.5
            window_acc = 0
        if t >= burn_in:
            log_sig = hierarchical_log_scale(u, math.exp(v), levels)
            s2 = np.exp(2.0 * log_sig)
            shrink = n * s2 / (1.0 + n * s2)
            post_sd = np.sqrt(s2 / (1.0 + n * s2))
            out[:, t - burn_in] = x * shrink + post_sd * gen.standard_normal(K)
    return out


def test_gibbs_level_arithmetic_matches_per_coordinate_form():
    # the scales are formed once per level and gathered to the
    # coordinates; every coordinate keeps its bits
    frame = wavelets.WaveletFrame("symmlet-8", 2048, 5)
    bumps = signals.truth_quartet("bumps", frame)
    for data in (_wavelet_data(seed=4)[1],
                 model.simulate(bumps, 1.0, seed=0)):
        x, n, K = data.observations, data.noise_precision, data.truncation
        flat = coordinate_index(K, level_indexed=True)
        levels = np.arange(-1.0, flat.max() + 1.0)
        for u, v in [(0.0, 0.0), (0.7, -1.3), (-2.0, 0.4)]:
            assert (posterior._gibbs_log_marginal(x * x, n, levels, flat + 1,
                                                  u, v)
                    == _per_coordinate_log_marginal(x, n, flat.astype(float),
                                                    u, v)), (K, u, v)
        fit = gibbs_hierarchical_gaussian(data, draws=40, burn_in=110, seed=2)
        assert np.array_equal(fit.draws, _per_coordinate_gibbs(data, 40, 110,
                                                               2)), K


def test_gibbs_deterministic():
    _, data = _wavelet_data()
    a = gibbs_hierarchical_gaussian(data, draws=50, burn_in=50, seed=1)
    b = gibbs_hierarchical_gaussian(data, draws=50, burn_in=50, seed=1)
    assert np.array_equal(a.draws, b.draws)


@pytest.mark.parametrize("method", ["quadrature", "metropolis", "conjugate"])
def test_fit_posterior_sends_hierarchical_gaussian_to_gibbs(method):
    _, data = _wavelet_data(seed=2)
    fit = fit_posterior(data, make_prior("gaussian-hierarchical"),
                        method=method, draws=30, burn_in=20, seed=3)
    ref = gibbs_hierarchical_gaussian(data, draws=30, burn_in=20, seed=3)
    assert fit.diagnostics["method"] == "gibbs"
    assert fit.diagnostics == ref.diagnostics
    assert np.array_equal(fit.draws, ref.draws)
    assert np.array_equal(fit.means, ref.means)
    assert np.array_equal(fit.variances, ref.variances)
    for q in QUANTILES:
        assert np.array_equal(fit.quantiles[q], ref.quantiles[q])


def test_fit_posterior_checks_the_basis_before_gibbs():
    # `PriorSpec.check_basis` is the check on the hierarchical route too
    from heavyseries.errors import ShapeError

    _, data = _sim(K=8)
    with pytest.raises(ShapeError, match="level-indexed prior applied to "
                                         "single-index data"):
        fit_posterior(data, make_prior("gaussian-hierarchical"), draws=10,
                      burn_in=10)


@dataclass(frozen=True)
class _EvenZeroScaling(ScalingRule):
    """sigma_k = 1/k on odd k, log sigma_k = -inf on even k."""

    kind = "even-zero"

    def log_scale(self, k):
        k = np.asarray(k, dtype=float)
        return np.where(k % 2 == 1, -np.log(k), -np.inf)


def test_minus_inf_log_scale_forces_zero_on_every_path():
    # log sigma = -inf alone forces a coordinate to 0: quadrature means
    # and Metropolis rows are exactly 0 there, and no chain runs on it
    _, data = _sim(K=8)
    prior = PriorSpec(CAUCHY, _EvenZeroScaling())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_posterior(data, prior)
        ((mat, acc),) = posterior.metropolis_draws([(data, prior)], draws=60,
                                                   burn_in=100, seed=9)
    assert np.all(fit.means[1::2] == 0.0) and np.all(fit.variances[1::2] == 0.0)
    assert np.all(fit.variances[0::2] > 0.0)
    assert sum(fit.diagnostics["quadrature_levels"].values()) == 4
    assert np.all(mat[1::2] == 0.0)
    assert len(acc) == 4 and np.all(acc > 0.0)


# -- credible bands ----------------------------------------------------------


def test_band_requires_draws():
    summary = PosteriorSummary(np.zeros(3), np.zeros(3), {})
    with pytest.raises(StateError):
        credible_band(summary, basis.cosine_basis())


@pytest.mark.parametrize("level", [0.0, -0.5, 1.5, math.nan])
def test_band_rejects_levels_outside_zero_one(level):
    summary = PosteriorSummary(np.zeros(2), np.zeros(2), {},
                               draws=np.zeros((2, 10)))
    with pytest.raises(InvalidParameterError, match="level must be in"):
        credible_band(summary, basis.cosine_basis(), m=16, level=level)


def test_band_identical_draws_zero_width():
    means = np.array([1.0, -0.5])
    draws = np.tile(means[:, None], (1, 40))
    summary = PosteriorSummary(means, np.zeros(2), {}, draws=draws)
    band = credible_band(summary, basis.cosine_basis(), m=64)
    assert posterior.band_width(band) == 0.0
    assert np.allclose(band["center"], band["lower"])


def test_band_excludes_outer_cluster():
    gen = np.random.default_rng(0)
    inner = gen.normal(0.0, 0.01, size=(1, 90))
    outer = np.full((1, 10), 5.0)
    draws = np.concatenate([inner, outer], axis=1)
    means = draws.mean(axis=1, keepdims=True)
    summary = PosteriorSummary(means[:, 0], np.ones(1), {}, draws=draws)
    band = credible_band(summary, basis.cosine_basis(), m=32, level=0.9)
    # sqrt(2) cos basis peaks at sqrt(2); inner cluster stays below 0.1
    assert np.max(band["upper"]) < 1.0


def test_band_level_one_is_full_envelope():
    gen = np.random.default_rng(1)
    draws = gen.normal(size=(2, 30))
    summary = PosteriorSummary(draws.mean(axis=1), draws.var(axis=1), {},
                               draws=draws)
    full = credible_band(summary, basis.cosine_basis(), m=16, level=1.0)
    part = credible_band(summary, basis.cosine_basis(), m=16, level=0.5)
    assert np.all(full["upper"] >= part["upper"] - 1e-12)
    assert np.all(full["lower"] <= part["lower"] + 1e-12)


def test_band_wavelet_matches_per_draw_synthesis():
    frame = wavelets.WaveletFrame("symmlet-8", 256, 3)
    wavelet_basis = basis.wavelet_basis(frame)
    gen = np.random.default_rng(2)
    # the second count keeps curves across more than one envelope block
    for count in (300, 2 * (wavelets._BLOCK_VALUES // 256) + 37):
        draws = (gen.normal(size=(256, count))
                 / np.arange(1.0, 257.0)[:, None])
        summary = PosteriorSummary(draws.mean(axis=1), draws.var(axis=1),
                                   {}, draws=draws)
        band = credible_band(summary, wavelet_basis, level=0.9)
        # reference: the band from one synthesize call per draw
        center = basis.synthesize(summary.means, wavelet_basis, 256)
        curves = np.array([basis.synthesize(draws[:, i], wavelet_basis, 256)
                           for i in range(count)])
        dist = np.mean((curves - center[None, :]) ** 2, axis=1)
        kept = curves[np.argsort(dist)[: math.ceil(0.9 * len(dist))]]
        assert np.array_equal(band["grid"], basis.grid(wavelet_basis, 256))
        assert np.array_equal(band["center"], center)
        assert np.array_equal(band["lower"], kept.min(axis=0))
        assert np.array_equal(band["upper"], kept.max(axis=0))


def _whole_stack_band(summary, b, m, level):
    """The band from one synthesize call over the whole stack, ranked by
    argsort."""
    center = basis.synthesize(summary.means, b, m)
    curves = basis.synthesize(summary.draws.T, b, m)
    dist = np.mean((curves - center[None, :]) ** 2, axis=1)
    kept = curves[np.argsort(dist)[: math.ceil(level * len(dist))]]
    return center, kept.min(axis=0), kept.max(axis=0)


# the budget is set to slices of 256 draws on the 256-point grid; the last
# slice of a cosine band holds at least `basis._PRODUCT_TAIL` (512) draws,
# so the counts cross both
_BAND_STEP = 256
_TAIL = basis._PRODUCT_TAIL


@pytest.mark.parametrize("count", [
    1, 2, _BAND_STEP - 1, _BAND_STEP, _BAND_STEP + 1, 2 * _BAND_STEP + 37,
    _BAND_STEP + _TAIL - 1, _BAND_STEP + _TAIL, 2 * _BAND_STEP + _TAIL + 37,
    4005])
def test_band_cosine_matches_whole_stack(count, monkeypatch):
    monkeypatch.setattr(wavelets, "_BLOCK_VALUES", _BAND_STEP * 256)
    b = basis.cosine_basis()
    gen = np.random.default_rng(count)
    draws = (gen.standard_cauchy(size=(200, count))
             / np.arange(1.0, 201.0)[:, None])
    summary = PosteriorSummary(draws.mean(axis=1), np.zeros(200), {},
                               draws=draws)
    # 0.5 / count keeps one draw
    for level in (1.0, 0.95, 0.5, 0.5 / count):
        band = credible_band(summary, b, m=256, level=level)
        center, lower, upper = _whole_stack_band(summary, b, 256, level)
        assert np.array_equal(band["grid"], basis.grid(b, 256))
        assert np.array_equal(band["center"], center)
        assert np.array_equal(band["lower"], lower), level
        assert np.array_equal(band["upper"], upper), level


def test_band_centres_on_the_draws_row_means():
    # `means` 1.0 off the draws' row means: the band ignores them, and a
    # `DrawStack`, which carries no means, gives the same band
    b = basis.cosine_basis()
    draws = np.random.default_rng(3).normal(size=(5, 50))
    row_means = PosteriorSummary(draws.mean(axis=1), np.zeros(5), {},
                                 draws=draws)
    shifted = PosteriorSummary(row_means.means + 1.0, np.zeros(5), {},
                               draws=draws)
    expected = _whole_stack_band(row_means, b, 64, 0.9)

    def check(summary):
        band = credible_band(summary, b, m=64, level=0.9)
        for key, value in zip(("center", "lower", "upper"), expected):
            assert np.array_equal(band[key], value), key

    check(shifted)
    check(posterior.DrawStack(draws, np.ones(5)))


def test_band_scratch_does_not_grow_with_draws(scratch_peak):
    # Measured on a K = 200 cosine stack on 256 points, design matrix
    # cached: 4.17 MB of scratch at 1000 draws (one slice) and 4.71 MB at
    # 4000 (slices of 1024 draws, the last 928); the whole-stack band took
    # 4.17 and 16.45 MB.  Only the pool of the 5% farthest curves grows with
    # the draws, 0.3 MB here, held twice while it is rebuilt.  The bounds
    # leave 10% for allocator noise.
    b = basis.cosine_basis()
    basis.synthesize(np.zeros(200), b, 256)  # caches the design matrix
    gen = np.random.default_rng(8)
    peaks = []
    for count in (1000, 4000):
        draws = gen.normal(size=(200, count))
        summary = PosteriorSummary(draws.mean(axis=1), np.zeros(200), {},
                                   draws=draws)
        peaks.append(scratch_peak(credible_band, summary, b))
    pool_growth = 2 * (200 - 50) * 256 * 8
    assert peaks[1] < 1.1 * (peaks[0] + pool_growth), peaks
    assert peaks[1] < 1.1 * 4.71e6, peaks


def test_wavelet_band_slices_at_the_budget(scratch_peak):
    # A Symmlet-8 frame synthesizes each row on its own, so its last slice
    # needs no product tail: on 2048 points the slices hold 128 draws.
    # Measured: 10.53 MB of scratch at 1000 draws and 11.35 MB at 2000;
    # with a last slice of at least 512 draws they took 21.14 and 21.18 MB.
    # The pool of the 5% farthest curves, held twice while it is rebuilt,
    # grows by 1.6 MB.  The bounds leave 10% for allocator noise.
    b = basis.wavelet_basis(wavelets.WaveletFrame("symmlet-8", 2048, 5))
    gen = np.random.default_rng(9)
    peaks = []
    for count in (1000, 2000):
        draws = (gen.normal(size=(2048, count))
                 / np.arange(1.0, 2049.0)[:, None])
        summary = PosteriorSummary(draws.mean(axis=1), np.zeros(2048), {},
                                   draws=draws)
        peaks.append(scratch_peak(credible_band, summary, b))
    pool_growth = 2 * (100 - 50) * 2048 * 8
    assert peaks[1] < 1.1 * (peaks[0] + pool_growth), peaks
    assert peaks[1] < 1.1 * 11.35e6, peaks


# -- serialization -----------------------------------------------------------


def test_summary_csv_shape():
    _, data = _sim(K=4)
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    summary = fit_posterior(data, prior, method="quadrature")
    text = posterior.summary_to_csv(summary)
    lines = text.strip().splitlines()
    assert lines[0] == "index_j,index_k,mean,var,q05,q50,q95"
    assert len(lines) == 5
    assert posterior.diagnostics_text(summary).startswith("method")


def test_summary_csv_names_each_quantile_level(monkeypatch):
    # the one owner of the levels names the columns too
    monkeypatch.setattr(posterior, "QUANTILES", (0.025, 0.1, 0.975))
    summary = PosteriorSummary(np.zeros(2), np.ones(2),
                               {q: np.full(2, q) for q in (0.025, 0.1, 0.975)})
    lines = posterior.summary_to_csv(summary).splitlines()
    assert lines[0] == "index_j,index_k,mean,var,q2.5,q10,q97.5"
    assert lines[1] == "-2,1,0.0,1.0,0.025,0.1,0.975"
