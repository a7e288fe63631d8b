import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavyseries import model, posterior, signals
from heavyseries.errors import ConvergenceError, InvalidParameterError, StateError
from heavyseries.posterior import (
    PosteriorSummary,
    UnivariatePosterior,
    conjugate_mean_var,
    credible_band,
    fit_posterior,
    gibbs_hierarchical_gaussian,
    metropolis_sample,
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
)

# Fixed-grid trapezoid oracle value for the Cauchy tail at
# (x, n, sigma) = (3, 1, 1), domain [-60, 60], 10^7 points; frozen.
_CAUCHY_ORACLE_MEAN = 2.28513942905472
_CAUCHY_ORACLE_VAR = 1.11486368629567


def _post(x, n, sigma, tail):
    return UnivariatePosterior(x, n, math.log(sigma), tail)


# -- quadrature --------------------------------------------------------------


def test_frozen_cauchy_oracle():
    mean, var, _ = quadrature_mean_var(_post(3.0, 1.0, 1.0, CAUCHY), tol=1e-10)
    assert mean == pytest.approx(_CAUCHY_ORACLE_MEAN, abs=2e-11)
    assert var == pytest.approx(_CAUCHY_ORACLE_VAR, abs=2e-11)


def test_zero_observation_exact_zero_mean():
    for tail in (CAUCHY, STUDENT3, HORSESHOE):
        mean, var, _ = quadrature_mean_var(_post(0.0, 10.0, 0.1, tail))
        assert mean == 0.0
        assert var > 0.0


def test_gaussian_conjugacy():
    for x, n, sigma in [(2.0, 1.0, 1.0), (-5.0, 1e3, 0.01), (0.3, 1e6, 1e-4)]:
        mean, var, _ = quadrature_mean_var(_post(x, n, sigma, GAUSSIAN),
                                           tol=1e-10)
        cm, cv = conjugate_mean_var(x, n, sigma)
        assert mean == pytest.approx(cm, abs=1e-10 * max(1.0, abs(cm)))
        assert var == pytest.approx(cv, rel=1e-8)


def test_sign_equivariance():
    for tail in (CAUCHY, HORSESHOE):
        mp, _, _ = quadrature_mean_var(_post(4.0, 100.0, 0.01, tail))
        mn, _, _ = quadrature_mean_var(_post(-4.0, 100.0, 0.01, tail))
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
    qm, qv, _ = quadrature_mean_var(_post(x, n, sigma, HORSESHOE), tol=1e-8)
    assert qm == pytest.approx(om, rel=1e-7)
    assert qv == pytest.approx(ov, rel=1e-6)


def test_quantiles_bracket_mean():
    _, _, _, qs = quadrature_mean_var(_post(1.5, 100.0, 0.5, STUDENT3),
                                      quantiles=(0.05, 0.5, 0.95))
    assert qs[0.05] < qs[0.5] < qs[0.95]


def test_degenerate_scale():
    mean, var, _ = quadrature_mean_var(
        UnivariatePosterior(3.0, 1.0, -math.inf, CAUCHY))
    assert mean == 0.0 and var == 0.0


def test_invalid_inputs():
    with pytest.raises(InvalidParameterError):
        UnivariatePosterior(math.nan, 1.0, 0.0, CAUCHY)
    with pytest.raises(InvalidParameterError):
        UnivariatePosterior(1.0, 0.0, 0.0, CAUCHY)
    with pytest.raises(InvalidParameterError):
        quadrature_mean_var(_post(1.0, 1.0, 1.0, CAUCHY), tol=0.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=8.0),
       st.sampled_from([1.0, 1e3]),
       st.floats(min_value=-6.0, max_value=0.0))
def test_mean_between_zero_and_observation(x, n, log10_sigma):
    # symmetric unimodal prior: posterior mean lies in [0, x]
    mean, _, _ = quadrature_mean_var(
        _post(x, n, 10.0**log10_sigma, STUDENT3), tol=1e-8)
    assert -1e-9 <= mean <= x + 1e-9


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
    p = _post(x, n, sigma, tail)
    qm, qv, _ = quadrature_mean_var(p, tol=1e-9)
    draws, acc = metropolis_sample(p, draws=4000, burn_in=2000, seed=0)
    se = max(_batch_se(draws), math.sqrt(qv / len(draws)))
    assert abs(draws.mean() - qm) < 3.0 * se
    assert 0.0 < acc < 1.0


def test_metropolis_conjugate_case():
    p = _post(1.0, 10.0, 1.0, GAUSSIAN)
    cm, cv = conjugate_mean_var(1.0, 10.0, 1.0)
    draws, _ = metropolis_sample(p, draws=4000, burn_in=2000, seed=1)
    assert abs(draws.mean() - cm) < 3.0 * _batch_se(draws)
    assert draws.var() == pytest.approx(cv, rel=0.2)


def test_metropolis_degenerate_precision():
    p = _post(2.0, 1e12, 1.0, CAUCHY)
    draws, _ = metropolis_sample(p, draws=2000, burn_in=2000, seed=2)
    assert np.max(np.abs(draws - 2.0)) < 1e-4


def test_metropolis_deterministic():
    p = _post(1.0, 10.0, 0.1, CAUCHY)
    a, _ = metropolis_sample(p, draws=100, burn_in=100, seed=3)
    b, _ = metropolis_sample(p, draws=100, burn_in=100, seed=3)
    assert np.array_equal(a, b)


# -- assembled fits ----------------------------------------------------------


def _sim(K=30, n=1e3, seed=0):
    truth = signals.truth_sobolev_cos(K)
    return truth, model.simulate(truth, n, K, seed=seed)


def test_fit_posterior_quadrature_beats_zero_estimator():
    truth, data = _sim()
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    summary = fit_posterior(data, prior, method="quadrature")
    err = np.linalg.norm(summary.means - truth.coefficients)
    assert err < np.linalg.norm(truth.coefficients)


def test_fit_posterior_zero_data():
    truth, _ = _sim(K=10)
    data = model.SequenceData(np.zeros(10), 100.0, 10, truth.basis, 0)
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
    msum = fit_posterior(data, prior, method="metropolis", draws=50,
                         burn_in=50)
    assert np.all(msum.draws[12:] == 0.0)


def test_metropolis_chunk_invariance():
    _, data = _sim(K=20)
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    a = fit_posterior(data, prior, method="metropolis", draws=200,
                      burn_in=200, seed=0, chunk=7)
    b = fit_posterior(data, prior, method="metropolis", draws=200,
                      burn_in=200, seed=0, chunk=1024)
    assert np.array_equal(a.draws, b.draws)


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
                out[~zero] = tail.log_density_fast_log_abs(
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


# subnormal scales overflow theta / sigma in the envelope; that is expected
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("chains", [1, 200])
def test_metropolis_block_matches_reference(tail, chains):
    xs, log_scales = _chain_inputs(chains, seed=chains)
    if chains == 1:  # the lone chain gets an ordinary scale
        log_scales[0] = -3.0
    indices = np.arange(chains) * 3 + 5
    args = (xs, 1e3, log_scales, tail, 150, 150, 7, indices)
    draws, acc = posterior._metropolis_block(*args)
    ref_draws, ref_acc = _reference_metropolis_block(*args)
    assert np.array_equal(draws, ref_draws)
    assert np.array_equal(acc, ref_acc)


def _reference_fit_draws(data, prior, draws, burn_in, seed, chunk=1024):
    log_s, active, stream_idx = posterior._coordinate_layout(data, prior)
    draw_mat = np.zeros((data.truncation, draws))
    acc = np.zeros(data.truncation)
    act_idx = np.flatnonzero(active)
    for start in range(0, len(act_idx), chunk):
        sel = act_idx[start:start + chunk]
        draw_mat[sel], acc[sel] = _reference_metropolis_block(
            data.observations[sel], data.noise_precision, log_s[sel],
            prior.tail, draws, burn_in, seed, stream_idx[sel])
    return draw_mat, acc[active]


@pytest.mark.parametrize("K,prior", [
    (1100, PriorSpec(CAUCHY, OTScaling(0.5))),  # two chunks of chains
    (30, PriorSpec(HORSESHOE, ConstantTruncatedScaling(1e-3, 12))),
], ids=["two-chunks", "truncated"])
def test_fit_metropolis_matches_reference(K, prior):
    truth = signals.truth_sobolev_cos(K)
    data = model.simulate(truth, 1e3, K, seed=4)
    summary = fit_posterior(data, prior, method="metropolis", draws=60,
                            burn_in=100, seed=9)
    ref_draws, ref_acc = _reference_fit_draws(data, prior, 60, 100, 9)
    assert np.array_equal(summary.draws, ref_draws)
    assert summary.diagnostics["acceptance_mean"] == float(ref_acc.mean())
    assert summary.diagnostics["acceptance_min"] == float(ref_acc.min())


def test_metropolis_sample_returns_contiguous_draws():
    p = _post(1.5, 100.0, 0.1, CAUCHY)
    draws, acc = metropolis_sample(p, draws=120, burn_in=80, seed=5,
                                   index=3)
    ref_draws, ref_acc = _reference_metropolis_block(
        [1.5], 100.0, [math.log(0.1)], CAUCHY, 120, 80, 5, [3])
    assert draws.ndim == 1 and draws.flags.c_contiguous
    assert np.array_equal(draws, ref_draws[0])
    assert acc == float(ref_acc[0])


def test_conjugate_method_matches_closed_form():
    truth, data = _sim(K=15)
    prior = PriorSpec(GAUSSIAN, OTScaling(0.5), baseline=True)
    summary = fit_posterior(data, prior, method="conjugate")
    sig = np.exp(prior.scaling.log_scale(np.arange(1, 16)))
    cm, cv = conjugate_mean_var(data.observations, data.noise_precision, sig)
    assert np.allclose(summary.means, cm, atol=1e-13)
    assert np.allclose(summary.variances, cv, atol=1e-13)


def test_unknown_method_rejected():
    _, data = _sim(K=5)
    prior = PriorSpec(CAUCHY, OTScaling(0.5))
    with pytest.raises(InvalidParameterError):
        fit_posterior(data, prior, method="laplace")


def test_summary_validation():
    with pytest.raises(InvalidParameterError):
        PosteriorSummary(np.zeros(3), np.array([1.0, -1.0, 0.0]), {}, "q")


# -- hierarchical Gaussian baseline ------------------------------------------


def _wavelet_data(seed=0, n=1.0):
    from heavyseries.wavelets import WaveletFrame

    frame = WaveletFrame("symmlet-8", 256, 4)
    truth = signals.truth_quartet("heavisine", frame)
    return truth, model.simulate(truth, n, 256, seed=seed)


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
    analytic = posterior._gibbs_log_marginal(x, n, levels, u, v)
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


def test_gibbs_deterministic():
    _, data = _wavelet_data()
    a = gibbs_hierarchical_gaussian(data, draws=50, burn_in=50, seed=1)
    b = gibbs_hierarchical_gaussian(data, draws=50, burn_in=50, seed=1)
    assert np.array_equal(a.draws, b.draws)


def test_gibbs_rejects_single_index_data():
    from heavyseries.errors import ShapeError

    _, data = _sim(K=8)
    with pytest.raises(ShapeError):
        gibbs_hierarchical_gaussian(data, draws=10, burn_in=10)


# -- credible bands ----------------------------------------------------------


def test_band_requires_draws():
    summary = PosteriorSummary(np.zeros(3), np.zeros(3), {}, "quadrature")
    from heavyseries import basis

    with pytest.raises(StateError):
        credible_band(summary, basis.cosine_basis())


def test_band_identical_draws_zero_width():
    from heavyseries import basis

    means = np.array([1.0, -0.5])
    draws = np.tile(means[:, None], (1, 40))
    summary = PosteriorSummary(means, np.zeros(2), {}, "metropolis",
                               draws=draws)
    band = credible_band(summary, basis.cosine_basis(), m=64)
    assert posterior.band_width(band) == 0.0
    assert np.allclose(band["center"], band["lower"])


def test_band_excludes_outer_cluster():
    from heavyseries import basis

    gen = np.random.default_rng(0)
    inner = gen.normal(0.0, 0.01, size=(1, 90))
    outer = np.full((1, 10), 5.0)
    draws = np.concatenate([inner, outer], axis=1)
    means = draws.mean(axis=1, keepdims=True)
    summary = PosteriorSummary(means[:, 0], np.ones(1), {}, "metropolis",
                               draws=draws)
    band = credible_band(summary, basis.cosine_basis(), m=32, level=0.9)
    # sqrt(2) cos basis peaks at sqrt(2); inner cluster stays below 0.1
    assert np.max(band["upper"]) < 1.0


def test_band_level_one_is_full_envelope():
    from heavyseries import basis

    gen = np.random.default_rng(1)
    draws = gen.normal(size=(2, 30))
    summary = PosteriorSummary(draws.mean(axis=1), draws.var(axis=1), {},
                               "metropolis", draws=draws)
    full = credible_band(summary, basis.cosine_basis(), m=16, level=1.0)
    part = credible_band(summary, basis.cosine_basis(), m=16, level=0.5)
    assert np.all(full["upper"] >= part["upper"] - 1e-12)
    assert np.all(full["lower"] <= part["lower"] + 1e-12)


def test_band_wavelet_matches_per_draw_synthesis():
    from heavyseries import basis, wavelets

    frame = wavelets.WaveletFrame("symmlet-8", 256, 3)
    wavelet_basis = basis.wavelet_basis(frame)
    gen = np.random.default_rng(2)
    draws = gen.normal(size=(256, 300)) / np.arange(1.0, 257.0)[:, None]
    summary = PosteriorSummary(draws.mean(axis=1), draws.var(axis=1), {},
                               "metropolis", draws=draws)
    band = credible_band(summary, wavelet_basis, level=0.9)
    # reference: the band from one synthesize call per draw
    center = basis.synthesize(summary.means, wavelet_basis, 256)
    curves = np.array([basis.synthesize(draws[:, i], wavelet_basis, 256)
                       for i in range(draws.shape[1])])
    dist = np.mean((curves - center[None, :]) ** 2, axis=1)
    kept = curves[np.argsort(dist)[: math.ceil(0.9 * len(dist))]]
    assert np.array_equal(band["grid"], basis.grid(wavelet_basis, 256))
    assert np.array_equal(band["center"], center)
    assert np.array_equal(band["lower"], kept.min(axis=0))
    assert np.array_equal(band["upper"], kept.max(axis=0))


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
