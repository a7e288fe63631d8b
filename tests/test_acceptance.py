"""End-to-end acceptance checks.

These are the slow, full-scale checks of the documented statistical
behavior: posterior engine against the brute-force oracle, the horseshoe
density sandwich, replication-averaged error slopes, the rate calculator,
wavelet exactness, the near-least-favorable construction, credible-band
widths, and byte-level determinism of experiment reruns.  Module tests
cover the same components at small scale; everything here runs the real
protocol sizes.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from heavyseries import posterior, signals, spaces, wavelets
from heavyseries.harness import ExperimentConfig, run_experiment
from heavyseries.priors import (
    CAUCHY,
    GAUSSIAN,
    HORSESHOE,
    StudentTail,
    horseshoe_log_density,
    horseshoe_sandwich_bounds,
)
from tests.conftest import brute_force_mean_var

pytestmark = pytest.mark.acceptance


def _test_points(count=200, seed=20240817):
    gen = np.random.default_rng(seed)
    tails = [CAUCHY, StudentTail(3.0), HORSESHOE]
    pts = []
    for _ in range(count):
        tail = tails[int(gen.integers(3))]
        sigma = 10.0 ** gen.uniform(-12.0, 0.0)
        x = gen.uniform(-10.0, 10.0)
        n = [1.0, 1e3, 1e6][int(gen.integers(3))]
        pts.append((tail, sigma, x, n))
    return pts


def _batch_se(draws, b):
    k = len(draws) // b
    means = draws[: k * b].reshape(k, b).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(k)


# 1. quadrature vs oracle, conjugate closed form, sampler vs quadrature


def test_posterior_oracle_equivalence():
    pts = _test_points()
    mdraws = 8000
    # one sampler block per tail; chain i runs on stream i, exactly as
    # metropolis_sample(post, seed=7, index=i) would
    chain_draws = {}
    for tail in dict.fromkeys(p[0] for p in pts):
        idx = [i for i, p in enumerate(pts) if p[0] is tail]
        block, _ = posterior._metropolis_block(
            [pts[i][2] for i in idx], [pts[i][3] for i in idx],
            [math.log(pts[i][1]) for i in idx], tail, mdraws, 2000, 7, idx)
        chain_draws.update(zip(idx, block))
    for i, (tail, sigma, x, n) in enumerate(pts):
        post = posterior.UnivariatePosterior(x, n, math.log(sigma), tail)
        qm, qv, _ = posterior.quadrature_mean_var(post, tol=1e-8)
        om, _ = brute_force_mean_var(x, n, sigma, tail)
        assert abs(qm - om) <= 1e-6 * max(abs(om), 1e-3), (tail.name, sigma,
                                                           x, n, qm, om)
        draws = chain_draws[i]
        # the sd/sqrt(N) floor guards against batch means collapsing when
        # one mode holds nearly all the mass and the chain never leaves it
        se = max(_batch_se(draws, 200), math.sqrt(max(qv, 0.0) / mdraws))
        assert abs(draws.mean() - qm) <= 3.0 * se + 1e-9, (tail.name, sigma,
                                                           x, n)


def test_conjugate_gaussian_closed_form():
    gen = np.random.default_rng(5)
    for _ in range(50):
        sigma = 10.0 ** gen.uniform(-6.0, 0.0)
        x = gen.uniform(-10.0, 10.0)
        n = 10.0 ** gen.uniform(0.0, 6.0)
        post = posterior.UnivariatePosterior(x, n, math.log(sigma), GAUSSIAN)
        qm, qv, _ = posterior.quadrature_mean_var(post, tol=1e-10)
        cm, cv = posterior.conjugate_mean_var(x, n, sigma)
        assert abs(qm - cm) <= 1e-10 * max(abs(cm), 1e-3)
        assert abs(qv - cv) <= 1e-10 * max(cv, 1e-6)


# 2. horseshoe density sandwich on the (t, tau) grid


_SANDWICH_KP = 1 / mpmath.sqrt(2 * mpmath.pi**3)


def _h_exact(x):
    # h(x) = (2 pi^3)^{-1/2} e^{x^2/2} E_1(x^2/2)
    s = mpmath.mpf(x) ** 2 / 2
    return _SANDWICH_KP * mpmath.exp(s) * mpmath.e1(s)


def test_horseshoe_sandwich_grid():
    mpmath.mp.dps = 50
    ts = np.logspace(-4, 2, 50)
    taus = np.logspace(-4, 2, 50)
    for tau in taus:
        lo, hi = horseshoe_sandwich_bounds(ts, tau)
        h = np.exp(horseshoe_log_density(ts, tau))
        for i, t in enumerate(ts):
            x = t / tau
            if x <= 1e3:
                assert lo[i] < h[i] < hi[i], (t, tau)
            else:
                # the density and the lower bound agree to O((tau/t)^4)
                # relative, below double precision here; certify the strict
                # inclusion in high precision via the closed form and pin
                # the library to that closed form
                hx = _h_exact(x) / mpmath.mpf(tau)
                lo_mp = (_SANDWICH_KP / 2) * mpmath.log1p(4 / mpmath.mpf(x) ** 2) / tau
                hi_mp = _SANDWICH_KP * mpmath.log1p(2 / mpmath.mpf(x) ** 2) / tau
                assert lo_mp < hx < hi_mp, (t, tau)
                assert abs(float(hx) - h[i]) <= 1e-12 * float(hx), (t, tau)


def test_horseshoe_density_normalized():
    for tau in np.logspace(-4, 2, 50):
        f = lambda t: math.exp(horseshoe_log_density(t, tau))
        inner, _ = quad(f, 0.0, 30.0 * tau, points=[tau], limit=200)
        outer, _ = quad(f, 30.0 * tau, np.inf, limit=200)
        assert abs(2.0 * (inner + outer) - 1.0) <= 1e-6


# 3. smooth truth: replication-averaged L2 error slope


@pytest.fixture(scope="module")
def smooth_slope_result(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("smooth") / "res")
    return run_experiment(ExperimentConfig(
        "sobolev", priors=("cauchy-ot",), ns=(1e3, 1e4, 1e5),
        replications=20, include_bands=False, out_dir=out))


def test_smooth_truth_error_slope(smooth_slope_result):
    slopes = [s[4] for s in smooth_slope_result.slopes]
    assert len(slopes) == 1
    assert -0.45 <= slopes[0] <= -0.22


# 4. under-smoothing penalty of too-small polynomial scaling exponents


def test_undersmoothing_penalty(tmp_path):
    result = run_experiment(ExperimentConfig(
        "undersmoothing", priors=("student3-ht-0.75", "student3-ht-2.75"),
        ns=(2e2, 2e3, 2e4), replications=20, include_bands=False,
        out_dir=str(tmp_path / "res")))
    err = {(r.prior, r.n): r.mean for r in result.records}
    assert err[("student3-ht-0.75", 2e4)] >= 2.0 * err[("student3-ht-2.75",
                                                        2e4)]
    slope = {s[0]: s[4] for s in result.slopes}
    assert abs(slope["student3-ht-0.75"]) <= abs(slope["student3-ht-2.75"]) - 0.05


# 5. rate calculator exactness and branch continuity


def test_rate_calculator_exactness():
    assert spaces.rate_exponent(1.5, 1.0, 2.0) == 0.375
    assert spaces.rate_exponent(1.5, 1.0, 6.0) == 1.0 / 3.0
    assert spaces.resolve_rate(1.5, 1.0, 2.0).zone == "regular"
    assert spaces.resolve_rate(1.5, 1.0, 6.0).zone == "sparse"


def test_rate_branch_continuity():
    # at the zone boundary p' = p (1 + 2s) both branch formulas agree
    gen = np.random.default_rng(11)
    for _ in range(100):
        s = gen.uniform(0.5, 3.0)
        p = gen.uniform(1.0, 4.0)
        p_star = p * (1.0 + 2.0 * s)
        regular = s / (1.0 + 2.0 * s)
        s_eff = s - 1.0 / p + 1.0 / p_star
        sparse = s_eff / (1.0 + 2.0 * (s - 1.0 / p))
        assert abs(regular - sparse) <= 1e-12
        assert abs(spaces.rate_exponent(s, p, p_star) - regular) <= 1e-12


# 6. sparse truths: rate elbow across p' and parity with SureShrink


@pytest.fixture(scope="module")
def sparse_elbow_result(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sparse") / "res")
    return run_experiment(ExperimentConfig(
        "sparse-besov", priors=("cauchy-wavelet-ot",),
        ns=(1e2, 1e3, 1e4, 1e5), p_primes=(2.0, 4.0, 6.0), replications=20,
        include_sureshrink=True, out_dir=out))


def test_sparse_elbow_slopes(sparse_elbow_result):
    slope = {s[2]: abs(s[4]) for s in sparse_elbow_result.slopes
             if s[0] == "cauchy-wavelet-ot"}
    assert slope[2.0] >= slope[4.0] >= slope[6.0]
    assert slope[6.0] < slope[2.0] - 0.02


def test_sparse_parity_with_sureshrink(sparse_elbow_result):
    err = {(r.prior, r.n, r.p_prime): r.mean
           for r in sparse_elbow_result.records}
    for n in (1e2, 1e3, 1e4, 1e5):
        for p in (2.0, 4.0, 6.0):
            ratio = err[("cauchy-wavelet-ot", n, p)] / err[("sureshrink", n,
                                                            p)]
            assert 1.0 / 3.0 <= ratio <= 3.0, (n, p, ratio)


# 7. wavelet transform exactness


def test_wavelet_correctness():
    gen = np.random.default_rng(17)
    for name in wavelets.FILTERS:
        low = np.asarray(wavelets.FILTERS[name])
        assert abs(np.dot(low, low) - 1.0) <= 1e-12
        for shift in range(1, len(low) // 2):
            lag = np.dot(low[2 * shift:], low[: len(low) - 2 * shift])
            assert abs(lag) <= 1e-12
        frame = wavelets.WaveletFrame(name, 256, 3)
        x = gen.normal(size=256)
        c = wavelets.analyze(x, frame)
        back = wavelets.synthesize(c, frame)
        assert np.max(np.abs(back - x)) <= 1e-10
        assert abs(np.sum(c**2) - np.sum(x**2)) <= 1e-10
        const = wavelets.analyze(np.ones(256), frame)
        assert np.max(np.abs(const[8:])) <= 1e-9


# 8. near-least-favorable truths sit exactly on the ball boundary


def test_least_favorable_norm_exact():
    frame = wavelets.WaveletFrame("symmlet-8", 2048, 2)
    for i in range(1, 5):
        truth = signals.make_truth("least-favorable", frame=frame,
                                   block_index=i, seed=0)
        norm = spaces.besov_norm(truth.coefficients, 1.5, 1.0, math.inf)
        assert norm == 20.0


# 9. truncated horseshoe bands are narrower than the heavy-tailed bands


def test_truncated_horseshoe_band_narrower(tmp_path):
    result = run_experiment(ExperimentConfig(
        "sobolev", priors=("cauchy-ot", "truncated-hs"), ns=(1e4,),
        replications=20, include_bands=True, out_dir=str(tmp_path / "res")))
    width = {row[0]: row[2] for row in result.band_widths}
    assert width["truncated-hs"] < width["cauchy-ot"]


# 10. reruns with identical configs are byte-identical


def test_experiment_rerun_byte_identical(tmp_path):
    def run(out):
        run_experiment(ExperimentConfig(
            "sobolev", priors=("cauchy-ot",), ns=(1e3,), replications=20,
            include_bands=False, out_dir=out))
        with open(out + "/errors.csv", "rb") as fh:
            return fh.read()

    first = run(str(tmp_path / "a"))
    second = run(str(tmp_path / "b"))
    assert first == second
