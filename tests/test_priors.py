import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats
from scipy.interpolate import CubicSpline

from heavyseries import priors
from heavyseries.errors import InvalidParameterError
from heavyseries.priors import (
    CAUCHY,
    GAUSSIAN,
    HORSESHOE,
    STUDENT3,
    ConstantTruncatedScaling,
    GaussianHierarchicalScaling,
    HTScaling,
    OTScaling,
    PriorSpec,
    StudentTail,
    WaveletOTScaling,
    horseshoe_log_density,
    horseshoe_sandwich_bounds,
    prior_from_config,
    sample_prior,
)

# Horseshoe reference values from an independent numerical integration of
# the half-Cauchy normal scale mixture (scipy.integrate.quad on the
# lambda-domain integrand, split at lambda = |t|), frozen here.
_HS_DENSITY_REFS = {
    1e-06: 3.5235098173511683,
    0.01: 1.184383390687742,
    0.1: 0.6031622531635021,
    1.0: 0.1171979034006236,
    3.0: 0.023701106074241297,
    10.0: 0.0024908692974286127,
    100.0: 2.5392376898767408e-05,
}
_HS_TAIL_REFS = {
    0.5: 0.26889892169740687,
    1.0: 0.186233773236793,
    5.0: 0.04955235822798018,
    50.0: 0.0050781376420288285,
}


# -- tail families -----------------------------------------------------------


def test_student_density_matches_scipy():
    x = np.linspace(-8, 8, 33)
    for df in (1.0, 2.0, 3.0, 7.5):
        tail = StudentTail(df)
        assert np.allclose(tail.log_density(x), stats.t.logpdf(x, df),
                           atol=1e-12)
        assert np.allclose(tail.tail_mass(np.abs(x)),
                           stats.t.sf(np.abs(x), df), atol=1e-13)


def test_cauchy_is_student_one():
    x = np.array([0.0, 0.3, 2.0, -15.0])
    assert np.allclose(CAUCHY.log_density(x), stats.cauchy.logpdf(x),
                       atol=1e-13)


def test_gaussian_density():
    x = np.array([0.0, 1.0, -3.5])
    assert np.allclose(GAUSSIAN.log_density(x), stats.norm.logpdf(x),
                       atol=1e-13)
    assert np.allclose(GAUSSIAN.tail_mass(np.abs(x)),
                       stats.norm.sf(np.abs(x)), atol=1e-15)


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE])
def test_density_integrates_to_one(tail):
    val, _ = integrate.quad(lambda t: math.exp(tail.log_density(t)),
                            1e-12, np.inf, limit=400)
    assert 2.0 * val == pytest.approx(1.0, abs=1e-6)


def test_horseshoe_frozen_density_values():
    for t, ref in _HS_DENSITY_REFS.items():
        got = math.exp(HORSESHOE.log_density(t))
        assert got == pytest.approx(ref, rel=1e-8), t


def test_horseshoe_frozen_tail_values():
    for x, ref in _HS_TAIL_REFS.items():
        assert HORSESHOE.tail_mass(x) == pytest.approx(ref, rel=1e-8), x
    assert HORSESHOE.tail_mass(0.0) == 0.5


def test_horseshoe_far_tail_asymptote():
    # h(t) -> 4K/t^2 with K = (2 pi)^{-3/2}; quadrature must agree where
    # generic numerical integrators already fail
    for u in (60.0, 200.0, 500.0):
        ref = math.log(4.0 * (2 * math.pi) ** -1.5) - 2.0 * u
        assert HORSESHOE.log_density_log_abs(u) == pytest.approx(ref, abs=1e-9)


def test_horseshoe_near_zero_log_pole():
    # h(t) ~ C(-log t + c0) as t -> 0 with C = (2/pi)(2 pi)^{-1/2}
    c = (2.0 / math.pi) / math.sqrt(2 * math.pi)
    for u in (-50.0, -300.0):
        h = math.exp(HORSESHOE.log_density_log_abs(u))
        assert h == pytest.approx(c * (-u), rel=0.05)
    # deep values keep growing
    assert (HORSESHOE.log_density_log_abs(-500.0)
            > HORSESHOE.log_density_log_abs(-300.0))


def _mp_log_horseshoe(u):
    # log[(2 pi^3)^{-1/2} e^z E1(z)], z = e^{2u}/2, at 50 digits
    with mpmath.workdps(50):
        z = mpmath.exp(2 * mpmath.mpf(u)) / 2
        return float(mpmath.log(mpmath.exp(z) * mpmath.e1(z))
                     - mpmath.log(2 * mpmath.pi**3) / 2)


def test_horseshoe_closed_form_matches_mpmath():
    # the three branches meet at log z = -700 and z = 700, z = e^{2u}/2
    us = list(np.linspace(-400.0, 400.0, 201))
    for log_z in (-700.0, math.log(700.0)):
        seam = (log_z + math.log(2.0)) / 2.0
        us += [np.nextafter(seam, -np.inf), seam, np.nextafter(seam, np.inf)]
    got = HORSESHOE.log_density_log_abs(np.array(us))
    for u, g in zip(us, got):
        assert abs(g - _mp_log_horseshoe(u)) <= 1e-12, u
        assert HORSESHOE.log_density_log_abs(u) == g  # scalar path


def test_horseshoe_spline_interpolates_closed_form_at_knots():
    spline = HORSESHOE._ensure_spline()
    knots = spline.x[:-1]  # the last knot is evaluated off the end interval
    assert np.array_equal(spline(knots), HORSESHOE.log_density_log_abs(knots))


def test_horseshoe_spline_matches_exact():
    # dense grid whose points fall between the knots (spacing 0.005)
    u = np.linspace(-79.99, 79.99, 400_003)
    fast = HORSESHOE.log_density_fast_log_abs(u)
    exact = HORSESHOE.log_density_log_abs(u)
    assert np.max(np.abs(fast - exact)) < 1e-11


def test_horseshoe_spline_lookup_matches_cubic_spline():
    # the direct interval lookup against scipy's search: every knot, one
    # ulp either side of each, both ends, and random points in between
    spline = HORSESHOE._ensure_spline()
    x = spline.x
    ref = CubicSpline(x, HORSESHOE.log_density_log_abs(x))
    u = np.concatenate([
        x,
        np.nextafter(x[1:], -np.inf),
        np.nextafter(x[:-1], np.inf),
        np.random.default_rng(0).uniform(x[0], x[-1], 2_900_000),
    ])
    assert np.array_equal(spline(u), ref(u))


def test_horseshoe_pole_rejected():
    with pytest.raises(InvalidParameterError):
        HORSESHOE.log_density(0.0)
    with pytest.raises(InvalidParameterError):
        horseshoe_log_density(0.0, 1.0)


def test_closed_form_identity():
    # the density equals (2 pi^3)^{-1/2} e^{t^2/2} E_1(t^2/2); this is the
    # strongest available oracle and pins every digit
    k = (2.0 * math.pi**3) ** -0.5
    for t in (1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0, 35.0):
        s = 0.5 * t * t
        ref = k * math.exp(s) * float(special.exp1(s))
        got = math.exp(HORSESHOE.log_density(t))
        assert got == pytest.approx(ref, rel=1e-12), t


def test_sandwich_bounds_hold_strictly():
    # the gap between the density and its lower bound shrinks like
    # 2.7 (tau/t)^4 in relative terms, so direct double-precision
    # strictness is only meaningful where that gap is representable
    # (t/tau <= 1e3); the full grid is certified via the closed form in
    # the acceptance suite
    ts = np.logspace(-4, 2, 25)
    taus = np.logspace(-4, 2, 25)
    for tau in taus:
        sel = ts / tau <= 1e3
        if not np.any(sel):
            continue
        lower, upper = horseshoe_sandwich_bounds(ts[sel], tau)
        h = np.exp(horseshoe_log_density(ts[sel], tau))
        assert np.all(lower < h)
        assert np.all(h < upper)


def test_scaled_horseshoe_is_rescaled_unit_density():
    t = np.array([0.3, 1.0, 4.0])
    tau = 0.05
    ref = HORSESHOE.log_density(t / tau) - math.log(tau)
    assert np.allclose(horseshoe_log_density(t, tau), ref, atol=1e-12)


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE, GAUSSIAN])
def test_log_density_log_abs_consistency(tail):
    x = np.array([1e-8, 0.01, 0.9, 5.0, 80.0])
    a = tail.log_density_log_abs(np.log(x))
    b = tail.log_density(x)
    assert np.allclose(a, b, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0,
                 allow_nan=False, allow_infinity=False))
def test_symmetry_property(x):
    if x == 0.0:
        return
    for tail in (STUDENT3, CAUCHY, HORSESHOE):
        assert tail.log_density(x) == pytest.approx(
            tail.log_density(-x), abs=1e-10)


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE, GAUSSIAN])
def test_density_decreasing_on_positive_axis(tail):
    x = np.logspace(-6, 3, 200)
    vals = tail.log_density(x) if tail is not HORSESHOE else \
        tail.log_density_log_abs(np.log(x))
    assert np.all(np.diff(np.atleast_1d(vals)) < 0)


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE])
def test_cauchy_type_tail_bound(tail):
    # x * int_x^inf h bounded by the certified constant
    x = np.logspace(0, 10, 40)
    vals = x * np.array([tail.tail_mass(v) for v in x])
    assert np.all(vals <= tail.tail_bound_c2)


def test_heavy_flags():
    assert STUDENT3.is_heavy and CAUCHY.is_heavy and HORSESHOE.is_heavy
    assert not GAUSSIAN.is_heavy
    assert GAUSSIAN.envelope is None and GAUSSIAN.tail_bound_c2 is None


def test_student_df_validation():
    with pytest.raises(InvalidParameterError):
        StudentTail(0.5)


# -- scaling rules -----------------------------------------------------------


def test_ot_scaling_values():
    rule = OTScaling(0.5)
    k = np.array([1, 2, 10, 1000])
    expect = -np.log(k.astype(float)) ** 1.5
    assert np.allclose(rule.log_scale(k), expect, atol=1e-14)
    assert rule.log_scale(np.e) == pytest.approx(-1.0)


def test_ht_scaling_values():
    rule = HTScaling(1.25)
    assert rule.scale(4) == pytest.approx(4.0 ** -1.75)


def test_truncated_scaling():
    rule = ConstantTruncatedScaling(0.01, 5)
    assert rule.scale(5) == pytest.approx(0.01)
    assert rule.scale(6) == 0.0
    assert rule.active(np.array([4, 5, 6])).tolist() == [True, True, False]


def test_level_scalings():
    wot = WaveletOTScaling(0.5)
    assert wot.scale(4) == pytest.approx(2.0 ** -8.0)
    assert wot.scale(-1) == wot.scale(0) == 1.0
    gh = GaussianHierarchicalScaling(2.0, 1.0)
    assert gh.scale(3) == pytest.approx(2.0 * 2.0 ** -4.5)


def test_scaling_monotone_and_ot_eventually_below_ht():
    k = np.arange(1, 5001)
    for rule in (OTScaling(0.5), HTScaling(0.75), HTScaling(2.0)):
        s = rule.log_scale(k)
        assert np.all(np.diff(s) <= 0)
    ot = OTScaling(0.5).log_scale(k)
    for alpha in (0.5, 1.0, 2.0):
        ht = HTScaling(alpha).log_scale(k)
        below = ot < ht
        k0 = int(k[np.argmax(below)])
        assert below[k0 - 1:].all(), f"no crossover for alpha={alpha}"


def test_invalid_scaling_parameters():
    with pytest.raises(InvalidParameterError):
        OTScaling(0.0)
    with pytest.raises(InvalidParameterError):
        HTScaling(-1.0)
    with pytest.raises(InvalidParameterError):
        ConstantTruncatedScaling(0.0, 5)
    with pytest.raises(InvalidParameterError):
        OTScaling(0.5).log_scale(np.array([0]))


# -- assembled priors --------------------------------------------------------


def test_prior_spec_validation():
    with pytest.raises(InvalidParameterError):
        PriorSpec(GAUSSIAN, OTScaling(0.5))  # light tail without baseline
    with pytest.raises(InvalidParameterError):
        PriorSpec(CAUCHY, WaveletOTScaling(0.5))  # level rule, single mode
    spec = PriorSpec(GAUSSIAN, OTScaling(0.5), baseline=True)
    assert spec.label == "gaussian-ot"


def test_config_round_trip():
    specs = [
        PriorSpec(STUDENT3, OTScaling(0.5)),
        PriorSpec(CAUCHY, HTScaling(1.75)),
        PriorSpec(priors.HORSESHOE, ConstantTruncatedScaling(1e-3, 1000)),
        PriorSpec(CAUCHY, WaveletOTScaling(0.5), "double"),
        PriorSpec(GAUSSIAN, GaussianHierarchicalScaling(), "double"),
    ]
    for spec in specs:
        back = prior_from_config(spec.config())
        assert back.config() == spec.config()


def test_sample_prior_structure():
    spec = PriorSpec(STUDENT3, OTScaling(1.0))
    a = sample_prior(spec, 50, seed=0)
    b = sample_prior(spec, 50, seed=0)
    assert np.array_equal(a, b)
    # multiplicative structure: same zeta draws, different scaling
    unit = PriorSpec(STUDENT3, ConstantTruncatedScaling(1.0, 10**9))
    z = sample_prior(unit, 50, seed=0)
    sig = OTScaling(1.0).scale(np.arange(1, 51))
    assert np.allclose(a, sig * z, atol=1e-14)


def test_sample_prior_gaussian_variance():
    spec = PriorSpec(GAUSSIAN, ConstantTruncatedScaling(1.0, 10**9),
                     baseline=True)
    draws = sample_prior(spec, 100_000, seed=1)
    se = math.sqrt(2.0 / len(draws))  # var of sample variance of N(0,1)
    assert abs(draws.var() - 1.0) < 3.0 * se


def test_sample_prior_truncated_horseshoe_median():
    n = 1000.0
    spec = PriorSpec(priors.HORSESHOE,
                     ConstantTruncatedScaling(1.0 / n, int(n)))
    draws = sample_prior(spec, 1000, seed=2)
    assert np.median(np.abs(draws[: int(n)])) < 1e-2
