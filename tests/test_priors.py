import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats
from scipy.interpolate import PPoly

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
    make_prior,
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


@pytest.mark.parametrize("df", [1.0, 2.0, 3.0, 7.5])
def test_student_tail_mass_at_extreme_x(df):
    # the 1e-13 tolerance of test_student_density_matches_scipy, at a tiny
    # and a large x, against mpmath's regularized incomplete beta:
    # scipy's t.sf(1e-10, 1) rounds to 0.5, 3.2e-11 above the truth.
    # Measured: at most 3.3e-16 absolute and 3.1e-15 relative.
    x = np.array([1e-10, 1e3])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.betainc(
            df / 2, 0.5, 0, df / (df + mpmath.mpf(v) ** 2),
            regularized=True) / 2) for v in x])
    got = StudentTail(df).tail_mass(x)
    assert np.all(np.abs(got - ref) <= 1e-13)
    assert np.all(np.abs(got / ref - 1.0) <= 1e-13)


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


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE],
                         ids=lambda t: t.name)
def test_mixing_density_is_the_tail_as_a_normal_scale_mixture(tail):
    # p(u) over u = log lambda integrates to 1, and int p(u) N(t; 0,
    # e^{2u}) du is the tail's closed form h(t), each integral by scipy's
    # adaptive quad, split at u = 0 and u = log t
    def mixing(u):
        return math.exp(tail.log_density_mixing(np.array([u]))[0])

    mass, _ = integrate.quad(mixing, -60.0, 60.0, points=[0.0], limit=400)
    assert mass == pytest.approx(1.0, abs=1e-10)
    for t in (1e-3, 0.3, 1.0, 4.0, 50.0):
        h, _ = integrate.quad(
            lambda u: mixing(u) * stats.norm.pdf(t, scale=math.exp(u)),
            -60.0, 60.0, points=sorted({0.0, math.log(t)}), limit=400)
        assert h == pytest.approx(math.exp(tail.log_density(t)), rel=1e-9,
                                  abs=0.0)


def test_gaussian_mixing_density_is_the_point_mass_at_zero():
    u = np.array([-1.0, -1e-300, 0.0, 1e-300, 2.0])
    assert GAUSSIAN.log_density_mixing(u).tolist() == [
        -math.inf, -math.inf, 0.0, -math.inf, -math.inf]


def test_horseshoe_frozen_density_values():
    for t, ref in _HS_DENSITY_REFS.items():
        got = math.exp(HORSESHOE.log_density(t))
        assert got == pytest.approx(ref, rel=1e-8, abs=0.0), t


def test_horseshoe_frozen_tail_values():
    for x, ref in _HS_TAIL_REFS.items():
        assert HORSESHOE.tail_mass(x) == pytest.approx(ref, rel=1e-8,
                                                       abs=0.0), x
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
        assert h == pytest.approx(c * (-u), rel=0.05, abs=0.0)
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


def test_e1_kernel_matches_mpmath():
    # log(e^z E1(z)) on log-spaced z up to 700, and on both sides of the
    # switch from the power series (z <= 1) to the continued fraction and
    # of each change of the fraction's depth.  Measured: largest error
    # 8.9e-16, one ulp of a value near -4.3 at z = 73; scipy's
    # z + log(exp1(z)) reaches 5.7e-14 on such a grid.
    seams = np.array([1.0] + [upper for upper, _ in
                              priors._E1_FRACTION_BANDS[:-1]])
    z = np.concatenate([np.geomspace(math.exp(-40.0), 700.0, 2001),
                        np.linspace(0.9, 1.1, 41), seams,
                        np.nextafter(seams, 0.0), np.nextafter(seams, 99.0)])
    with mpmath.workdps(40):
        ref = [float(mpmath.log(mpmath.exp(v) * mpmath.e1(v)))
               for v in map(mpmath.mpf, z)]
    got = priors._log_exp_e1(z)
    assert np.max(np.abs(got - ref)) <= 2e-15
    # each value depends on its own z alone, not on the rest of the array
    alone = [priors._log_exp_e1(z[i:i + 1])[0] for i in range(len(z))]
    assert np.array_equal(alone, got)
    # NaN falls in no band and comes back NaN, not a stale value
    mixed = np.insert(z, [0, 100, 2001], np.nan)
    out = priors._log_exp_e1(mixed)
    assert np.isnan(out[[0, 101, 2003]]).all()
    assert np.array_equal(np.delete(out, [0, 101, 2003]), got)


def test_horseshoe_spline_interpolates_closed_form_at_knots():
    spline = HORSESHOE._ensure_spline()
    knots = spline.x[:-1]  # the last knot is evaluated off the end interval
    assert np.array_equal(spline(knots), HORSESHOE.log_density_log_abs(knots))


def test_horseshoe_spline_matches_exact():
    # dense grid whose points fall between the knots (spacing 0.005)
    u = np.linspace(-79.99, 79.99, 400_003)
    fast = HORSESHOE._engine_log_abs(u)
    exact = HORSESHOE.log_density_log_abs(u)
    assert np.max(np.abs(fast - exact)) < 1e-11


def test_horseshoe_spline_lookup_matches_cubic_spline():
    # the direct interval lookup against scipy's search on the same
    # coefficients: every knot, one ulp either side of each, both ends,
    # and random points in between
    spline = HORSESHOE._ensure_spline()
    x = spline.x
    ref = PPoly(np.stack(spline.c), x)
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
        HORSESHOE.log_density(np.array([1.0, -0.0]))
    with pytest.raises(InvalidParameterError):
        horseshoe_log_density(0.0, 1.0)
    # the other tails are finite at 0
    for tail in (STUDENT3, CAUCHY, GAUSSIAN):
        assert math.isfinite(tail.log_density(0.0))


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE, GAUSSIAN],
                         ids=lambda tail: tail.name)
def test_nan_in_gives_nan_out(tail):
    # NaN among finite values from every branch of each tail: NaN where the
    # input is NaN, and each finite value as it is alone
    u = np.array([-800.0, -300.0, -0.7, 0.0, 0.4, 3.0, 100.0, 151.0, 154.0,
                  400.0, 800.0])
    mixed = np.insert(u, [0, 3, 6, 11], np.nan)
    got = tail.log_density_log_abs(mixed)
    nan = np.isnan(mixed)
    assert np.isnan(got[nan]).all()
    alone = [tail.log_density_log_abs(v) for v in u]
    assert np.array_equal(got[~nan], alone)
    assert np.isnan(tail.log_density_log_abs(math.nan))
    assert np.isnan(tail.log_density(np.array([1.0, math.nan]))[1])


def test_closed_form_identity():
    # the density equals (2 pi^3)^{-1/2} e^{t^2/2} E_1(t^2/2); this is the
    # strongest available oracle and pins every digit
    k = (2.0 * math.pi**3) ** -0.5
    for t in (1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0, 35.0):
        s = 0.5 * t * t
        ref = k * math.exp(s) * float(special.exp1(s))
        got = math.exp(HORSESHOE.log_density(t))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0), t


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
    assert np.all(np.diff(tail.log_density(x)) < 0)


@pytest.mark.parametrize("tail", [STUDENT3, CAUCHY, HORSESHOE])
def test_polylog_envelope(tail):
    # (E): log(1/h(x)) <= c1 (1 + log^{1+kappa}(1 + x)) with the declared
    # (c1, kappa), from x = e^-700 to e^700.  Measured smallest slack: 5.0
    # (Student-3) and 3.0 (Cauchy) as x -> 0, 4.42 (horseshoe)
    c1, kappa = tail.envelope
    u = np.linspace(-700.0, 700.0, 14_001)
    log_inv_h = -tail.log_density_log_abs(u)
    envelope = c1 * (1.0 + np.log1p(np.exp(u)) ** (1.0 + kappa))
    assert np.all(log_inv_h <= envelope)


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


# malformed prior names, each with the part its error names
_MALFORMED_NAMES = [
    ("cauchy", "unknown scaling ''"),
    ("cauchy-", "unknown scaling ''"),
    ("-ot", "unknown tail ''"),
    ("studentx-ot", "unknown tail 'studentx'"),
    ("cauchy-xyz", "unknown scaling 'xyz'"),
    ("student3-ht-", "alpha ''"),
    # second spellings, which float() reads, of names the grammar builds
    ("student3-ht-1.250", "alpha '1.250'"),
    ("student3-ht- 1.25", "alpha ' 1.25'"),
    ("student3-ht-+2", "alpha '+2'"),
    ("student3-ht-2.0", "alpha '2.0'"),
    ("student3-ht-1_0", "alpha '1_0'"),
    ("student3-ht-1E-05", "alpha '1E-05'"),
]


# `x <= 0` is False for NaN, so a check written that way lets NaN through
# to fail later with an unrelated error, or not at all
@pytest.mark.parametrize("build", [
    pytest.param(lambda: StudentTail(math.nan), id="student-df-nan"),
    pytest.param(lambda: OTScaling(math.nan), id="ot-nu-nan"),
    pytest.param(lambda: WaveletOTScaling(math.nan), id="wavelet-ot-nu-nan"),
    pytest.param(lambda: HTScaling(math.nan), id="ht-alpha-nan"),
    pytest.param(lambda: HTScaling(math.inf), id="ht-alpha-inf"),
    pytest.param(lambda: ConstantTruncatedScaling(math.nan, 5),
                 id="truncated-tau-nan"),
    pytest.param(lambda: GaussianHierarchicalScaling(math.nan, 1.0),
                 id="hierarchical-tau-nan"),
    pytest.param(lambda: GaussianHierarchicalScaling(1.0, math.nan),
                 id="hierarchical-alpha-nan"),
    pytest.param(lambda: horseshoe_log_density(1.0, math.nan),
                 id="horseshoe-tau-nan"),
    pytest.param(lambda: horseshoe_sandwich_bounds(1.0, -1.0),
                 id="sandwich-tau-negative"),
    pytest.param(lambda: horseshoe_sandwich_bounds(1.0, math.nan),
                 id="sandwich-tau-nan"),
    pytest.param(lambda: make_prior("student3-ht-nan"), id="preset-alpha-nan"),
    pytest.param(lambda: make_prior("student3-ht-inf"), id="preset-alpha-inf"),
    pytest.param(lambda: make_prior("student3-ht-x"), id="preset-alpha-text"),
    pytest.param(lambda: make_prior("truncated-hs", n=0), id="preset-n-zero"),
    pytest.param(lambda: make_prior("truncated-hs", n=math.nan),
                 id="preset-n-nan"),
    pytest.param(lambda: make_prior("truncated-hs", n=math.inf),
                 id="preset-n-inf"),
] + [pytest.param(lambda name=name: make_prior(name), id=f"name-{name}")
     for name, _ in _MALFORMED_NAMES])
def test_invalid_prior_parameters_raise_typed_errors(build):
    with pytest.raises(InvalidParameterError):
        build()


@pytest.mark.parametrize("name,part", _MALFORMED_NAMES)
def test_malformed_prior_name_names_its_bad_part(name, part):
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"prior '{name}': {part}")):
        make_prior(name)


# -- scaling rules -----------------------------------------------------------


def test_ot_scaling_values():
    rule = OTScaling(0.5)
    k = np.array([1, 2, 10, 1000])
    expect = -np.log(k.astype(float)) ** 1.5
    assert np.allclose(rule.log_scale(k), expect, atol=1e-14)
    assert rule.log_scale(np.e) == pytest.approx(-1.0)


def test_ht_scaling_values():
    rule = HTScaling(1.25)
    assert np.exp(rule.log_scale(4)) == pytest.approx(4.0 ** -1.75)


def test_truncated_scaling():
    rule = ConstantTruncatedScaling(0.01, 5)
    assert np.exp(rule.log_scale(5)) == pytest.approx(0.01)
    assert np.exp(rule.log_scale(6)) == 0.0
    # log sigma = -inf is what forces a coefficient to 0
    _, active = PriorSpec(HORSESHOE, rule).coordinate_scales(6)
    assert active.tolist() == [True] * 5 + [False]


def test_level_scalings():
    wot = WaveletOTScaling(0.5)
    assert np.exp(wot.log_scale(4)) == pytest.approx(2.0 ** -8.0)
    assert np.exp(wot.log_scale(-1)) == np.exp(wot.log_scale(0)) == 1.0
    gh = GaussianHierarchicalScaling(2.0, 1.0)
    assert np.exp(gh.log_scale(3)) == pytest.approx(2.0 * 2.0 ** -4.5)


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
    spec = PriorSpec(GAUSSIAN, OTScaling(0.5), baseline=True)
    # only make_prior names a prior; a spec built directly has no label
    assert spec.label == ""


# Each name's tail, scaling and baseline flag, written out independently
# of make_prior's grammar: (name, n) -> PriorSpec
_PRESET_REFERENCES = {
    ("student3-ot", None): PriorSpec(StudentTail(3.0), OTScaling(0.5)),
    ("cauchy-ot", None): PriorSpec(CAUCHY, OTScaling(0.5)),
    ("horseshoe-ot", None): PriorSpec(HORSESHOE, OTScaling(0.5)),
    ("truncated-hs", 1e3): PriorSpec(
        HORSESHOE, ConstantTruncatedScaling(1.0 / 1e3, 1000)),
    ("truncated-hs", 0.3): PriorSpec(
        HORSESHOE, ConstantTruncatedScaling(1.0 / 0.3, 1)),
    ("truncated-hs", 2.5e4 + 0.5): PriorSpec(
        HORSESHOE, ConstantTruncatedScaling(1.0 / (2.5e4 + 0.5), 25000)),
    ("student3-ht-1.25", None): PriorSpec(StudentTail(3.0), HTScaling(1.25)),
    ("student3-ht-2.75", None): PriorSpec(StudentTail(3.0), HTScaling(2.75)),
    # the one spelling of 2.0 and of 1e-05
    ("student3-ht-2", None): PriorSpec(StudentTail(3.0), HTScaling(2.0)),
    ("horseshoe-ht-1e-05", None): PriorSpec(HORSESHOE, HTScaling(1e-05)),
    ("cauchy-wavelet-ot", None): PriorSpec(CAUCHY, WaveletOTScaling(0.5)),
    ("gaussian-hierarchical", None): PriorSpec(
        GAUSSIAN, GaussianHierarchicalScaling()),
    ("horseshoe-wavelet-ot", None): PriorSpec(HORSESHOE, WaveletOTScaling(0.5)),
    ("student3-wavelet-ot", None): PriorSpec(StudentTail(3.0),
                                             WaveletOTScaling(0.5)),
    ("cauchy-ht-1.25", None): PriorSpec(CAUCHY, HTScaling(1.25)),
    ("gaussian-ht-1.25", None): PriorSpec(GAUSSIAN, HTScaling(1.25),
                                          baseline=True),
    ("gaussian-wavelet-ot", None): PriorSpec(GAUSSIAN, WaveletOTScaling(0.5),
                                             baseline=True),
}


def test_presets_match_their_references():
    for (name, n), ref in _PRESET_REFERENCES.items():
        spec = make_prior(name, n)
        assert spec.label == name
        assert spec.baseline is ref.baseline
        assert spec.scaling == ref.scaling
        assert type(spec.tail) is type(ref.tail)
        assert vars(spec.tail) == vars(ref.tail)


# the index each flat position reads, written out independently of
# wavelets.flat_levels: position 0 is level -1, position i >= 1 is level
# floor(log2 i)
def _expected_index(count, level_indexed):
    if level_indexed:
        return np.array([-1] + [i.bit_length() - 1 for i in range(1, count)])
    return np.arange(1, count + 1)


@pytest.mark.parametrize("name,n", list(_PRESET_REFERENCES))
def test_coordinate_scales_match_the_scaling_rule(name, n):
    spec = make_prior(name, n)
    level_indexed = spec.scaling.level_indexed
    count = 2048 if level_indexed else 200
    idx = _expected_index(count, level_indexed)
    assert np.array_equal(priors.coordinate_index(count, level_indexed), idx)
    log_s, active = spec.coordinate_scales(count)
    expect_log_s = np.asarray(spec.scaling.log_scale(idx), dtype=float)
    # from the presets' definitions: truncated-hs forces every k past
    # k_trunc to 0, every other preset keeps every coordinate
    if name == "truncated-hs":
        expect_active = idx <= _PRESET_REFERENCES[name, n].scaling.k_trunc
    else:
        expect_active = np.ones(count, dtype=bool)
    assert log_s.dtype == float and log_s.shape == (count,)
    assert log_s.tobytes() == expect_log_s.tobytes()
    assert active.dtype == bool and active.shape == (count,)
    assert np.array_equal(active, expect_active)


def test_hierarchical_log_scale_is_the_gibbs_expression():
    # the hierarchical Gaussian scale as the Gibbs sampler wrote it out
    # before the rule and the sampler shared one expression
    levels = _expected_index(2048, True)
    for u, alpha in [(0.0, 1.0), (0.37, 0.658), (-2.5, 3.1), (7.7, 0.01)]:
        ref = u - np.maximum(levels, 0) * (0.5 + alpha) * math.log(2.0)
        got = priors.hierarchical_log_scale(u, alpha, levels)
        assert got.tobytes() == ref.tobytes()
    rule = GaussianHierarchicalScaling(tau=2.0, alpha=0.75)
    assert rule.log_scale(levels).tobytes() == priors.hierarchical_log_scale(
        math.log(2.0), 0.75, levels).tobytes()


def test_prior_spec_takes_baseline_and_label_by_keyword():
    with pytest.raises(TypeError):
        PriorSpec(CAUCHY, WaveletOTScaling(0.5), "double")
    with pytest.raises(TypeError):
        PriorSpec(GAUSSIAN, OTScaling(0.5), True)


def test_sample_prior_structure():
    spec = PriorSpec(STUDENT3, OTScaling(1.0))
    a = sample_prior(spec, 50, seed=0)
    b = sample_prior(spec, 50, seed=0)
    assert np.array_equal(a, b)
    # multiplicative structure: same zeta draws, different scaling
    unit = PriorSpec(STUDENT3, ConstantTruncatedScaling(1.0, 10**9))
    z = sample_prior(unit, 50, seed=0)
    sig = np.exp(OTScaling(1.0).log_scale(np.arange(1, 51)))
    assert np.allclose(a, sig * z, atol=1e-14)


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
def test_sample_prior_rejects_non_integer_count(count):
    # 2.5 failed with a bare TypeError
    with pytest.raises(InvalidParameterError, match="count must be an integer"):
        sample_prior(PriorSpec(STUDENT3, OTScaling(1.0)), count, 0)


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
