import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavyseries import spaces, wavelets
from heavyseries.errors import InvalidParameterError, ShapeError


def test_exact_exponents():
    assert spaces.rate_exponent(1.5, 1.0, 2.0) == 0.375
    assert spaces.rate_exponent(1.5, 1.0, 6.0) == 1.0 / 3.0
    # smooth dense case: r = s/(1+2s)
    assert spaces.rate_exponent(2.0, 2.0, 2.0) == 0.4


def test_zone_labels():
    assert spaces.resolve_rate(1.5, 1.0, 2.0).zone == "regular"
    assert spaces.resolve_rate(1.5, 1.0, 6.0).zone == "sparse"
    # eta = s p - (p'-p)/2 = 0 at p' = p(1 + 2s); (s, p) = (3/2, 1) gives
    # p' = 4 with every intermediate float exact
    spec = spaces.resolve_rate(1.5, 1.0, 4.0)
    assert spec.zone == "boundary"
    assert spec.eta == 0.0


def test_infinite_loss_exponent():
    spec = spaces.resolve_rate(1.5, 1.0, math.inf)
    assert spec.zone == "sparse"
    assert spec.s_eff == pytest.approx(0.5)
    assert spec.exponent == pytest.approx(0.25)


def test_branch_continuity():
    # approach eta = 0 from both sides along p': r is continuous
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = rng.uniform(0.6, 3.0)
        p = rng.uniform(1.0, 4.0)
        p_star = p * (1 + 2 * s)  # eta = 0
        if p_star < 2.0:
            continue
        r_dense = spaces.resolve_rate(s, p, p_star * (1 - 1e-9)).exponent
        r_sparse = spaces.resolve_rate(s, p, p_star * (1 + 1e-9)).exponent
        r_mid = spaces.resolve_rate(s, p, p_star).exponent
        assert abs(r_dense - r_mid) < 1e-8
        assert abs(r_sparse - r_mid) < 1e-8
        assert abs(r_dense - r_sparse) < 1e-8


def test_admissibility():
    assert spaces.admissible(1.5, 1.0, 2.0)
    assert not spaces.admissible(0.3, 1.0, 2.0)  # s <= 1/p - 1/2
    assert spaces.admissible(0.3, 4.0, 2.0)
    with pytest.raises(InvalidParameterError):
        spaces.resolve_rate(0.3, 1.0, 2.0)
    # below p' = 2 admissibility is the L2 embedding, and the zone is regular
    spec = spaces.resolve_rate(1.5, 1.0, 1.0)
    assert (spec.exponent, spec.zone) == (0.375, "regular")
    spec = spaces.resolve_rate(1.0, 1.0, 1.5)
    assert (spec.exponent, spec.zone) == (1.0 / 3.0, "regular")
    with pytest.raises(InvalidParameterError):
        spaces.resolve_rate(1.5, 1.0, 0.5)  # p' < 1
    with pytest.raises(InvalidParameterError):
        spaces.resolve_rate(-1.0, 1.0, 2.0)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=1.0, max_value=8.0),
       st.floats(min_value=1.0, max_value=12.0))
def test_exponent_bounds_property(s, p, p_prime):
    if not spaces.admissible(s, p, p_prime):
        return
    spec = spaces.resolve_rate(s, p, p_prime)
    assert 0.0 < spec.exponent < 0.5
    # sparse-zone exponent never beats the dense-zone value
    assert spec.exponent <= s / (1.0 + 2.0 * s) + 1e-12


def test_sobolev_norm():
    f = np.array([1.0, 0.5, 0.25])
    beta = 1.0
    expect = math.sqrt(1.0 + 4.0 * 0.25 + 9.0 * 0.0625)
    assert spaces.sobolev_norm(f, beta) == pytest.approx(expect, abs=1e-14)


def test_besov_norm_single_level():
    # one level j with coefficients c: norm = 2^{j(s+1/2-1/p)} ||c||_p
    c = np.zeros(64)
    c[wavelets.level_slice(3)] = np.array([1.0, -2.0, 0.5, 0.25, 0, 0, 0, 1.0])
    s, p = 1.5, 1.0
    level_l1 = np.sum(np.abs(c[wavelets.level_slice(3)]))
    expect = 2.0 ** (3 * (s + 0.5 - 1.0)) * level_l1
    assert spaces.besov_norm(c, s, p, math.inf) == pytest.approx(expect,
                                                                 abs=1e-12)


def test_besov_norm_q_finite_vs_sup():
    c = np.random.default_rng(1).normal(size=64)
    sup = spaces.besov_norm(c, 1.0, 2.0, math.inf)
    l1 = spaces.besov_norm(c, 1.0, 2.0, 1.0)
    assert sup <= l1


def test_besov_norm_shape_errors():
    with pytest.raises(ShapeError):
        spaces.besov_norm(np.zeros(12), 1.0, 2.0, math.inf)
    with pytest.raises(InvalidParameterError):
        spaces.besov_norm(np.zeros(16), 1.0, 2.0, 0.5)
