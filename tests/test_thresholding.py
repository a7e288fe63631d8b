import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavyseries import thresholding, wavelets
from heavyseries.errors import InvalidParameterError


def test_soft_threshold_values():
    x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    out = thresholding.soft_threshold(x, 1.0)
    assert np.allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])
    with pytest.raises(InvalidParameterError):
        thresholding.soft_threshold(x, -0.1)
    # a NaN threshold used to pass `threshold < 0`: every value came back NaN
    with pytest.raises(InvalidParameterError):
        thresholding.soft_threshold(x, math.nan)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1,
                max_size=20),
       st.floats(min_value=0, max_value=10))
def test_soft_threshold_properties(values, t):
    x = np.array(values)
    out = thresholding.soft_threshold(x, t)
    assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
    assert np.all(out * x >= 0.0)
    assert np.all(np.abs(x[out != 0]) > t)


def test_sure_risk_known_value():
    # t = 0 keeps everything: risk = d (pure variance)
    x = np.array([1.0, 2.0, 3.0])
    assert thresholding.sure_risk(x, 0.0) == pytest.approx(3.0)
    # t beyond max kills everything: risk = d - 2d + sum x^2
    assert thresholding.sure_risk(x, 10.0) == pytest.approx(3.0 - 6.0 + 14.0)


def test_sure_threshold_matches_grid_scan():
    gen = np.random.default_rng(0)
    for _ in range(10):
        x = np.concatenate([gen.normal(size=40),
                            gen.normal(size=5) * 6.0])
        t_star = thresholding.sure_threshold(x)
        best = thresholding.sure_risk(x, t_star)
        grid = np.linspace(0.0, np.max(np.abs(x)) + 1.0, 4001)
        scan = min(thresholding.sure_risk(x, t) for t in grid)
        assert best <= scan + 1e-9


def test_sparse_level_detector():
    gen = np.random.default_rng(1)
    noise = gen.normal(size=256)
    assert thresholding._sparse_level(noise)
    dense = noise + 3.0
    assert not thresholding._sparse_level(dense)


def test_hybrid_passes_coarse_levels():
    frame = wavelets.WaveletFrame("symmlet-8", 256, 4)
    gen = np.random.default_rng(2)
    x = gen.normal(size=256)
    out = thresholding.hybrid_sureshrink(x, frame, 1.0)
    assert np.array_equal(out[:16], x[:16])  # 2^4 coarse coefficients


def test_hybrid_uses_universal_on_pure_noise():
    frame = wavelets.WaveletFrame("symmlet-8", 1024, 5)
    gen = np.random.default_rng(3)
    x = gen.normal(size=1024)
    out = thresholding.hybrid_sureshrink(x, frame, 1.0)
    # noise-only detail levels are sparse: universal threshold wipes most
    detail = out[32:]
    assert np.mean(detail == 0.0) > 0.9


def test_hybrid_rescales_with_precision():
    # doubling the precision halves the effective noise: thresholding n=4
    # data equals thresholding the 2x-scaled data at n=1, scaled back
    frame = wavelets.WaveletFrame("haar", 64, 3)
    gen = np.random.default_rng(4)
    x = gen.normal(size=64)
    a = thresholding.hybrid_sureshrink(x, frame, 4.0)
    b = thresholding.hybrid_sureshrink(x * 2.0, frame, 1.0) / 2.0
    assert np.allclose(a, b, atol=1e-12)


def test_hybrid_keeps_strong_signal():
    frame = wavelets.WaveletFrame("symmlet-8", 512, 4)
    c = np.zeros(512)
    c[wavelets.flat_index(5, 7)] = 50.0
    out = thresholding.hybrid_sureshrink(c, frame, 1.0)
    kept = out[wavelets.flat_index(5, 7)]
    assert kept > 40.0


def test_invalid_precision():
    frame = wavelets.WaveletFrame("haar", 64, 3)
    with pytest.raises(InvalidParameterError):
        thresholding.hybrid_sureshrink(np.zeros(64), frame, 0.0)
    # a NaN precision used to pass `noise_precision <= 0` and turn every
    # detail coefficient into NaN
    with pytest.raises(InvalidParameterError):
        thresholding.hybrid_sureshrink(np.ones(64), frame, math.nan)
