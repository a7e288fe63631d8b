import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heavyseries import wavelets
from heavyseries.errors import InvalidParameterError, ShapeError


@pytest.mark.parametrize("name", sorted(wavelets.FILTERS))
def test_filter_orthonormality(name):
    lo = wavelets.FILTERS[name]
    assert abs(lo.sum() - math.sqrt(2.0)) < 1e-12
    assert abs(np.dot(lo, lo) - 1.0) < 1e-12
    for shift in range(2, len(lo), 2):
        assert abs(np.dot(lo[:-shift], lo[shift:])) < 1e-12


def test_highpass_orthogonal_to_lowpass():
    lo = wavelets.FILTERS["symmlet-8"]
    hi = wavelets.highpass(lo)
    assert abs(np.dot(lo, hi)) < 1e-12
    assert abs(np.dot(hi, hi) - 1.0) < 1e-12


@pytest.mark.parametrize("name,length,coarse", [
    ("haar", 64, 2), ("daubechies-4", 128, 3), ("daubechies-8", 256, 4),
    ("symmlet-8", 2048, 5), ("symmlet-8", 2048, 2),
])
def test_round_trip_and_parseval(name, length, coarse):
    frame = wavelets.WaveletFrame(name, length, coarse)
    x = np.random.default_rng(0).normal(size=length)
    c = wavelets.analyze(x, frame)
    assert abs(np.linalg.norm(c) - np.linalg.norm(x)) < 1e-10
    back = wavelets.synthesize(c, frame)
    assert np.max(np.abs(back - x)) < 1e-10


def test_constant_signal_kills_details():
    frame = wavelets.WaveletFrame("symmlet-8", 512, 4)
    c = wavelets.analyze(np.full(512, 3.7), frame)
    for j in frame.detail_levels():
        assert np.max(np.abs(c[wavelets.level_slice(j)])) < 1e-12


def test_unit_impulse_has_unit_norm():
    frame = wavelets.WaveletFrame("daubechies-4", 128, 3)
    x = np.zeros(128)
    x[37] = 1.0
    c = wavelets.analyze(x, frame)
    assert abs(np.linalg.norm(c) - 1.0) < 1e-10


def test_linearity():
    frame = wavelets.WaveletFrame("symmlet-8", 256, 4)
    gen = np.random.default_rng(1)
    x, y = gen.normal(size=256), gen.normal(size=256)
    lhs = wavelets.analyze(2.0 * x - 3.0 * y, frame)
    rhs = 2.0 * wavelets.analyze(x, frame) - 3.0 * wavelets.analyze(y, frame)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_circular_shift_preserves_level_energy():
    # periodization: shifting by 2^{J-j} samples permutes level-j
    # coefficients, leaving per-level energy unchanged
    frame = wavelets.WaveletFrame("daubechies-4", 256, 3)
    x = np.random.default_rng(2).normal(size=256)
    c0 = wavelets.analyze(x, frame)
    for j in frame.detail_levels():
        shift = 2 ** (frame.levels - j)
        cs = wavelets.analyze(np.roll(x, shift), frame)
        e0 = np.sum(c0[wavelets.level_slice(j)] ** 2)
        e1 = np.sum(cs[wavelets.level_slice(j)] ** 2)
        assert abs(e0 - e1) < 1e-10


def test_batch_matches_single():
    frame = wavelets.WaveletFrame("symmlet-8", 128, 3)
    xs = np.random.default_rng(3).normal(size=(5, 128))
    batch = wavelets.analyze(xs, frame)
    for i in range(5):
        assert np.array_equal(batch[i], wavelets.analyze(xs[i], frame))
    back = wavelets.synthesize(batch, frame)
    for i in range(5):
        assert np.array_equal(back[i], wavelets.synthesize(batch[i], frame))


def _fancy_index_dwt_step(a, lo, hi):
    # reference: one modular gather per tap
    n = a.shape[-1]
    half = n // 2
    approx = np.zeros(a.shape[:-1] + (half,))
    detail = np.zeros_like(approx)
    for m, (l, h) in enumerate(zip(lo, hi)):
        idx = (2 * np.arange(half) + m) % n
        approx += l * a[..., idx]
        detail += h * a[..., idx]
    return approx, detail


def _fancy_index_idwt_step(approx, detail, lo, hi):
    # reference: one modular scatter per tap
    half = approx.shape[-1]
    n = 2 * half
    a = np.zeros(approx.shape[:-1] + (n,))
    for m, (l, h) in enumerate(zip(lo, hi)):
        idx = (2 * np.arange(half) + m) % n
        a[..., idx] += l * approx + h * detail
    return a


def _reference_analyze(samples, frame):
    lo = frame.lowpass
    hi = wavelets.highpass(lo)
    coeffs = np.empty(samples.shape)
    a = samples
    for j in range(frame.levels - 1, frame.coarse_level - 1, -1):
        a, d = _fancy_index_dwt_step(a, lo, hi)
        coeffs[..., wavelets.level_slice(j)] = d
    coeffs[..., : 2**frame.coarse_level] = a
    return coeffs


def _reference_synthesize(coefficients, frame):
    lo = frame.lowpass
    hi = wavelets.highpass(lo)
    a = coefficients[..., : 2**frame.coarse_level].copy()
    for j in range(frame.coarse_level, frame.levels):
        a = _fancy_index_idwt_step(
            a, coefficients[..., wavelets.level_slice(j)], lo, hi)
    return a


@pytest.mark.parametrize("name", sorted(wavelets.FILTERS))
@pytest.mark.parametrize("coarse", [0, 3, 5])
def test_polyphase_matches_fancy_index_reference(name, coarse):
    # coarse level 0 has half = 1 at the first level, below every filter's
    # half-length, so the cyclic shifts wrap several times
    frame = wavelets.WaveletFrame(name, 64, coarse)
    gen = np.random.default_rng(4)
    rows = 2 * wavelets._BLOCK_ROWS + 3
    single = gen.normal(size=64)
    stack = gen.normal(size=(rows, 64))
    inputs = [single, stack, np.asfortranarray(stack),
              gen.normal(size=(3, 50, 64))]
    for x in inputs:
        for transform, reference in (
            (wavelets.analyze, _reference_analyze),
            (wavelets.synthesize, _reference_synthesize),
        ):
            out = transform(x, frame)
            assert out.flags.c_contiguous
            assert out.shape == x.shape
            assert np.array_equal(out, reference(x, frame))


def test_flat_index_bijection():
    frame = wavelets.WaveletFrame("haar", 64, 3)
    seen = set()
    for j in frame.all_levels():
        width = 1 if j == -1 else 2**j
        for k in range(width):
            seen.add(wavelets.flat_index(j, k))
    assert seen == set(range(64))


def test_flat_index_rejects_bad_k():
    with pytest.raises(ShapeError):
        wavelets.flat_index(3, 8)
    with pytest.raises(ShapeError):
        wavelets.flat_index(-1, 1)


def test_level_norm_values():
    c = np.zeros(64)
    c[wavelets.level_slice(3)] = 1.0
    assert wavelets.level_norm(c, 3, 2) == pytest.approx(2.0 ** (3 / 2))
    assert wavelets.level_norm(c, 3, 1) == pytest.approx(8.0)
    assert wavelets.level_norm(c, 3, math.inf) == 1.0
    c2 = np.zeros(64)
    c2[wavelets.flat_index(4, 2)] = -2.5
    for p in (1, 2, 7, math.inf):
        assert wavelets.level_norm(c2, 4, p) == pytest.approx(2.5)


def test_frame_validation():
    with pytest.raises(InvalidParameterError):
        wavelets.WaveletFrame("nope", 64, 3)
    with pytest.raises(ShapeError):
        wavelets.WaveletFrame("haar", 100, 3)
    with pytest.raises(InvalidParameterError):
        wavelets.WaveletFrame("haar", 64, 6)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    frame = wavelets.WaveletFrame("symmlet-8", 128, 3)
    x = np.random.default_rng(seed).normal(size=128)
    back = wavelets.synthesize(wavelets.analyze(x, frame), frame)
    assert np.max(np.abs(back - x)) < 1e-10
