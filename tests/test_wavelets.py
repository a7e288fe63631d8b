import math
import tracemalloc

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
def test_polyphase_matches_fancy_index_reference(name, coarse, monkeypatch):
    # coarse level 0 has half = 1 at the first level, below every filter's
    # half-length, so the cyclic shifts wrap several times; a budget of
    # 128 × 64 values gives synthesis blocks of 32 rows (four row-lengths
    # a row), so the 259-row stacks cross eight block edges and end in a
    # 3-row block, and the 150 rows of the 3-d stack end in 22; analyze
    # takes no blocks
    monkeypatch.setattr(wavelets, "_BLOCK_VALUES", 128 * 64)
    frame = wavelets.WaveletFrame(name, 64, coarse)
    gen = np.random.default_rng(4)
    rows = 2 * 128 + 3
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


def test_synthesize_into_out(monkeypatch):
    # a budget of 128 rows of 64 samples, 32 rows per synthesis block; `out`
    # receives every block
    monkeypatch.setattr(wavelets, "_BLOCK_VALUES", 128 * 64)
    frame = wavelets.WaveletFrame("symmlet-8", 64, 3)
    coeffs = np.random.default_rng(9).normal(size=(2 * 128 + 3, 64))
    out = np.full(coeffs.shape, np.nan)
    assert wavelets.synthesize(coeffs, frame, out) is out
    assert np.array_equal(out, wavelets.synthesize(coeffs, frame))
    for bad in (np.empty((2 * 128 + 3, 64), order="F"), np.empty((3, 64)),
                coeffs):
        with pytest.raises(ShapeError):
            wavelets.synthesize(coeffs, frame, bad)


def test_symmlet_stack_matches_reference_bit_for_bit():
    # the real budget at 2048 samples: the stack crosses two block edges and
    # ends in a part block, with a row of zeros, one of -0.0 and one holding
    # some -0.0 entries
    frame = wavelets.WaveletFrame("symmlet-8", 2048, 5)
    step = wavelets._BLOCK_VALUES // (4 * 2048)
    coeffs = np.random.default_rng(12).normal(size=(2 * step + 5, 2048))
    coeffs[1] = 0.0
    coeffs[step + 2] = -0.0
    coeffs[2 * step + 1, ::3] = -0.0
    ref = _reference_synthesize(coeffs, frame)
    for out in (None, np.full(coeffs.shape, np.nan)):
        got = wavelets.synthesize(coeffs, frame, out)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_synthesis_sums_start_at_positive_zero():
    # one level step in which every term of output sample 0 is -0.0: tap m
    # reads entry -m//2 (mod half) of a and d, signed against l_m and h_m.
    # A sum that starts at +0.0, as the reference's, gives +0.0 there.
    frame = wavelets.WaveletFrame("symmlet-8", 2048, 10)
    lo, hi = frame.lowpass, wavelets.highpass(frame.lowpass)
    coeffs = np.zeros(2048)
    for m in range(0, len(lo), 2):
        coeffs[-(m // 2) % 1024] = -0.0 if lo[m] > 0 else 0.0
        coeffs[1024 + -(m // 2) % 1024] = -0.0 if hi[m] > 0 else 0.0
    got = wavelets.synthesize(coeffs, frame)
    ref = _reference_synthesize(coeffs, frame)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert got[0] == 0.0 and not np.signbit(got[0])


def test_synthesis_scratch_does_not_grow_with_the_stack():
    # into `out`, synthesis holds one block's level-step scratch whatever
    # the stack's size: 1,858,340 and 1,859,676 bytes at tracemalloc's peak
    # for 1,000 and 2,000 rows of 2048 samples (numpy 2.4.6), within the
    # 2 MiB budget
    frame = wavelets.WaveletFrame("symmlet-8", 2048, 5)
    gen = np.random.default_rng(13)
    peaks = []
    for rows in (1000, 2000):
        coeffs = gen.normal(size=(rows, 2048))
        out = np.empty_like(coeffs)
        tracemalloc.start()
        try:
            wavelets.synthesize(coeffs, frame, out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 8 * wavelets._BLOCK_VALUES
    assert peaks[1] - peaks[0] <= 16 << 10, peaks


# The block rules the stack loops wrote out for themselves before they took
# their slices from `row_blocks`, as (lo, hi) per block: the oracle below.
def _transform_blocks(count, width):  # synthesize, _draw_quantiles
    step = max(1, wavelets._BLOCK_VALUES // width)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _band_blocks(count, width, tail):  # posterior.credible_band
    step = max(1, wavelets._BLOCK_VALUES // width)
    starts = list(range(0, max(count - tail, 0) + 1, step)) + [count]
    return list(zip(starts[:-1], starts[1:]))


def _contraction_blocks(count, width):  # metrics.contraction_norms
    step = max(2, wavelets._BLOCK_VALUES // width)
    starts = list(range(0, max(count - 1, 1), step)) + [count]
    return list(zip(starts[:-1], starts[1:]))


def _refill_blocks(count, width):  # posterior._metropolis_block
    table = min(max(1, wavelets._BLOCK_VALUES // width), count)
    return [(lo, min(lo + table, count)) for lo in range(0, count, table)]


# (oracle, least, last): each loop's arguments to `row_blocks`; 512 is a
# cosine band's `basis.last_slice_floor`
_BLOCK_RULES = [
    (_transform_blocks, 1, 1),
    (lambda c, w: _band_blocks(c, w, 1), 1, 1),
    (lambda c, w: _band_blocks(c, w, 5), 1, 5),
    (lambda c, w: _band_blocks(c, w, 512), 1, 512),
    (_contraction_blocks, 2, 2),
    (_refill_blocks, 1, 1),
]


@pytest.mark.parametrize("rule", range(len(_BLOCK_RULES)))
@pytest.mark.parametrize("rows", [1, 2, 3, 64, 256, 700])
@pytest.mark.parametrize("width", [1, 7, 256])
def test_row_blocks_match_each_loops_rule(rule, rows, width, monkeypatch):
    # a budget of `rows` full rows plus a part row, so the floor division
    # shows; steps from 1 (below `least` = 2) to past `last` = 512
    monkeypatch.setattr(wavelets, "_BLOCK_VALUES", rows * width + width // 2)
    oracle, least, last = _BLOCK_RULES[rule]
    step = max(least, rows)
    counts = {1, least, step - 1, step, step + 1, step + last - 1,
              step + last, 2 * step + last + 37}
    for count in sorted(c for c in counts if c >= 1):
        blocks = wavelets.row_blocks(count, width, least, last)
        assert [(b.start, b.stop) for b in blocks] == oracle(count, width), \
            count
        # the slices tile range(count) in order, and every block but the
        # last holds the full step
        assert [i for b in blocks for i in range(count)[b]] == \
            list(range(count))
        assert all(b.stop - b.start == step for b in blocks[:-1]), count
        assert blocks[-1].stop - blocks[-1].start >= min(last, count)


def test_row_blocks_of_no_rows():
    assert wavelets.row_blocks(0, 64) == []
    assert wavelets.row_blocks(0, 64, least=2, last=512) == []


def test_flat_index_bijection():
    frame = wavelets.WaveletFrame("haar", 64, 3)
    seen = set()
    for j in range(-1, frame.levels):
        width = 1 if j == -1 else 2**j
        for k in range(width):
            seen.add(wavelets.flat_index(j, k))
    assert seen == set(range(64))
    # flat_keys inverts flat_index position by position
    assert [wavelets.flat_index(j, k)
            for j, k in wavelets.flat_keys(64)] == list(range(64))


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


def test_transforms_reject_signals_of_the_wrong_length():
    frame = wavelets.WaveletFrame("haar", 64, 3)
    for transform, what in ((wavelets.analyze, "samples"),
                            (wavelets.synthesize, "coefficients")):
        for shape in ((32,), (3, 128)):
            with pytest.raises(ShapeError, match=f"expected 64 {what}"):
                transform(np.zeros(shape), frame)


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
