import math

import numpy as np
import pytest

from heavyseries import signals, spaces, wavelets
from heavyseries.errors import InvalidParameterError


def test_sobolev_cos_formula():
    t = signals.truth_sobolev_cos(50)
    k = np.arange(1, 51, dtype=float)
    assert np.allclose(t.coefficients, k**-1.5 * np.sin(k), atol=1e-15)
    assert t.declared_class["beta"] == 1.0


def test_sobolev_sine_formula():
    t = signals.truth_sobolev_sine(50)
    k = np.arange(1, 51, dtype=float)
    assert np.allclose(t.coefficients, k**-2.25 * np.sin(10.0 * k),
                       atol=1e-15)
    # finite Sobolev norm just below the declared regularity
    assert np.isfinite(spaces.sobolev_norm(t.coefficients, 1.7))


def test_quartet_snr():
    frame = wavelets.WaveletFrame("symmlet-8", 2048, 5)
    for name in signals.QUARTET:
        t = signals.truth_quartet(name, frame)
        samples = wavelets.synthesize(t.coefficients, frame)
        rms = math.sqrt(float(np.mean(samples**2)))
        assert rms == pytest.approx(7.0, rel=1e-10, abs=0.0), name


def test_quartet_shapes():
    m = 512
    blocks = signals.quartet_samples("blocks", m)
    assert len(np.unique(np.round(blocks, 9))) <= 12  # piecewise constant
    doppler = signals.quartet_samples("doppler", m)
    assert np.max(np.abs(doppler)) <= 0.52
    with pytest.raises(InvalidParameterError):
        signals.quartet_samples("nope", m)


def test_stick_weights_sum_exactly_to_one():
    gen = np.random.default_rng(3)
    for width in (4, 16, 256):
        w = signals._stick_weights(width, gen)
        assert np.all(w >= 0.0)
        assert math.fsum(w) == 1.0


def test_least_favorable_single_level_support():
    for i in (1, 2, 3, 4):
        t = signals.truth_least_favorable(i)
        j = 2 * i
        c = t.coefficients
        mask = np.zeros(len(c), dtype=bool)
        mask[wavelets.level_slice(j)] = True
        assert np.all(c[~mask] == 0.0)
        assert np.any(c[mask] != 0.0)
        assert t.declared_class["level"] == j


def test_least_favorable_besov_norm_exact():
    for i in (1, 2, 3, 4):
        t = signals.truth_least_favorable(i)
        norm = spaces.besov_norm(t.coefficients, 1.5, 1.0, math.inf)
        assert norm == 20.0  # exact, bit for bit


def test_least_favorable_determinism_and_seeds():
    a = signals.truth_least_favorable(2, seed=0)
    b = signals.truth_least_favorable(2, seed=0)
    c = signals.truth_least_favorable(2, seed=1)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert not np.array_equal(a.coefficients, c.coefficients)


def test_least_favorable_level_bounds():
    frame = wavelets.WaveletFrame("haar", 64, 2)
    # levels 2 to 5 hold blocks 1 and 2; level 8 is too deep
    with pytest.raises(InvalidParameterError,
                       match=r"block i sits on level 2i, so this frame "
                             r"holds 2 block\(s\): \[1, 2\]"):
        signals.truth_least_favorable(4, frame=frame)
    # below a coarse level 3, level 2 is not a detail level either
    with pytest.raises(InvalidParameterError,
                       match=r"holds 1 block\(s\): \[2\]"):
        signals.truth_least_favorable(1, wavelets.WaveletFrame("haar", 64, 3))
    with pytest.raises(InvalidParameterError):
        signals.truth_least_favorable(0)


def test_make_truth_dispatch():
    assert signals.make_truth("sobolev-cos", K=10).coefficients.shape == (10,)
    frame = wavelets.WaveletFrame("symmlet-8", 256, 4)
    t = signals.make_truth("bumps", frame=frame)
    assert t.basis.double_indexed
    t2 = signals.make_truth("least-favorable", block_index=1)
    assert len(t2.coefficients) == 2048
    with pytest.raises(InvalidParameterError):
        signals.make_truth("unknown")


def test_make_truth_takes_one_argument_set():
    # each truth uses the arguments it needs and ignores the others
    shared = dict(K=10, block_index=2, seed=3)
    for name in ("sobolev-cos", "bumps", "least-favorable"):
        a = signals.make_truth(name, **shared).coefficients
        if name == "sobolev-cos":
            b = signals.truth_sobolev_cos(10).coefficients
        elif name == "bumps":
            b = signals.make_truth("bumps").coefficients
        else:
            b = signals.truth_least_favorable(2, seed=3).coefficients
        assert np.array_equal(a, b)
    assert np.array_equal(
        signals.make_truth("least-favorable").coefficients,
        signals.truth_least_favorable().coefficients)
    # a builder's own options are passed on, and rejected by other truths
    t = signals.make_truth("least-favorable", amplitude=5.0)
    assert t.declared_class["radius"] == 5.0
    for name in ("sobolev-cos", "bumps"):
        with pytest.raises(TypeError):
            signals.make_truth(name, amplitude=5.0)


@pytest.mark.parametrize("name", ["sobolev-cos", "sobolev-sine"])
@pytest.mark.parametrize("K", [10.5, 10.0, True, "10"])
def test_single_index_truths_reject_non_integer_K(name, K):
    # 10.5 built 11 coefficients and True built 1
    with pytest.raises(InvalidParameterError, match="K must be an integer"):
        signals.make_truth(name, K=K)


@pytest.mark.parametrize("block_index", [1.5, 1.0, True])
def test_least_favorable_rejects_non_integer_block_index(block_index):
    # 1.5 raised a bare TypeError
    with pytest.raises(InvalidParameterError,
                       match="block_index must be an integer"):
        signals.make_truth("least-favorable", block_index=block_index)


def test_numpy_integer_sizes_build_the_same_truths():
    for name in ("sobolev-cos", "sobolev-sine"):
        assert np.array_equal(
            signals.make_truth(name, K=np.int64(25)).coefficients,
            signals.make_truth(name, K=25).coefficients)
    assert np.array_equal(
        signals.make_truth("least-favorable",
                           block_index=np.int32(2)).coefficients,
        signals.make_truth("least-favorable", block_index=2).coefficients)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_truth_scales_must_be_positive_and_finite(value):
    # NaN and inf passed `<= 0` and failed later, in `TrueSignal`, as
    # "truth coefficients must be finite", without naming the argument
    with pytest.raises(InvalidParameterError, match="snr must be > 0"):
        signals.make_truth("bumps", snr=value)
    with pytest.raises(InvalidParameterError, match="amplitude must be > 0"):
        signals.make_truth("least-favorable", amplitude=value)
