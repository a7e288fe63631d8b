import numpy as np
import pytest

from heavyseries import rng
from heavyseries.errors import InvalidParameterError


def test_same_key_reproduces():
    a = rng.coord_generator(7, rng.STREAM_NOISE, 42).standard_normal(10)
    b = rng.coord_generator(7, rng.STREAM_NOISE, 42).standard_normal(10)
    assert np.array_equal(a, b)


def test_streams_do_not_collide():
    a = rng.coord_generator(7, rng.STREAM_NOISE, 42).standard_normal(10)
    b = rng.coord_generator(7, rng.STREAM_CHAIN, 42).standard_normal(10)
    c = rng.coord_generator(8, rng.STREAM_NOISE, 42).standard_normal(10)
    d = rng.coord_generator(7, rng.STREAM_NOISE, 43).standard_normal(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), True, False,
                                  "1", None])
def test_coord_generator_rejects_non_integer_seed(seed):
    # int(seed) would run seed 1 for 1.5 and for True
    with pytest.raises(InvalidParameterError, match="seed must be an integer"):
        rng.coord_generator(seed, rng.STREAM_NOISE, 0)


def test_coord_generator_takes_numpy_and_negative_integer_seeds():
    a = rng.coord_generator(np.int64(7), rng.STREAM_NOISE, 42).random(4)
    b = rng.coord_generator(7, rng.STREAM_NOISE, 42).random(4)
    assert np.array_equal(a, b)
    rng.coord_generator(-1, rng.STREAM_NOISE, 0)


def test_coord_normal_order_independent():
    idx = [5, 1, 9, 3]
    out = rng.coord_normal(0, rng.STREAM_NOISE, idx)
    ref = [rng.coord_generator(0, rng.STREAM_NOISE, i).standard_normal()
           for i in idx]
    assert np.array_equal(out, np.array(ref))


def test_mix_spreads_nearby_indices():
    keys = {int(rng._mix(1, i)) for i in range(1000)}
    assert len(keys) == 1000


def _positioned(buffer_pos, pending_half=False):
    """A chain generator part way through its 4-word Philox buffer."""
    gen = rng.coord_generator(7, rng.STREAM_CHAIN, 42)
    if pending_half:
        gen.integers(0, 2**32, dtype=np.uint32)
    gen.bit_generator.random_raw(5)
    state = gen.bit_generator.state
    state["buffer_pos"] = buffer_pos
    gen.bit_generator.state = state
    return gen


def _copy(gen):
    bit_gen = np.random.Philox(0)
    bit_gen.state = gen.bit_generator.state
    return np.random.Generator(bit_gen)


@pytest.mark.parametrize("buffer_pos", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 6000, 12000])
def test_skip_ahead_matches_drawing(buffer_pos, count):
    gen = _positioned(buffer_pos)
    before = gen.bit_generator.state
    skipped = rng.skip_ahead(gen, count)
    drawn = _copy(gen)
    drawn.random(count)
    assert np.array_equal(skipped.bit_generator.random_raw(9),
                          drawn.bit_generator.random_raw(9))
    assert np.array_equal(skipped.standard_normal(50),
                          drawn.standard_normal(50))
    # the source does not move
    after = gen.bit_generator.state
    assert after["buffer_pos"] == before["buffer_pos"]
    assert np.array_equal(after["state"]["counter"],
                          before["state"]["counter"])


def test_skip_ahead_keeps_pending_32_bit_half():
    gen = _positioned(2, pending_half=True)
    skipped = rng.skip_ahead(gen, 6000)
    drawn = _copy(gen)
    drawn.random(6000)
    assert np.array_equal(skipped.integers(0, 2**32, 5, dtype=np.uint32),
                          drawn.integers(0, 2**32, 5, dtype=np.uint32))


def test_skip_ahead_rejects_negative_count():
    # the package's typed error, itself a ValueError
    with pytest.raises(InvalidParameterError):
        rng.skip_ahead(_positioned(1), -1)
