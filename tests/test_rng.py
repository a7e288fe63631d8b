import numpy as np

from heavyseries import rng


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


def test_coord_normal_order_independent():
    idx = [5, 1, 9, 3]
    out = rng.coord_normal(0, rng.STREAM_NOISE, idx)
    ref = [rng.coord_generator(0, rng.STREAM_NOISE, i).standard_normal()
           for i in idx]
    assert np.array_equal(out, np.array(ref))


def test_mix_spreads_nearby_indices():
    keys = {int(rng._mix(1, i)) for i in range(1000)}
    assert len(keys) == 1000
