"""Counter-based random number generation keyed per coordinate.

Every stochastic routine in the package derives its randomness from a
Philox counter-based generator keyed by (seed, stream, coordinate).  Two
calls with the same key produce identical output regardless of evaluation
order, which makes per-coordinate work embarrassingly parallel while
keeping aggregate results bit-reproducible.
"""

import numpy as np

from .errors import InvalidParameterError

# Stream tags keep independent uses of the same (seed, coordinate) pair
# from colliding.
STREAM_NOISE = 1
STREAM_PRIOR = 2
STREAM_CHAIN = 3
STREAM_SIGNAL = 4
STREAM_GIBBS = 5

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(stream, index):
    # 64-bit SplitMix-style finalizer over (stream, index); spreads nearby
    # coordinate indices across the key space.  Plain Python ints with an
    # explicit mask give the intended wraparound semantics.
    z = ((int(stream) << 56) ^ (int(index) & 0x00FF_FFFF_FFFF_FFFF)) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return np.uint64(z ^ (z >> 31))


def coord_generator(seed, stream, index):
    """Generator for one (seed, stream, coordinate) key.

    `index` is a flat non-negative coordinate index; double-indexed
    coordinates should be flattened first (see wavelets.flat_index).
    `seed` must be an integer: int(True) and int(1.5) would both run 1.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidParameterError(f"seed must be an integer, not {seed!r}")
    key = np.array([np.uint64(int(seed) & _MASK64), _mix(stream, index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def coord_normal(seed, stream, indices):
    """One standard normal draw per coordinate, order-independent."""
    out = np.empty(len(indices))
    for pos, idx in enumerate(indices):
        out[pos] = coord_generator(seed, stream, idx).standard_normal()
    return out


# 64-bit outputs one Philox counter step makes, held in its buffer
_PHILOX_WORDS = 4


def skip_ahead(gen, count):
    """A new generator positioned `count` 64-bit outputs past `gen`.

    It continues exactly as `gen` would after `gen.random(count)`, but the
    skipped outputs are never made: the Philox counter jumps over whole
    4-word blocks (`Philox.advance`) and at most one block is generated to
    refill the buffer.  `gen` itself does not move; `count` 0 copies it.
    """
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    state = gen.bit_generator.state
    bit_gen = np.random.Philox(key=state["state"]["key"])
    held = _PHILOX_WORDS - state["buffer_pos"]
    if count <= held:
        state["buffer_pos"] += count
        bit_gen.state = state
    else:
        blocks, rest = divmod(count - held, _PHILOX_WORDS)
        bit_gen.state = state
        bit_gen.advance(blocks)
        bit_gen.random_raw(rest)
        if state["has_uint32"]:
            # advancing clears the buffered 32-bit half, which 64-bit
            # draws never touch
            moved = bit_gen.state
            moved["has_uint32"] = 1
            moved["uinteger"] = state["uinteger"]
            bit_gen.state = moved
    return np.random.Generator(bit_gen)
