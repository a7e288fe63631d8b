"""Built-in ground-truth signals for the simulation experiments.

Single-indexed truths are given directly by coefficient formulas with a
known Sobolev regularity.  Grid-sampled truths (the blocks/bumps/
heavisine/doppler quartet) are classical benchmarks rescaled to a target
signal-to-noise ratio before the wavelet transform.  The least-favorable
Besov truths are built by a stick-breaking allocation of mass inside a
single wavelet level, which attains the B^{s}_{1,inf} norm exactly and
concentrates the difficulty in a handful of large coefficients.
"""

import math

import numpy as np

from . import basis as basis_mod
from . import rng, wavelets
from .errors import InvalidParameterError, require_integer
from .model import TrueSignal

# -- single-indexed truths ---------------------------------------------------


def truth_sobolev_cos(K):
    """f_{0,k} = k^{-3/2} sin(k) in the cosine basis; Sobolev beta ~ 1."""
    k = np.arange(1, require_integer("K", K) + 1, dtype=float)
    coeffs = k ** (-1.5) * np.sin(k)
    return TrueSignal(coeffs, basis_mod.cosine_basis(),
                      {"space": "sobolev", "beta": 1.0})


def truth_sobolev_sine(K):
    """f_{0,k} = k^{-2.25} sin(10 k) in the sine basis; Sobolev beta ~ 1.75."""
    k = np.arange(1, require_integer("K", K) + 1, dtype=float)
    coeffs = k ** (-2.25) * np.sin(10.0 * k)
    return TrueSignal(coeffs, basis_mod.sine_basis(),
                      {"space": "sobolev", "beta": 1.75})


# -- grid-sampled benchmark quartet ------------------------------------------

_T0 = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_H_BLOCKS = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_H_BUMPS = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_W_BUMPS = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01,
                     0.005, 0.008, 0.005])

QUARTET = ("blocks", "bumps", "heavisine", "doppler")


def quartet_samples(name, m):
    """Raw (unscaled) samples of a benchmark signal on t_i = (i+1)/m."""
    t = (np.arange(m) + 1.0) / m
    if name == "blocks":
        out = np.zeros(m)
        for t0, h in zip(_T0, _H_BLOCKS):
            out += h * (1.0 + np.sign(t - t0)) / 2.0
        return out
    if name == "bumps":
        out = np.zeros(m)
        for t0, h, w in zip(_T0, _H_BUMPS, _W_BUMPS):
            out += h / (1.0 + np.abs((t - t0) / w)) ** 4
        return out
    if name == "heavisine":
        return 4.0 * np.sin(4 * np.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)
    if name == "doppler":
        return np.sqrt(t * (1.0 - t)) * np.sin(2 * np.pi * 1.05 / (t + 0.05))
    raise InvalidParameterError(f"unknown benchmark signal {name!r}")


def truth_quartet(name, frame, snr=7.0):
    """Benchmark truth as wavelet coefficients, rescaled so that the
    root-mean-square of the sampled values equals snr (noise sd 1 per
    coefficient at noise precision n = 1)."""
    if not 0 < snr < math.inf:
        raise InvalidParameterError(f"snr must be > 0 and finite, not {snr!r}")
    samples = quartet_samples(name, frame.signal_length)
    rms = math.sqrt(float(np.mean(samples**2)))
    samples = samples * (snr / rms)
    coeffs = wavelets.analyze(samples, frame)
    return TrueSignal(coeffs, basis_mod.wavelet_basis(frame),
                      {"space": "besov-benchmark", "name": name, "snr": snr})


# -- least-favorable Besov truths --------------------------------------------


# Stick weights are quantized to integer multiples of 2^-30 so that every
# downstream float operation (scaling by 20 * 2^-j, absolute sums, the
# 2^j Besov level weight) is exact: the B^{3/2}_{1,inf} norm of the
# generated truth equals the target amplitude bit-for-bit.
_STICK_QUANTUM_BITS = 30


def _stick_weights(width, gen):
    """Non-negative weights summing exactly to 1: recursive uniform splits
    of the unit mass, the final stick taking the remainder."""
    units = np.zeros(width, dtype=np.int64)
    remaining = np.int64(1) << _STICK_QUANTUM_BITS
    for pos in range(width - 1):
        take = np.int64(round(float(remaining) * gen.random()))
        take = min(max(take, 0), remaining)
        units[pos] = take
        remaining -= take
    units[width - 1] = remaining
    return units.astype(float) * 2.0 ** (-_STICK_QUANTUM_BITS)


def truth_least_favorable(block_index=1, frame=None, amplitude=20.0, seed=0):
    """Near-least-favorable truth with all mass on level j = 2 * block_index.

    Level-j coefficients are amplitude * 2^{-j} * w_k with stick-breaking
    weights w_k >= 0 summing exactly to 1, randomly permuted and given
    independent random signs.  The B^{3/2}_{1,inf} norm then equals
    amplitude exactly (level weight 2^{j (s + 1/2 - 1/p)} = 2^j cancels
    the 2^{-j} scale).
    """
    if not 0 < amplitude < math.inf:
        raise InvalidParameterError(
            f"amplitude must be > 0 and finite, not {amplitude!r}")
    if require_integer("block_index", block_index) < 1:
        raise InvalidParameterError("block_index must be >= 1")
    if frame is None:
        frame = wavelets.WaveletFrame(*FRAMES["least-favorable"])
    j = 2 * block_index
    levels = frame.detail_levels()
    if j not in levels:
        held = [i for i in range(1, frame.levels) if 2 * i in levels]
        raise InvalidParameterError(
            f"level {j} is not a detail level of the frame: block i sits on "
            f"level 2i, so this frame holds {len(held)} block(s): {held}")
    width = 2**j
    gen = rng.coord_generator(seed, rng.STREAM_SIGNAL, block_index)
    w = gen.permutation(_stick_weights(width, gen))
    signs = np.where(gen.random(width) < 0.5, -1.0, 1.0)
    coeffs = np.zeros(frame.signal_length)
    coeffs[wavelets.level_slice(j)] = (amplitude * 2.0**-j) * signs * w
    return TrueSignal(coeffs, basis_mod.wavelet_basis(frame),
                      {"space": "besov", "s": 1.5, "p": 1.0, "q": math.inf,
                       "radius": amplitude, "level": j})


# -- the catalogue -----------------------------------------------------------

# Default WaveletFrame arguments (filter, signal length, coarse level) of
# each truth; None marks a single-index truth, which takes a truncation K.
# Coarse level 2 keeps every level a least-favorable truth occupies (2, 4,
# 6, 8) a genuine detail level.
FRAMES = {
    "sobolev-cos": None,
    "sobolev-sine": None,
    **dict.fromkeys(QUARTET, ("symmlet-8", 2048, 5)),
    "least-favorable": ("symmlet-8", 2048, 2),
}

_SINGLE_INDEX = {"sobolev-cos": truth_sobolev_cos,
                 "sobolev-sine": truth_sobolev_sine}


def default_frame(name):
    """The truth's default WaveletFrame arguments, None if single-index."""
    if name not in FRAMES:
        raise InvalidParameterError(f"unknown truth {name!r}")
    return FRAMES[name]


def make_truth(name, frame=None, K=1000, block_index=1, seed=0, **options):
    """Look up a truth by name.  Each truth uses the arguments it needs (K
    for single-index truths, block_index and seed for least-favorable) and
    ignores the others; options (amplitude, snr) go to the truth's builder,
    which rejects any it does not take.  Wavelet truths take their default
    frame unless one is given."""
    default = default_frame(name)
    if default is None:
        return _SINGLE_INDEX[name](K, **options)
    if frame is None:
        frame = wavelets.WaveletFrame(*default)
    if name == "least-favorable":
        return truth_least_favorable(block_index, frame, seed=seed, **options)
    return truth_quartet(name, frame, **options)
