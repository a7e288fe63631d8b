"""Periodized orthonormal discrete wavelet transforms.

Filters are embedded as high-precision constants (regenerated offline by
spectral factorization of the Daubechies product filter) and checked for
double-shift orthogonality at import time.  Boundary handling is periodic,
which keeps the transform exactly orthonormal.

Coefficient layout follows the relabelled double-index convention: the
2^J0 scaling coefficients at the coarse level J0 occupy pseudo-levels
j = -1, 0, ..., J0-1 (with 2^max(j,0) entries each, in natural order) and
detail levels run j = J0, ..., J-1 with 0 <= k < 2^j.  The flat index of
(j, k) is 0 for j = -1 and 2^j + k otherwise, a bijection onto
{0, ..., 2^J - 1}.

analyze is the plain periodized filter bank: filter tap m gathers samples
2k + m (mod n) of a level of n samples in one indexing operation.  The
package analyzes one signal per truth, so this path is kept simple.

synthesize, which turns stacks of posterior draws into curves, works on
polyphase components: tap m adds l_m a_k + h_m d_k into entry k + m//2
(mod half) of the parity-(m % 2) half of a level's samples.  A level step
pads a and d cyclically by the largest shift, (len(lo) - 1) // 2, so each
tap is one contiguous slice-add of its term into its parity's
accumulator, and the two accumulators interleave into the level's output.
Stacks go through all levels in the blocks of `row_blocks(rows, 4 *
signal_length)`, since a step holds about four row-lengths (padded planes
and term, accumulators, output): the one budget bounds the whole step,
which so stays in cache.  The step's scratch is made once per call, and
each block's levels write into that block of the result.

Both apply the taps in ascending order, so every output element is summed
in a fixed order.  Both return a fresh C-ordered array whatever the order
of their input, so reductions along the last axis of the result sum in
the same order for C- and F-ordered stacks; synthesize can write into a
caller's C-ordered array instead, which a caller that synthesizes block
after block reuses.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, ShapeError

# Most values one block of `row_blocks` holds (2 MiB of float64; 32 rows of
# wavelet synthesis at 2048 samples), enough to amortize per-tap numpy
# overhead, while a stack of draws needs no full-size temporaries.
_BLOCK_VALUES = 1 << 18


def row_blocks(count, width, least=1, last=1):
    """Slices cutting `count` rows of `width` values into blocks: the one
    scratch budget of every loop over a draw, curve or signal stack.

    Full blocks hold max(least, _BLOCK_VALUES // width) rows, from row 0
    on; while the rows past the last full block number fewer than `last`,
    they join the block before them.  The slices tile range(count) in
    order; every block but the last has the full size.
    """
    step = max(least, _BLOCK_VALUES // width)
    edges = [*range(0, max(count - last, 0) + 1, step), count] if count else []
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


# Low-pass filters, unit L2 norm, sum sqrt(2).  "daubechies-N" is the
# N-tap extremal-phase filter; "symmlet-8" the 16-tap least-asymmetric
# filter with 8 vanishing moments.
FILTERS = {
    "haar": np.array([0.7071067811865476, 0.7071067811865476]),
    "daubechies-2": np.array([0.7071067811865476, 0.7071067811865476]),
    "daubechies-4": np.array([
        0.4829629131445341433749,
        0.8365163037378079055753,
        0.2241438680420133810260,
        -0.1294095225512603811744,
    ]),
    "daubechies-8": np.array([
        0.2303778133088965008633,
        0.7148465705529156470899,
        0.6308807679298589078817,
        -0.0279837694168598542114,
        -0.1870348117190930840796,
        0.0308413818355607636272,
        0.0328830116668851997354,
        -0.0105974017850690321049,
    ]),
    "symmlet-8": np.array([
        0.0018899503327676891843,
        -0.0003029205147241330813,
        -0.0149522583370621991185,
        0.0038087520138944894631,
        0.0491371796737302867869,
        -0.0272190299171034863220,
        -0.0519458381078818007357,
        0.3644418948361789367596,
        0.7771857516996280286243,
        0.4813596512590533915896,
        -0.0612733590678110778430,
        -0.1432942383512726628441,
        0.0076074873249766081919,
        0.0316950878115259914314,
        -0.0005421323318000106893,
        -0.0033824159510050025955,
    ]),
}


def _check_filter(lo, name):
    if abs(lo.sum() - np.sqrt(2.0)) > 1e-12:
        raise InvalidParameterError(f"{name}: filter sum is not sqrt(2)")
    for shift in range(0, len(lo), 2):
        target = 1.0 if shift == 0 else 0.0
        if abs(np.dot(lo[: len(lo) - shift or None], lo[shift:]) - target) > 1e-12:
            raise InvalidParameterError(f"{name}: double-shift orthogonality fails")


for _name, _lo in FILTERS.items():
    _check_filter(_lo, _name)


def highpass(lo):
    """Quadrature mirror of a low-pass filter."""
    signs = (-1.0) ** np.arange(len(lo))
    return signs * lo[::-1]


@dataclass(frozen=True)
class WaveletFrame:
    """Orthonormal periodized wavelet frame on 2^J samples."""

    filter_name: str = "symmlet-8"
    signal_length: int = 2048
    coarse_level: int = 5
    lowpass: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.filter_name not in FILTERS:
            raise InvalidParameterError(f"unknown filter {self.filter_name!r}")
        m = self.signal_length
        if m < 2 or m & (m - 1):
            raise ShapeError(f"signal_length must be a power of two, got {m}")
        if not 0 <= self.coarse_level < self.levels:
            raise InvalidParameterError("coarse_level out of range")
        object.__setattr__(self, "lowpass", FILTERS[self.filter_name].copy())

    @property
    def levels(self):
        return int(np.log2(self.signal_length))

    def detail_levels(self):
        return range(self.coarse_level, self.levels)


def flat_index(j, k):
    """Flat position of coefficient (j, k) in the packed layout."""
    if j == -1:
        if k != 0:
            raise ShapeError("level -1 has a single coefficient")
        return 0
    if not 0 <= k < 2**j:
        raise ShapeError(f"k={k} out of range at level {j}")
    return 2**j + k


def flat_levels(count):
    """Level j of each of the flat positions 0, ..., count - 1."""
    levels = np.floor(np.log2(np.maximum(np.arange(count), 1))).astype(int)
    levels[0] = -1
    return levels


def flat_keys(count):
    """(j, k) of each of the flat positions 0, ..., count - 1."""
    return [(j, i - 2**j if j >= 0 else 0)
            for i, j in enumerate(flat_levels(count).tolist())]


def level_slice(j):
    """Slice of level j in the packed layout."""
    if j == -1:
        return slice(0, 1)
    return slice(2**j, 2 ** (j + 1))


def _idwt_step(approx, detail, lo, hi, out, work):
    # tap m adds l_m a + h_m d at entry k + m//2 (mod half) of the parity-
    # (m % 2) plane of `out`: one contiguous slice of the term over a and d
    # padded cyclically.  The buffers are views of the flat `work`; `out`
    # may overlap approx, which is read only into its padded plane.
    rows, half = approx.shape
    pad = (len(lo) - 1) // 2
    size = rows * (half + pad)
    a, d, term, scratch = work[: 4 * size].reshape(4, rows, half + pad)
    sums = work[4 * size:][: 2 * rows * half].reshape(2, rows, half)
    shifts = np.arange(-pad, half)
    np.take(approx, shifts, axis=1, out=a, mode="wrap")
    np.take(detail, shifts, axis=1, out=d, mode="wrap")
    sums.fill(0.0)
    for m, (l, h) in enumerate(zip(lo, hi)):
        np.multiply(l, a, out=term)
        np.multiply(h, d, out=scratch)
        term += scratch
        acc = sums[m % 2]
        acc += term[:, pad - m // 2:][:, :half]
    out[:, 0::2], out[:, 1::2] = sums
    return out


def _check_last_axis(values, frame, what):
    if values.shape[-1] != frame.signal_length:
        raise ShapeError(
            f"expected {frame.signal_length} {what}, got shape {values.shape}"
        )


def analyze(samples, frame):
    """Forward periodized transform into the packed (j, k) layout.

    Accepts a single signal or a stack of signals along the last axis.
    """
    a = np.asarray(samples, dtype=float)
    _check_last_axis(a, frame, "samples")
    out = np.empty(a.shape)
    lo = frame.lowpass
    hi = highpass(lo)
    for j in range(frame.levels - 1, frame.coarse_level - 1, -1):
        n = a.shape[-1]
        approx = np.zeros(a.shape[:-1] + (n // 2,))
        detail = np.zeros_like(approx)
        # tap m reads sample 2k + m (mod n)
        for m, (l, h) in enumerate(zip(lo, hi)):
            taps = a[..., (2 * np.arange(n // 2) + m) % n]
            approx += l * taps
            detail += h * taps
        out[..., level_slice(j)] = detail
        a = approx
    out[..., : 2**frame.coarse_level] = a
    return out


def synthesize(coefficients, frame, out=None):
    """Inverse of analyze; into `out`, a C-ordered array of the result's
    shape apart from the coefficients, when given."""
    values = np.asarray(coefficients, dtype=float)
    _check_last_axis(values, frame, "coefficients")
    if out is None:
        out = np.empty(values.shape)
    elif (out.shape != values.shape or not out.flags.c_contiguous
          or np.may_share_memory(out, values)):
        raise ShapeError("out must be a C-ordered array of the result's "
                         "shape, apart from the input")
    rows = values.reshape(-1, frame.signal_length)
    out_rows = out.reshape(rows.shape)
    lo = frame.lowpass
    hi = highpass(lo)
    # step scratch for the first, largest block: per row, four padded
    # half-rows (a, d, term, scratch) and two half-row accumulators
    blocks = row_blocks(len(rows), 4 * frame.signal_length)
    work = np.empty((blocks[0].stop if blocks else 0)
                    * (3 * frame.signal_length + 2 * len(lo)))
    for block in blocks:
        c = np.ascontiguousarray(rows[block])
        level = out_rows[block].reshape(-1)
        a = c[:, : 2**frame.coarse_level]
        for j in frame.detail_levels():
            a = _idwt_step(a, c[:, level_slice(j)], lo, hi,
                           level[: 2 * a.size].reshape(len(a), -1), work)
    return out


def level_norm(coefficients, j, p):
    """l_p norm of the level-j coefficient slice; p may be inf."""
    coefficients = np.asarray(coefficients, dtype=float)
    n = len(coefficients)
    if n < 1 or (j != -1 and 2 ** (j + 1) > n) or j < -1:
        raise ShapeError(f"level {j} not present in {n} coefficients")
    if not p >= 1:
        raise InvalidParameterError("p must be >= 1")
    block = coefficients[level_slice(j)]
    if np.isinf(p):
        return float(np.max(np.abs(block)))
    return float(np.sum(np.abs(block) ** p) ** (1.0 / p))
