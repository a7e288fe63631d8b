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

Both directions work on polyphase components: a level of n samples is
viewed as a (half, 2) array whose columns are the even and odd samples, so
filter tap m touches the parity-(m % 2) column shifted cyclically by m // 2.
Each tap is then two contiguous slice-and-add operations, and interleaving
the columns back into samples is a free reshape.  The taps are applied in
ascending order, so every output element is summed in a fixed order.

Stacks of signals along the last axis are transformed through all levels
in blocks of _BLOCK_ROWS rows, which bounds the temporaries to one block.
analyze and synthesize return a fresh C-ordered array whatever the order of
their input, so reductions along the last axis of the result sum in the
same order for C- and F-ordered stacks.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, ShapeError

# Rows of a stack transformed together through all levels.  Large enough
# that per-tap numpy overhead is amortized, small enough that the working
# set stays in cache and a stack of draws needs no full-size temporaries.
_BLOCK_ROWS = 128

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

    def pseudo_levels(self):
        return range(-1, self.coarse_level)

    def all_levels(self):
        return range(-1, self.levels)


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


def level_slice(j):
    """Slice of level j in the packed layout."""
    if j == -1:
        return slice(0, 1)
    return slice(2**j, 2 ** (j + 1))


def _wrapped(s, half):
    """Slice pairs (shifted, source) of a cyclic shift by s on half entries.

    Position k of a length-half axis pairs with position (k + s) mod half;
    the pairs split into two contiguous runs, so the shift needs no index
    array.
    """
    return ((slice(s, half), slice(0, half - s)),
            (slice(0, s), slice(half - s, half)))


def _dwt_step(a, lo, hi):
    # a has shape (rows, n); tap m reads sample 2k + m (mod n), which is
    # entry (k + m//2) mod half of the parity-(m % 2) sample plane
    half = a.shape[-1] // 2
    planes = a.reshape(a.shape[:-1] + (half, 2))
    approx = np.zeros(a.shape[:-1] + (half,))
    detail = np.zeros_like(approx)
    for m, (l, h) in enumerate(zip(lo, hi)):
        plane = planes[..., m % 2]
        for shifted, source in _wrapped((m // 2) % half, half):
            approx[..., source] += l * plane[..., shifted]
            detail[..., source] += h * plane[..., shifted]
    return approx, detail


def _idwt_step(approx, detail, lo, hi):
    # tap m adds into sample 2k + m (mod n), which is entry
    # (k + m//2) mod half of the parity-(m % 2) plane of the output; the
    # planes interleave by a reshape
    half = approx.shape[-1]
    a = np.zeros(approx.shape + (2,))
    for m, (l, h) in enumerate(zip(lo, hi)):
        term = l * approx + h * detail
        plane = a[..., m % 2]
        for shifted, source in _wrapped((m // 2) % half, half):
            plane[..., shifted] += term[..., source]
    return a.reshape(approx.shape[:-1] + (2 * half,))


def _check_last_axis(values, frame, what):
    if values.shape[-1] != frame.signal_length:
        raise ShapeError(
            f"expected {frame.signal_length} {what}, got shape {values.shape}"
        )


def _by_row_blocks(transform, values, frame, what):
    """Apply transform(rows, frame) to blocks of _BLOCK_ROWS rows.

    values is a single signal or a stack along the last axis; the result is
    a fresh C-ordered array of the same shape whatever the input's order.
    """
    values = np.asarray(values, dtype=float)
    _check_last_axis(values, frame, what)
    result = np.empty(values.shape)
    rows = values.reshape(-1, frame.signal_length)
    out = result.reshape(rows.shape)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        out[block] = transform(np.ascontiguousarray(rows[block]), frame)
    return result


def _analyze_rows(a, frame):
    lo = frame.lowpass
    hi = highpass(lo)
    coeffs = np.empty_like(a)
    for j in range(frame.levels - 1, frame.coarse_level - 1, -1):
        a, d = _dwt_step(a, lo, hi)
        coeffs[:, level_slice(j)] = d
    coeffs[:, : 2**frame.coarse_level] = a
    return coeffs


def _synthesize_rows(coefficients, frame):
    lo = frame.lowpass
    hi = highpass(lo)
    a = coefficients[:, : 2**frame.coarse_level]
    for j in range(frame.coarse_level, frame.levels):
        a = _idwt_step(a, coefficients[:, level_slice(j)], lo, hi)
    return a


def analyze(samples, frame):
    """Forward periodized transform into the packed (j, k) layout.

    Accepts a single signal or a stack of signals along the last axis.
    """
    return _by_row_blocks(_analyze_rows, samples, frame, "samples")


def synthesize(coefficients, frame):
    """Inverse of analyze."""
    return _by_row_blocks(_synthesize_rows, coefficients, frame,
                          "coefficients")


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
