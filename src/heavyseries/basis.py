"""Orthonormal bases of L2[0,1] used to move between coefficients and
function samples.

Cosine basis: phi_k(t) = sqrt(2) cos(pi (k - 1/2) t), k >= 1.
Sine basis:   phi_k(t) = sqrt(2) sin(pi k t),        k >= 1.
Wavelet bases delegate to a WaveletFrame and operate in the sample domain:
coefficients are the orthonormal DWT of the function values on the dyadic
grid, so the per-coefficient noise scale equals the per-sample noise scale.
Grid-normalized function norms of a coefficient vector c are then
||c||_2 / sqrt(m) for p = 2 (exact, by orthonormality).

`synthesize` and `parseval_scale` are the one map from coefficients to
function values and norms; callers never branch on the basis kind.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import wavelets
from .errors import InvalidParameterError, ShapeError
from .wavelets import WaveletFrame

COSINE = "cosine-half-shift"
SINE = "sine"
WAVELET = "wavelet"


@dataclass(frozen=True)
class BasisDescriptor:
    kind: str
    frame: Optional[WaveletFrame] = None

    def __post_init__(self):
        if self.kind not in (COSINE, SINE, WAVELET):
            raise InvalidParameterError(f"unknown basis kind {self.kind!r}")
        if self.kind == WAVELET and self.frame is None:
            raise InvalidParameterError("wavelet basis requires a frame")

    @property
    def double_indexed(self):
        return self.kind == WAVELET


def cosine_basis():
    return BasisDescriptor(COSINE)


def sine_basis():
    return BasisDescriptor(SINE)


def wavelet_basis(frame):
    return BasisDescriptor(WAVELET, frame=frame)


def evaluate(basis, k, t):
    """phi_k(t) for the single-indexed bases, k >= 1; k and t broadcast."""
    t = np.asarray(t, dtype=float)
    if basis.kind == COSINE:
        return np.sqrt(2.0) * np.cos(np.pi * (t * (k - 0.5)))
    if basis.kind == SINE:
        return np.sqrt(2.0) * np.sin(np.pi * (t * k))
    raise InvalidParameterError("evaluate applies to single-indexed bases")


def design(basis, t, count):
    """Matrix of phi_k(t_i), rows i over t, columns k = 1..count, for the
    single-indexed bases."""
    return evaluate(basis, np.arange(1, count + 1),
                    np.asarray(t, dtype=float)[:, None])


def grid_size(basis, m):
    """Number of grid points: a wavelet frame's signal length, else m."""
    return basis.frame.signal_length if basis.kind == WAVELET else m


def grid(basis, m):
    """Evaluation grid with m points.

    Uniform with inclusive endpoints for cosine/sine; the dyadic grid
    t_i = (i+1)/m for wavelet frames (matching the convention of the
    embedded test-signal formulas).
    """
    m = grid_size(basis, m)
    if basis.kind == WAVELET:
        return (np.arange(m) + 1.0) / m
    if m < 2:
        raise InvalidParameterError("grid needs at least 2 points")
    return np.linspace(0.0, 1.0, m)


def parseval_scale(basis):
    """Divisor taking a coefficient l2 norm to its function's L2 norm:
    sqrt(m) for a wavelet frame of m samples, 1 for cosine/sine."""
    if basis.kind == WAVELET:
        return math.sqrt(basis.frame.signal_length)
    return 1.0


def synthesize(coefficients, basis, m):
    """Sampled function values sum_k f_k phi_k(t_i) on the m-point grid,
    of one coefficient vector or of each row of a stack.  A cosine/sine
    stack comes back as the transpose of design @ stack.T: a C-ordered
    result takes OpenBLAS's transposed path, touching stack-sized buffers.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if basis.kind == WAVELET:
        frame = basis.frame
        if m != frame.signal_length:
            raise ShapeError(
                f"wavelet basis requires m == {frame.signal_length}, got {m}"
            )
        return wavelets.synthesize(coefficients, frame)
    return (_grid_design(basis, m, coefficients.shape[-1])
            @ coefficients.T).T


@functools.lru_cache(maxsize=8)
def _grid_design(basis, m, count):
    """`design` on the m-point grid, built once per (basis, m, count) and
    shared read-only: callers that synthesize a stack in blocks reuse it."""
    mat = design(basis, grid(basis, m), count)
    mat.flags.writeable = False
    return mat

