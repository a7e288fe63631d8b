"""Orthonormal bases of L2[0,1] used to move between coefficients and
function samples.

Cosine basis: phi_k(t) = sqrt(2) cos(pi (k - 1/2) t), k >= 1.
Sine basis:   phi_k(t) = sqrt(2) sin(pi k t),        k >= 1.
Wavelet bases delegate to a WaveletFrame and operate in the sample domain:
coefficients are the orthonormal DWT of the function values on the dyadic
grid, so the per-coefficient noise scale equals the per-sample noise scale.
Grid-normalized function norms of a coefficient vector c are then
||c||_2 / sqrt(m) for p = 2 (exact, by orthonormality).
"""

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
    """phi_k(t) for the single-indexed bases, k >= 1."""
    t = np.asarray(t, dtype=float)
    if basis.kind == COSINE:
        return np.sqrt(2.0) * np.cos(np.pi * (k - 0.5) * t)
    if basis.kind == SINE:
        return np.sqrt(2.0) * np.sin(np.pi * k * t)
    raise InvalidParameterError("evaluate applies to single-indexed bases")


def design(basis, t, count):
    """Matrix of phi_k(t_i), rows i over t, columns k = 1..count, for the
    single-indexed bases."""
    k = np.arange(1, count + 1)
    if basis.kind == COSINE:
        return np.sqrt(2.0) * np.cos(np.pi * np.outer(t, k - 0.5))
    if basis.kind == SINE:
        return np.sqrt(2.0) * np.sin(np.pi * np.outer(t, k))
    raise InvalidParameterError("design applies to single-indexed bases")


def grid(basis, m):
    """Evaluation grid with m points.

    Uniform with inclusive endpoints for cosine/sine; the dyadic grid
    t_i = (i+1)/m for wavelet frames (matching the convention of the
    embedded test-signal formulas).
    """
    if basis.kind == WAVELET:
        m = basis.frame.signal_length
        return (np.arange(m) + 1.0) / m
    if m < 2:
        raise InvalidParameterError("grid needs at least 2 points")
    return np.linspace(0.0, 1.0, m)


def synthesize(coefficients, basis, m):
    """Sampled function values sum_k f_k phi_k(t_i) on the grid."""
    coefficients = np.asarray(coefficients, dtype=float)
    if basis.kind == WAVELET:
        frame = basis.frame
        if m != frame.signal_length:
            raise ShapeError(
                f"wavelet basis requires m == {frame.signal_length}, got {m}"
            )
        return wavelets.synthesize(coefficients, frame)
    return design(basis, grid(basis, m), len(coefficients)) @ coefficients


def analyze_samples(samples, basis):
    """Wavelet coefficients of sampled function values (wavelet bases only)."""
    if basis.kind != WAVELET:
        raise InvalidParameterError("analyze_samples applies to wavelet bases")
    samples = np.asarray(samples, dtype=float)
    return wavelets.analyze(samples, basis.frame)
