"""Error metrics and rate-slope fitting for the experiments.

All function norms are grid-normalized: the L_{p'} norm of g on [0,1] is
approximated by (mean_i |g(t_i)|^{p'})^{1/p'} on the evaluation grid, the
max for p' = inf.  For p' = 2 the norm is computed exactly in coefficient
space (orthonormality), which avoids grid discretization error.
"""

import math

import numpy as np

from . import basis as basis_mod
from .errors import InvalidParameterError, ShapeError

DEFAULT_GRID = 2048

# rows of a grid-value stack reduced at a time by contraction_errors
_NORM_BLOCK_ROWS = 128


def grid_norm(values, p_prime):
    values = np.asarray(values, dtype=float)
    if math.isinf(p_prime):
        return float(np.max(np.abs(values)))
    if p_prime < 1:
        raise InvalidParameterError("p' must be >= 1")
    return float(np.mean(np.abs(values) ** p_prime) ** (1.0 / p_prime))


def lp_error(estimate, truth_coeffs, p_prime, basis, m=DEFAULT_GRID):
    """L_{p'} distance between two coefficient sequences as functions.

    p' = 2 uses Parseval in coefficient space; other p' synthesize the
    difference to the grid.  For wavelet bases the grid is the frame's
    own; m sets it for cosine/sine.
    """
    estimate = np.asarray(estimate, dtype=float)
    truth_coeffs = np.asarray(truth_coeffs, dtype=float)
    if estimate.shape != truth_coeffs.shape:
        raise ShapeError("estimate and truth must have the same shape")
    diff = estimate - truth_coeffs
    if p_prime == 2:
        return float(np.linalg.norm(diff)) / basis_mod.parseval_scale(basis)
    m = basis_mod.grid_size(basis, m)
    return grid_norm(basis_mod.synthesize(diff, basis, m), p_prime)


def contraction_errors(draws, truth_coeffs, p_primes, basis, m=DEFAULT_GRID):
    """Posterior-averaged losses: mean over draws of ||f - f0||_{p'}.

    draws has shape (coordinate, draw); measures concentration of the
    whole posterior around the truth rather than point-estimate accuracy.
    Returns {p': error}; the draws are synthesized to the grid once and
    reused for every non-Parseval norm.
    """
    draws = np.asarray(draws, dtype=float)
    truth_coeffs = np.asarray(truth_coeffs, dtype=float)
    if draws.ndim != 2 or draws.shape[0] != len(truth_coeffs):
        raise ShapeError("draws must be (coordinate, draw) matching the truth")
    diff = draws.T - truth_coeffs[None, :]  # (draw, coordinate)
    out = {}
    values = None
    for p_prime in p_primes:
        if p_prime == 2:
            scale = basis_mod.parseval_scale(basis)
            out[p_prime] = float((np.linalg.norm(diff, axis=1) / scale).mean())
            continue
        if values is None:
            values = basis_mod.synthesize(diff, basis,
                                          basis_mod.grid_size(basis, m))
        out[p_prime] = float(_row_norms(values, p_prime).mean())
    return out


def _row_norms(values, p_prime):
    """Grid L_{p'} norm of each row of a 2-D stack.

    Reduces fixed blocks of rows into a preallocated result, so the
    temporaries are block-sized rather than stack-sized; each block is
    made C-ordered, so every row is reduced along a contiguous axis and the
    norms are bit-identical to the whole-stack expression on a C stack.
    """
    norms = np.empty(len(values))
    for start in range(0, len(values), _NORM_BLOCK_ROWS):
        block = np.abs(values[start:start + _NORM_BLOCK_ROWS], order="C")
        rows = slice(start, start + len(block))
        if math.isinf(p_prime):
            norms[rows] = np.max(block, axis=1)
        else:
            norms[rows] = np.mean(block ** p_prime, axis=1) ** (1.0 / p_prime)
    return norms


def slope_fit(ns, errors):
    """Least-squares slope of log(error) against log(n).

    The fitted slope estimates -r for errors decaying like n^{-r}.
    Returns (slope, intercept).
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(ns) != len(errors) or len(ns) < 2:
        raise InvalidParameterError("need at least two (n, error) pairs")
    if np.any(errors <= 0) or np.any(ns <= 0):
        raise InvalidParameterError("slope fit needs positive n and errors")
    coeffs = np.polyfit(np.log(ns), np.log(errors), 1)
    return float(coeffs[0]), float(coeffs[1])
