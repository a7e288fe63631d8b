"""Error metrics and rate-slope fitting for the experiments.

All function norms are grid-normalized: the L_{p'} norm of g on [0,1] is
approximated by (mean_i |g(t_i)|^{p'})^{1/p'} on the evaluation grid, the
max for p' = inf.  For p' = 2 the norm is computed exactly in coefficient
space (orthonormality), which avoids grid discretization error.
"""

import math

import numpy as np

from . import basis as basis_mod
from . import spaces, wavelets
from .errors import InvalidParameterError, ShapeError, StateError

DEFAULT_GRID = 2048


def grid_norm(values, p_prime):
    spaces.check_p_prime(p_prime)
    values = np.asarray(values, dtype=float)
    if math.isinf(p_prime):
        return float(np.max(np.abs(values)))
    return float(np.mean(np.abs(values) ** p_prime) ** (1.0 / p_prime))


def lp_error(estimate, truth_coeffs, p_prime, basis):
    """L_{p'} distance between two coefficient sequences as functions.

    p' = 2 uses Parseval in coefficient space; other p' synthesize the
    difference to the grid: the frame's own for wavelet bases,
    `DEFAULT_GRID` points for cosine/sine.
    """
    estimate = np.asarray(estimate, dtype=float)
    truth_coeffs = np.asarray(truth_coeffs, dtype=float)
    if estimate.shape != truth_coeffs.shape:
        raise ShapeError("estimate and truth must have the same shape")
    diff = estimate - truth_coeffs
    if p_prime == 2:
        return float(np.linalg.norm(diff)) / basis_mod.parseval_scale(basis)
    m = basis_mod.grid_size(basis, DEFAULT_GRID)
    return grid_norm(basis_mod.synthesize(diff, basis, m), p_prime)


def contraction_errors(draws, truth_coeffs, p_primes, basis):
    """Posterior-averaged losses: mean over draws of ||f - f0||_{p'}.

    draws has shape (coordinate, draw); measures concentration of the
    whole posterior around the truth rather than point-estimate accuracy.
    Returns {p': error}, the mean of `contraction_norms`.
    """
    return {p_prime: float(norms.mean()) for p_prime, norms in
            contraction_norms(draws, truth_coeffs, p_primes, basis).items()}


def contraction_norms(draws, truth_coeffs, p_primes, basis):
    """{p': ||f - f0||_{p'} of each draw}, on `lp_error`'s grid of m points.

    draws has shape (coordinate, draw), in any memory layout.  The draws
    go in `wavelets.row_blocks` of the wider of K and m, so scratch memory
    does not grow with the draw count: each block's differences are
    synthesized to the grid once and reused for every non-Parseval norm.
    The values equal the whole-stack expression's bit for bit.
    """
    draws = np.asarray(draws, dtype=float)
    truth_coeffs = np.asarray(truth_coeffs, dtype=float)
    if draws.ndim != 2 or draws.shape[0] != len(truth_coeffs):
        raise ShapeError("draws must be (coordinate, draw) matching the truth")
    for p_prime in p_primes:
        spaces.check_p_prime(p_prime)
    count = draws.shape[1]
    norms = {p_prime: np.empty(count) for p_prime in p_primes}
    scale = basis_mod.parseval_scale(basis)
    m = basis_mod.grid_size(basis, DEFAULT_GRID)
    K = len(truth_coeffs)
    # a block of one draw would be both C- and F-contiguous, and its norm
    # would be summed in another order, so blocks hold at least two draws
    # and a last single draw joins the block before it
    blocks = wavelets.row_blocks(count, max(K, m), least=2, last=2)
    most = max((b.stop - b.start for b in blocks), default=0)
    grid_norms = {p: out for p, out in norms.items() if p != 2}
    # made once and reused by every block: `work` holds a block's
    # differences and then their powers, `grid` its grid values.  Blocks
    # that allocated their own had the allocator hand the pages back and
    # fault them in again, about 180,000 times in an `inhomogeneous` run.
    work = np.empty(most * max(K, m))
    grid = np.empty(most * m) if grid_norms else None
    for block in blocks:
        n = block.stop - block.start
        if 2 in norms:
            # (draw, coordinate), laid out like the whole-stack transpose,
            # and squared in place: the sum np.linalg.norm takes
            sq = np.subtract(draws[:, block], truth_coeffs[:, None],
                             out=work[:n * K].reshape(K, n)).T
            np.multiply(sq, sq, out=sq)
            norms[2][block] = np.sqrt(np.add.reduce(sq, axis=1)) / scale
        if not grid_norms:
            continue
        # C-ordered differences and grid values: a wavelet synthesis reads
        # its rows in place, and each row is reduced along a contiguous axis
        diff = np.subtract(draws[:, block].T, truth_coeffs[None, :],
                           out=work[:n * K].reshape(n, K))
        values = basis_mod.synthesize(diff, basis, m,
                                      out=grid[:n * m].reshape(n, m))
        np.abs(values, out=values)
        powers = work[:n * m].reshape(n, m)
        for p_prime, out in grid_norms.items():
            if math.isinf(p_prime):
                out[block] = np.max(values, axis=1)
            else:
                np.power(values, p_prime, out=powers)
                out[block] = np.mean(powers, axis=1) ** (1.0 / p_prime)
    return norms


class ContractionFold:
    """A draw sink that folds `contraction_errors` over the batches it is
    handed, each a (draw, coordinate) block.

    Each batch is copied and held until the next batch of two or more
    draws arrives while the fold holds two or more; then the held draws go
    to one `contraction_errors` call.  So no call sees a lone draw unless
    the whole run is one, and each per-draw norm has the bits a
    whole-stack call gives it (a lone draw would be summed in another
    order; `contraction_norms` joins a last single draw to the block
    before it for the same reason).  `errors()` averages the calls' errors
    weighted by their draw counts; `count` is how many draws the fold has
    received.
    """

    def __init__(self, truth_coeffs, p_primes, basis):
        self._args = (truth_coeffs, tuple(p_primes), basis)
        self._held = []
        self._sums = dict.fromkeys(self._args[1], 0.0)
        self._folded = 0
        self.count = 0

    def __call__(self, block):
        if len(block) >= 2 and self.count - self._folded >= 2:
            self._fold()
        self._held.append(np.array(block, dtype=float))
        self.count += len(block)

    def _fold(self):
        held = (self._held[0] if len(self._held) == 1
                else np.concatenate(self._held))
        self._held = []
        for p_prime, error in contraction_errors(held.T,
                                                 *self._args).items():
            self._sums[p_prime] += error * len(held)
        self._folded += len(held)

    def errors(self):
        """{p': mean over every draw received of ||f - f0||_{p'}}."""
        if self._held:
            self._fold()
        if not self._folded:
            raise StateError("the fold has received no draws")
        return {p: total / self._folded for p, total in self._sums.items()}


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
