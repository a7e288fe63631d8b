"""One-dimensional posterior engine: adaptive G7/K15 quadrature, the
package's ground truth for every tail with fixed scales.

The domain is the union of the likelihood window x +/- 12/sqrt(n) and the
prior window [-sigma T, sigma T], T a tail quantile, with panels refined
geometrically toward theta = 0 so that both the prior scale kink and the
horseshoe log pole are resolved.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidParameterError


@dataclass(frozen=True)
class UnivariatePosterior:
    """Posterior of one coordinate: density ∝ exp(-n(x-θ)²/2) h(θ/σ)/σ."""

    observation: float
    noise_precision: float
    log_scale: float
    tail: object

    def __post_init__(self):
        if not math.isfinite(self.observation):
            raise InvalidParameterError("observation must be finite")
        if not self.noise_precision > 0:
            raise InvalidParameterError("noise precision must be > 0")
        if math.isnan(self.log_scale) or self.log_scale == math.inf:
            raise InvalidParameterError("log_scale must be finite or -inf")


def _log_posterior_unnorm(theta, post):
    x = post.observation
    n = post.noise_precision
    theta = np.asarray(theta, dtype=float)
    log_prior = (post.tail.log_density_scaled(theta, post.log_scale)
                 - post.log_scale)
    return -0.5 * n * (x - theta) ** 2 + log_prior


def _tail_quantile(tail, eps):
    """T with tail_mass(T) < eps, from the certified tail bound."""
    if tail.tail_bound_c2 is not None:
        return max(1.0, tail.tail_bound_c2 / eps)
    return math.sqrt(2.0 * math.log(1.0 / eps)) + 2.0


_LIKE_OFFSETS = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0])
_WINDOW = 12.0
# 2^-m for the geometric refinement toward 0; w * _HALVE_W[m - 1] is the
# same product as w * 2.0**-m
_HALVE_W = np.ldexp(1.0, -np.arange(1, 85))
_HALVE_SIGMA = np.ldexp(1.0, -np.arange(0, 45))
_ZERO = np.zeros(1)
# Past this prior window the likelihood alone confines the posterior for
# every representable n (12/sqrt(n) < 6e162), and two edges still sum to a
# finite panel midpoint.
_WINDOW_MAX = 1e300
# squares of magnitudes below this stay below 1e308
_SQUARE_MAX = 1e154
# Below this noise precision the likelihood window 12/sqrt(n) reaches
# _SQUARE_MAX, where the squared residual overflows and would cut the
# posterior off inside its own window.
_PRECISION_MIN = (_WINDOW / _SQUARE_MAX) ** 2
# most times quadrature_mean_var halves every panel
_MAX_REFINE = 4

# QUADPACK's 15-point Gauss-Kronrod rule on [-1, 1] (Piessens et al.,
# 1983): the nonnegative nodes in descending order and their Kronrod
# weights; the embedded 7-point Gauss rule uses every second of them
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# all 15 nodes ascending, with the Kronrod weights and the Gauss weights
# (0 at the Kronrod-only nodes)
_K15_X = np.concatenate((np.negative(_XGK[:-1]), _XGK[::-1]))
_K15_W = np.concatenate((_WGK, _WGK[-2::-1]))
_G7_W = np.zeros(15)
_G7_W[1:8:2] = _WG
_G7_W[9::2] = _WG[-2::-1]
_RULES = np.stack((_K15_W, _G7_W))


def _panel_edges(post, eps):
    """Sorted panel edges covering likelihood window ∪ prior window."""
    x = post.observation
    n = post.noise_precision
    sigma = math.exp(min(post.log_scale, 700.0))
    w = _WINDOW / math.sqrt(n)
    lo, hi = x - w, x + w
    T = min(sigma * _tail_quantile(post.tail, eps), _WINDOW_MAX)
    a = min(lo, -T)
    b = max(hi, T)
    offsets = _LIKE_OFFSETS / math.sqrt(n)
    pieces = [x - offsets, x + offsets]
    if post.tail.conjugate and 0.0 < sigma < _SQUARE_MAX:
        # the conjugate posterior concentrates at the shrunk observation,
        # which can fall between the likelihood and prior windows; past
        # the bound it is the likelihood, whose edges are already in
        m0 = x * n * sigma**2 / (1.0 + n * sigma**2)
        sd0 = sigma / math.sqrt(1.0 + n * sigma**2)
        pieces += [m0 - _LIKE_OFFSETS * sd0, m0 + _LIKE_OFFSETS * sd0]
    # geometric refinement toward 0: resolves the prior-scale kink at
    # |theta| ~ sigma and the horseshoe log pole
    if a < 0.0 < b:
        pieces += [_ZERO, w * _HALVE_W, -(w * _HALVE_W)]
        if 0.0 < sigma < w:
            pieces += [sigma * _HALVE_SIGMA, -(sigma * _HALVE_SIGMA)]
    # octave panels out to the prior window boundary: w * 2^m (exact) for
    # every m with w * 2^m < max(|a|, |b|), plus at most one more past it,
    # which the window mask keeps only where it repeats a or b
    top = max(abs(a), abs(b))
    m_max = math.frexp(top)[1] - math.frexp(w)[1]
    octaves = np.ldexp(w, np.arange(1, m_max + 1))
    pieces += [-octaves, octaves, np.array([a, b])]
    edges = np.concatenate(pieces)
    edges = edges[(edges >= a) & (edges <= b)]
    # sorted by argsort, not np.sort or np.unique: credible bands run
    # argsort's code anyway, while np.sort's adds about 0.2 MB of resident
    # library code to a run that never sorts otherwise
    edges = edges[np.argsort(edges)]
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def _kronrod_pass(post, edges):
    """One G7/K15 pass over the panels: the K15 (mean, var, log_norm,
    nodes, node masses) and the achieved error |K15 - G7| of mean and
    variance, relative to the posterior sd and variance scales."""
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    # (node, panel): broadcasts along the long panel axis
    nodes = mid + half * _K15_X[:, None]
    # at extreme scales far nodes overflow the likelihood term to a log
    # density of -inf, its correct limit, and an unrepresentable variance
    # overflows its sum; that raises ConvergenceError below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logf = _log_posterior_unnorm(nodes.ravel(), post).reshape(nodes.shape)
        m = np.max(logf)
        if m == math.inf:
            # a node rounds onto the horseshoe pole only in panels a few
            # hundred subnormal steps wide, whose mass no tol sees: drop them
            keep = ~np.isposinf(logf).any(axis=0)
            half, nodes, logf = half[keep], nodes[:, keep], logf[:, keep]
            m = np.max(logf, initial=-math.inf)
        if not np.isfinite(m):
            raise ConvergenceError("posterior mass not representable",
                                   achieved=None)
        f = np.exp(logf - m)
        z = (_K15_W @ f) @ half
        # weights of unit K15 mass before any sum over nodes, so panels
        # as wide as 1e150 cannot overflow the moments
        w = f * (half / z)
        # per-rule sums over all nodes: weight, first and second moments
        mass, g_mass = (_RULES @ w).sum(axis=1)
        first, g_first = (_RULES @ (w * nodes)).sum(axis=1)
        mean = float(first / mass)
        g_mean = float(g_first / g_mass)
        dev = nodes - mean
        # the end nodes bound every squared deviation
        if max(nodes[-1, -1] - mean, mean - nodes[0, 0]) < _SQUARE_MAX:
            sq = dev * dev
        else:
            # far nodes carry no weight, but their squared deviation would
            # overflow and inf * 0 is NaN
            sq = np.where(w > 0.0, dev * dev, 0.0)
        second, g_second = (_RULES @ (w * sq)).sum(axis=1)
        var = float(second / mass)
        # the G7 variance about its own mean, from moments about the K15 one
        g_var = float(g_second / g_mass) - (g_mean - mean) ** 2
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ConvergenceError("posterior moments not representable",
                               achieved=None)
    if math.isfinite(g_mean) and math.isfinite(g_var):
        scale = max(abs(mean), math.sqrt(var), 1e-9)
        var_scale = max(var, g_var, 1e-18)
        achieved = max(abs(mean - g_mean) / scale,
                       abs(var - g_var) / var_scale)
    else:  # every Gauss node underflowed: the panels are far too wide
        achieved = math.inf
    # nodes and their K15 masses in ascending order
    return (mean, var, m + math.log(z), nodes.T.ravel(),
            (w * _K15_W[:, None]).T.ravel(), achieved)


def _split_edges(edges, factor):
    if factor <= 1:
        return edges
    left = edges[:-1]
    step = (edges[1:] - left) / factor
    inner = left[:, None] + step[:, None] * np.arange(1.0, factor + 1)
    return np.concatenate((edges[:1], inner.ravel()))


def quadrature_mean_var(post, tol=1e-8, quantiles=None, record=None):
    """(mean, variance, log_normalizer) by adaptive panel quadrature.

    One G7/K15 Gauss-Kronrod pass over the panels gives the K15 moments
    and, as their achieved error, the K15 - G7 difference of the mean
    (relative to max(|mean|, sd), floored at 1e-9) and of the variance
    (relative to the larger variance).  While that error exceeds tol every
    panel is halved, up to _MAX_REFINE times; an error still above tol at
    the cap raises ConvergenceError with the achieved estimate, so every
    answer returned is within tol.  x = 0 gives mean exactly 0 by symmetry.

    Optionally interpolates quantiles from the K15 node CDF, with each
    node's mass centred on its node (cumsum(p) - p/2).  Against a fine-grid
    oracle (the same panels split 64 times, mid-point nodes, centred CDF)
    the 5%, 50% and 95% quantiles measured at most 1.1e-3 posterior sd off
    for every tail over the cases of `test_quantiles_match_fine_grid_oracle`
    (tol 1e-6), which asserts 3e-3 sd.

    When `record` is a dict it receives the accepted refinement `level`
    and its `achieved` error.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be > 0")
    if post.log_scale == -math.inf:
        # degenerate prior at 0
        if record is not None:
            record.update(level=0, achieved=0.0)
        return (0.0, 0.0, -math.inf) if quantiles is None else (
            0.0, 0.0, -math.inf, {q: 0.0 for q in quantiles})
    if post.noise_precision < _PRECISION_MIN:
        raise ConvergenceError(
            "posterior moments not representable: noise precision "
            f"{post.noise_precision!r} < {_PRECISION_MIN!r}", achieved=None)
    flip = post.observation < 0
    work = post if not flip else UnivariatePosterior(
        -post.observation, post.noise_precision, post.log_scale, post.tail)
    edges = _panel_edges(work, min(tol, 1e-8))
    for level in range(_MAX_REFINE + 1):
        mean, var, log_norm, nodes, probs, achieved = _kronrod_pass(
            work, _split_edges(edges, 2**level))
        if achieved <= tol:
            break
    else:
        raise ConvergenceError(f"quadrature did not reach tol={tol}",
                               achieved=achieved)
    if record is not None:
        record.update(level=level, achieved=achieved)
    if work.observation == 0.0:
        mean = 0.0
    if flip:
        mean = -mean
    if quantiles is None:
        return mean, var, log_norm
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    # the mid-point of each node's step, i.e. cumsum(p) - p/2, in a form
    # that stays non-decreasing under rounding
    centred = 0.5 * (np.concatenate(([0.0], cdf[:-1])) + cdf)
    # the q-quantile of a flipped posterior is minus the (1 - q)-quantile
    # of the one computed
    levels = [1.0 - q for q in quantiles] if flip else list(quantiles)
    values = np.interp(levels, centred, nodes)
    if flip:
        values = -values
    return mean, var, log_norm, dict(zip(quantiles, values.tolist()))


def conjugate_mean_var(x, n, sigma):
    """Gaussian-tail closed form: posterior N(x nσ²/(1+nσ²), σ²/(1+nσ²))."""
    shrink = n * sigma * sigma / (1.0 + n * sigma * sigma)
    return x * shrink, sigma * sigma / (1.0 + n * sigma * sigma)


def _quadrature_diagnostics(levels, achieved):
    """Refinement level counts and the largest achieved error."""
    return {
        "quadrature_levels": {level: levels.count(level)
                              for level in sorted(set(levels))},
        "quadrature_max_achieved": max(achieved, default=0.0),
    }
