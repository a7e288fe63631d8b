"""The adaptive G7/K15 posterior engine, kept as the tests' second oracle
beside `conftest`'s brute-force one.

`kronrod_mean_var(post, tol, quantiles)` integrates one coordinate's
posterior over theta on adaptive panels and returns the package's
`Moments` (with no `Mixture`), so its answers compare field by field with
`heavyseries.quadrature.quadrature_mean_var`, which integrates the same
posterior over the log scale of a normal scale mixture instead.  The two
share no integration code: this engine evaluates each tail's log-density
in theta (`log_density_scaled`), the package's reads only the tail's
mixing density.

The domain is [min(x - w, -w), max(x + w, w)], w = 12/sqrt(n): the
likelihood window and its mirror through 0, whatever the tail, scale or
tol.  The panels' geometric edges are one ladder of octaves +-w 2^m from
2^-30 min(sigma, w) out to the domain's ends, which resolves the prior
scale kink, the horseshoe log pole and the likelihood window alike.
"""

import math

import numpy as np

from heavyseries.errors import ConvergenceError, InvalidParameterError
from heavyseries.priors import GaussianTail
from heavyseries.quadrature import QUANTILES, Moments, UnivariatePosterior


def _log_posterior_unnorm(theta, post):
    x = post.observation
    n = post.noise_precision
    theta = np.asarray(theta, dtype=float)
    log_prior = (post.tail.log_density_scaled(theta, post.log_scale)
                 - post.log_scale)
    return -0.5 * n * (x - theta) ** 2 + log_prior


_LIKE_OFFSETS = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0])
_WINDOW = 12.0
# octaves of the panel ladder below min(sigma, w); on default coordinates
# 8 let horseshoe fits raise, 20 moved means 3e-9 sd and 30 only 3e-12
_LADDER_DEPTH = 30
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


def _panel_edges(post):
    """Sorted panel edges on [a, b] = [min(x - w, -w), max(x + w, w)].

    With w = 12/sqrt(n), every theta outside [a, b] has |theta - x| > w,
    so n(theta - x)^2/2 > 72.  Take x >= 0 (the rule is symmetric) and a
    prior symmetric and nonincreasing in |theta|, as all four tails are.
    Moving a theta beyond b by w toward x, or one below a by w toward 0,
    raises the likelihood by at least e^72 and does not lower the prior,
    so the mass cut is at most e^-72, about 5e-32, of the mass on (x, inf)
    and (-inf, 0) together.
    """
    x = post.observation
    n = post.noise_precision
    sigma = math.exp(min(post.log_scale, 700.0))
    w = _WINDOW / math.sqrt(n)
    a = min(x - w, -w)
    b = max(x + w, w)
    offsets = _LIKE_OFFSETS / math.sqrt(n)
    pieces = [x - offsets, x + offsets]
    if isinstance(post.tail, GaussianTail) and 0.0 < sigma < _SQUARE_MAX:
        # the conjugate posterior concentrates at the shrunk observation,
        # which can fall between [-w, w] and the likelihood window; past
        # the bound it is the likelihood, whose edges are already in
        m0 = x * n * sigma**2 / (1.0 + n * sigma**2)
        sd0 = sigma / math.sqrt(1.0 + n * sigma**2)
        pieces += [m0 - _LIKE_OFFSETS * sd0, m0 + _LIKE_OFFSETS * sd0]
    # one ladder of octaves w * 2^m, from the rung at most twice `bottom`
    # (below the prior-scale kink at sigma, into the horseshoe pole; sigma
    # is 0 below log sigma ~ -745) to one rung past max(-a, b), which the
    # domain mask keeps only where it repeats a or b
    bottom = max(math.ldexp(min(sigma, w), -_LADDER_DEPTH), 5e-324)
    e_w = math.frexp(w)[1]
    ladder = np.ldexp(w, np.arange(math.frexp(bottom)[1] - e_w,
                                   math.frexp(max(-a, b))[1] - e_w + 1))
    pieces += [-ladder, ladder, np.array([0.0, a, b])]
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
        # a float64 power overflows to inf, not OverflowError, and gives
        # the bits of a float's power, which np.square's product may not
        g_var = (float(g_second / g_mass)
                 - float(np.float64(g_mean - mean) ** 2))
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


def kronrod_mean_var(post, tol=1e-8, quantiles=QUANTILES):
    """The posterior's `Moments` by adaptive panel quadrature.

    The panels depend on x, n, sigma and the tail's class, not on
    tol (`_panel_edges`).  One G7/K15 pass over them gives the K15 moments
    and, as their achieved error, the K15 - G7 difference of the mean
    (relative to max(|mean|, sd), floored at 1e-9) and of the variance
    (relative to the larger variance).  While that error exceeds tol every
    panel is halved, up to _MAX_REFINE times; an error still above tol at
    the cap raises ConvergenceError with the achieved estimate, so every
    answer returned is within tol.  x = 0 gives mean exactly 0 by symmetry.

    The `quantiles` levels are interpolated from the K15 node CDF, with
    each node's mass centred on its node (cumsum(p) - p/2).  Against a
    fine-grid oracle (the same panels split 64 times, mid-point nodes,
    centred CDF) the 5%, 50% and 95% quantiles measured at most 1.1e-3
    posterior sd off for every tail over the cases of
    `test_quantiles_match_fine_grid_oracle` (tol 1e-6); that test now
    splits the panels 512 times and checks the mixture engine.  Levels
    outside (0, 1), and NaN, raise: interpolation clamps.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be > 0")
    if not all(0.0 < q < 1.0 for q in quantiles):  # NaN fails too
        raise InvalidParameterError(
            f"quantile levels must be in (0, 1), got {list(quantiles)!r}")
    if post.noise_precision < _PRECISION_MIN:
        raise ConvergenceError(
            "posterior moments not representable: noise precision "
            f"{post.noise_precision!r} < {_PRECISION_MIN!r}", achieved=None)
    flip = post.observation < 0
    work = post if not flip else UnivariatePosterior(
        -post.observation, post.noise_precision, post.log_scale, post.tail)
    edges = _panel_edges(work)
    for level in range(_MAX_REFINE + 1):
        mean, var, log_norm, nodes, probs, achieved = _kronrod_pass(
            work, _split_edges(edges, 2**level))
        if achieved <= tol:
            break
    else:
        raise ConvergenceError(f"quadrature did not reach tol={tol}",
                               achieved=achieved)
    if work.observation == 0.0:
        mean = 0.0
    if flip:
        mean = -mean
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
    return Moments(mean, var, log_norm, dict(zip(quantiles, values.tolist())),
                   level, achieved, None)
