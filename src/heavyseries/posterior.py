"""Coordinate-wise posterior computation for the sequence model.

The posterior factorizes over coordinates; each factor has density
proportional to exp(-n (x - theta)^2 / 2) * h(theta/sigma) / sigma.  Four
evaluation paths:

  quadrature  adaptive Gauss-Kronrod (G7/K15) panels (ground truth)
  metropolis  random-walk sampler producing draws for credible bands
  conjugate   closed form for the Gaussian tail
  gibbs       hierarchical Gaussian baseline with (tau, alpha) hyperpriors

The quadrature domain is the union of the likelihood window
x +/- 12/sqrt(n) and the prior window [-sigma T, sigma T] with T a tail
quantile, with panels refined geometrically toward theta = 0 so that both
the prior scale kink and the horseshoe log pole are resolved.  All
accumulation happens in the log domain via log-sum-exp.
"""

import io
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import special

from . import basis as basis_mod
from . import rng
from .errors import ConvergenceError, InvalidParameterError, ShapeError, StateError
from .model import index_rows
from .priors import (GaussianHierarchicalScaling, GaussianTail,
                     coordinate_index, hierarchical_log_scale)

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
    if isinstance(post.tail, GaussianTail) and 0.0 < sigma < _SQUARE_MAX:
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
        logf = _log_posterior_unnorm(nodes.ravel(), post)
        m = np.max(logf)
        if not np.isfinite(m):
            raise ConvergenceError("posterior mass not representable",
                                   achieved=None)
        f = np.exp(logf - m).reshape(nodes.shape)
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


def quadrature_mean_var(post, tol=1e-8, max_refine=4, quantiles=None,
                        record=None):
    """(mean, variance, log_normalizer) by adaptive panel quadrature.

    One G7/K15 Gauss-Kronrod pass over the panels gives the K15 moments
    and, as their achieved error, the K15 - G7 difference of the mean
    (relative to max(|mean|, sd), floored at 1e-9) and of the variance
    (relative to the larger variance).  While that error exceeds tol every
    panel is halved, up to max_refine times; at the cap an error within
    10 tol is accepted, and a larger one raises ConvergenceError with the
    achieved estimate.  x = 0 gives mean exactly 0 by symmetry.

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
    for level in range(max_refine + 1):
        mean, var, log_norm, nodes, probs, achieved = _kronrod_pass(
            work, _split_edges(edges, 2**level))
        if achieved <= tol:
            break
    else:
        if not achieved <= 10 * tol:  # accept marginal convergence at the cap
            raise ConvergenceError(
                f"quadrature did not reach tol={tol}", achieved=achieved
            )
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


# --------------------------------------------------------------------------
# Metropolis
# --------------------------------------------------------------------------

_ADAPT_EVERY = 50
_BIG_STEP_PROB = 0.2
_JUMP_PROB = 0.2
# most chains one `_metropolis_block` call runs
_CHUNK = 1024
# steps of random inputs `_metropolis_block` makes per refill of its tables
_REFILL = 500


def _check_chain_lengths(draws, burn_in):
    if draws < 1:
        raise InvalidParameterError("draws must be >= 1")
    if burn_in < 0:
        raise InvalidParameterError("burn_in must be >= 0")


def _metropolis_block(xs, n, log_scales, tail, draws, burn_in, seed, indices,
                      out=None):
    """Vectorized Metropolis chains, one per coordinate.

    The kernel mixes three proposals: an adaptive random-walk step, an
    occasional large symmetric step, and an independence draw from a
    two-component envelope (Cauchy at the prior scale, Gaussian at the
    observation).  When sigma << 1/sqrt(n) << |x| the posterior has
    well-separated modes near 0 and near x; the independence component is
    what lets the chain cross between them, with the usual Hastings
    correction.  Each chain consumes the counter-based stream of its
    index, so results do not depend on how chains are grouped into
    blocks.  `n` is one noise precision for all chains or one per chain.

    Chains with the same stream index share its random inputs, which are
    generated once per distinct index, one refill of `_REFILL` steps at a
    time, into (step, stream) tables: one noise table holding the normal
    increment, or the Cauchy tangent on steps that propose from the
    Cauchy component (a step never uses both), log(u_acc), and the jump,
    big-step and Cauchy-component masks.  A stream's normals and its
    acceptance, mixture and jump uniforms are four runs of its generator,
    one after another; each run keeps a generator head (the uniform runs'
    heads are found by one pass over the stream's normals and an exact
    skip over the uniform runs) and writes one stream row per refill.
    Every input is the float the whole-run stream gives it, and scratch
    memory is O(streams x refill), plus one stream's normals, rather than
    O(streams x (draws + burn_in)).  For each adaptation window of
    `_ADAPT_EVERY` steps, cut where a refill ends, the table rows are
    gathered by stream index into (step, chain) arrays, from which the
    scaled walk increments of the window are formed, and the independence
    proposals with their envelope values only where a step jumps.  Within
    a step the envelope of the current state is evaluated only for the
    chains that jump.  Kept draws are written as (chain, draw) into
    `out`, or into a new array when `out` is None.
    """
    xs = np.asarray(xs, dtype=float)
    k = len(xs)
    total = draws + burn_in
    sig_log = np.asarray(log_scales, dtype=float)
    sig = np.exp(sig_log)
    # per-chain constants in scalar arithmetic, as for a single chain
    n = np.broadcast_to(np.asarray(n, dtype=float), (k,))
    neg_half_n = -0.5 * n
    like_sd = np.array([1.0 / math.sqrt(v) for v in n])
    log_like_sd = np.array([math.log(v) for v in like_sd])
    min_step = np.array([0.5 / math.sqrt(v) for v in n])

    # distinct streams in order of first use: all-distinct indices map to
    # themselves, and their rows need no gather
    position = {}
    stream_of = np.array([position.setdefault(int(idx), len(position))
                          for idx in indices], dtype=np.intp)
    m = len(position)
    cols = slice(None) if m == k else stream_of
    width = min(_REFILL, total)
    start = np.empty(m)
    rows = np.empty((m, width))
    noise = np.empty((width, m))
    log_u_acc = np.empty((width, m))
    jump = np.empty((width, m), dtype=bool)
    big_step = np.empty((width, m), dtype=bool)
    cauchy = np.empty((width, m), dtype=bool)
    # one generator head per run of each stream's draws
    normal_run, acc_run, mix_run, jump_run = [], [], [], []
    normals = np.empty(total)
    for si, idx in enumerate(position):
        gen = rng.coord_generator(seed, rng.STREAM_CHAIN, idx)
        start[si] = gen.uniform(-2.0, 2.0)
        # how many 64-bit outputs the `total` normals take is known only
        # by drawing them; the uniform runs take `total` each
        acc_head = rng.skip_ahead(gen, 0)
        acc_head.standard_normal(out=normals)
        normal_run.append(gen.standard_normal)
        acc_run.append(acc_head.random)
        mix_run.append(rng.skip_ahead(acc_head, total).random)
        jump_run.append(rng.skip_ahead(acc_head, 2 * total).random)

    def fill(run):
        # whole stream rows, as (step, stream); the last refill may run
        # past `total`, unread
        for draw, row in zip(run, rows):
            draw(out=row)
        return rows.T

    def refill():
        np.copyto(noise, fill(normal_run))
        fill(acc_run)
        np.log(rows, out=rows)
        np.copyto(log_u_acc, rows.T)
        u_mix = fill(mix_run)
        np.less(u_mix, _JUMP_PROB, out=jump)
        np.less(u_mix, _JUMP_PROB + _BIG_STEP_PROB, out=big_step)
        # u_jump picks the component; rescaled it is uniform again and
        # drives the Cauchy inverse CDF; the Gaussian reuses the normal
        u_jump = fill(jump_run)
        np.less(u_jump, 0.5, out=cauchy)
        np.logical_and(cauchy, jump, out=cauchy)
        noise[cauchy] = np.tan(math.pi * (2.0 * u_jump[cauchy] - 0.5))

    def target(theta):
        # the prior's -log sigma is constant per chain: it cancels in ratios
        return (neg_half_n * (xs - theta) ** 2
                + tail.log_density_scaled(theta, sig_log))

    step = np.maximum(sig, min_step)
    big = np.maximum(1.0, np.abs(xs))

    def log_envelope(theta, sig, xs, like_sd, log_like_sd):
        # equal-weight mixture: Cauchy(0, sigma) and N(x, 1/sqrt(n))
        lc = -np.log(math.pi * sig * (1.0 + (theta / sig) ** 2))
        ln = (-0.5 * ((theta - xs) / like_sd) ** 2
              - log_like_sd - 0.5 * math.log(2.0 * math.pi))
        return np.logaddexp(lc, ln) + math.log(0.5)

    cur = start[stream_of]
    cur_lp = target(cur)
    if out is None:
        out = np.empty((k, draws))
    kept_rows = np.empty((_ADAPT_EVERY, k))
    # each batch's jumping (step, chain) pairs fill the front of buffers
    # sized for a whole batch and allocated once: arrays sized to each
    # batch fragmented the heap (12 MB more peak memory in a third of
    # `inhomogeneous` benchmark runs)
    pair_chain = np.empty(_ADAPT_EVERY * k, dtype=np.intp)
    pair_values = np.empty((6, _ADAPT_EVERY * k))
    window_acc = np.zeros(k)
    kept = np.zeros(k)
    # one batch per adaptation window, so the step size is fixed within a
    # batch; batches never straddle the end of burn-in, nor a refill
    edges = sorted({*range(0, burn_in, _ADAPT_EVERY),
                    *range(burn_in, total, _ADAPT_EVERY),
                    *range(0, total, width), total})
    with np.errstate(invalid="ignore"):
        for t0, t1 in zip(edges[:-1], edges[1:]):
            if t0 % width == 0:
                refill()
            seg = slice(t0 % width, t0 % width + t1 - t0)
            # the proposals' chain-state-free parts, for the whole batch
            w = noise[seg, cols]
            walk = np.where(big_step[seg, cols], big, step) * w
            log_u_b = log_u_acc[seg, cols]
            # the jumping (step, chain) pairs, step by step: independence
            # proposals and both envelope terms are needed only there
            jb, jc = np.nonzero(jump[seg, cols])
            ends = np.searchsorted(jb, np.arange(t1 - t0 + 1)).tolist()
            chain_j = pair_chain[:len(jc)]
            chain_j[:] = jc
            sig_j, xs_j, sd_j, log_sd_j, ind, ind_lq = (
                pair_values[:, :len(jc)])
            np.take(sig, jc, out=sig_j)
            np.take(xs, jc, out=xs_j)
            np.take(like_sd, jc, out=sd_j)
            np.take(log_like_sd, jc, out=log_sd_j)
            wj = w[jb, jc]
            ind[:] = np.where(cauchy[seg, cols][jb, jc], sig_j * wj,
                              xs_j + sd_j * wj)
            ind_lq[:] = log_envelope(ind, sig_j, xs_j, sd_j, log_sd_j)
            del jb, jc, wj
            burning = t0 < burn_in
            for b in range(t1 - t0):
                j0, j1 = ends[b], ends[b + 1]
                jt = chain_j[j0:j1]
                prop = cur + walk[b]
                prop[jt] = ind[j0:j1]
                lp = target(prop)
                ratio = lp - cur_lp
                # Hastings correction of the independence proposals
                ratio[jt] += (log_envelope(cur[jt], sig_j[j0:j1],
                                           xs_j[j0:j1], sd_j[j0:j1],
                                           log_sd_j[j0:j1])
                              - ind_lq[j0:j1])
                # NaN and -inf ratios compare False: never accepted
                accept = log_u_b[b] < ratio
                np.copyto(cur, prop, where=accept)
                np.copyto(cur_lp, lp, where=accept)
                if burning:
                    window_acc += accept
                else:
                    kept += accept
                    kept_rows[b] = cur
            if not burning:
                out[:, t0 - burn_in:t1 - burn_in] = kept_rows[:t1 - t0].T
            elif t1 % _ADAPT_EVERY == 0:
                rate = window_acc / _ADAPT_EVERY
                step = step * np.where(
                    rate > 0.5, 1.6, np.where(rate < 0.3, 1.0 / 1.6, 1.0))
                window_acc[:] = 0.0
    return out, kept / draws


# --------------------------------------------------------------------------
# Assembled fits
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorSummary:
    means: np.ndarray
    variances: np.ndarray
    quantiles: dict  # level -> per-coordinate array
    method: str
    diagnostics: dict = field(default_factory=dict)
    draws: Optional[np.ndarray] = None  # (coordinate, draw)

    def __post_init__(self):
        if np.any(np.asarray(self.variances) < 0):
            raise InvalidParameterError("variances must be >= 0")
        if self.draws is not None and self.draws.shape[0] != len(self.means):
            raise ShapeError("draws matrix must have one row per coordinate")


_QLEVELS = (0.05, 0.5, 0.95)


def _coordinate_layout(data, prior):
    """(log_scales, active) for each coordinate of data; coordinate i
    runs on random stream i."""
    if prior.scaling.level_indexed != data.double_indexed:
        raise ShapeError("single-index prior applied to wavelet data"
                         if data.double_indexed else
                         "level-indexed prior applied to single-index data")
    return prior.coordinate_scales(data.truncation)


def fit_posterior(data, prior, method="quadrature", draws=4000, burn_in=2000,
                  seed=0, tol=1e-6):
    """Per-coordinate posterior summaries for a full data set.

    Coordinates deactivated by a truncated scaling rule get mean 0,
    variance 0 and constant-zero draws.  Output is independent of
    coordinate evaluation order.  Quadrature fits report in `diagnostics`
    how many coordinates each refinement level accepted, the largest
    achieved error, and the coordinates accepted at the refinement cap
    within 10 tol.  A hierarchical Gaussian prior carries
    hyperpriors on (tau, alpha), which only the Gibbs sampler fits, so it
    goes to `gibbs_hierarchical_gaussian` whatever `method` says.
    """
    if isinstance(prior.scaling, GaussianHierarchicalScaling):
        return gibbs_hierarchical_gaussian(data, draws=draws, burn_in=burn_in,
                                           seed=seed)
    if method == "metropolis":
        return fit_metropolis([(data, prior)], draws=draws, burn_in=burn_in,
                              seed=seed)[0]
    log_s, active = _coordinate_layout(data, prior)
    K = data.truncation
    x = data.observations
    n = data.noise_precision
    means = np.zeros(K)
    variances = np.zeros(K)
    quantiles = {q: np.zeros(K) for q in _QLEVELS}
    diagnostics = {"method": method}
    draw_mat = None

    if method == "quadrature":
        record = {}
        levels = []
        achieved = []
        for i in range(K):
            if not active[i]:
                continue
            p = UnivariatePosterior(x[i], n, log_s[i], prior.tail)
            try:
                m, v, _, qs = quadrature_mean_var(p, tol=tol,
                                                  quantiles=_QLEVELS,
                                                  record=record)
            except ConvergenceError as exc:
                xi, ni, li = float(x[i]), float(n), float(log_s[i])
                raise ConvergenceError(
                    f"{exc} at coordinate {i} (x={xi!r}, n={ni!r}, "
                    f"log_sigma={li!r}, tail={prior.tail.name})",
                    achieved=exc.achieved, index=i, observation=xi,
                    noise_precision=ni, log_scale=li,
                    tail=prior.tail.name) from exc
            means[i], variances[i] = m, v
            for q in _QLEVELS:
                quantiles[q][i] = qs[q]
            levels.append(record["level"])
            achieved.append(record["achieved"])
        diagnostics.update(_quadrature_diagnostics(
            np.flatnonzero(active), levels, achieved, tol))
    elif method == "conjugate":
        if not isinstance(prior.tail, GaussianTail):
            raise InvalidParameterError("conjugate path needs a Gaussian tail")
        # inactive coordinates have sigma = 0: variance 0, mean x * 0
        means, variances = conjugate_mean_var(x, n, np.exp(log_s))
        means = np.where(active, means, 0.0)
        sd = np.sqrt(variances)
        for q in _QLEVELS:
            quantiles[q] = means + special.ndtri(q) * sd
        if draws:
            draw_mat = np.zeros((K, draws))
            for i in range(K):
                if active[i] and sd[i] > 0:
                    gen = rng.coord_generator(seed, rng.STREAM_CHAIN, i)
                    draw_mat[i] = means[i] + sd[i] * gen.standard_normal(draws)
    else:
        raise InvalidParameterError(f"unknown method {method!r}")
    return PosteriorSummary(means=means, variances=variances,
                            quantiles=quantiles, method=method,
                            diagnostics=diagnostics, draws=draw_mat)


def _quadrature_diagnostics(coords, levels, achieved, tol):
    """Refinement level counts, the largest achieved error and the
    coordinates accepted at the refinement cap, within 10 tol."""
    capped = [int(i) for i, err in zip(coords, achieved) if err > tol]
    return {
        "quadrature_levels": {level: levels.count(level)
                              for level in sorted(set(levels))},
        "quadrature_max_achieved": max(achieved, default=0.0),
        "quadrature_capped": len(capped),
        "quadrature_capped_indices": capped,
    }


# most values one block of a draw or curve stack holds (2 MiB of float64)
_BLOCK_VALUES = 1 << 18


def _draw_moments(draw_mat):
    """Per-row means, variances and `_QLEVELS` quantiles of draws.

    Rows are taken in blocks of at most `_BLOCK_VALUES` values (at least
    one row), so the copies that `var` and `np.quantile` make do not
    grow with the stack.  Each row is reduced on its own, so the results
    equal the whole-stack calls' bit for bit.
    """
    rows, count = draw_mat.shape
    means, variances = np.empty(rows), np.empty(rows)
    qs = np.empty((len(_QLEVELS), rows))
    step = max(1, _BLOCK_VALUES // count)
    for lo in range(0, rows, step):
        block = draw_mat[lo:lo + step]
        means[lo:lo + step] = block.mean(axis=1)
        variances[lo:lo + step] = block.var(axis=1)
        qs[:, lo:lo + step] = np.quantile(block, _QLEVELS, axis=1)
    return means, variances, dict(zip(_QLEVELS, qs))


def fit_metropolis(pairs, draws=4000, burn_in=2000, seed=0):
    """Metropolis summaries for several (data, prior) pairs in one sampler.

    The priors must share a tail; data sets and scalings may differ.  The
    active coordinates of all pairs run as blocks of at most `_CHUNK`
    chains, and each summary equals `fit_posterior(data, prior,
    method="metropolis", ...)` for its pair alone.  The summaries' draws
    are row views of one matrix, which stays alive while any of them does.
    """
    _check_chain_lengths(draws, burn_in)
    pairs = list(pairs)
    if not pairs:
        return []
    tail = pairs[0][1].tail
    if any(type(prior.tail) is not type(tail) or vars(prior.tail) != vars(tail)
           for _, prior in pairs):
        raise InvalidParameterError("fit_metropolis needs priors with one tail")
    layouts = [_coordinate_layout(data, prior) for data, prior in pairs]
    bounds = np.cumsum([0] + [data.truncation for data, _ in pairs])
    rows, xs, ns, log_s, streams = [], [], [], [], []
    for (data, _), (ls, active), lo in zip(pairs, layouts, bounds):
        act = np.flatnonzero(active)
        rows.append(lo + act)
        xs.append(data.observations[act])
        ns.append(np.full(len(act), data.noise_precision))
        log_s.append(ls[act])
        streams.append(act)
    rows, xs, ns, log_s, streams = map(np.concatenate,
                                       (rows, xs, ns, log_s, streams))
    draw_mat = np.zeros((bounds[-1], draws))
    acc = np.zeros(bounds[-1])
    for first in range(0, len(rows), _CHUNK):
        sel = slice(first, first + _CHUNK)
        r = rows[sel]
        # contiguous rows are sampled in place
        direct = r[-1] - r[0] + 1 == len(r)
        block, acc[r] = _metropolis_block(
            xs[sel], ns[sel], log_s[sel], tail, draws, burn_in, seed,
            streams[sel], out=draw_mat[r[0]:r[-1] + 1] if direct else None)
        if not direct:
            draw_mat[r] = block
        del block  # before the next block allocates its own
    summaries = []
    for (_, active), lo, hi in zip(layouts, bounds[:-1], bounds[1:]):
        mat = draw_mat[lo:hi]
        means, variances, quantiles = _draw_moments(mat)
        a = acc[lo:hi][active]
        diagnostics = {
            "method": "metropolis",
            "acceptance_mean": float(a.mean()) if a.size else 0.0,
            "acceptance_min": float(a.min()) if a.size else 0.0,
        }
        summaries.append(PosteriorSummary(
            means=means, variances=variances, quantiles=quantiles,
            method="metropolis", diagnostics=diagnostics, draws=mat))
    return summaries


# --------------------------------------------------------------------------
# Hierarchical Gaussian baseline (Gibbs)
# --------------------------------------------------------------------------


# initial random-walk sd of the (log tau, log alpha) move
_GIBBS_PROPOSAL_SD = 0.35


def _gibbs_log_marginal(x, n, levels, u, v):
    """log p(x | tau, alpha) + log prior on (u, v) = (log tau, log alpha)."""
    log_sig = hierarchical_log_scale(u, math.exp(v), levels)
    var = 1.0 / n + np.exp(2.0 * log_sig)
    loglik = -0.5 * np.sum(np.log(2 * math.pi * var) + x * x / var)
    # tau ~ Inv-Gamma(1,1) in u = log tau; alpha ~ Exp(1) in v = log alpha
    log_prior = -u - math.exp(-u) + v - math.exp(v)
    return loglik + log_prior


def gibbs_hierarchical_gaussian(data, draws=4000, burn_in=2000, seed=0):
    """Gibbs sampler for the hierarchical Gaussian wavelet prior.

    Alternates exact conjugate coefficient draws given (tau, alpha) with a
    random-walk Metropolis move on (log tau, log alpha) targeting the
    marginal posterior (coefficients integrated out analytically).
    """
    if not data.double_indexed:
        raise ShapeError("hierarchical Gaussian baseline needs wavelet data")
    _check_chain_lengths(draws, burn_in)
    K = data.truncation
    x = data.observations
    n = data.noise_precision
    # as floats once per fit, so no step's scales cast the levels again
    levels = coordinate_index(K, level_indexed=True).astype(float)
    gen = rng.coord_generator(seed, rng.STREAM_GIBBS, 0)
    u, v = 0.0, 0.0  # tau = 1, alpha = 1
    cur_lp = _gibbs_log_marginal(x, n, levels, u, v)
    total = draws + burn_in
    out = np.empty((K, draws))
    hyper = np.empty((draws, 2))
    accepted = 0
    window_acc = 0
    sd = _GIBBS_PROPOSAL_SD
    for t in range(total):
        pu = u + sd * gen.standard_normal()
        pv = v + sd * gen.standard_normal()
        lp = _gibbs_log_marginal(x, n, levels, pu, pv)
        if math.log(gen.random()) < lp - cur_lp:
            u, v, cur_lp = pu, pv, lp
            if t >= burn_in:
                accepted += 1
            window_acc += 1
        if t < burn_in and (t + 1) % _ADAPT_EVERY == 0:
            rate = window_acc / _ADAPT_EVERY
            if rate > 0.5:
                sd *= 1.5
            elif rate < 0.15:
                sd /= 1.5
            window_acc = 0
        if t >= burn_in:
            alpha = math.exp(v)
            log_sig = hierarchical_log_scale(u, alpha, levels)
            s2 = np.exp(2.0 * log_sig)
            shrink = n * s2 / (1.0 + n * s2)
            post_sd = np.sqrt(s2 / (1.0 + n * s2))
            out[:, t - burn_in] = x * shrink + post_sd * gen.standard_normal(K)
            hyper[t - burn_in] = (math.exp(u), alpha)
    means, variances, quantiles = _draw_moments(out)
    diag = {
        "method": "gibbs",
        "acceptance_hyper": accepted / draws,
        "tau_mean": float(hyper[:, 0].mean()),
        "alpha_mean": float(hyper[:, 1].mean()),
    }
    return PosteriorSummary(means=means, variances=variances,
                            quantiles=quantiles, method="gibbs",
                            diagnostics=diag, draws=out)


# --------------------------------------------------------------------------
# Credible bands
# --------------------------------------------------------------------------


def credible_band(summary, basis, m=256, level=0.95):
    """Pointwise envelope of the level-fraction of draws closest in L2 to
    the posterior mean curve, on an m-point grid (a wavelet frame's own)."""
    if summary.draws is None:
        raise StateError("summary carries no draws")
    if not 0.0 < level <= 1.0:
        raise InvalidParameterError("level must be in (0, 1]")
    m = basis_mod.grid_size(basis, m)
    grid = basis_mod.grid(basis, m)
    center = basis_mod.synthesize(summary.means, basis, m)
    curves = basis_mod.synthesize(summary.draws.T, basis, m)
    dist = np.mean((curves - center[None, :]) ** 2, axis=1)
    keep = math.ceil(level * len(dist))
    sel = np.argsort(dist)[:keep]
    # the kept curves' envelope, gathered in blocks: min and max are
    # exact, so the block order does not change them
    lower = np.full(m, np.inf)
    upper = np.full(m, -np.inf)
    step = max(1, _BLOCK_VALUES // m)
    for lo in range(0, keep, step):
        kept = curves[sel[lo:lo + step]]
        np.minimum(lower, kept.min(axis=0), out=lower)
        np.maximum(upper, kept.max(axis=0), out=upper)
    return {"grid": grid, "center": center, "lower": lower, "upper": upper}


def band_width(band):
    """Average pointwise width of a credible band."""
    return float(np.mean(band["upper"] - band["lower"]))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def summary_to_csv(summary, double_indexed=False):
    buf = io.StringIO()
    buf.write("index_j,index_k,mean,var,q05,q50,q95\n")
    rows = index_rows(len(summary.means), double_indexed)
    for i, (j, k) in enumerate(rows):
        buf.write(
            f"{j},{k},{float(summary.means[i])!r},{float(summary.variances[i])!r},"
            f"{float(summary.quantiles[0.05][i])!r},{float(summary.quantiles[0.5][i])!r},"
            f"{float(summary.quantiles[0.95][i])!r}\n"
        )
    return buf.getvalue()


def diagnostics_text(summary):
    lines = [f"{key} = {value}" for key, value in sorted(summary.diagnostics.items())]
    return "\n".join(lines) + "\n"
