"""Coordinate-wise posterior computation for the sequence model.

The posterior factorizes over coordinates; each factor has density
proportional to exp(-n (x - theta)^2 / 2) * h(theta/sigma) / sigma.  Four
evaluation paths:

  quadrature  adaptive log-domain Gauss-Legendre panels (ground truth)
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
from . import rng, wavelets
from .errors import ConvergenceError, InvalidParameterError, ShapeError, StateError
from .model import index_rows
from .priors import GaussianHierarchicalScaling, GaussianTail

_GL_CACHE = {}


def _gl(order):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


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


def _moments_on_edges(post, edges, order):
    gl_x, gl_w = _gl(order)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    wts = (half[:, None] * gl_w[None, :]).ravel()
    # at extreme scales far nodes overflow the likelihood term to a log
    # density of -inf, its correct limit, and unrepresentable moments
    # overflow their dot products; those raise ConvergenceError below
    with np.errstate(over="ignore"):
        logf = _log_posterior_unnorm(nodes, post)
        m = np.max(logf)
        if not np.isfinite(m):
            raise ConvergenceError("posterior mass not representable",
                                   achieved=None)
        g = wts * np.exp(logf - m)
        z = g.sum()
        mean = float(np.dot(nodes, g) / z)
        # nodes ascend, so the end nodes bound every squared deviation
        if max(nodes[-1] - mean, mean - nodes[0]) < _SQUARE_MAX:
            var = float(np.dot((nodes - mean) ** 2, g) / z)
        else:
            # far nodes carry no weight, but their squared deviation would
            # overflow and inf * 0 is NaN
            held = g > 0.0
            var = float(np.dot((nodes[held] - mean) ** 2, g[held]) / z)
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ConvergenceError("posterior moments not representable",
                               achieved=None)
    log_norm = m + math.log(z)
    return mean, var, log_norm, nodes, g / z


def _split_edges(edges, factor):
    if factor <= 1:
        return edges
    left = edges[:-1]
    step = (edges[1:] - left) / factor
    inner = left[:, None] + step[:, None] * np.arange(1.0, factor + 1)
    return np.concatenate((edges[:1], inner.ravel()))


def quadrature_mean_var(post, tol=1e-8, max_refine=4, quantiles=None):
    """(mean, variance, log_normalizer) by adaptive panel quadrature.

    Refines panels (doubling) until the mean is stable to tol relative
    (1e-12 absolute floor against the posterior sd scale); raises
    ConvergenceError with the achieved estimate otherwise.  x = 0 gives
    mean exactly 0 by symmetry.  Optionally interpolates quantiles from
    the final node CDF.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be > 0")
    if post.log_scale == -math.inf:
        # degenerate prior at 0
        return (0.0, 0.0, -math.inf) if quantiles is None else (
            0.0, 0.0, -math.inf, {q: 0.0 for q in quantiles})
    flip = post.observation < 0
    work = post if not flip else UnivariatePosterior(
        -post.observation, post.noise_precision, post.log_scale, post.tail)
    edges = _panel_edges(work, min(tol, 1e-8))
    prev = None
    result = None
    achieved = math.inf
    for level in range(max_refine + 1):
        cur_edges = _split_edges(edges, 2**level)
        mean, var, log_norm, nodes, probs = _moments_on_edges(work, cur_edges, 10)
        if prev is not None:
            scale = max(abs(mean), math.sqrt(max(var, 0.0)), 1e-9)
            achieved = abs(mean - prev[0]) / scale
            var_scale = max(var, prev[1], 1e-18)
            achieved = max(achieved, abs(var - prev[1]) / var_scale)
            if achieved <= tol:
                result = (mean, var, log_norm, nodes, probs, level)
                break
        prev = (mean, var, log_norm, nodes, probs)
    if result is None:
        if achieved <= 10 * tol:  # accept marginal convergence at the cap
            result = (*prev, max_refine)
        else:
            raise ConvergenceError(
                f"quadrature did not reach tol={tol}", achieved=achieved
            )
    mean, var, log_norm, nodes, probs, level = result
    if work.observation == 0.0:
        mean = 0.0
    if flip:
        mean = -mean
        nodes = -nodes[::-1]
        probs = probs[::-1]
    if quantiles is None:
        return mean, var, log_norm
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    qs = {q: float(np.interp(q, cdf, nodes)) for q in quantiles}
    return mean, var, log_norm, qs


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
    generated once per distinct index, up front, into (step, stream)
    arrays: one noise array holding the normal increment, or the Cauchy
    tangent on steps that propose from the Cauchy component (a step never
    uses both), log(u_acc), and the jump, big-step and Cauchy-component
    masks.  For each adaptation window of `_ADAPT_EVERY` steps the rows
    are gathered by stream index into (step, chain) arrays, from which the
    independence proposals and the scaled walk increments of the whole
    window are formed.  Kept draws are written as (chain, draw) into
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
    start = np.empty(m)
    noise = np.empty((total, m))
    log_u_acc = np.empty((total, m))
    jump = np.empty((total, m), dtype=bool)
    big_step = np.empty((total, m), dtype=bool)
    cauchy = np.empty((total, m), dtype=bool)
    for si, idx in enumerate(position):
        gen = rng.coord_generator(seed, rng.STREAM_CHAIN, idx)
        start[si] = gen.uniform(-2.0, 2.0)
        zc = gen.standard_normal(total)
        log_u_acc[:, si] = np.log(gen.random(total))
        um = gen.random(total)
        jc = um < _JUMP_PROB
        jump[:, si] = jc
        big_step[:, si] = um < _JUMP_PROB + _BIG_STEP_PROB
        # u_jump picks the component; rescaled it is uniform again and
        # drives the Cauchy inverse CDF; the Gaussian reuses the normal
        uj = gen.random(total)
        cc = jc & (uj < 0.5)
        cauchy[:, si] = cc
        noise[:, si] = np.where(cc, np.tan(math.pi * (2.0 * uj - 0.5)), zc)

    def target(theta):
        # the prior's -log sigma is constant per chain: it cancels in ratios
        return (neg_half_n * (xs - theta) ** 2
                + tail.log_density_scaled(theta, sig_log))

    step = np.maximum(sig, min_step)
    big = np.maximum(1.0, np.abs(xs))

    def log_envelope(theta):
        # equal-weight mixture: Cauchy(0, sigma) and N(x, 1/sqrt(n))
        lc = -np.log(math.pi * sig * (1.0 + (theta / sig) ** 2))
        ln = (-0.5 * ((theta - xs) / like_sd) ** 2
              - log_like_sd - 0.5 * math.log(2.0 * math.pi))
        return np.logaddexp(lc, ln) + math.log(0.5)

    cur = start[stream_of]
    cur_lp = target(cur)
    cur_lq = log_envelope(cur)
    if out is None:
        out = np.empty((k, draws))
    kept_rows = np.empty((_ADAPT_EVERY, k))
    window_acc = np.zeros(k)
    kept = np.zeros(k)
    # one batch per adaptation window, so the step size is fixed within a
    # batch; batches never straddle the end of burn-in
    batches = [(t0, min(t0 + _ADAPT_EVERY, burn_in))
               for t0 in range(0, burn_in, _ADAPT_EVERY)]
    batches += [(t0, min(t0 + _ADAPT_EVERY, total))
                for t0 in range(burn_in, total, _ADAPT_EVERY)]
    with np.errstate(invalid="ignore"):
        for t0, t1 in batches:
            # the proposals' chain-state-free parts, for the whole batch
            w = noise[t0:t1, cols]
            ind = np.where(cauchy[t0:t1, cols], sig * w, xs + like_sd * w)
            walk = np.where(big_step[t0:t1, cols], big, step) * w
            jump_b = jump[t0:t1, cols]
            log_u_b = log_u_acc[t0:t1, cols]
            burning = t0 < burn_in
            for b in range(t1 - t0):
                jt = jump_b[b]
                prop = np.where(jt, ind[b], cur + walk[b])
                lp = target(prop)
                lq = log_envelope(prop)
                ratio = lp - cur_lp + np.where(jt, cur_lq - lq, 0.0)
                # NaN and -inf ratios compare False: never accepted
                accept = log_u_b[b] < ratio
                cur = np.where(accept, prop, cur)
                cur_lp = np.where(accept, lp, cur_lp)
                cur_lq = np.where(accept, lq, cur_lq)
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


def metropolis_sample(post, draws=4000, burn_in=2000, seed=0, index=0):
    """Random-walk Metropolis draws from one univariate posterior."""
    _check_chain_lengths(draws, burn_in)
    samples, acc = _metropolis_block(
        np.array([post.observation]), post.noise_precision,
        np.array([post.log_scale]), post.tail, draws, burn_in, seed, [index])
    return samples[0], float(acc[0])


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
    """(log_scales, active, stream indices) for each coordinate of data."""
    K = data.truncation
    if prior.index_mode == "single":
        if data.double_indexed:
            raise ShapeError("single-index prior applied to wavelet data")
        ks = np.arange(1, K + 1)
        log_s = np.asarray(prior.scaling.log_scale(ks), dtype=float)
        active = np.asarray(prior.scaling.active(ks), dtype=bool)
        if active.ndim == 0:
            active = np.full(K, bool(active))
        stream_idx = np.arange(K)
    else:
        if not data.double_indexed:
            raise ShapeError("level-indexed prior applied to single-index data")
        log_s = np.asarray(prior.scaling.log_scale(wavelets.flat_levels(K)),
                           dtype=float)
        active = np.ones(K, dtype=bool)
        stream_idx = np.arange(K)
    return log_s, active, stream_idx


def fit_posterior(data, prior, method="quadrature", draws=4000, burn_in=2000,
                  seed=0, tol=1e-6, chunk=1024):
    """Per-coordinate posterior summaries for a full data set.

    Coordinates deactivated by a truncated scaling rule get mean 0,
    variance 0 and constant-zero draws.  Output is independent of
    coordinate evaluation order.  A hierarchical Gaussian prior carries
    hyperpriors on (tau, alpha), which only the Gibbs sampler fits, so it
    goes to `gibbs_hierarchical_gaussian` whatever `method` says.
    """
    if isinstance(prior.scaling, GaussianHierarchicalScaling):
        return gibbs_hierarchical_gaussian(data, draws=draws, burn_in=burn_in,
                                           seed=seed)
    if method == "metropolis":
        return fit_metropolis([(data, prior)], draws=draws, burn_in=burn_in,
                              seed=seed, chunk=chunk)[0]
    log_s, active, stream_idx = _coordinate_layout(data, prior)
    K = data.truncation
    x = data.observations
    n = data.noise_precision
    means = np.zeros(K)
    variances = np.zeros(K)
    quantiles = {q: np.zeros(K) for q in _QLEVELS}
    diagnostics = {"method": method}
    draw_mat = None

    if method == "quadrature":
        for i in range(K):
            if not active[i]:
                continue
            p = UnivariatePosterior(x[i], n, log_s[i], prior.tail)
            try:
                m, v, _, qs = quadrature_mean_var(p, tol=tol,
                                                  quantiles=_QLEVELS)
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
    elif method == "conjugate":
        if not isinstance(prior.tail, GaussianTail):
            raise InvalidParameterError("conjugate path needs a Gaussian tail")
        sig = np.where(active, np.exp(log_s), 0.0)
        shrink = n * sig**2 / (1.0 + n * sig**2)
        means = np.where(active, x * shrink, 0.0)
        variances = np.where(active, sig**2 / (1.0 + n * sig**2), 0.0)
        sd = np.sqrt(variances)
        for q in _QLEVELS:
            quantiles[q] = means + special.ndtri(q) * sd
        if draws:
            draw_mat = np.zeros((K, draws))
            for i in range(K):
                if active[i] and sd[i] > 0:
                    gen = rng.coord_generator(seed, rng.STREAM_CHAIN, stream_idx[i])
                    draw_mat[i] = means[i] + sd[i] * gen.standard_normal(draws)
    else:
        raise InvalidParameterError(f"unknown method {method!r}")
    return PosteriorSummary(means=means, variances=variances,
                            quantiles=quantiles, method=method,
                            diagnostics=diagnostics, draws=draw_mat)


def _draw_moments(draw_mat):
    """Per-row means, variances and `_QLEVELS` quantiles of draws."""
    qs = np.quantile(draw_mat, _QLEVELS, axis=1)
    return draw_mat.mean(axis=1), draw_mat.var(axis=1), dict(zip(_QLEVELS, qs))


def fit_metropolis(pairs, draws=4000, burn_in=2000, seed=0, chunk=1024):
    """Metropolis summaries for several (data, prior) pairs in one sampler.

    The priors must share a tail; data sets and scalings may differ.  The
    active coordinates of all pairs run as blocks of at most `chunk`
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
    for (data, _), (ls, active, stream_idx), lo in zip(pairs, layouts, bounds):
        act = np.flatnonzero(active)
        rows.append(lo + act)
        xs.append(data.observations[act])
        ns.append(np.full(len(act), data.noise_precision))
        log_s.append(ls[act])
        streams.append(stream_idx[act])
    rows, xs, ns, log_s, streams = map(np.concatenate,
                                       (rows, xs, ns, log_s, streams))
    draw_mat = np.zeros((bounds[-1], draws))
    acc = np.zeros(bounds[-1])
    for first in range(0, len(rows), chunk):
        sel = slice(first, first + chunk)
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
    for (_, active, _), lo, hi in zip(layouts, bounds[:-1], bounds[1:]):
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


def _gibbs_log_marginal(x, n, levels, u, v):
    """log p(x | tau, alpha) + log prior on (u, v) = (log tau, log alpha)."""
    alpha = math.exp(v)
    log_sig = u - np.maximum(levels, 0) * (0.5 + alpha) * math.log(2.0)
    var = 1.0 / n + np.exp(2.0 * log_sig)
    loglik = -0.5 * np.sum(np.log(2 * math.pi * var) + x * x / var)
    # tau ~ Inv-Gamma(1,1) in u = log tau; alpha ~ Exp(1) in v = log alpha
    log_prior = -u - math.exp(-u) + v - math.exp(v)
    return loglik + log_prior


def gibbs_hierarchical_gaussian(data, draws=4000, burn_in=2000, seed=0,
                                proposal_sd=0.35):
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
    levels = wavelets.flat_levels(K)
    gen = rng.coord_generator(seed, rng.STREAM_GIBBS, 0)
    u, v = 0.0, 0.0  # tau = 1, alpha = 1
    cur_lp = _gibbs_log_marginal(x, n, levels, u, v)
    total = draws + burn_in
    out = np.empty((K, draws))
    hyper = np.empty((draws, 2))
    accepted = 0
    window_acc = 0
    sd = proposal_sd
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
            log_sig = u - np.maximum(levels, 0) * (0.5 + alpha) * math.log(2.0)
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
    kept = curves[sel]
    return {
        "grid": grid,
        "center": center,
        "lower": kept.min(axis=0),
        "upper": kept.max(axis=0),
    }


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
