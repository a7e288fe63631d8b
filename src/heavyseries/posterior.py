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

from . import rng
from .errors import ConvergenceError, InvalidParameterError, ShapeError, StateError
from .priors import (
    ConstantTruncatedScaling,
    GaussianHierarchicalScaling,
    GaussianTail,
    HorseshoeTail,
    PriorSpec,
    StudentTail,
)

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


def _log_prior(theta, log_scale, tail):
    """log [h(theta/sigma)/sigma], safely for any magnitude ratio."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    ax = np.abs(theta)
    zero = ax == 0.0
    if np.any(zero):
        if isinstance(tail, HorseshoeTail):
            out[zero] = np.inf  # integrable pole; panel nodes avoid 0
        else:
            out[zero] = tail.log_density(0.0)
    if np.any(~zero):
        u = np.log(ax[~zero]) - log_scale
        if isinstance(tail, HorseshoeTail):
            out[~zero] = tail.log_density_fast_log_abs(u)
        else:
            out[~zero] = tail.log_density_log_abs(u)
    return out - log_scale


def _log_posterior_unnorm(theta, post):
    x = post.observation
    n = post.noise_precision
    theta = np.asarray(theta, dtype=float)
    return -0.5 * n * (x - theta) ** 2 + _log_prior(theta, post.log_scale, post.tail)


def _tail_quantile(tail, eps):
    """T with tail_mass(T) < eps, from the certified tail bound."""
    if tail.tail_bound_c2 is not None:
        return max(1.0, tail.tail_bound_c2 / eps)
    return math.sqrt(2.0 * math.log(1.0 / eps)) + 2.0


_LIKE_OFFSETS = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0])
_WINDOW = 12.0


def _panel_edges(post, eps):
    """Sorted panel edges covering likelihood window ∪ prior window."""
    x = post.observation
    n = post.noise_precision
    sigma = math.exp(min(post.log_scale, 700.0))
    w = _WINDOW / math.sqrt(n)
    lo, hi = x - w, x + w
    T = sigma * _tail_quantile(post.tail, eps)
    a = min(lo, -T)
    b = max(hi, T)
    edges = set()
    for c in _LIKE_OFFSETS:
        edges.add(x - c / math.sqrt(n))
        edges.add(x + c / math.sqrt(n))
    if isinstance(post.tail, GaussianTail) and sigma > 0:
        # the conjugate posterior concentrates at the shrunk observation,
        # which can fall between the likelihood and prior windows
        m0 = x * n * sigma**2 / (1.0 + n * sigma**2)
        sd0 = sigma / math.sqrt(1.0 + n * sigma**2)
        for c in _LIKE_OFFSETS:
            edges.add(m0 - c * sd0)
            edges.add(m0 + c * sd0)
    # geometric refinement toward 0: resolves the prior-scale kink at
    # |theta| ~ sigma and the horseshoe log pole
    if a < 0.0 < b:
        edges.add(0.0)
        scales = [w * 2.0**-m for m in range(1, 85)]
        if 0.0 < sigma < w:
            scales += [sigma * 2.0**-m for m in range(0, 45)]
        for s in scales:
            if -s > a:
                edges.add(-s)
            if s < b:
                edges.add(s)
    # octave panels out to the prior window boundary
    m = 1
    while w * 2.0**m < max(abs(a), abs(b)):
        for s in (-w * 2.0**m, w * 2.0**m):
            if a < s < b:
                edges.add(s)
        m += 1
    edges.add(a)
    edges.add(b)
    arr = np.array(sorted(e for e in edges if a <= e <= b))
    return arr


def _moments_on_edges(post, edges, order):
    gl_x, gl_w = _gl(order)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    wts = (half[:, None] * gl_w[None, :]).ravel()
    logf = _log_posterior_unnorm(nodes, post)
    m = np.max(logf)
    if not np.isfinite(m):
        raise ConvergenceError("posterior mass not representable", achieved=None)
    g = wts * np.exp(logf - m)
    z = g.sum()
    mean = float(np.dot(nodes, g) / z)
    var = float(np.dot((nodes - mean) ** 2, g) / z)
    log_norm = m + math.log(z)
    return mean, var, log_norm, nodes, g / z


def _split_edges(edges, factor):
    if factor <= 1:
        return edges
    out = [edges[0]]
    for left, right in zip(edges[:-1], edges[1:]):
        step = (right - left) / factor
        out.extend(left + step * (i + 1) for i in range(factor))
    return np.array(out)


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


def _metropolis_block(xs, n, log_scales, tail, draws, burn_in, seed, indices):
    """Vectorized Metropolis chains, one per coordinate.

    The kernel mixes three proposals: an adaptive random-walk step, an
    occasional large symmetric step, and an independence draw from a
    two-component envelope (Cauchy at the prior scale, Gaussian at the
    observation).  When sigma << 1/sqrt(n) << |x| the posterior has
    well-separated modes near 0 and near x; the independence component is
    what lets the chain cross between them, with the usual Hastings
    correction.  Each coordinate consumes its own counter-based stream,
    so results do not depend on how coordinates are grouped into blocks.

    Everything that depends only on a chain's random stream is computed
    up front, one chain at a time, into (step, chain) arrays: the normal
    increments, log(u_acc), the jump and big-step masks and the
    independence proposals.  Each step then reads contiguous rows.  The
    kept draws are written as (draw, chain) and returned transposed, as a
    (chain, draw) view.
    """
    xs = np.asarray(xs, dtype=float)
    k = len(xs)
    total = draws + burn_in
    sig_log = np.asarray(log_scales, dtype=float)
    sig = np.exp(sig_log)
    like_sd = 1.0 / math.sqrt(n)
    z = np.empty((total, k))
    log_u_acc = np.empty((total, k))
    jump = np.empty((total, k), dtype=bool)
    big_step = np.empty((total, k), dtype=bool)
    ind = np.empty((total, k))
    cur = np.empty(k)
    for ci, idx in enumerate(indices):
        gen = rng.coord_generator(seed, rng.STREAM_CHAIN, idx)
        cur[ci] = gen.uniform(-2.0, 2.0)
        zc = gen.standard_normal(total)
        z[:, ci] = zc
        log_u_acc[:, ci] = np.log(gen.random(total))
        um = gen.random(total)
        jump[:, ci] = um < _JUMP_PROB
        big_step[:, ci] = um < _JUMP_PROB + _BIG_STEP_PROB
        # u_jump picks the component; rescaled it is uniform again and
        # drives the Cauchy inverse CDF; the Gaussian reuses the normal
        uj = gen.random(total)
        cauchy = sig[ci] * np.tan(math.pi * (2.0 * uj - 0.5))
        ind[:, ci] = np.where(uj < 0.5, cauchy, xs[ci] + like_sd * zc)

    # per-coordinate prior scales differ, so inline the target
    horseshoe = isinstance(tail, HorseshoeTail)

    def target(theta):
        lp = -0.5 * n * (xs - theta) ** 2
        ax = np.abs(theta)
        zero = ax == 0.0
        if not zero.any():
            u = np.log(ax) - sig_log
            if horseshoe:
                return lp + tail.log_density_fast_log_abs(u)
            return lp + tail.log_density_log_abs(u)
        out = np.empty(k)
        if horseshoe:
            out[zero] = np.inf
            if np.any(~zero):
                out[~zero] = tail.log_density_fast_log_abs(
                    np.log(ax[~zero]) - sig_log[~zero])
        else:
            if np.any(zero):
                out[zero] = tail.log_density(0.0)
            if np.any(~zero):
                out[~zero] = tail.log_density_log_abs(
                    np.log(ax[~zero]) - sig_log[~zero])
        return lp + out

    step = np.maximum(sig, 0.5 / math.sqrt(n))
    big = np.maximum(1.0, np.abs(xs))

    def log_envelope(theta):
        # equal-weight mixture: Cauchy(0, sigma) and N(x, 1/sqrt(n))
        lc = -np.log(math.pi * sig * (1.0 + (theta / sig) ** 2))
        ln = (-0.5 * ((theta - xs) / like_sd) ** 2
              - math.log(like_sd) - 0.5 * math.log(2.0 * math.pi))
        return np.logaddexp(lc, ln) + math.log(0.5)

    cur_lp = target(cur)
    cur_lq = log_envelope(cur)
    out = np.empty((draws, k))
    window_acc = np.zeros(k)
    kept = np.zeros(k)
    with np.errstate(invalid="ignore"):
        for t in range(total):
            jt = jump[t]
            sd = np.where(big_step[t], big, step)
            prop = np.where(jt, ind[t], cur + sd * z[t])
            lp = target(prop)
            lq = log_envelope(prop)
            ratio = lp - cur_lp + np.where(jt, cur_lq - lq, 0.0)
            # NaN and -inf ratios compare False: never accepted
            accept = log_u_acc[t] < ratio
            cur = np.where(accept, prop, cur)
            cur_lp = np.where(accept, lp, cur_lp)
            cur_lq = np.where(accept, lq, cur_lq)
            if t < burn_in:
                window_acc += accept
                if (t + 1) % _ADAPT_EVERY == 0:
                    rate = window_acc / _ADAPT_EVERY
                    step = step * np.where(
                        rate > 0.5, 1.6, np.where(rate < 0.3, 1.0 / 1.6, 1.0))
                    window_acc[:] = 0.0
            else:
                kept += accept
                out[t - burn_in] = cur
    return out.T, kept / draws


def metropolis_sample(post, draws=4000, burn_in=2000, seed=0, index=0):
    """Random-walk Metropolis draws from one univariate posterior."""
    if draws < 1:
        raise InvalidParameterError("draws must be >= 1")
    samples, acc = _metropolis_block(
        np.array([post.observation]), post.noise_precision,
        np.array([post.log_scale]), post.tail, draws, burn_in, seed, [index])
    return np.ascontiguousarray(samples[0]), float(acc[0])


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
        levels = np.floor(np.log2(np.maximum(np.arange(K), 1))).astype(int)
        levels[0] = -1
        log_s = np.asarray(prior.scaling.log_scale(levels), dtype=float)
        active = np.ones(K, dtype=bool)
        stream_idx = np.arange(K)
    return log_s, active, stream_idx


def fit_posterior(data, prior, method="quadrature", draws=4000, burn_in=2000,
                  seed=0, tol=1e-6, chunk=1024):
    """Per-coordinate posterior summaries for a full data set.

    Coordinates deactivated by a truncated scaling rule get mean 0,
    variance 0 and constant-zero draws.  Output is independent of
    coordinate evaluation order.
    """
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
    elif method == "metropolis":
        draw_mat = np.zeros((K, draws))
        acc = np.zeros(K)
        act_idx = np.flatnonzero(active)
        for start in range(0, len(act_idx), chunk):
            sel = act_idx[start:start + chunk]
            block, a = _metropolis_block(
                x[sel], n, log_s[sel], prior.tail, draws, burn_in, seed,
                stream_idx[sel])
            draw_mat[sel] = block
            acc[sel] = a
        means = draw_mat.mean(axis=1)
        variances = draw_mat.var(axis=1)
        for q in _QLEVELS:
            quantiles[q] = np.quantile(draw_mat, q, axis=1)
        diagnostics["acceptance_mean"] = float(acc[active].mean()) if active.any() else 0.0
        diagnostics["acceptance_min"] = float(acc[active].min()) if active.any() else 0.0
    else:
        raise InvalidParameterError(f"unknown method {method!r}")
    return PosteriorSummary(means=means, variances=variances,
                            quantiles=quantiles, method=method,
                            diagnostics=diagnostics, draws=draw_mat)


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
    K = data.truncation
    x = data.observations
    n = data.noise_precision
    levels = np.floor(np.log2(np.maximum(np.arange(K), 1))).astype(int)
    levels[0] = -1
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
    means = out.mean(axis=1)
    variances = out.var(axis=1)
    quantiles = {q: np.quantile(out, q, axis=1) for q in _QLEVELS}
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
    the posterior mean curve, on an m-point grid."""
    from . import basis as basis_mod  # local import avoids a cycle

    if summary.draws is None:
        raise StateError("summary carries no draws")
    if not 0.0 < level <= 1.0:
        raise InvalidParameterError("level must be in (0, 1]")
    if basis.kind == basis_mod.WAVELET:
        m = basis.frame.signal_length
        grid = basis_mod.grid(basis, m)
        center = basis_mod.synthesize(summary.means, basis, m)
        curves = basis_mod.synthesize(summary.draws.T, basis, m)
    else:
        grid = basis_mod.grid(basis, m)
        k = np.arange(1, summary.draws.shape[0] + 1)
        if basis.kind == basis_mod.COSINE:
            design = np.sqrt(2.0) * np.cos(np.pi * np.outer(grid, k - 0.5))
        else:
            design = np.sqrt(2.0) * np.sin(np.pi * np.outer(grid, k))
        center = design @ summary.means
        curves = (design @ summary.draws).T
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
    from .model import _index_rows

    buf = io.StringIO()
    buf.write("index_j,index_k,mean,var,q05,q50,q95\n")
    rows = _index_rows(len(summary.means), double_indexed)
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
