"""One-dimensional posterior engine: each coordinate's posterior as a normal
scale mixture, integrated over the log scale by the trapezoid rule.

Every tail is a normal scale mixture, theta | lambda ~ N(0, sigma^2
lambda^2) (Andrews & Mallows 1974), and declares the log-density p of u =
log lambda as `log_density_mixing(u)`; the Gaussian tail's is the point
mass at u = 0.  Given u, the posterior under the likelihood N(x; theta,
1/n) is N(s x, s/n), s = sigma^2 e^{2u} / (sigma^2 e^{2u} + 1/n), and u
carries the weight p(u) N(x; 0, 1/n + sigma^2 e^{2u}): smooth, and
decaying at least like e^-|u| at both ends, so the trapezoid rule on the
nodes u = k h converges exponentially in 1/h (Trefethen & Weideman 2014).
The prior's weight peaks near u = 0 and the likelihood's near c =
log(max(|x|, n^-1/2) / sigma), so the nodes span [min(0, c) - W, max(0,
c) + W], beyond which the weight falls by e^-W or more.  s, the weights
and the normalizer are formed in the log domain, so nothing overflows,
and mass far below the prior's peak, which can carry the whole variance,
stays representable.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

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
        if not math.isfinite(self.log_scale):
            raise InvalidParameterError("log_scale must be finite")


# the step h in u and the half-width W beyond 0 and c; at h = 0.1 every
# seed-0 `sobolev` coordinate's h-against-2h difference is below 4.1e-9
_STEP = 0.1
_HALF_WIDTH = 30.0

# Phi(k/512) for |k/512| <= 9, then 1 with slope 0, for the quantile
# solve: linear interpolation in it is within 1.2e-7 of Phi
_PHI = np.array([0.5 * math.erfc(-k / 512.0 / math.sqrt(2.0))
                 for k in range(-4608, 4609)] + [1.0])
_PHI_SLOPE = np.append(np.diff(_PHI), 0.0)


class Mixture(NamedTuple):
    """A posterior as `sign` (the observation's) times a normal mixture,
    the posterior at |x|: density sum_i weights_i N(means_i, inv_sd_i^-2)."""

    sign: float
    means: np.ndarray
    inv_sd: np.ndarray
    weights: np.ndarray


def _shrinkage_moments(w, s):
    """Total weight, mean and variance of s under the weights w."""
    total = float(w.sum())
    mean = float(w @ s) / total
    return total, mean, float(w @ np.square(s - mean)) / total


def _mixture_pass(x, n, log_scale, tail, step, sign):
    """One trapezoid pass over u at step h for an observation sign * x.

    Returns the mean and variance at x >= 0, the log normalizer, the
    achieved error (the sums over every node against those over every
    other node, step 2h, relative to max(mean, sd, 1e-9) and the larger
    variance, plus the end nodes' weight share) and the `Mixture` of every
    other node from the first to the last above 1e-10 of the top weight.
    """
    log_n = math.log(n)
    centre = max(math.log(x) if x > 0.0 else -math.inf,
                 -0.5 * log_n) - log_scale
    first = math.floor((min(0.0, centre) - _HALF_WIDTH) / step)
    last = math.ceil((max(0.0, centre) + _HALF_WIDTH) / step)
    u = np.arange(first, last + 1) * step
    log_p = tail.log_density_mixing(u)
    # log sigma^2 lambda^2, the marginal variance v = 1/n + sigma^2
    # lambda^2 and s; x / sqrt(v) overflows only where its weight is 0
    log_prior_var = 2.0 * (log_scale + u)
    log_v = np.logaddexp(log_prior_var, -log_n)
    log_s = log_prior_var - log_v
    with np.errstate(over="ignore"):
        # log p(u) + log N(x; 0, v), less the constant log(2 pi) / 2
        log_w = log_p - 0.5 * (log_v + np.square(x * np.exp(-0.5 * log_v)))
    top = log_w.max()
    if top == -math.inf:
        raise ConvergenceError("posterior mass not representable",
                               achieved=None)
    w = np.exp(log_w - top)
    s = np.exp(log_s)
    total, s_mean, s_var = _shrinkage_moments(w, s)
    # the nodes with k even: their sums are the step-2h rule's
    _, s_mean2, s_var2 = _shrinkage_moments(w[first % 2::2], s[first % 2::2])
    # E[s]/n + x^2 Var(s), by products, which overflow to inf, not powers
    spread, spread2 = x * math.sqrt(s_var), x * math.sqrt(s_var2)
    mean, mean2 = x * s_mean, x * s_mean2
    var = s_mean / n + spread * spread
    var2 = s_mean2 / n + spread2 * spread2
    if not math.isfinite(var):
        raise ConvergenceError("posterior moments not representable",
                               achieved=None)
    achieved = math.inf  # unless the 2h sums are representable too
    if math.isfinite(var2):
        achieved = (max(abs(mean - mean2) / max(mean, math.sqrt(var), 1e-9),
                        abs(var - var2) / max(var, var2, 1e-18))
                    + float(w[0] + w[-1]) / total)
    # sqrt(2 pi / n) int p N(x; 0, v) du, over the sum of p as int p du
    log_norm = -0.5 * log_n + top + math.log(total / np.exp(log_p).sum())
    keep = np.flatnonzero(w > 1e-10)
    pick = slice(keep[0], keep[-1] + 1, 2)
    # a component narrower than e^-700 is a point mass to any level
    inv_sd = np.exp(np.minimum(0.5 * (log_n - log_s[pick]), 700.0))
    mixture = Mixture(sign, x * s[pick], inv_sd, w[pick] / w[pick].sum())
    return mean, var, log_norm, achieved, mixture


def mixture_quantiles(mixtures, levels):
    """The `levels` quantiles of each `Mixture`, as a (mixture, level)
    array, solved for all of them at once.

    Newton's method solves F(q) = sum_i w_i Phi((q - m_i) s_i) = level,
    Phi interpolated in `_PHI`, from the heaviest component's quantile.
    A quantile lies between its components' least and greatest quantiles;
    a step that leaves that bracket, which each evaluation shrinks,
    bisects it.  Each value stays at its first step below 1e-12 of the
    bracket's first width or 1e-15 |q|, or once F is within 1e-14 of the
    level, so it does not depend on the others solved with it.  At x < 0
    the q-quantile is minus the (1 - q)-quantile at |x|, exactly mirrored.
    """
    width = max(len(m.weights) for m in mixtures)
    # each mixture padded to `width` with its last component at weight 0
    picks = [np.minimum(np.arange(width), len(m.weights) - 1)
             for m in mixtures]
    means = np.array([m.means[i] for m, i in zip(mixtures, picks)])
    # 1/sd in steps of `_PHI`
    inv_sd = 512.0 * np.array([m.inv_sd[i] for m, i in zip(mixtures, picks)])
    weights = np.array([np.where(i == np.arange(width), m.weights[i], 0.0)
                        for m, i in zip(mixtures, picks)])[:, :, None]
    density = weights * inv_sd[:, :, None]
    sign = np.array([[m.sign] for m in mixtures])
    target = np.where(sign < 0.0, 1.0 - np.asarray(levels), levels)
    z = np.interp(target, _PHI, np.arange(-4608, 4610) / 512.0)
    # each component's quantiles, (mixture, level, component)
    spots = means[:, None, :] + 512.0 * z[:, :, None] / inv_sd[:, None, :]
    lo, hi = spots.min(axis=2), spots.max(axis=2)
    q = np.take_along_axis(spots, weights.argmax(axis=1)[:, None],
                           axis=2)[:, :, 0]
    small = 1e-12 * (hi - lo)
    done = np.zeros(q.shape, dtype=bool)
    out = np.empty_like(q)
    rows = np.arange(len(q))  # the mixtures still solving
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(100):
            t = (q[:, :, None] - means[:, None, :]) * inv_sd[:, None, :]
            t += 4608.0
            np.maximum(t, 0.0, out=t)
            np.minimum(t, 9217.0, out=t)
            k = t.astype(np.intp)
            t -= k
            slope = _PHI_SLOPE[k]
            t *= slope
            t += _PHI[k]
            cdf = (t @ weights)[:, :, 0]
            below = cdf < target
            lo = np.where(below, q, lo)
            hi = np.where(below, hi, q)
            new = q - (cdf - target) / (slope @ density)[:, :, 0]
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * lo + 0.5 * hi)
            new = np.where(done, q, new)
            done |= ((np.abs(new - q) <= small + 1e-15 * np.abs(new))
                     | (np.abs(cdf - target) <= 1e-14))
            q = new
            finished = done.all(axis=1)
            if finished.any():
                out[rows[finished]] = q[finished]
                if finished.all():
                    return out * sign
                (rows, q, lo, hi, small, done, target, means, inv_sd, weights,
                 density) = (a[~finished] for a in (
                     rows, q, lo, hi, small, done, target, means, inv_sd,
                     weights, density))
    raise ConvergenceError("quantile solve did not converge", achieved=None)


# the posterior quantile levels every fit summary reports
QUANTILES = (0.05, 0.5, 0.95)


class Moments(NamedTuple):
    """One coordinate's posterior, as `quadrature_mean_var` returns it:
    moments, log normalizer, quantiles by level, the `level` accepted with
    its `achieved` error, and the `Mixture` for `mixture_quantiles`."""

    mean: float
    var: float
    log_norm: float
    quantiles: dict
    level: int
    achieved: float
    mixture: Mixture


def quadrature_mean_var(post, tol=1e-8, quantiles=QUANTILES):
    """The posterior's `Moments` by the trapezoid rule over its mixture.

    One pass at step h = `_STEP` (`_mixture_pass`) gives the moments, the
    log normalizer and the achieved error.  Above tol the step is halved
    once (level 1); an error still above tol raises ConvergenceError with
    the achieved estimate, so every answer returned is within tol.  The
    engine works on |x|, so the posterior at -x is exactly the mirror of
    the one at x, and x = 0 gives mean exactly 0.  The `quantiles` are the
    mixture's own (`mixture_quantiles`); levels outside (0, 1), and NaN,
    raise.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be > 0")
    if not all(0.0 < q < 1.0 for q in quantiles):  # NaN fails too
        raise InvalidParameterError(
            f"quantile levels must be in (0, 1), got {list(quantiles)!r}")
    sign = -1.0 if post.observation < 0 else 1.0
    for level in range(2):
        mean, var, log_norm, achieved, mixture = _mixture_pass(
            abs(post.observation), post.noise_precision, post.log_scale,
            post.tail, _STEP / 2**level, sign)
        if achieved <= tol:
            break
    else:
        raise ConvergenceError(f"quadrature did not reach tol={tol}",
                               achieved=achieved)
    values = (mixture_quantiles([mixture], quantiles)[0].tolist()
              if quantiles else ())
    return Moments(sign * mean, var, log_norm, dict(zip(quantiles, values)),
                   level, achieved, mixture)


def conjugate_mean_var(x, n, sigma):
    """Gaussian-tail closed form: posterior N(x nσ²/(1+nσ²), σ²/(1+nσ²))."""
    shrink = n * sigma * sigma / (1.0 + n * sigma * sigma)
    return x * shrink, sigma * sigma / (1.0 + n * sigma * sigma)
