"""Assembled posterior fits for the sequence model.

`fit_posterior` gives each prior one summary path: quadrature (in
`quadrature`, each coordinate's mean and variance within `tol`) for fixed
scales, the Gibbs baseline for the hierarchical Gaussian prior.
`metropolis_draws` samples several data sets whose priors share a tail in
one call, one `DrawStack` each.

Both samplers hand their kept draws on batch by batch to *sinks*:
callables each given one (draw, coordinate) block per batch, a buffer the
next batch overwrites, so a sink that keeps draws copies them.  A
`DrawMatrix` is the sink that does: the (coordinate, draw) matrix that a
credible band, or a Gibbs fit's quantiles, needs whole.  Credible bands,
centred on the draws' row means, and text forms live here too.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import basis as basis_mod
from . import rng
from . import wavelets
from .errors import (ConvergenceError, InvalidParameterError, ShapeError,
                     StateError, require_integer)
from .model import csv_text, index_rows
from .priors import coordinate_index, hierarchical_log_scale
from .quadrature import (QUANTILES, UnivariatePosterior, mixture_quantiles,
                         quadrature_mean_var)

# the defaults of every fit, the experiment config and the CLI
DEFAULT_DRAWS = 4000
DEFAULT_BURN_IN = 2000
DEFAULT_TOL = 1e-6
# coordinates per `mixture_quantiles` call, which bounds its scratch
_QUANTILE_ROWS = 64

# --------------------------------------------------------------------------
# Metropolis
# --------------------------------------------------------------------------

_ADAPT_EVERY = 50
_BIG_STEP_PROB = 0.2
_JUMP_PROB = 0.2


def check_chain_lengths(draws, burn_in):
    """InvalidParameterError unless draws and burn_in are integers,
    draws >= 1 and burn_in >= 0."""
    if require_integer("draws", draws) < 1:
        raise InvalidParameterError("draws must be >= 1")
    if require_integer("burn_in", burn_in) < 0:
        raise InvalidParameterError("burn_in must be >= 0")


class DrawMatrix:
    """A sink writing each (draw, coordinate) batch it is handed into the
    next columns of a (coordinate, draw) matrix, `draws`, which starts as
    zeros; `count` is how many draws it has received."""

    def __init__(self, coordinates, draws):
        self.draws = np.zeros((coordinates, draws))
        self.count = 0

    def __call__(self, block):
        end = self.count + len(block)
        self.draws[:, self.count:end] = block.T
        self.count = end


def _metropolis_block(xs, n, log_scales, tail, draws, burn_in, seed, indices,
                      sinks=()):
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
    generated once per distinct index, one refill at a time, into
    (stream, step) tables: one noise table holding the normal increment,
    or the Cauchy tangent on steps that propose from the Cauchy component
    (a step never uses both), one of log(u_acc), and one byte table of
    each step's proposal kind.  A refill is one of the `wavelets.row_blocks`
    of the run's steps, a step holding one value per chain, so no table
    exceeds that budget, and streams shared by several chains shrink the
    tables.  A stream's normals and its acceptance, mixture and
    jump uniforms are four runs of its generator, one after another; each
    run keeps a generator head (the uniform runs' heads are found by one
    pass over the stream's normals and an exact skip over the uniform
    runs) and writes its stream's row of a table in place.  The mixture
    and jump uniforms, which only set the kinds and the tangents, pass
    through the noise table before the normals do.  Every input is the
    float the whole-run stream gives it, and scratch memory is bounded by
    the budget, plus one stream's normals, rather than
    O(streams x (draws + burn_in)).  For each adaptation window of
    `_ADAPT_EVERY` steps, cut where a refill ends, the table columns are
    gathered by stream index into C-ordered (step, chain) arrays, from
    which the scaled walk increments of the window are formed, and the
    independence proposals with their envelope values only where a step
    jumps.  Within a step the envelope of the current state is evaluated
    only for the chains that jump.  Each batch's kept draws go to every
    sink in `sinks` as one C-ordered (draw, chain) block, a view of a
    buffer the next batch overwrites; the per-chain acceptance rates are
    returned.
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
    # themselves, and their columns need no gather
    position = {}
    stream_of = np.array([position.setdefault(int(idx), len(position))
                          for idx in indices], dtype=np.intp)
    m = len(position)
    refills = wavelets.row_blocks(total, k)
    width = refills[0].stop
    start = np.empty(m)
    noise = np.empty((m, width))
    log_u_acc = np.empty((m, width))
    # each step's proposal: 0 walk, 1 big step, then the independence
    # draw from the envelope's Gaussian (2) or Cauchy (3) component
    kind = np.empty((m, width), dtype=np.uint8)
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

    def fill(run, table):
        # whole stream rows; the last refill may run past `total`, unread
        for draw, row in zip(run, table):
            draw(out=row)
        return table

    def refill():
        np.log(fill(acc_run, log_u_acc), out=log_u_acc)
        u_mix = fill(mix_run, noise)
        np.less(u_mix, _JUMP_PROB + _BIG_STEP_PROB, out=kind)
        np.add(kind, u_mix < _JUMP_PROB, out=kind)
        # u_jump picks the component; rescaled it is uniform again and
        # drives the Cauchy inverse CDF; the Gaussian reuses the normal
        u_jump = fill(jump_run, noise)
        cauchy = (u_jump < 0.5) & (kind == 2)
        np.add(kind, cauchy, out=kind)
        tangents = np.tan(math.pi * (2.0 * u_jump[cauchy] - 0.5))
        fill(normal_run, noise)
        noise[cauchy] = tangents

    # each batch gathers its (step, chain) inputs into buffers made once,
    # C-ordered, so each step's row is contiguous
    batch_kind = np.empty((_ADAPT_EVERY, k), dtype=np.uint8)
    batch_walk = np.empty((_ADAPT_EVERY, k))
    batch_log_u = np.empty((_ADAPT_EVERY, k))

    def window(table, seg, buf):
        rows = buf[:seg.stop - seg.start]
        if m == k:
            np.copyto(rows, table[:, seg].T)
        else:
            np.take(np.ascontiguousarray(table[:, seg].T), stream_of, axis=1,
                    out=rows)
        return rows

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
    kept_rows = np.empty((_ADAPT_EVERY, k))
    # each batch's jumping (step, chain) pairs fill the front of buffers
    # that are replaced only when a batch outgrows them, with a quarter to
    # spare: arrays sized to each batch fragmented the heap (12 MB more
    # peak memory in a third of `inhomogeneous` benchmark runs), and
    # buffers for every pair of a batch held five times the pairs that jump
    pair_chain = np.empty(0, dtype=np.intp)
    pair_values = np.empty((6, 0))
    window_acc = np.zeros(k)
    kept = np.zeros(k)
    # one batch per adaptation window, so the step size is fixed within a
    # batch; batches never straddle the end of burn-in, nor a refill
    edges = sorted({*range(0, burn_in, _ADAPT_EVERY),
                    *range(burn_in, total, _ADAPT_EVERY),
                    *(r.start for r in refills), total})
    with np.errstate(invalid="ignore"):
        for t0, t1 in zip(edges[:-1], edges[1:]):
            if t0 % width == 0:
                refill()
            seg = slice(t0 % width, t0 % width + t1 - t0)
            # the proposals' chain-state-free parts, for the whole batch
            kinds = window(kind, seg, batch_kind)
            walk = window(noise, seg, batch_walk)
            log_u_b = window(log_u_acc, seg, batch_log_u)
            # the jumping (step, chain) pairs, step by step: independence
            # proposals and both envelope terms are needed only there
            jb, jc = np.nonzero(kinds >= 2)
            ends = np.searchsorted(jb, np.arange(t1 - t0 + 1)).tolist()
            if len(jc) > len(pair_chain):
                size = len(jc) + len(jc) // 4
                pair_chain = np.empty(size, dtype=np.intp)
                pair_values = np.empty((6, size))
            chain_j = pair_chain[:len(jc)]
            chain_j[:] = jc
            sig_j, xs_j, sd_j, log_sd_j, ind, ind_lq = (
                pair_values[:, :len(jc)])
            np.take(sig, jc, out=sig_j)
            np.take(xs, jc, out=xs_j)
            np.take(like_sd, jc, out=sd_j)
            np.take(log_like_sd, jc, out=log_sd_j)
            wj = walk[jb, jc]
            ind[:] = np.where(kinds[jb, jc] == 3, sig_j * wj,
                              xs_j + sd_j * wj)
            ind_lq[:] = log_envelope(ind, sig_j, xs_j, sd_j, log_sd_j)
            # the walk increments, scaled in place
            walk *= np.where(kinds >= 1, big, step)
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
                for sink in sinks:
                    sink(kept_rows[:t1 - t0])
            elif t1 % _ADAPT_EVERY == 0:
                rate = window_acc / _ADAPT_EVERY
                step = step * np.where(
                    rate > 0.5, 1.6, np.where(rate < 0.3, 1.0 / 1.6, 1.0))
                window_acc[:] = 0.0
    return kept / draws


# --------------------------------------------------------------------------
# Assembled fits
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorSummary:
    means: np.ndarray
    variances: np.ndarray
    quantiles: dict  # level -> per-coordinate array; {} if none were kept
    diagnostics: dict = field(default_factory=dict)
    draws: Optional[np.ndarray] = None  # (coordinate, draw)

    def __post_init__(self):
        if np.any(np.asarray(self.variances) < 0):
            raise InvalidParameterError("variances must be >= 0")
        if self.draws is not None and self.draws.shape[0] != len(self.means):
            raise ShapeError("draws matrix must have one row per coordinate")


def fit_posterior(data, prior, method="quadrature", draws=DEFAULT_DRAWS,
                  burn_in=DEFAULT_BURN_IN, seed=0, tol=DEFAULT_TOL,
                  sinks=None):
    """Per-coordinate posterior summaries for a full data set.

    Fixed scales, a Gaussian tail's included, go through quadrature: each
    active coordinate's mean and variance within `tol`, or a
    `ConvergenceError` naming the coordinate, x, n, log sigma and tail,
    and its quantiles, solved for `_QUANTILE_ROWS` coordinates at a time.
    `diagnostics` reports the method, how many coordinates each
    refinement level accepted and the largest achieved error.  A
    hierarchical prior carries hyperpriors on (tau, alpha), which only
    the Gibbs sampler fits, so it goes to `gibbs_hierarchical_gaussian`
    with `draws`, `burn_in`, `seed` and `sinks`, whatever `method` says.
    A quadrature fit draws nothing, so its sinks receive nothing.

    "quadrature" is the only `method`.  The parameter stays because
    `perfbench/tracing.py` binds it by name; it goes when that binding
    does.

    Coordinates whose log sigma is -inf get mean 0 and variance 0.
    Output is independent of coordinate evaluation order.  Every prior
    rejects `draws` < 1 and `burn_in` < 0, used or not, and a basis its
    scaling rule does not index (`PriorSpec.check_basis`).
    """
    check_chain_lengths(draws, burn_in)
    prior.check_basis(data.basis)
    if prior.scaling.hierarchical:
        return gibbs_hierarchical_gaussian(data, draws=draws, burn_in=burn_in,
                                           seed=seed, sinks=sinks)
    if method != "quadrature":
        raise InvalidParameterError(f"unknown method {method!r}")
    log_s, active = prior.coordinate_scales(data.truncation)
    K = data.truncation
    x = data.observations
    n = data.noise_precision
    means = np.zeros(K)
    variances = np.zeros(K)
    quantiles = np.zeros((len(QUANTILES), K))
    levels = []
    achieved = []
    mixtures = []
    rows = np.flatnonzero(active)
    for j, i in enumerate(rows.tolist()):
        p = UnivariatePosterior(x[i], n, log_s[i], prior.tail)
        try:
            fit = quadrature_mean_var(p, tol=tol, quantiles=())
        except ConvergenceError as exc:
            xi, ni, li = float(x[i]), float(n), float(log_s[i])
            raise ConvergenceError(
                f"{exc} at coordinate {i} (x={xi!r}, n={ni!r}, "
                f"log_sigma={li!r}, tail={prior.tail.name})",
                achieved=exc.achieved, index=i, observation=xi,
                noise_precision=ni, log_scale=li,
                tail=prior.tail.name) from exc
        means[i], variances[i] = fit.mean, fit.var
        mixtures.append(fit.mixture)
        levels.append(fit.level)
        achieved.append(fit.achieved)
        if len(mixtures) == _QUANTILE_ROWS or j == len(rows) - 1:
            quantiles[:, rows[j + 1 - len(mixtures):j + 1]] = \
                mixture_quantiles(mixtures, QUANTILES).T
            mixtures = []
    diagnostics = {
        "method": method,
        "quadrature_levels": {level: levels.count(level)
                              for level in sorted(set(levels))},
        "quadrature_max_achieved": max(achieved, default=0.0),
    }
    return PosteriorSummary(means=means, variances=variances,
                            quantiles=dict(zip(QUANTILES, quantiles)),
                            diagnostics=diagnostics)


def _draw_quantiles(draw_mat):
    """Per-row `QUANTILES` quantiles of draws, {level: array}.

    Rows are taken in `wavelets.row_blocks`, so the copies that
    `np.quantile` makes do not grow with the stack.  Each row is reduced
    on its own, so the results equal the whole-stack call's bit for bit.
    """
    rows, count = draw_mat.shape
    qs = np.empty((len(QUANTILES), rows))
    for block in wavelets.row_blocks(rows, count):
        qs[:, block] = np.quantile(draw_mat[block], QUANTILES, axis=1)
    return dict(zip(QUANTILES, qs))


class _MomentFold:
    """A sink folding per-coordinate means and variances of the batches it
    is handed.

    Each batch becomes (count, mean, sum of squared deviations), and two
    such parts merge by the pairwise update of Chan, Golub & LeVeque
    (1979).  Parts of equal count merge first, as in pairwise summation,
    so rounding grows with the logarithm of the batch count; a merged sum
    of squares adds non-negative terms, so no variance comes out below 0.
    """

    def __init__(self):
        self._parts = []  # counts non-increasing

    def __call__(self, block):
        mean = block.mean(axis=0)
        dev = block - mean
        part = (len(block), mean, np.einsum("ij,ij->j", dev, dev))
        while self._parts and self._parts[-1][0] <= part[0]:
            part = self._merge(self._parts.pop(), part)
        self._parts.append(part)

    @staticmethod
    def _merge(a, b):
        (na, ma, sa), (nb, mb, sb) = a, b
        count = na + nb
        delta = mb - ma
        return (count, ma + delta * (nb / count),
                sa + sb + delta * delta * (na * nb / count))

    def moments(self):
        """(means, variances) of every draw folded so far."""
        part = self._parts[-1]
        for earlier in reversed(self._parts[:-1]):
            part = self._merge(earlier, part)
        count, mean, squares = part
        return mean, squares / count


class DrawStack(NamedTuple):
    """One (data, prior) pair's Metropolis output."""

    draws: Optional[np.ndarray]  # (coordinate, draw); None if fed to sinks
    acceptance: np.ndarray  # per active coordinate


def metropolis_draws(pairs, draws=DEFAULT_DRAWS, burn_in=DEFAULT_BURN_IN,
                     seed=0, sinks=None):
    """One `DrawStack` per (data, prior) pair, sampled in one run.

    The priors must share a tail (not a scaling) and index their data's
    basis.  Coordinates with log sigma > -inf run, across all pairs, as
    one `_metropolis_block`, so each of its batches holds whole draws of
    every pair.  `sinks`, one sequence of sinks per pair, receives each
    batch of that pair's draws as one (draw, coordinate) block whose
    other columns are 0, and the stacks carry no draws.  Without `sinks`
    each pair's draws go to a `DrawMatrix`, whose matrix is its stack's
    `draws`.
    """
    check_chain_lengths(draws, burn_in)
    pairs = list(pairs)
    if not pairs:
        return []
    tail = pairs[0][1].tail
    if any(type(prior.tail) is not type(tail) or vars(prior.tail) != vars(tail)
           for _, prior in pairs):
        raise InvalidParameterError("one Metropolis run needs priors "
                                    "with one tail")
    matrices = [None] * len(pairs)
    if sinks is None:
        matrices = [DrawMatrix(data.truncation, draws) for data, _ in pairs]
        sinks = [[matrix] for matrix in matrices]
    xs, ns, log_s, streams, outlets = [], [], [], [], []
    lo = 0
    for (data, prior), pair_sinks in zip(pairs, sinks):
        prior.check_basis(data.basis)
        ls, active = prior.coordinate_scales(data.truncation)
        act = np.flatnonzero(active)
        xs.append(data.observations[act])
        ns.append(np.full(len(act), data.noise_precision))
        log_s.append(ls[act])
        streams.append(act)
        # a pair with inactive coordinates scatters its chains' columns
        # into a block whose other columns stay 0
        full = None if len(act) == data.truncation else np.zeros(
            (_ADAPT_EVERY, data.truncation))
        outlets.append((slice(lo, lo + len(act)), act, full, pair_sinks))
        lo += len(act)
    xs, ns, log_s, streams = map(np.concatenate, (xs, ns, log_s, streams))

    def scatter(block):
        for chains, act, full, pair_sinks in outlets:
            part = block[:, chains]
            if full is not None:
                full[:len(block), act] = part
                part = full[:len(block)]
            for sink in pair_sinks:
                sink(part)

    if len(xs):
        acc = _metropolis_block(xs, ns, log_s, tail, draws, burn_in, seed,
                                streams, (scatter,))
    else:  # no chain runs: every draw is 0
        acc = np.empty(0)
        for t0 in range(0, draws, _ADAPT_EVERY):
            scatter(np.empty((min(_ADAPT_EVERY, draws - t0), 0)))
    return [DrawStack(None if matrix is None else matrix.draws,
                      acc[chains])
            for matrix, (chains, *_) in zip(matrices, outlets)]


# --------------------------------------------------------------------------
# Hierarchical Gaussian baseline (Gibbs)
# --------------------------------------------------------------------------


# initial random-walk sd of the (log tau, log alpha) move
_GIBBS_PROPOSAL_SD = 0.35


def _gibbs_log_marginal(xx, n, levels, level_of, u, v):
    """log p(x | tau, alpha) + log prior on (u, v) = (log tau, log alpha).

    `xx` is x * x; the scales and variances are formed once for each of
    `levels` and gathered to the coordinates by `level_of`, which gives
    every coordinate the value its own level's expression gives it.
    """
    log_sig = hierarchical_log_scale(u, math.exp(v), levels)
    var = 1.0 / n + np.exp(2.0 * log_sig)
    loglik = -0.5 * np.sum(np.log(2 * math.pi * var)[level_of]
                           + xx / var[level_of])
    # tau ~ Inv-Gamma(1,1) in u = log tau; alpha ~ Exp(1) in v = log alpha
    log_prior = -u - math.exp(-u) + v - math.exp(v)
    return loglik + log_prior


def gibbs_hierarchical_gaussian(data, draws, burn_in, seed, sinks=None):
    """Gibbs sampler for the hierarchical Gaussian wavelet prior.

    Alternates exact conjugate coefficient draws given (tau, alpha) with a
    random-walk Metropolis move on (log tau, log alpha) targeting the
    marginal posterior (coefficients integrated out analytically).
    `fit_posterior`, its one way in, checks the basis and chain lengths.

    Kept draws go in batches of `_ADAPT_EVERY` to every sink in `sinks`,
    each batch one (draw, coordinate) block of a buffer the next batch
    overwrites, and to a `_MomentFold`, which gives the means and
    variances on every path.  Without `sinks` the draws also go to a
    `DrawMatrix`: the summary's `draws`, whose quantiles it carries.
    With `sinks`, the summary carries neither draws nor quantiles.
    """
    K = data.truncation
    x = data.observations
    n = data.noise_precision
    # each step's arithmetic runs on the levels, as floats, and is
    # gathered to the coordinates by their level's position
    flat = coordinate_index(K, level_indexed=True)
    levels = np.arange(flat.min(), flat.max() + 1.0)
    level_of = flat - flat.min()
    xx = x * x
    gen = rng.coord_generator(seed, rng.STREAM_GIBBS, 0)
    u, v = 0.0, 0.0  # tau = 1, alpha = 1
    cur_lp = _gibbs_log_marginal(xx, n, levels, level_of, u, v)
    total = draws + burn_in
    matrix = None
    if sinks is None:
        matrix = DrawMatrix(K, draws)
        sinks = (matrix,)
    moments = _MomentFold()
    sinks = (moments, *sinks)
    batch = np.empty((_ADAPT_EVERY, K))
    hyper = np.empty((draws, 2))
    accepted = 0
    window_acc = 0
    sd = _GIBBS_PROPOSAL_SD
    for t in range(total):
        pu = u + sd * gen.standard_normal()
        pv = v + sd * gen.standard_normal()
        lp = _gibbs_log_marginal(xx, n, levels, level_of, pu, pv)
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
            row = (t - burn_in) % _ADAPT_EVERY
            batch[row] = (x * shrink[level_of] + post_sd[level_of]
                          * gen.standard_normal(K))
            hyper[t - burn_in] = (math.exp(u), alpha)
            if row == _ADAPT_EVERY - 1 or t == total - 1:
                for sink in sinks:
                    sink(batch[:row + 1])
    means, variances = moments.moments()
    diag = {
        "method": "gibbs",
        "acceptance_hyper": accepted / draws,
        "tau_mean": float(hyper[:, 0].mean()),
        "alpha_mean": float(hyper[:, 1].mean()),
    }
    if matrix is None:
        return PosteriorSummary(means=means, variances=variances,
                                quantiles={}, diagnostics=diag)
    return PosteriorSummary(means=means, variances=variances,
                            quantiles=_draw_quantiles(matrix.draws),
                            diagnostics=diag, draws=matrix.draws)


# --------------------------------------------------------------------------
# Credible bands
# --------------------------------------------------------------------------


def credible_band(summary, basis, m=256, level=0.95):
    """Pointwise envelope of the level-fraction of draws closest in L2 to
    their mean curve, on an m-point grid (a wavelet frame's own).

    `summary` needs only `draws`: the centre is their row means, each row
    reduced on its own in `wavelets.row_blocks`, as `mean(axis=1)` does.
    The draws are synthesized once, in `wavelets.row_blocks` at fixed
    offsets, the last holding at least `basis.last_slice_floor` draws (512
    for a cosine/sine product) or all of them.  A pool keeps the
    count - keep curves farthest from the centre seen so far; a curve it
    pushes out is certain to be kept, and goes into the running min/max
    envelope.  At the end the pool holds exactly the excluded draws, and
    no phase has held more than the draw stack, one slice and the pool.
    The values equal the whole-stack expression's bit for bit: every curve
    comes out as one whole-stack synthesis makes it (see
    `basis.last_slice_floor`), each distance is its own row's reduction,
    and min and max are exact in any order.
    """
    if summary.draws is None:
        raise StateError("summary carries no draws")
    if not 0.0 < level <= 1.0:
        raise InvalidParameterError("level must be in (0, 1]")
    draws = summary.draws
    count = draws.shape[1]
    means = np.concatenate([draws[block].mean(axis=1)
                            for block in wavelets.row_blocks(*draws.shape)])
    m = basis_mod.grid_size(basis, m)
    grid = basis_mod.grid(basis, m)
    center = basis_mod.synthesize(means, basis, m)
    drop = count - math.ceil(level * count)
    lower = np.full(m, np.inf)
    upper = np.full(m, -np.inf)
    pool, pool_dist = np.empty((0, m)), np.empty(0)
    for block in wavelets.row_blocks(count, m,
                                     last=basis_mod.last_slice_floor(basis)):
        curves = basis_mod.synthesize(draws[:, block].T, basis, m)
        held = len(pool_dist)
        dist = np.concatenate(
            (pool_dist, np.mean((curves - center[None, :]) ** 2, axis=1)))
        order = np.argsort(dist)
        cut = max(len(order) - drop, 0)
        # sorted, `stay` lists the pool's rows first, as the new pool does
        out, stay = order[:cut], np.sort(order[cut:])
        entering = stay[stay >= held] - held
        _fold(lower, upper, pool[out[out < held]])
        pool = np.concatenate((pool[stay[stay < held]], curves[entering]))
        pool_dist = dist[stay]
        kept = out[out >= held] - held
        if len(kept):
            # a kept curve in place of each one entering the pool leaves
            # the slice's envelope as it is, without copying the slice
            curves[entering] = curves[kept[0]]
            _fold(lower, upper, curves)
    return {"grid": grid, "center": center, "lower": lower, "upper": upper}


def _fold(lower, upper, curves):
    """Widen the envelope (lower, upper) in place to cover curves' rows."""
    if len(curves):
        np.minimum(lower, curves.min(axis=0), out=lower)
        np.maximum(upper, curves.max(axis=0), out=upper)


def band_width(band):
    """Average pointwise width of a credible band."""
    return float(np.mean(band["upper"] - band["lower"]))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def summary_to_csv(summary, double_indexed=False):
    rows = zip(index_rows(len(summary.means), double_indexed), summary.means,
               summary.variances, *(summary.quantiles[q] for q in QUANTILES))
    return csv_text(("index_j", "index_k", "mean", "var",
                     *(f"q{100 * q:02g}" for q in QUANTILES)),
                    ((*jk, *values) for jk, *values in rows))


def diagnostics_text(summary):
    lines = [f"{key} = {value}" for key, value in sorted(summary.diagnostics.items())]
    return "\n".join(lines) + "\n"
