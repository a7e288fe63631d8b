"""Experiment harness: simulation studies reproducing the contraction
behavior of scaled heavy-tailed series priors.

Experiments
  sobolev         cosine-basis smooth truth, OT-scaled heavy priors and the
                  truncated horseshoe, L2 errors and credible bands over
                  n in {1e3, 1e4, 1e5}
  undersmoothing  sine-basis truth (beta ~ 1.75), Student HT(alpha) priors
                  across alpha, showing the undersmoothing penalty
  inhomogeneous   benchmark quartet at SNR 7, heavy wavelet prior vs the
                  hierarchical Gaussian baseline vs hybrid SureShrink,
                  L_p' errors and contraction errors for several p'
  sparse-besov    near-least-favorable single-level truths, truth i paired
                  with noise precision 10^{i+1}; rate elbow across p'
  custom          everything taken from the supplied config: any number of
                  truths, each run over every n

Every experiment runs one protocol.  The run plan (`_groups`) builds each
truth and each (prior, n) once and checks every pairing before any
simulation; truth groups x replications are the work units (`_cell`),
each simulating its group's truth at the group's n values and fitting
every prior there.  The driver averages over replications and fits
log-log slopes wherever a series has two or more n.

All outputs are flat CSV/SVG files and fully determined by the config and
seed: reruns are byte-identical, serial or parallel.
"""

import fnmatch
import itertools
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from . import (metrics, model, posterior, signals, spaces, svgplot,
               thresholding)
from .errors import (InvalidParameterError, real_or_inf, require_bool,
                     require_integer, require_list, require_real)
from .priors import make_prior

EXPERIMENTS = ("sobolev", "undersmoothing", "inhomogeneous", "sparse-besov",
               "custom")

MEAN_ESTIMATE = "mean-estimate"
CONTRACTION = "contraction"
# the order of each (prior, truth, n, p') cell's rows in errors.csv
ERROR_TYPES = (MEAN_ESTIMATE, CONTRACTION)

_REP_SEED_STRIDE = 1_000_003


def _rep_seed(seed, rep):
    return seed + _REP_SEED_STRIDE * rep


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    priors: tuple = ()
    ns: tuple = ()
    p_primes: tuple = ()
    replications: int = 20
    seed: int = 0
    out_dir: str = "results"
    truncation: int = 200
    draws: int = posterior.DEFAULT_DRAWS
    burn_in: int = posterior.DEFAULT_BURN_IN
    quadrature_tol: float = posterior.DEFAULT_TOL
    # None means "use the experiment's default"
    include_contraction: Optional[bool] = None
    include_sureshrink: Optional[bool] = None
    include_bands: Optional[bool] = None
    parallel: int = 1
    truths: tuple = ()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidParameterError(f"unknown experiment {self.experiment!r}")
        # a string or a number where a list goes fails here, not as a list
        # of letters or a bare TypeError
        for name, item in (("priors", str), ("ns", object), ("truths", str),
                           ("p_primes", object)):
            object.__setattr__(self, name,
                               require_list(name, getattr(self, name), item))
        object.__setattr__(self, "p_primes", tuple(
            spaces.check_p_prime(real_or_inf("each of p_primes", p))
            for p in self.p_primes))
        # draws and burn_in: `posterior.check_chain_lengths` below
        for name in ("truncation", "replications", "parallel", "seed"):
            require_integer(name, getattr(self, name))
        for name in ("include_contraction", "include_sureshrink",
                     "include_bands"):
            require_bool(name, getattr(self, name))
        if self.replications < 1:
            raise InvalidParameterError("replications must be >= 1")
        if self.truncation < 1:
            raise InvalidParameterError("truncation must be >= 1")
        posterior.check_chain_lengths(self.draws, self.burn_in)
        if not self.parallel >= 1:
            raise InvalidParameterError("parallel must be >= 1")
        require_real("quadrature_tol", self.quadrature_tol)
        for n in self.ns:
            require_real("each of ns", n)
        # written `not x > 0` so that NaN fails too
        if not self.quadrature_tol > 0:
            raise InvalidParameterError("quadrature_tol must be > 0")
        if any(not n > 0 for n in self.ns):
            raise InvalidParameterError("n values must be > 0")
        if len(self.ns) > 1 and np.any(np.diff(np.asarray(self.ns)) <= 0):
            raise InvalidParameterError("n grid must be strictly increasing")
        # a repeated entry would fit, write and fold its series twice
        for name in ("priors", "p_primes", "truths"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise InvalidParameterError(f"{name} has duplicate entries: "
                                            f"{list(values)}")


def config_from_dict(d):
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    bad = set(d) - known
    if bad:
        raise InvalidParameterError(f"unknown config keys: {sorted(bad)}")
    return ExperimentConfig(**d)


_DEFAULTS = {
    "sobolev": dict(truths=("sobolev-cos",),
                    priors=("student3-ot", "cauchy-ot", "horseshoe-ot",
                            "truncated-hs"),
                    ns=(1e3, 1e4, 1e5), p_primes=(2.0,), include_bands=True),
    "undersmoothing": dict(truths=("sobolev-sine",),
                           priors=("student3-ht-0.75", "student3-ht-1.25",
                                   "student3-ht-1.75", "student3-ht-2.75"),
                           ns=(2e2, 2e3, 2e4), p_primes=(2.0,)),
    "inhomogeneous": dict(truths=signals.QUARTET,
                          priors=("cauchy-wavelet-ot", "gaussian-hierarchical"),
                          ns=(1.0,),
                          p_primes=(1.0, 2.0, 3.0, 4.0, 6.0, math.inf),
                          include_sureshrink=True, include_contraction=True),
    "sparse-besov": dict(priors=("cauchy-wavelet-ot",),
                         ns=(1e2, 1e3, 1e4, 1e5),
                         p_primes=(1.0, 2.0, 3.0, 4.0, 6.0, math.inf),
                         include_sureshrink=True),
}


def resolve_config(config):
    """Fill in experiment-specific defaults for unset list fields."""
    d = _DEFAULTS.get(config.experiment, {})
    updates = {key: d[key] for key in ("truths", "priors", "ns")
               if not getattr(config, key) and key in d}
    if not config.p_primes:
        updates["p_primes"] = d.get("p_primes", (2.0,))
    for flag in ("include_sureshrink", "include_contraction", "include_bands"):
        if getattr(config, flag) is None:
            updates[flag] = bool(d.get(flag, False))
    return replace(config, **updates) if updates else config


@dataclass(frozen=True)
class ErrorRecord:
    experiment: str
    prior: str
    truth: str
    n: float
    p_prime: float
    error_type: str
    mean: float
    se: float
    replications: int

    def __post_init__(self):
        if self.mean < 0:
            raise InvalidParameterError("error values must be >= 0")


def _p_label(p):
    return "inf" if math.isinf(p) else f"{p:g}"


# --------------------------------------------------------------------------
# Truth groups and the replication work unit (top-level, so process
# pools can run it)
# --------------------------------------------------------------------------

class _Group(NamedTuple):
    """One built truth, with the priors built at each of its n values."""

    label: str  # the truth column of errors.csv
    name: str  # the truth's catalogue name, slopes.csv's truth column
    truth: model.TrueSignal
    ns: tuple
    priors: dict  # prior name -> its PriorSpec at each of ns


def band_stem(prior, n):
    """The name, less its extension, of the band files of (prior, n)."""
    return f"bands_{prior}_{n:g}"


def _groups(config):
    """The run plan: the experiment's truth groups, each truth and each
    (prior, n) built once and every pairing checked before any work unit
    runs."""
    if config.experiment == "sparse-besov":
        if config.truths:
            raise InvalidParameterError("sparse-besov takes no truths: it "
                                        "pairs block i with the i-th n")
        plan = [(f"least-favorable-{i}", "least-favorable", i, (n,))
                for i, n in enumerate(config.ns, start=1)]
    elif not config.truths or not config.priors or not config.ns:
        raise InvalidParameterError(
            "custom experiments must set truths, priors and ns")
    else:
        plan = [(name, name, 1, config.ns) for name in config.truths]
    ns = [n for *_, group_ns in plan for n in group_ns]
    stems = [band_stem(prior, n) for prior in config.priors for n in ns]
    if config.include_bands and len(set(stems)) < len(stems):
        raise InvalidParameterError(
            "band files are named by (prior, n), n to 6 significant digits: "
            "a run with bands needs distinct n, distinct at that precision")
    # malformed prior names, priors an n cannot build, unknown truths, blocks
    # with no level in the frame, priors that do not index their truth's
    # basis and then an infinite n, at which no fit converges, fail here
    # rather than in a work unit
    built = {(prior, n): make_prior(prior, n=n)
             for prior in config.priors for n in dict.fromkeys(ns)}
    groups = []
    for label, name, block, group_ns in plan:
        truth = signals.make_truth(name, K=config.truncation,
                                   block_index=block, seed=config.seed)
        if config.include_sureshrink and not truth.basis.double_indexed:
            raise InvalidParameterError("SureShrink needs wavelet truths")
        priors = {prior: [built[prior, n] for n in group_ns]
                  for prior in config.priors}
        for spec in itertools.chain(*priors.values()):
            spec.check_basis(truth.basis)
        groups.append(_Group(label, name, truth, group_ns, priors))
    if math.inf in ns:
        raise InvalidParameterError("n values must be finite")
    return groups


def _cell(args):
    """One replication of one truth group, across the group's n values.

    Returns ({(name, n, error type, p'): error}, {(prior, n): band}), where
    name is a prior or "sureshrink"; contraction errors and bands are left
    out unless wanted.  Each n is simulated once.  A prior's fits come
    from `fit_posterior`, handed the sinks its draws are wanted in: a
    `posterior.DrawMatrix` for a band, a `metrics.ContractionFold` for
    contraction errors.  Fits that draw (the Gibbs baseline) feed those
    sinks themselves; when they received no draws, one `metropolis_draws`
    call across all n feeds them.  So only a band holds a whole draw
    matrix.
    """
    config, group, rep = args
    seed = _rep_seed(config.seed, rep)
    truth = group.truth
    f0 = truth.coefficients
    datas = [model.simulate(truth, n, seed=seed) for n in group.ns]
    errors, bands = {}, {}

    def mean_errors(name, n, estimate):
        for p in config.p_primes:
            errors[(name, n, MEAN_ESTIMATE, p)] = metrics.lp_error(
                estimate, f0, p, truth.basis)

    def fit_prior(name, specs):
        # a function, so that this prior's draws are freed when it returns
        pairs = list(zip(datas, specs))
        matrices = [posterior.DrawMatrix(len(f0), config.draws)
                    if config.include_bands else None for _ in pairs]
        folds = [metrics.ContractionFold(f0, config.p_primes, truth.basis)
                 if config.include_contraction else None for _ in pairs]
        sinks = [[sink for sink in pair if sink is not None]
                 for pair in zip(matrices, folds)]
        for n, (data, prior), pair_sinks in zip(group.ns, pairs, sinks):
            fit = posterior.fit_posterior(
                data, prior, draws=config.draws, burn_in=config.burn_in,
                seed=seed, tol=config.quadrature_tol, sinks=pair_sinks)
            mean_errors(name, n, fit.means)
        if sinks[0] and not sinks[0][0].count:
            posterior.metropolis_draws(pairs, draws=config.draws,
                                       burn_in=config.burn_in, seed=seed,
                                       sinks=sinks)
        for n, matrix, fold in zip(group.ns, matrices, folds):
            if matrix is not None:
                bands[(name, n)] = posterior.credible_band(matrix,
                                                           truth.basis)
            if fold is not None:
                for p, e in fold.errors().items():
                    errors[(name, n, CONTRACTION, p)] = e

    for name, specs in group.priors.items():
        fit_prior(name, specs)
    if config.include_sureshrink:
        for n, data in zip(group.ns, datas):
            mean_errors("sureshrink", n, thresholding.hybrid_sureshrink(
                data.observations, truth.basis.frame, n))
    return errors, bands


def _map(work, fn, parallel):
    if parallel > 1 and len(work) > 1:
        # imported here: `concurrent.futures` and what it loads
        # (`multiprocessing`, `logging`, `socket`) cost every process
        # about 23 ms and 1.9 MB, and only a pool uses them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(fn, work))
    return [fn(w) for w in work]


# --------------------------------------------------------------------------
# Experiment driver
# --------------------------------------------------------------------------


def _aggregate(values):
    a = np.asarray(values, dtype=float)
    se = a.std(ddof=1) / math.sqrt(len(a)) if len(a) > 1 else 0.0
    return float(a.mean()), float(se)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    slopes: list  # (prior, truth, p', error_type, slope, intercept)
    bands: dict = field(default_factory=dict)  # (prior, n) -> band dict
    band_widths: list = field(default_factory=list)
    # (prior, truth name, p', error type) -> [(n, mean error)]: the
    # slopes' points
    series: dict = field(default_factory=dict)


def run_experiment(config):
    """Run an experiment and write its output files; returns the result.

    Every (truth group, replication) pair is one work unit.  Errors are
    averaged over replications per (truth, n, prior or "sureshrink", p',
    error type), and slopes are fitted wherever a (prior, truth name, p',
    error type) series has two or more n; the sparse-besov groups share
    the name least-favorable.  Only mean-estimate series are plotted.
    """
    config = resolve_config(config)
    groups = _groups(config)
    R = config.replications
    results = _map([(config, g, rep) for g in groups for rep in range(R)],
                   _cell, config.parallel)
    names = list(config.priors)
    if config.include_sureshrink:
        names.append("sureshrink")
    result = ExperimentResult(config, [], [])
    for gi, g in enumerate(groups):
        errors, bands = zip(*results[gi * R:(gi + 1) * R])
        for n, name in itertools.product(g.ns, names):
            for p, etype in itertools.product(config.p_primes, ERROR_TYPES):
                key = (name, n, etype, p)
                if key in errors[0]:
                    m, se = _aggregate([e[key] for e in errors])
                    result.records.append(ErrorRecord(
                        config.experiment, name, g.label, n, p, etype, m, se,
                        R))
                    result.series.setdefault(
                        (name, g.name, p, etype), []).append((n, m))
            if (name, n) in bands[0]:
                wm, wse = _aggregate([posterior.band_width(b[(name, n)])
                                      for b in bands])
                result.band_widths.append((name, n, wm, wse, R))
                # replication 0's band, for the figures
                result.bands[(name, n)] = bands[0][(name, n)]
    for (name, label, p, etype), pairs in result.series.items():
        if len(pairs) >= 2:
            slope, intercept = metrics.slope_fit(*zip(*pairs))
            result.slopes.append((name, label, p, etype, slope, intercept))
    write_outputs(result)
    return result


# --------------------------------------------------------------------------
# Output files
# --------------------------------------------------------------------------

# every name `write_outputs` can give a file, as `fnmatch` patterns
OUTPUT_NAMES = ("errors.csv", "slopes.csv", "band_widths.csv", "bands_*.csv",
                "plot_*.svg")


def errors_csv(records):
    return model.csv_text(
        ("experiment", "prior", "truth", "n", "p_prime", "error_type",
         "mean", "se", "replications"),
        ((r.experiment, r.prior, r.truth, r.n, _p_label(r.p_prime),
          r.error_type, r.mean, r.se, r.replications) for r in records))


def slopes_csv(slopes, experiment):
    return model.csv_text(
        ("experiment", "prior", "truth", "p_prime", "error_type", "slope",
         "intercept"),
        ((experiment, name, truth, _p_label(p), etype, slope, intercept)
         for name, truth, p, etype, slope, intercept in slopes))


def band_csv(band, prior, n):
    return model.csv_text(
        ("t", "center", "lower", "upper"),
        zip(band["grid"], band["center"], band["lower"], band["upper"]),
        meta={"prior": prior, "n": n, "width": posterior.band_width(band)})


def band_widths_csv(rows, experiment):
    return model.csv_text(
        ("experiment", "prior", "n", "width_mean", "width_se", "replications"),
        ((experiment, *row) for row in rows))


def _error_plot(result):
    config = result.config
    chart = svgplot.LineChart(
        title=f"{config.experiment}: replication-averaged errors",
        xlabel="n", ylabel="error", logx=True, logy=True)
    several_truths = len({key[1] for key in result.series}) > 1
    for (name, label, p, etype), pts in sorted(result.series.items()):
        pts = sorted(pts)
        if etype != MEAN_ESTIMATE or len(pts) < 2:
            continue
        text = f"{name} {label}" if several_truths else name
        if len(config.p_primes) > 1:
            text += f" p'={_p_label(p)}"
        chart.add_series([x for x, _ in pts], [y for _, y in pts], text)
    return chart.render()


def _band_plot(result, prior, n):
    band = result.bands[(prior, n)]
    chart = svgplot.LineChart(title=f"{prior}, n={n:g}", xlabel="t",
                              ylabel="f(t)")
    chart.add_band(band["grid"], band["lower"], band["upper"])
    chart.add_series(band["grid"], band["center"], label="posterior mean")
    return chart.render()


def write_outputs(result):
    """Write the run's files and remove each other file in out_dir that
    `OUTPUT_NAMES` matches, an earlier run's; nothing else is touched."""
    config = result.config
    files = {"errors.csv": errors_csv(result.records)}
    if result.slopes:
        files["slopes.csv"] = slopes_csv(result.slopes, config.experiment)
        files[f"plot_{config.experiment}_errors.svg"] = _error_plot(result)
    if result.band_widths:
        files["band_widths.csv"] = band_widths_csv(result.band_widths,
                                                   config.experiment)
    for (prior, n), band in result.bands.items():
        stem = band_stem(prior, n)
        files[stem + ".csv"] = band_csv(band, prior, n)
        files[f"plot_{stem}.svg"] = _band_plot(result, prior, n)
    for name, text in files.items():
        model.write_text(os.path.join(config.out_dir, name), text)
    for name in set(os.listdir(config.out_dir)) - set(files):
        path = os.path.join(config.out_dir, name)
        if os.path.isfile(path) and any(fnmatch.fnmatchcase(name, pattern)
                                        for pattern in OUTPUT_NAMES):
            os.remove(path)
