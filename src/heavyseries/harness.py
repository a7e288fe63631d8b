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
                  L_p' errors for several p'
  sparse-besov    near-least-favorable single-level truths, truth i paired
                  with noise precision 10^{i+1}; rate elbow across p'
  custom          everything taken from the supplied config

All outputs are flat CSV/SVG files and fully determined by the config and
seed: reruns are byte-identical.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import basis as basis_mod
from . import metrics, model, posterior, signals, svgplot, thresholding, wavelets
from .errors import InvalidParameterError
from .priors import (
    CAUCHY,
    HORSESHOE,
    ConstantTruncatedScaling,
    GaussianHierarchicalScaling,
    GaussianTail,
    HTScaling,
    OTScaling,
    PriorSpec,
    StudentTail,
    WaveletOTScaling,
    prior_from_config,
)

EXPERIMENTS = ("sobolev", "undersmoothing", "inhomogeneous", "sparse-besov",
               "custom")

MEAN_ESTIMATE = "mean-estimate"
CONTRACTION = "contraction"

_REP_SEED_STRIDE = 1_000_003


def _rep_seed(seed, rep):
    return seed + _REP_SEED_STRIDE * rep


def make_prior(name, n=None):
    """Named prior presets; n-dependent presets need the noise precision."""
    if name == "student3-ot":
        return PriorSpec(StudentTail(3.0), OTScaling(0.5), label=name)
    if name == "cauchy-ot":
        return PriorSpec(CAUCHY, OTScaling(0.5), label=name)
    if name == "horseshoe-ot":
        return PriorSpec(HORSESHOE, OTScaling(0.5), label=name)
    if name == "truncated-hs":
        if n is None:
            raise InvalidParameterError("truncated-hs needs the precision n")
        k_trunc = max(1, int(round(n)))
        return PriorSpec(HORSESHOE, ConstantTruncatedScaling(1.0 / n, k_trunc),
                         label=name)
    if name.startswith("student3-ht-"):
        alpha = float(name.rsplit("-", 1)[1])
        return PriorSpec(StudentTail(3.0), HTScaling(alpha), label=name)
    if name == "cauchy-wavelet-ot":
        return PriorSpec(CAUCHY, WaveletOTScaling(0.5), "double", label=name)
    if name == "gaussian-hierarchical":
        return PriorSpec(GaussianTail(), GaussianHierarchicalScaling(),
                         "double", label=name)
    raise InvalidParameterError(f"unknown prior preset {name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    priors: tuple = ()
    ns: tuple = ()
    p_primes: tuple = (2.0,)
    replications: int = 20
    seed: int = 0
    out_dir: str = "results"
    truncation: int = 200
    draws: int = 4000
    burn_in: int = 2000
    quadrature_tol: float = 1e-6
    # None means "use the experiment's default"
    include_contraction: Optional[bool] = None
    include_sureshrink: Optional[bool] = None
    include_bands: Optional[bool] = None
    parallel: int = 1
    truths: tuple = ()  # custom experiments
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidParameterError(f"unknown experiment {self.experiment!r}")
        if self.replications < 1:
            raise InvalidParameterError("replications must be >= 1")
        if self.draws < 1:
            raise InvalidParameterError("draws must be >= 1")
        if self.burn_in < 0:
            raise InvalidParameterError("burn_in must be >= 0")
        if len(self.ns) > 1 and np.any(np.diff(np.asarray(self.ns)) <= 0):
            raise InvalidParameterError("n grid must be strictly increasing")
        for p in self.p_primes:
            if not (p >= 1):
                raise InvalidParameterError("p' values must be in [1, inf]")


def config_from_dict(d):
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    bad = set(d) - known
    if bad:
        raise InvalidParameterError(f"unknown config keys: {sorted(bad)}")
    d = dict(d)
    for key in ("priors", "ns", "truths"):
        if key in d:
            d[key] = tuple(d[key])
    if "p_primes" in d:
        d["p_primes"] = tuple(math.inf if p in ("inf", "Infinity") else float(p)
                              for p in d["p_primes"])
    return ExperimentConfig(**d)


_DEFAULTS = {
    "sobolev": dict(priors=("student3-ot", "cauchy-ot", "horseshoe-ot",
                            "truncated-hs"),
                    ns=(1e3, 1e4, 1e5), p_primes=(2.0,), include_bands=True),
    "undersmoothing": dict(priors=("student3-ht-0.75", "student3-ht-1.25",
                                   "student3-ht-1.75", "student3-ht-2.75"),
                           ns=(2e2, 2e3, 2e4), p_primes=(2.0,)),
    "inhomogeneous": dict(priors=("cauchy-wavelet-ot", "gaussian-hierarchical"),
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
    updates = {}
    if not config.priors and "priors" in d:
        updates["priors"] = d["priors"]
    if not config.ns and "ns" in d:
        updates["ns"] = d["ns"]
    if config.p_primes == (2.0,) and "p_primes" in d:
        updates["p_primes"] = d["p_primes"]
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
# Replication work units (top-level functions so process pools can run them)
# --------------------------------------------------------------------------


def _single_index_cell(args):
    """One replication of a single-index experiment, across all n.

    Returns ({(prior, n): {p': error}}, {(prior, n): band width},
    {(prior, n): band}); the two band dicts are empty unless bands are
    wanted.  The experiment keeps replication 0's bands for the figures,
    so no fit is repeated for them.  Each prior's Metropolis fits for all
    n run as one sampler call.
    """
    (truth_name, truncation, ns, prior_names, p_primes, rep_seed, tol,
     want_bands, draws, burn_in) = args
    truth = signals.make_truth(truth_name, K=truncation)
    datas = [model.simulate(truth, n, truncation, seed=rep_seed) for n in ns]
    f0 = model.padded_coefficients(truth, truncation)
    out = {}
    for n, data in zip(ns, datas):
        for name in prior_names:
            summary = posterior.fit_posterior(data, make_prior(name, n=n),
                                              method="quadrature", tol=tol,
                                              seed=rep_seed)
            out[(name, n)] = {p: metrics.lp_error(summary.means, f0, p,
                                                  truth.basis)
                              for p in p_primes}
    widths = {}
    bands = {}
    if want_bands:
        for name in prior_names:
            fits = posterior.fit_metropolis(
                [(data, make_prior(name, n=n)) for n, data in zip(ns, datas)],
                draws=draws, burn_in=burn_in, seed=rep_seed)
            prior_bands = [posterior.credible_band(msum, truth.basis)
                           for msum in fits]
            del fits  # free this prior's draws before the next prior's fit
            for n, band in zip(ns, prior_bands):
                bands[(name, n)] = band
                widths[(name, n)] = posterior.band_width(band)
    return out, widths, bands


def _wavelet_cell(args):
    """One (truth, replication) cell of a wavelet experiment."""
    (truth_name, truth_kwargs, frame_args, n, prior_names, p_primes, rep_seed,
     tol, want_contraction, want_sureshrink, draws, burn_in) = args
    frame = wavelets.WaveletFrame(*frame_args)
    truth = signals.make_truth(truth_name, frame=frame, **truth_kwargs)
    data = model.simulate(truth, n, frame.signal_length, seed=rep_seed)
    f0 = truth.coefficients
    wav_basis = truth.basis
    mean_err = {}
    contraction = {}
    for name in prior_names:
        prior = make_prior(name, n=n)
        if isinstance(prior.tail, GaussianTail):
            summary = posterior.gibbs_hierarchical_gaussian(
                data, draws=draws, burn_in=burn_in, seed=rep_seed)
            draw_mat = summary.draws
        else:
            summary = posterior.fit_posterior(data, prior, method="quadrature",
                                              tol=tol, seed=rep_seed)
            draw_mat = None
            if want_contraction:
                draw_mat = posterior.fit_posterior(
                    data, prior, method="metropolis", draws=draws,
                    burn_in=burn_in, seed=rep_seed).draws
        mean_err[name] = {p: metrics.lp_error(summary.means, f0, p, wav_basis)
                          for p in p_primes}
        if want_contraction and draw_mat is not None:
            contraction[name] = metrics.contraction_errors(
                draw_mat, f0, p_primes, wav_basis)
        # free this prior's draw stack before the next prior's fit
        del summary, draw_mat
    if want_sureshrink:
        est = thresholding.hybrid_sureshrink(data.observations, frame, n)
        mean_err["sureshrink"] = {p: metrics.lp_error(est, f0, p, wav_basis)
                                  for p in p_primes}
    return mean_err, contraction


def _map(work, fn, parallel):
    if parallel > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(fn, work))
    return [fn(w) for w in work]


# --------------------------------------------------------------------------
# Experiment drivers
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


def _single_index_experiment(config, truth_name):
    R = config.replications
    records = []
    slopes = []
    bands = {}
    band_widths = []
    per_n_error = {}
    work = [(truth_name, config.truncation, config.ns, config.priors,
             config.p_primes, _rep_seed(config.seed, rep),
             config.quadrature_tol, config.include_bands, config.draws,
             config.burn_in)
            for rep in range(R)]
    results = _map(work, _single_index_cell, config.parallel)
    for n in config.ns:
        for name in config.priors:
            for p in config.p_primes:
                vals = [res[0][(name, n)][p] for res in results]
                m, se = _aggregate(vals)
                records.append(ErrorRecord(config.experiment, name, truth_name,
                                           n, p, MEAN_ESTIMATE, m, se, R))
                per_n_error.setdefault((name, p), []).append((n, m))
            if config.include_bands:
                wvals = [res[1][(name, n)] for res in results]
                wm, wse = _aggregate(wvals)
                band_widths.append((name, n, wm, wse, R))
                # envelope of the first replication, for the figures
                bands[(name, n)] = results[0][2][(name, n)]
    for (name, p), pairs in per_n_error.items():
        if len(pairs) >= 2:
            ns, errs = zip(*pairs)
            slope, intercept = metrics.slope_fit(ns, errs)
            slopes.append((name, truth_name, p, MEAN_ESTIMATE, slope, intercept))
    return ExperimentResult(config, records, slopes, bands, band_widths)


_QUARTET_FRAME = ("symmlet-8", 2048, 5)
_SPARSE_FRAME = ("symmlet-8", 2048, 2)


def _inhomogeneous_experiment(config):
    R = config.replications
    records = []
    n = config.ns[0]
    truth_names = config.truths or signals.QUARTET
    for truth_name in truth_names:
        work = [(truth_name, {}, _QUARTET_FRAME, n, config.priors,
                 config.p_primes, _rep_seed(config.seed, rep),
                 config.quadrature_tol, config.include_contraction,
                 config.include_sureshrink, config.draws, config.burn_in)
                for rep in range(R)]
        results = _map(work, _wavelet_cell, config.parallel)
        prior_names = list(config.priors)
        if config.include_sureshrink:
            prior_names.append("sureshrink")
        for name in prior_names:
            for p in config.p_primes:
                m, se = _aggregate([res[0][name][p] for res in results])
                records.append(ErrorRecord(config.experiment, name, truth_name,
                                           n, p, MEAN_ESTIMATE, m, se, R))
                if config.include_contraction and name in results[0][1]:
                    cm, cse = _aggregate([res[1][name][p] for res in results])
                    records.append(ErrorRecord(config.experiment, name,
                                               truth_name, n, p, CONTRACTION,
                                               cm, cse, R))
    return ExperimentResult(config, records, [])


def _sparse_besov_experiment(config):
    R = config.replications
    records = []
    per_p_error = {}
    for i, n in enumerate(config.ns, start=1):
        truth_name = "least-favorable"
        work = [(truth_name, {"block_index": i, "seed": config.seed},
                 _SPARSE_FRAME, n, config.priors, config.p_primes,
                 _rep_seed(config.seed, rep), config.quadrature_tol, False,
                 config.include_sureshrink, config.draws, config.burn_in)
                for rep in range(R)]
        results = _map(work, _wavelet_cell, config.parallel)
        prior_names = list(config.priors)
        if config.include_sureshrink:
            prior_names.append("sureshrink")
        for name in prior_names:
            for p in config.p_primes:
                m, se = _aggregate([res[0][name][p] for res in results])
                records.append(ErrorRecord(config.experiment, name,
                                           f"least-favorable-{i}", n, p,
                                           MEAN_ESTIMATE, m, se, R))
                per_p_error.setdefault((name, p), []).append((n, m))
    slopes = []
    for (name, p), pairs in per_p_error.items():
        if len(pairs) >= 2:
            ns, errs = zip(*pairs)
            slope, intercept = metrics.slope_fit(ns, errs)
            slopes.append((name, "least-favorable", p, MEAN_ESTIMATE, slope,
                           intercept))
    return ExperimentResult(config, records, slopes)


def _custom_experiment(config):
    truth_names = config.truths
    if not truth_names or not config.priors or not config.ns:
        raise InvalidParameterError(
            "custom experiments must set truths, priors and ns")
    wavelet_truths = set(signals.QUARTET) | {"least-favorable"}
    if all(t in wavelet_truths for t in truth_names):
        records = []
        for truth_name in truth_names:
            for n in config.ns:
                kwargs = {"block_index": 1, "seed": config.seed} \
                    if truth_name == "least-favorable" else {}
                work = [(truth_name, kwargs, _QUARTET_FRAME, n, config.priors,
                         config.p_primes, _rep_seed(config.seed, rep),
                         config.quadrature_tol, config.include_contraction,
                         config.include_sureshrink, config.draws,
                         config.burn_in)
                        for rep in range(config.replications)]
                results = _map(work, _wavelet_cell, config.parallel)
                prior_names = list(config.priors)
                if config.include_sureshrink:
                    prior_names.append("sureshrink")
                for name in prior_names:
                    for p in config.p_primes:
                        m, se = _aggregate([r[0][name][p] for r in results])
                        records.append(ErrorRecord(
                            config.experiment, name, truth_name, n, p,
                            MEAN_ESTIMATE, m, se, config.replications))
        return ExperimentResult(config, records, [])
    if all(t in ("sobolev-cos", "sobolev-sine") for t in truth_names):
        if len(truth_names) != 1:
            raise InvalidParameterError(
                "custom single-index experiments take one truth")
        return _single_index_experiment(config, truth_names[0])
    raise InvalidParameterError("custom truths must be all-wavelet or one "
                                "single-index truth")


def run_experiment(config):
    """Run an experiment and write its output files; returns the result."""
    config = resolve_config(config)
    if config.experiment == "sobolev":
        result = _single_index_experiment(config, "sobolev-cos")
    elif config.experiment == "undersmoothing":
        result = _single_index_experiment(config, "sobolev-sine")
    elif config.experiment == "inhomogeneous":
        result = _inhomogeneous_experiment(config)
    elif config.experiment == "sparse-besov":
        result = _sparse_besov_experiment(config)
    else:
        result = _custom_experiment(config)
    write_outputs(result)
    return result


# --------------------------------------------------------------------------
# Output files
# --------------------------------------------------------------------------


def errors_csv(records):
    lines = ["experiment,prior,truth,n,p_prime,error_type,mean,se,replications"]
    for r in records:
        lines.append(f"{r.experiment},{r.prior},{r.truth},{r.n!r},"
                     f"{_p_label(r.p_prime)},{r.error_type},{r.mean!r},"
                     f"{r.se!r},{r.replications}")
    return "\n".join(lines) + "\n"


def slopes_csv(slopes, experiment):
    lines = ["experiment,prior,truth,p_prime,error_type,slope,intercept"]
    for name, truth, p, etype, slope, intercept in slopes:
        lines.append(f"{experiment},{name},{truth},{_p_label(p)},{etype},"
                     f"{slope!r},{intercept!r}")
    return "\n".join(lines) + "\n"


def band_csv(band, prior, n):
    lines = [f"# prior={prior} n={n!r} width={posterior.band_width(band)!r}",
             "t,center,lower,upper"]
    for t, c, lo, hi in zip(band["grid"], band["center"], band["lower"],
                            band["upper"]):
        lines.append(f"{float(t)!r},{float(c)!r},{float(lo)!r},{float(hi)!r}")
    return "\n".join(lines) + "\n"


def band_widths_csv(rows, experiment):
    lines = ["experiment,prior,n,width_mean,width_se,replications"]
    for name, n, wm, wse, reps in rows:
        lines.append(f"{experiment},{name},{n!r},{wm!r},{wse!r},{reps}")
    return "\n".join(lines) + "\n"


def _error_plot(result):
    config = result.config
    chart = svgplot.LineChart(
        title=f"{config.experiment}: replication-averaged errors",
        xlabel="n", ylabel="error", logx=True, logy=True)
    series = {}
    for r in result.records:
        if r.error_type != MEAN_ESTIMATE:
            continue
        key = (r.prior, r.p_prime)
        series.setdefault(key, []).append((r.n, r.mean))
    for (name, p), pts in sorted(series.items()):
        pts = sorted(pts)
        if len(pts) < 2:
            continue
        label = name if len(config.p_primes) == 1 else f"{name} p'={_p_label(p)}"
        chart.add_series([x for x, _ in pts], [y for _, y in pts], label)
    return chart.render()


def _band_plot(result, prior, n):
    band = result.bands[(prior, n)]
    chart = svgplot.LineChart(title=f"{prior}, n={n:g}", xlabel="t",
                              ylabel="f(t)")
    chart.add_band(band["grid"], band["lower"], band["upper"])
    chart.add_series(band["grid"], band["center"], label="posterior mean")
    return chart.render()


def write_outputs(result):
    config = result.config
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "errors.csv"), "w") as fh:
        fh.write(errors_csv(result.records))
    if result.slopes:
        with open(os.path.join(out, "slopes.csv"), "w") as fh:
            fh.write(slopes_csv(result.slopes, config.experiment))
    if result.band_widths:
        with open(os.path.join(out, "band_widths.csv"), "w") as fh:
            fh.write(band_widths_csv(result.band_widths, config.experiment))
    for (prior, n), band in result.bands.items():
        stem = f"bands_{prior}_{n:g}"
        with open(os.path.join(out, stem + ".csv"), "w") as fh:
            fh.write(band_csv(band, prior, n))
        with open(os.path.join(out, f"plot_{stem}.svg"), "w") as fh:
            fh.write(_band_plot(result, prior, n))
    plottable = {r.n for r in result.records if r.error_type == MEAN_ESTIMATE}
    if len(plottable) >= 2:
        with open(os.path.join(out, f"plot_{config.experiment}_errors.svg"),
                  "w") as fh:
            fh.write(_error_plot(result))
