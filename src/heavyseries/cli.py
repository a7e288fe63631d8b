"""Command-line front end.

Subcommands
  simulate    draw a synthetic data set from a named truth, emit CSV
  fit         simulate data and fit a posterior, emit summaries
  rates       tabulate minimax exponents for (s, p, q, p') combinations
  signals     emit a truth as coefficient and/or sample CSV
  experiment  run a named experiment end to end, write its output files
  report      print the slopes a finished experiment fitted

Configs are JSON files; command-line flags override config values.
simulate, fit and signals share one set of config keys and reject any
other key, as experiment does.  Exit
codes: 0 on success, 2 on configuration errors, 3 when the numerical
posterior fails to converge.
"""

import argparse
import json
import math
import os
import sys

from . import (basis, harness, metrics, model, posterior, priors, signals,
               spaces, wavelets)
from .errors import ConvergenceError, HeavySeriesError, InvalidParameterError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidParameterError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"config {path!r} is not valid JSON: {exc}")


def _merged_config(args):
    return dict(_load_config(args.config)) if args.config else {}


# Config keys the simulate, fit and signals subcommands read.  They share
# one set, so a config written for one of them is valid for the others.
_DATA_KEYS = frozenset({
    "truth", "truncation", "filter_name", "signal_length", "coarse_level",
    "block_index", "truth_seed", "amplitude", "snr", "n", "seed", "prior",
    "draws", "burn_in", "quadrature_tol", "emit", "grid_points"})


def _data_config(args):
    cfg = _merged_config(args)
    bad = set(cfg) - _DATA_KEYS
    if bad:
        raise InvalidParameterError(f"unknown config keys: {sorted(bad)}")
    return cfg


def _count(cfg, key, default):
    """The config's integer `key`, `default` when it is absent."""
    return harness.require_integer(key, cfg.get(key, default))


def _real(cfg, key, default=None):
    """The config's real `key` as a float, `default` when it is absent."""
    return float(harness.require_real(key, cfg.get(key, default)))


_FRAME_KEYS = ("filter_name", "signal_length", "coarse_level")
_EMITS = ("coefficients", "samples", "both")


def _make_truth(cfg):
    """The config's truth; frame settings default to the truth's own, and
    a single-index truth, which has no frame, rejects them."""
    name = cfg.get("truth", "sobolev-cos")
    default = signals.default_frame(name)
    frame = None
    if default is None:
        given = [key for key in _FRAME_KEYS if key in cfg]
        if given:
            raise InvalidParameterError(
                f"truth {name!r} is single-index and takes no wavelet frame "
                f"settings: {given}")
    else:
        filter_name, signal_length, coarse_level = default
        frame = wavelets.WaveletFrame(
            cfg.get("filter_name", filter_name),
            _count(cfg, "signal_length", signal_length),
            _count(cfg, "coarse_level", coarse_level),
        )
    options = {key: _real(cfg, key) for key in ("amplitude", "snr")
               if key in cfg}
    return signals.make_truth(name, frame, K=_count(cfg, "truncation", 200),
                              block_index=_count(cfg, "block_index", 1),
                              seed=_count(cfg, "truth_seed", 0), **options)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _simulated_data(args):
    """(config, data) of the simulate and fit subcommands."""
    cfg = _data_config(args)
    if args.seed is not None:
        cfg["seed"] = args.seed
    truth = _make_truth(cfg)
    data = model.simulate(truth, _real(cfg, "n", 100.0),
                          seed=_count(cfg, "seed", 0))
    return cfg, data


def _cmd_simulate(args):
    _, data = _simulated_data(args)
    model.write_text(args.out, model.data_to_csv(data))
    return EXIT_OK


def _cmd_fit(args):
    cfg, data = _simulated_data(args)
    name = cfg.get("prior", "cauchy-wavelet-ot" if data.basis.double_indexed
                   else "cauchy-ot")
    if not isinstance(name, str):
        raise InvalidParameterError(f"prior must be a string, not {name!r}")
    prior = priors.make_prior(name, n=data.noise_precision)
    summary = posterior.fit_posterior(
        data, prior, draws=_count(cfg, "draws", posterior.DEFAULT_DRAWS),
        burn_in=_count(cfg, "burn_in", posterior.DEFAULT_BURN_IN),
        seed=data.seed,
        tol=_real(cfg, "quadrature_tol", posterior.DEFAULT_TOL))
    text = posterior.summary_to_csv(summary, data.basis.double_indexed)
    text += "# " + posterior.diagnostics_text(summary).replace("\n", "\n# ").rstrip("# ")
    model.write_text(args.out, text)
    return EXIT_OK


def _cmd_rates(args):
    cfg = _merged_config(args)
    flags = (args.s, args.p, args.p_prime)
    combos = cfg.get("rates")
    if combos is None or (*flags, args.q) != (None,) * 4:
        if None in flags:
            raise InvalidParameterError(
                "rates needs all of --s/--p/--p-prime, or a config with "
                "a 'rates' list and none of them")
        combos = [{"s": args.s, "p": args.p, "p_prime": args.p_prime,
                   "q": math.inf if args.q is None else args.q}]
    # a config may spell an infinite p, q or p' "inf", as JSON has no
    # literal for it
    specs = [spaces.resolve_rate(*(float(harness.real_or_inf(key, c[key]))
                                   for key in ("s", "p", "p_prime")),
                                 q=float(harness.real_or_inf(
                                     "q", c.get("q", math.inf))))
             for c in harness.require_list("rates", combos, dict)]
    model.write_text(args.out, model.csv_text(
        ("s", "p", "q", "p_prime", "eta", "s_eff", "r", "zone"),
        ((spec.s, spec.p, spec.q, spec.p_prime, spec.eta, spec.s_eff,
          spec.exponent, spec.zone) for spec in specs)))
    return EXIT_OK


def _cmd_signals(args):
    cfg = _data_config(args)
    truth = _make_truth(cfg)
    name = cfg.get("truth", "sobolev-cos")
    what = args.emit or cfg.get("emit", "coefficients")
    if what not in _EMITS:
        raise InvalidParameterError(
            f"emit must be one of {', '.join(_EMITS)}, not {what!r}")
    out = []
    if what in ("coefficients", "both"):
        out.append(model.coefficients_to_csv(
            truth.coefficients, truth.basis.double_indexed,
            meta={"truth": name, "kind": "coefficients"}))
    if what in ("samples", "both"):
        m = _count(cfg, "grid_points",
                   basis.grid_size(truth.basis, metrics.DEFAULT_GRID))
        values = basis.synthesize(truth.coefficients, truth.basis, m)
        out.append(model.csv_text(("t", "value"),
                                  zip(basis.grid(truth.basis, m), values),
                                  meta={"truth": name, "kind": "samples"}))
    model.write_text(args.out, "".join(out))
    return EXIT_OK


def _cmd_experiment(args):
    cfg = _merged_config(args)
    cfg["experiment"] = args.id
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.replications is not None:
        cfg["replications"] = args.replications
    if args.parallel is not None:
        cfg["parallel"] = args.parallel
    if args.out is not None:
        cfg["out_dir"] = args.out
    config = harness.config_from_dict(cfg)
    harness.run_experiment(config)
    return EXIT_OK


def _cmd_report(args):
    """Print the slopes.csv rows of an experiment, without the experiment
    and intercept columns; with one n per series there are none."""
    out_dir = args.out or "results"
    if not os.path.isfile(os.path.join(out_dir, "errors.csv")):
        raise InvalidParameterError(
            f"{out_dir!r} holds no finished experiment (no errors.csv)")
    rows = []
    path = os.path.join(out_dir, "slopes.csv")
    if os.path.exists(path):
        with open(path) as fh:
            rows = [line.split(",")[1:6]
                    for line in fh.read().splitlines()[1:]]
    model.write_text(None, model.csv_text(
        ("prior", "truth", "p_prime", "error_type", "slope"), rows))
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heavyseries",
        description="Simulation experiments for scaled heavy-tailed series "
                    "priors in the normal sequence model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=out_default,
                       help="output file or directory ('-' for stdout)")

    p = sub.add_parser("simulate", help="draw synthetic sequence data")
    common(p, "-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a posterior to simulated data")
    common(p, "-")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("rates", help="tabulate minimax exponents")
    common(p, "-")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--p-prime", dest="p_prime", type=float, default=None)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("signals", help="emit a truth as CSV")
    common(p, "-")
    p.add_argument("--emit", choices=_EMITS)
    p.set_defaults(func=_cmd_signals)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("id", choices=harness.EXPERIMENTS)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--parallel", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="summarize a finished experiment")
    p.add_argument("--out", default="results", help="experiment directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except HeavySeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
