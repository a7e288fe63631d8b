"""Command-line front end.

Subcommands
  simulate    draw a synthetic data set from a named truth, emit CSV
  fit         simulate (or load) data and fit a posterior, emit summaries
  rates       tabulate minimax exponents for (s, p, q, p') combinations
  signals     emit a truth as coefficient and/or sample CSV
  experiment  run a named experiment end to end, write its output files
  report      summarize the errors.csv of a finished experiment directory

Configs are JSON files; command-line flags override config values.  Exit
codes: 0 on success, 2 on configuration errors, 3 when the numerical
posterior fails to converge.
"""

import argparse
import json
import math
import os
import sys

from . import harness, metrics, model, posterior, signals, spaces, wavelets
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


def _merged_config(args, defaults=None):
    cfg = dict(defaults or {})
    if getattr(args, "config", None):
        cfg.update(_load_config(args.config))
    return cfg


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _make_frame(cfg):
    return wavelets.WaveletFrame(
        cfg.get("filter_name", "symmlet-8"),
        int(cfg.get("signal_length", 2048)),
        int(cfg.get("coarse_level", 5)),
    )


def _make_truth(cfg):
    name = cfg.get("truth", "sobolev-cos")
    kwargs = {}
    if name in ("sobolev-cos", "sobolev-sine"):
        kwargs["K"] = int(cfg.get("truncation", 200))
        return signals.make_truth(name, **kwargs)
    frame = _make_frame(cfg)
    if name == "least-favorable":
        kwargs["block_index"] = int(cfg.get("block_index", 1))
        kwargs["seed"] = int(cfg.get("truth_seed", 0))
        if "amplitude" in cfg:
            kwargs["amplitude"] = float(cfg["amplitude"])
    elif "snr" in cfg:
        kwargs["snr"] = float(cfg["snr"])
    return signals.make_truth(name, frame=frame, **kwargs)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_simulate(args):
    cfg = _merged_config(args)
    if args.seed is not None:
        cfg["seed"] = args.seed
    truth = _make_truth(cfg)
    n = float(cfg.get("n", 100.0))
    K = int(cfg.get("truncation", len(truth.coefficients)))
    if truth.basis.double_indexed:
        K = truth.basis.frame.signal_length
    data = model.simulate(truth, n, K, seed=int(cfg.get("seed", 0)))
    _write(args.out, model.data_to_csv(data))
    return EXIT_OK


def _cmd_fit(args):
    cfg = _merged_config(args)
    if args.seed is not None:
        cfg["seed"] = args.seed
    seed = int(cfg.get("seed", 0))
    truth = _make_truth(cfg)
    n = float(cfg.get("n", 100.0))
    K = int(cfg.get("truncation", len(truth.coefficients)))
    if truth.basis.double_indexed:
        K = truth.basis.frame.signal_length
    data = model.simulate(truth, n, K, seed=seed)
    prior = harness.make_prior(cfg.get("prior", "cauchy-ot"), n=n)
    summary = posterior.fit_posterior(
        data, prior, method=cfg.get("method", "quadrature"),
        draws=int(cfg.get("draws", 4000)),
        burn_in=int(cfg.get("burn_in", 2000)), seed=seed,
        tol=float(cfg.get("quadrature_tol", 1e-6)))
    text = posterior.summary_to_csv(summary, data.double_indexed)
    text += "# " + posterior.diagnostics_text(summary).replace("\n", "\n# ").rstrip("# ")
    _write(args.out, text)
    return EXIT_OK


def _parse_float(v):
    if v in ("inf", "Infinity"):
        return math.inf
    return float(v)


def _cmd_rates(args):
    cfg = _merged_config(args)
    combos = cfg.get("rates")
    if combos is None:
        if args.s is None or args.p is None or args.p_prime is None:
            raise InvalidParameterError(
                "rates needs either a config with a 'rates' list or "
                "--s/--p/--p-prime flags")
        combos = [{"s": args.s, "p": args.p, "q": args.q,
                   "p_prime": args.p_prime}]
    lines = ["s,p,q,p_prime,eta,s_eff,r,zone"]
    for c in combos:
        spec = spaces.resolve_rate(
            _parse_float(c["s"]), _parse_float(c["p"]),
            _parse_float(c["p_prime"]), q=_parse_float(c.get("q", math.inf)))
        lines.append(f"{spec.s!r},{spec.p!r},{spec.q!r},{spec.p_prime!r},"
                     f"{spec.eta!r},{spec.s_eff!r},{spec.exponent!r},"
                     f"{spec.zone}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_signals(args):
    cfg = _merged_config(args)
    truth = _make_truth(cfg)
    what = cfg.get("emit", args.emit)
    out = []
    if what in ("coefficients", "both"):
        out.append(model.coefficients_to_csv(
            truth.coefficients, truth.basis.double_indexed,
            header=f"truth={cfg.get('truth', 'sobolev-cos')} kind=coefficients"))
    if what in ("samples", "both"):
        default_m = (truth.basis.frame.signal_length
                     if truth.basis.double_indexed else metrics.DEFAULT_GRID)
        m = int(cfg.get("grid_points", default_m))
        values = model.synthesize(truth.coefficients, truth.basis, m)
        rows = [f"# truth={cfg.get('truth', 'sobolev-cos')} kind=samples",
                "t,value"]
        for i, v in enumerate(values):
            rows.append(f"{(i + 1) / len(values)!r},{float(v)!r}")
        out.append("\n".join(rows) + "\n")
    _write(args.out, "".join(out))
    return EXIT_OK


def _cmd_experiment(args):
    cfg = _merged_config(args, {"experiment": args.id})
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
    path = os.path.join(args.out or "results", "errors.csv")
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path!r}: {exc}")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
    by_key = {}
    for r in rows:
        key = (r["prior"], r["truth"], r["p_prime"], r["error_type"])
        by_key.setdefault(key, []).append((float(r["n"]), float(r["mean"])))
    out = ["prior,truth,p_prime,error_type,n_points,slope"]
    for (prior, truth, p, etype), pairs in sorted(by_key.items()):
        pairs.sort()
        slope = ""
        if len(pairs) >= 2 and all(e > 0 for _, e in pairs):
            slope = repr(metrics.slope_fit(*zip(*pairs))[0])
        out.append(f"{prior},{truth},{p},{etype},{len(pairs)},{slope}")
    _write(None, "\n".join(out) + "\n")
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
    p.add_argument("--q", type=float, default=math.inf)
    p.add_argument("--p-prime", dest="p_prime", default=None)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("signals", help="emit a truth as CSV")
    common(p, "-")
    p.add_argument("--emit", choices=("coefficients", "samples", "both"),
                   default="coefficients")
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
