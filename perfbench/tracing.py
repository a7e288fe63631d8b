"""In-memory span tracer around heavyseries' module entry points.

`Tracer` replaces module attributes (and the tails' `log_density*`
methods) with wrappers for as long as it is entered; the library reaches
every wrapped function through a module attribute, so no library file
changes.  A span records name, start, end and the index of the span that
was open when it began.  A layer's self time is its spans' durations minus
the time their direct child spans cover; as the benchmark is one thread,
children never overlap, and the self times of all spans sum to the root
span (`harness.run_experiment`).

Counters are kept at the same boundaries: `priors.log_density` counts only
the outermost `log_density*` call (one evaluation the engine asked for),
and fits are keyed on their inputs to count repeated work.
"""

import collections
import functools
import hashlib
import inspect
import json
import os
import time

# (module name, attribute, span name)
SPANS = (
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "write_outputs", "harness.write_outputs"),
    ("signals", "make_truth", "signals.make_truth"),
    ("model", "simulate", "model.simulate"),
    ("rng", "coord_generator", "rng.coord_generator"),
    ("posterior", "fit_posterior", "posterior.fit"),
    ("posterior", "gibbs_hierarchical_gaussian", "posterior.gibbs"),
    ("posterior", "quadrature_mean_var", "posterior.quadrature"),
    ("posterior", "_metropolis_block", "posterior.metropolis"),
    ("posterior", "credible_band", "posterior.credible_band"),
    ("wavelets", "synthesize", "wavelets.synthesize"),
    ("wavelets", "analyze", "wavelets.analyze"),
    ("metrics", "contraction_errors", "metrics.contraction_errors"),
    ("metrics", "lp_error", "metrics.lp_error"),
    ("thresholding", "hybrid_sureshrink", "thresholding.hybrid_sureshrink"),
)

SPLINE_SPAN = "priors.horseshoe_spline"


class Tracer:
    """Context manager: installs the wrappers on entry, removes them on exit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self._fit_keys = set()
        self._acceptance = []
        self._in_density = False
        self._patches = []  # (owner, attribute, original value)

    # -- installation -------------------------------------------------------

    def __enter__(self):
        import importlib

        from heavyseries import priors

        hooks = {
            "harness.write_outputs": self._after_write,
            "model.simulate": self._after_simulate,
            "posterior.fit": self._after_fit,
            "posterior.gibbs": self._after_gibbs,
            "posterior.metropolis": self._after_metropolis,
            "posterior.credible_band": self._after_band,
            "wavelets.synthesize": self._sample_counter("wavelets.synthesize"),
            "wavelets.analyze": self._sample_counter("wavelets.analyze"),
            "metrics.contraction_errors": self._after_contraction,
        }
        for module_name, attr, span in SPANS:
            module = importlib.import_module("heavyseries." + module_name)
            fn = getattr(module, attr)
            self._patch(module, attr, self._spanned(span, fn, hooks.get(span)))
        for cls in (priors.TailFamily, priors.StudentTail, priors.GaussianTail,
                    priors.HorseshoeTail):
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("log_density") and inspect.isfunction(fn):
                    self._patch(cls, attr, self._counted(fn))
        cold = vars(priors.HorseshoeTail)["_ensure_spline"].__func__
        spanned_cold = self._spanned(SPLINE_SPAN, cold, None)

        def ensure_spline(cls):
            # only the cold build is a span; warm calls are per evaluation
            return (spanned_cold if cls._spline is None else cold)(cls)

        self._patch(priors.HorseshoeTail, "_ensure_spline",
                    classmethod(ensure_spline))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _spanned(self, name, fn, after):
        spans, stack = self.spans, self._stack
        calls = name + ".calls"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            self.counts[calls] += 1
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        return wrapper

    def _counted(self, fn):
        import numpy as np

        @functools.wraps(fn)
        def wrapper(tail, x, *args, **kwargs):
            if self._in_density:
                return fn(tail, x, *args, **kwargs)
            self._in_density = True
            try:
                return fn(tail, x, *args, **kwargs)
            finally:
                self._in_density = False
                self.counts["priors.log_density.calls"] += 1
                self.counts["priors.log_density.points"] += np.size(x)

        return wrapper

    # -- counters at span boundaries ----------------------------------------

    def _after_write(self, a, result):
        out = a["result"].config.out_dir
        self.counts["harness.write_outputs.bytes"] += sum(
            entry.stat().st_size for entry in os.scandir(out)
            if entry.is_file())

    def _after_simulate(self, a, data):
        self.counts["model.simulate.coords"] += data.truncation

    def _count_fit(self, key):
        digest = hashlib.sha256(repr(key).encode()).digest()
        self.counts["posterior.fit.fits"] += 1
        if digest in self._fit_keys:
            self.counts["posterior.fit.repeats"] += 1
        self._fit_keys.add(digest)

    def _after_fit(self, a, summary):
        data = a["data"]
        self._count_fit((data.observations.tobytes(), data.noise_precision,
                         a["prior"].label, a["method"], a["draws"],
                         a["burn_in"], a["seed"], a["tol"]))
        if "acceptance_mean" in summary.diagnostics:
            self._acceptance.append(summary.diagnostics["acceptance_mean"])

    def _after_gibbs(self, a, summary):
        data = a["data"]
        self._count_fit((data.observations.tobytes(), data.noise_precision,
                         "gaussian-hierarchical", "gibbs", a["draws"],
                         a["burn_in"], a["seed"], None))
        self.counts["posterior.gibbs.steps"] += a["draws"] + a["burn_in"]

    def _after_metropolis(self, a, result):
        self.counts["posterior.metropolis.chain_steps"] += (
            len(a["xs"]) * (a["draws"] + a["burn_in"]))

    def _after_band(self, a, band):
        self.counts["posterior.credible_band.draws"] += \
            a["summary"].draws.shape[1]

    def _sample_counter(self, span):
        def after(a, values):
            self.counts[span + ".samples"] += values.size
        return after

    def _after_contraction(self, a, errors):
        self.counts["metrics.contraction_errors.draws"] += a["draws"].shape[1]

    # -- results ------------------------------------------------------------

    def self_times(self):
        """{span name: total self seconds}."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def acceptance_mean(self):
        acc = self._acceptance
        return sum(acc) / len(acc) if acc else 0.0

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def layer_metrics(tracer, traced_wall, untraced_wall, cold_s):
    """The per-layer metrics {name: (value, unit)} of one traced run.

    A rate whose denominator is 0 (the layer did not run) reads 0.
    """
    st = tracer.self_times()
    c = tracer.counts

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    m = {
        "posterior.quadrature.self_s": (st["posterior.quadrature"], "s"),
        "posterior.quadrature.coords": (c["posterior.quadrature.calls"],
                                        "count"),
        "posterior.quadrature.us_per_coord": (
            per(st["posterior.quadrature"], c["posterior.quadrature.calls"],
                1e6), "us"),
        "priors.log_density.calls": (c["priors.log_density.calls"], "count"),
        "priors.log_density.points": (c["priors.log_density.points"],
                                      "count"),
        "priors.horseshoe_spline.cold_s": (cold_s, "s"),
        "posterior.metropolis.self_s": (st["posterior.metropolis"], "s"),
        "posterior.metropolis.chain_steps": (
            c["posterior.metropolis.chain_steps"], "count"),
        "posterior.metropolis.ns_per_chain_step": (
            per(st["posterior.metropolis"],
                c["posterior.metropolis.chain_steps"], 1e9), "ns"),
        "posterior.metropolis.acceptance_mean": (tracer.acceptance_mean(),
                                                 "ratio"),
        "posterior.fit.self_s": (st["posterior.fit"], "s"),
        "posterior.fit.duplicate_frac": (
            per(c["posterior.fit.repeats"], c["posterior.fit.fits"], 1.0),
            "ratio"),
        "posterior.gibbs.self_s": (st["posterior.gibbs"], "s"),
        "posterior.gibbs.steps": (c["posterior.gibbs.steps"], "count"),
        "posterior.credible_band.self_s": (st["posterior.credible_band"], "s"),
        "posterior.credible_band.draws": (c["posterior.credible_band.draws"],
                                          "count"),
        "wavelets.synthesize.self_s": (st["wavelets.synthesize"], "s"),
        "wavelets.synthesize.samples": (c["wavelets.synthesize.samples"],
                                        "count"),
        "wavelets.synthesize.ns_per_sample": (
            per(st["wavelets.synthesize"], c["wavelets.synthesize.samples"],
                1e9), "ns"),
        "wavelets.analyze.self_s": (st["wavelets.analyze"], "s"),
        "wavelets.analyze.samples": (c["wavelets.analyze.samples"], "count"),
        "metrics.contraction_errors.self_s": (
            st["metrics.contraction_errors"], "s"),
        "metrics.contraction_errors.draws": (
            c["metrics.contraction_errors.draws"], "count"),
        "metrics.lp_error.self_s": (st["metrics.lp_error"], "s"),
        "metrics.lp_error.calls": (c["metrics.lp_error.calls"], "count"),
        "model.simulate.self_s": (st["model.simulate"], "s"),
        "model.simulate.coords": (c["model.simulate.coords"], "count"),
        "rng.coord_generator.self_s": (st["rng.coord_generator"], "s"),
        "rng.coord_generator.calls": (c["rng.coord_generator.calls"],
                                      "count"),
        "signals.make_truth.self_s": (st["signals.make_truth"], "s"),
        "signals.make_truth.calls": (c["signals.make_truth.calls"], "count"),
        "thresholding.hybrid_sureshrink.self_s": (
            st["thresholding.hybrid_sureshrink"], "s"),
        "harness.run_experiment.self_s": (st["harness.run_experiment"], "s"),
        "harness.write_outputs.self_s": (st["harness.write_outputs"], "s"),
        "harness.write_outputs.bytes": (c["harness.write_outputs.bytes"],
                                        "bytes"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.unattributed_frac": (
            (traced_wall - sum(st.values())) / traced_wall, "ratio"),
    }
    return {name: (float(value), unit) for name, (value, unit) in m.items()}
