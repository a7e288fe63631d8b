"""The benchmark's tracer (`perfbench/tracing.py`) still finds what it
wraps.

The tracer patches package functions by module and attribute name, so a
rename in the package breaks it only when the benchmark runs.  These
checks load it by path, unchanged, and run a small fit under it.
"""

import importlib
import importlib.util
import math
import pathlib
import time

from heavyseries import make_prior, make_truth, posterior, priors, quadrature
from heavyseries import simulate
from heavyseries.harness import ExperimentConfig, run_experiment

_TRACING = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    for module_name, attr, _ in _tracing().SPANS:
        module = importlib.import_module("heavyseries." + module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
    # the tracer rewraps the spline's cold build as a classmethod
    assert isinstance(vars(priors.HorseshoeTail)["_ensure_spline"],
                      classmethod)


def test_tracer_counts_the_quadrature_of_a_fit():
    # the harness calls `posterior.fit_posterior`, which reaches the engine
    # through `posterior`'s namespace; the tracer wraps both there
    data = simulate(make_truth("sobolev-cos", K=8), 1e3, 0)
    with _tracing().Tracer() as tracer:
        posterior.fit_posterior(data, make_prior("horseshoe-ot"))
    assert tracer.counts["posterior.quadrature.calls"] == 8
    assert tracer.counts["posterior.fit.calls"] == 1
    assert tracer.counts["priors.log_density.points"] > 0
    assert posterior.quadrature_mean_var is quadrature.quadrature_mean_var


def test_tracer_runs_every_hook_on_a_tiny_experiment(tmp_path):
    # one wavelet truth under a quadrature prior (with Metropolis draws
    # for its band and contraction errors) and the Gibbs baseline, with
    # SureShrink: every hook the benchmark's workloads run, at 40 steps
    tracing = _tracing()
    config = ExperimentConfig(
        "custom", truths=("bumps",),
        priors=("cauchy-wavelet-ot", "gaussian-hierarchical"), ns=(1.0,),
        p_primes=(2.0, math.inf), replications=1, draws=20, burn_in=20,
        include_bands=True, include_contraction=True,
        include_sureshrink=True, out_dir=str(tmp_path))
    with tracing.Tracer() as tracer:
        start = time.perf_counter()
        run_experiment(config)
        wall = time.perf_counter() - start
    c = tracer.counts
    assert c["posterior.quadrature.calls"] == 2048
    assert c["posterior.metropolis.chain_steps"] == 2048 * 40
    assert c["posterior.gibbs.steps"] == 40
    assert c["posterior.credible_band.draws"] == 40
    assert c["metrics.contraction_errors.draws"] == 40
    assert c["harness.write_outputs.bytes"] > 0
    metrics = tracing.layer_metrics(tracer, wall, wall, 0.0)
    assert all(math.isfinite(value) for value, _ in metrics.values())
