"""The benchmark's tracer (`perfbench/tracing.py`) still finds what it
wraps.

The tracer patches package functions by module and attribute name, so a
rename in the package breaks it only when the benchmark runs.  These
checks load it by path, unchanged, and run a small fit under it.
"""

import importlib
import importlib.util
import pathlib

from heavyseries import make_prior, make_truth, posterior, priors, quadrature
from heavyseries import simulate

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
    data = simulate(make_truth("sobolev-cos", K=8), 1e3, 8, 0)
    with _tracing().Tracer() as tracer:
        posterior.fit_posterior(data, make_prior("horseshoe-ot"))
    assert tracer.counts["posterior.quadrature.calls"] == 8
    assert tracer.counts["posterior.fit.calls"] == 1
    assert tracer.counts["priors.log_density.points"] > 0
    assert posterior.quadrature_mean_var is quadrature.quadrature_mean_var
