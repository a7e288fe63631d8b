import csv
import fnmatch
import math
import os

import numpy as np
import pytest

from heavyseries import basis, harness, model, quadrature, signals
from heavyseries.errors import InvalidParameterError, ShapeError, require_real
from heavyseries.harness import (
    ErrorRecord,
    ExperimentConfig,
    config_from_dict,
    resolve_config,
    run_experiment,
)
from heavyseries.priors import (
    GaussianTail,
    HorseshoeTail,
    StudentTail,
    make_prior,
)


def test_make_prior_presets():
    assert isinstance(make_prior("student3-ot").tail, StudentTail)
    assert make_prior("cauchy-ot").tail.name == "cauchy"
    hs = make_prior("truncated-hs", n=100.0)
    assert isinstance(hs.tail, HorseshoeTail)
    assert hs.scaling.tau == pytest.approx(0.01)
    assert hs.scaling.k_trunc == 100
    ht = make_prior("student3-ht-1.25")
    assert ht.scaling.alpha == 1.25
    assert make_prior("cauchy-wavelet-ot").scaling.level_indexed
    assert isinstance(make_prior("gaussian-hierarchical").tail, GaussianTail)
    with pytest.raises(InvalidParameterError):
        make_prior("truncated-hs")  # needs n
    with pytest.raises(InvalidParameterError):
        make_prior("nope")


def test_config_validation(tmp_path):
    with pytest.raises(InvalidParameterError):
        ExperimentConfig("unknown-experiment")
    with pytest.raises(InvalidParameterError):
        ExperimentConfig("sobolev", replications=0)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig("sobolev", ns=(1e4, 1e3))
    with pytest.raises(InvalidParameterError):
        ExperimentConfig("sobolev", draws=0)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig("sobolev", burn_in=-5)
    with pytest.raises(InvalidParameterError):
        config_from_dict({"experiment": "sobolev", "bogus_key": 1})
    # an infinite n used to fail only in the work unit, with a
    # ConvergenceError after simulation
    out = tmp_path / "out"
    with pytest.raises(InvalidParameterError, match="n values must be finite"):
        run_experiment(ExperimentConfig(
            "custom", truths=("sobolev-cos",), priors=("cauchy-ot",),
            ns=(1e3, math.inf), replications=1, truncation=10,
            out_dir=str(out)))
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("parallel", 0), ("parallel", -2),
    ("quadrature_tol", 0.0), ("quadrature_tol", -1e-6),
    ("quadrature_tol", math.nan),
    ("ns", (0.0, 1e3)), ("ns", (-1e3,)), ("ns", (math.nan,)),
    ("ns", (1e3, math.nan)), ("truncation", 0), ("truncation", -3),
    ("truths", "bumps"), ("priors", "cauchy-ot"), ("ns", 1000),
    ("p_primes", 2.0),
])
def test_config_rejects_settings_that_fail_only_later(field, value):
    # parallel < 1 used to run serially, and truths "bumps" was accepted as
    # a list of letters; priors "cauchy-ot" failed as letters that repeat,
    # ns 1000 and p_primes 2.0 with a bare TypeError, and the others only
    # once the run had started.  A list key given a non-list is named whole,
    # so an "ns" message must not pass on any text holding an "n"
    listed = field in ("truths", "priors", "ns", "p_primes") and \
        not isinstance(value, tuple)
    pattern = f"{field} must" if listed else field.rstrip("s")
    with pytest.raises(InvalidParameterError, match=pattern):
        ExperimentConfig("sobolev", **{field: value})


@pytest.mark.parametrize("field", ["include_contraction", "include_sureshrink",
                                   "include_bands"])
@pytest.mark.parametrize("value", ["no", "false", 1, 0])
def test_config_rejects_include_flags_that_are_not_bools(field, value):
    # include_bands "no" used to be kept and read as true, so bands were
    # fitted; 1 and 0 are not booleans either
    with pytest.raises(InvalidParameterError, match=f"{field} must be true"):
        ExperimentConfig("sobolev", **{field: value})


@pytest.mark.parametrize("field,values", [
    ("priors", ("cauchy-ot", "horseshoe-ot", "cauchy-ot")),
    ("p_primes", (2.0, 2.0)),
    ("truths", ("sobolev-cos", "sobolev-cos")),
])
def test_config_rejects_duplicate_entries(field, values):
    # a repeated prior was fitted twice and wrote each of its errors.csv
    # rows twice, and a repeated truth put each n into its slope series
    # twice
    with pytest.raises(InvalidParameterError,
                       match=f"{field} has duplicate entries"):
        ExperimentConfig("custom", **{field: values})


@pytest.mark.parametrize("field,value", [
    ("truncation", 10.5), ("replications", 2.0), ("draws", 50.0),
    ("burn_in", 100.0), ("parallel", 1.0), ("seed", 0.5),
    ("replications", True), ("seed", False),
])
def test_config_rejects_non_integral_counts(field, value):
    # truncation 10.5 ran at K = 11, and a float replications or draws
    # failed with a bare TypeError, draws only after every quadrature fit
    with pytest.raises(InvalidParameterError,
                       match=f"{field} must be an integer"):
        ExperimentConfig("sobolev", **{field: value})


def test_config_accepts_numpy_integers():
    cfg = ExperimentConfig("sobolev", truncation=np.int64(10),
                           seed=np.int32(3))
    assert cfg.truncation == 10 and cfg.seed == 3


@pytest.mark.parametrize("fields,error,message", [
    (dict(priors=("nope",)), InvalidParameterError, "unknown tail 'nope'"),
    (dict(priors=("truncated-hs",), ns=(1e3, math.inf)),
     InvalidParameterError, "finite precision"),
    # block 6 would sit on level 12 of a 2048-sample frame, which holds
    # blocks 1 to 5 on levels 2 to 10
    (dict(experiment="sparse-besov", truths=(), priors=("cauchy-wavelet-ot",),
          ns=(1e2, 1e3, 1e4, 1e5, 1e6, 1e7)),
     InvalidParameterError,
     r"level 12 is not a detail level .* "
     r"holds 5 block\(s\): \[1, 2, 3, 4, 5\]"),
    (dict(truths=("bumps",)), ShapeError,
     "single-index prior applied to wavelet data"),
    (dict(priors=("gaussian-hierarchical",)), ShapeError,
     "level-indexed prior applied to single-index data"),
    # both n print as 1e+06, so their band files would share one name
    (dict(ns=(1000000, 1000001), include_bands=True), InvalidParameterError,
     "distinct n"),
    # two spellings of one prior pass the duplicate check, and each name
    # used to be fitted and written
    (dict(priors=("student3-ht-1.25", "student3-ht-1.250")),
     InvalidParameterError, r"alpha '1\.250'"),
], ids=["unknown-preset", "truncated-hs-at-inf", "sparse-besov-six-n",
        "single-index-prior-on-wavelet-truth",
        "level-indexed-prior-on-single-index-truth", "band-stem-collision",
        "second-spelling-of-one-prior"])
def test_priors_are_built_before_any_simulation(tmp_path, monkeypatch, fields,
                                                error, message):
    # a truth, prior or pairing that cannot run fails before any truth is
    # simulated, not inside a work unit, which may run in a pool worker
    from heavyseries import model

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before the priors were checked")

    monkeypatch.setattr(model, "simulate", simulate)
    cfg = dict(experiment="custom", truths=("sobolev-cos",),
               priors=("cauchy-ot",), ns=(1e3,), replications=1,
               truncation=10, out_dir=str(tmp_path / "out"))
    with pytest.raises(error, match=message):
        run_experiment(ExperimentConfig(**{**cfg, **fields}))
    assert not (tmp_path / "out").exists()


def test_each_truth_and_prior_is_built_once_per_run(tmp_path, monkeypatch):
    # the run plan builds them; the work units of every replication reuse
    # what it built
    from collections import Counter

    from heavyseries import signals

    truths, priors = Counter(), Counter()

    def counted(fn, counter, key):
        def wrapper(*args, **kwargs):
            counter[key(*args, **kwargs)] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(signals, "make_truth", counted(
        signals.make_truth, truths, lambda name, **kw: name))
    monkeypatch.setattr(harness, "make_prior", counted(
        harness.make_prior, priors, lambda name, n=None: (name, n)))
    run_experiment(ExperimentConfig(
        "custom", truths=("sobolev-cos", "sobolev-sine"),
        priors=("cauchy-ot", "truncated-hs"), ns=(100.0, 1000.0),
        replications=3, truncation=10, out_dir=str(tmp_path / "out")))
    assert truths == {"sobolev-cos": 1, "sobolev-sine": 1}
    # both truths run at both n, and share each (prior, n) built
    assert priors == {(name, n): 1 for name in ("cauchy-ot", "truncated-hs")
                      for n in (100.0, 1000.0)}


@pytest.mark.parametrize("field,value", [
    ("ns", (True, 2.0)), ("ns", ("1e3",)), ("p_primes", ("2",)),
    ("p_primes", (2.0, True)), ("quadrature_tol", True),
    ("quadrature_tol", "1e-6")])
def test_config_rejects_non_real_entries(field, value):
    # ns (True, 2.0) used to run at n = True and write "True" into
    # errors.csv; the strings failed with a bare TypeError
    with pytest.raises(InvalidParameterError, match="must be a real number"):
        ExperimentConfig("sobolev", **{field: value})


@pytest.mark.parametrize("key,values", [("ns", [True, 2.0]),
                                        ("p_primes", ["2", True])])
def test_config_from_dict_does_not_convert_entries(key, values):
    # float() turned these into a valid config
    with pytest.raises(InvalidParameterError, match="must be a real number"):
        config_from_dict({"experiment": "custom", key: values})


def test_config_keeps_the_type_of_real_entries():
    cfg = config_from_dict({"experiment": "custom", "ns": [100, 1e3],
                            "p_primes": [2, 3.0], "quadrature_tol": 1e-8})
    assert [type(v) for v in cfg.ns + cfg.p_primes] == [int, float, int,
                                                         float]
    assert require_real("x", np.float64(0.5)) == 0.5


def test_config_from_dict_parses_inf():
    cfg = config_from_dict({"experiment": "custom",
                            "p_primes": [2, "inf"]})
    assert cfg.p_primes == (2.0, math.inf)


def test_resolve_config_defaults():
    cfg = resolve_config(ExperimentConfig("sobolev"))
    assert "cauchy-ot" in cfg.priors
    assert cfg.ns == (1e3, 1e4, 1e5)
    assert cfg.include_bands is True
    # explicit False survives default resolution
    cfg2 = resolve_config(ExperimentConfig("sobolev", include_bands=False))
    assert cfg2.include_bands is False
    cfg3 = resolve_config(ExperimentConfig("inhomogeneous"))
    assert cfg3.include_sureshrink and cfg3.include_contraction
    assert cfg3.p_primes == (1.0, 2.0, 3.0, 4.0, 6.0, math.inf)
    assert cfg.p_primes == (2.0,)
    assert resolve_config(ExperimentConfig("custom")).p_primes == (2.0,)
    # an explicit p' = 2 is a value, not "unset"
    cfg4 = resolve_config(ExperimentConfig("inhomogeneous", p_primes=(2.0,)))
    assert cfg4.p_primes == (2.0,)


def test_error_record_rejects_negative():
    with pytest.raises(InvalidParameterError):
        ErrorRecord("sobolev", "p", "t", 1.0, 2.0, "mean-estimate",
                    -0.1, 0.0, 5)


def test_rep_seed_stride():
    seeds = {harness._rep_seed(0, r) for r in range(100)}
    assert len(seeds) == 100


def _small_config(out_dir, seed=0):
    return ExperimentConfig(
        experiment="sobolev", priors=("cauchy-ot",), ns=(200.0, 2000.0),
        replications=2, seed=seed, out_dir=out_dir, truncation=40,
        include_bands=False)


def test_run_experiment_outputs(tmp_path):
    out = str(tmp_path / "res")
    result = run_experiment(_small_config(out))
    assert os.path.exists(os.path.join(out, "errors.csv"))
    assert os.path.exists(os.path.join(out, "slopes.csv"))
    assert os.path.exists(os.path.join(out, "plot_sobolev_errors.svg"))
    assert len(result.records) == 2  # one per n
    assert all(r.error_type == harness.MEAN_ESTIMATE for r in result.records)
    assert result.slopes[0][4] < 0  # error decays with n


def test_rerun_byte_identical(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(_small_config(out_a))
    run_experiment(_small_config(out_b))
    with open(os.path.join(out_a, "errors.csv"), "rb") as fh:
        a = fh.read()
    with open(os.path.join(out_b, "errors.csv"), "rb") as fh:
        b = fh.read()
    assert a == b


def test_parallel_matches_serial(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = _small_config(out_a)
    run_experiment(cfg)
    from dataclasses import replace

    run_experiment(replace(cfg, out_dir=out_b, parallel=2))
    with open(os.path.join(out_a, "errors.csv")) as fh:
        a = fh.read()
    with open(os.path.join(out_b, "errors.csv")) as fh:
        b = fh.read()
    assert a == b


def test_parallel_bands_match_serial_and_refit(tmp_path):
    from dataclasses import replace

    from heavyseries import model, posterior, signals

    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = ExperimentConfig(
        experiment="sobolev", priors=("cauchy-ot", "student3-ot"),
        ns=(200.0, 2000.0), replications=2, seed=3, out_dir=out_a,
        truncation=30, include_bands=True, draws=200, burn_in=200)
    result = run_experiment(cfg)
    run_experiment(replace(cfg, out_dir=out_b, parallel=2))
    names = sorted(f for f in os.listdir(out_a)
                   if f.startswith(("bands_", "plot_bands_")))
    assert len(names) == 2 * len(cfg.priors) * len(cfg.ns)
    assert sorted(f for f in os.listdir(out_b)
                  if f.startswith(("bands_", "plot_bands_"))) == names
    for fname in names + ["band_widths.csv"]:
        with open(os.path.join(out_a, fname), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, fname), "rb") as fh:
            b = fh.read()
        assert a == b, fname
    # the figure band is replication 0's band: fresh Metropolis draws for
    # that replication, centred on their means, give the same arrays
    seed0 = harness._rep_seed(cfg.seed, 0)
    truth = signals.make_truth("sobolev-cos", K=cfg.truncation)
    for n in cfg.ns:
        data = model.simulate(truth, n, seed=seed0)
        for name in cfg.priors:
            (stack,) = posterior.metropolis_draws(
                [(data, make_prior(name, n=n))], draws=cfg.draws,
                burn_in=cfg.burn_in, seed=seed0)
            refit = posterior.credible_band(stack, truth.basis)
            band = result.bands[(name, n)]
            assert band.keys() == refit.keys()
            for key in refit:
                assert np.array_equal(band[key], refit[key]), (name, n, key)


def test_seed_changes_output(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(_small_config(out_a, seed=0))
    run_experiment(_small_config(out_b, seed=1))
    with open(os.path.join(out_a, "errors.csv")) as fh:
        a = fh.read()
    with open(os.path.join(out_b, "errors.csv")) as fh:
        b = fh.read()
    assert a != b


def test_replication_averaging_halves_se():
    # se = sd/sqrt(R) on synthetic constant-variance inputs
    gen = np.random.default_rng(0)
    vals = gen.normal(size=400)
    _, se_all = harness._aggregate(vals)
    _, se_half = harness._aggregate(vals[:100])
    assert se_all == pytest.approx(se_half / 2.0, rel=0.25, abs=0.0)


def test_custom_experiment_validation(tmp_path):
    cfg = ExperimentConfig("custom", priors=("cauchy-ot",), ns=(100.0,),
                           out_dir=str(tmp_path))
    with pytest.raises(InvalidParameterError):
        run_experiment(cfg)  # no truths


def test_custom_single_index_experiment(tmp_path):
    cfg = ExperimentConfig(
        "custom", priors=("student3-ht-1.75",), ns=(100.0, 1000.0),
        replications=2, truncation=30, out_dir=str(tmp_path / "c"),
        truths=("sobolev-sine",), include_bands=False)
    result = run_experiment(cfg)
    assert len(result.records) == 2


def test_gaussian_prior_errors_match_the_conjugate_closed_form(tmp_path):
    # the pipeline oracle: under a Gaussian tail every posterior mean has a
    # closed form, so the run's p' = 2 mean-estimate errors can be rebuilt
    # from the harness's seeds without the posterior engine
    cfg = ExperimentConfig(
        "custom", truths=("sobolev-cos",), priors=("gaussian-ht-1.25",),
        ns=(1e3, 1e4), replications=1, seed=3, include_bands=False,
        include_contraction=False, out_dir=str(tmp_path))
    run_experiment(cfg)
    with open(tmp_path / "errors.csv") as fh:
        rows = [row for row in csv.DictReader(fh)
                if row["p_prime"] == "2"
                and row["error_type"] == harness.MEAN_ESTIMATE]
    assert [float(row["n"]) for row in rows] == list(cfg.ns)
    truth = signals.make_truth("sobolev-cos", K=cfg.truncation, seed=cfg.seed)
    f0 = truth.coefficients
    sigma = np.arange(1, len(f0) + 1) ** (-0.5 - 1.25)
    scale = basis.parseval_scale(truth.basis)
    for row in rows:
        n = float(row["n"])
        data = model.simulate(truth, n, seed=harness._rep_seed(cfg.seed, 0))
        mean, var = quadrature.conjugate_mean_var(data.observations, n, sigma)
        exact = np.linalg.norm(mean - f0) / scale
        # quadrature holds each mean to tol relative to max(|mean|, sd);
        # the gap measured 0 to 5.6e-17 against this bound's 9e-7
        bound = cfg.quadrature_tol * np.linalg.norm(
            np.maximum(np.abs(mean), np.sqrt(var))) / scale
        assert abs(float(row["mean"]) - exact) <= bound


def test_band_width_outputs(tmp_path):
    out = str(tmp_path / "bands")
    cfg = ExperimentConfig(
        experiment="sobolev", priors=("cauchy-ot",), ns=(500.0,),
        replications=2, out_dir=out, truncation=30, include_bands=True,
        draws=400, burn_in=400)
    result = run_experiment(cfg)
    assert result.band_widths
    assert os.path.exists(os.path.join(out, "band_widths.csv"))
    assert os.path.exists(os.path.join(out, "bands_cauchy-ot_500.csv"))
    assert os.path.exists(os.path.join(out, "plot_bands_cauchy-ot_500.svg"))
    name, n, wm, wse, reps = result.band_widths[0]
    assert wm > 0.0


def test_errors_csv_format():
    rec = ErrorRecord("sobolev", "cauchy-ot", "sobolev-cos", 1000.0, 2.0,
                      harness.MEAN_ESTIMATE, 0.25, 0.01, 5)
    text = harness.errors_csv([rec])
    lines = text.strip().splitlines()
    assert lines[0].startswith("experiment,prior,truth,n,p_prime")
    assert "cauchy-ot" in lines[1]
    assert "0.25" in lines[1]


_TEXT_COLUMNS = {"experiment", "prior", "truth", "error_type"}


def _number_cells(text):
    """The cells of an output CSV that hold numbers: its meta values and
    its row cells outside the text columns."""
    lines = text.splitlines()
    cells = []
    if lines[0].startswith("# "):
        meta = dict(item.split("=") for item in lines.pop(0)[2:].split())
        cells += [v for key, v in meta.items() if key not in _TEXT_COLUMNS]
    header = lines[0].split(",")
    for line in lines[1:]:
        cells += [v for key, v in zip(header, line.split(","))
                  if key not in _TEXT_COLUMNS]
    return cells


def test_numpy_n_values_write_the_same_files(tmp_path):
    # n values taken from a numpy array used to be written as
    # `np.float64(100.0)` in errors.csv, band_widths.csv and band headers
    outs = []
    for i, ns in enumerate([tuple(np.array([1e2, 1e3])), (1e2, 1e3)]):
        out = tmp_path / f"run{i}"
        run_experiment(ExperimentConfig(
            "custom", truths=("sobolev-cos",), priors=("cauchy-ot",), ns=ns,
            replications=1, truncation=20, draws=50, burn_in=50,
            include_bands=True, out_dir=str(out)))
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]
    assert {"errors.csv", "slopes.csv", "band_widths.csv",
            "bands_cauchy-ot_100.csv",
            "bands_cauchy-ot_1000.csv"} <= set(outs[0])
    for name, data in outs[0].items():
        if name.endswith(".csv"):
            cells = _number_cells(data.decode())
            assert cells, name
            for cell in cells:
                float(cell)


# -- one driver for every experiment -----------------------------------------

_TINY = {
    "sobolev": dict(ns=(200.0, 2000.0), truncation=20, draws=50, burn_in=50),
    "undersmoothing": dict(ns=(200.0, 2000.0), truncation=20),
    "inhomogeneous": dict(truths=("bumps",), draws=20, burn_in=20),
    "sparse-besov": dict(ns=(1e2, 1e3), p_primes=(2.0, math.inf)),
}


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("experiment", sorted(_TINY))
def test_parallel_outputs_match_serial(tmp_path, experiment):
    from dataclasses import replace

    serial, parallel = str(tmp_path / "serial"), str(tmp_path / "parallel")
    cfg = ExperimentConfig(experiment, replications=2, seed=1,
                           out_dir=serial, **_TINY[experiment])
    run_experiment(cfg)
    run_experiment(replace(cfg, out_dir=parallel, parallel=2))
    a, b = _files(serial), _files(parallel)
    assert "errors.csv" in a
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name


def _wavelet_config(tmp_path, experiment, **fields):
    base = dict(priors=("cauchy-wavelet-ot",), ns=(1.0,), replications=1,
                draws=20, burn_in=20, include_sureshrink=False,
                include_contraction=False, out_dir=str(tmp_path / experiment))
    base.update(fields)
    return ExperimentConfig(experiment, **base)


@pytest.mark.parametrize("experiment,fields", [
    ("custom", dict(truths=("bumps",))),
    ("sparse-besov", dict(ns=(1e2,))),
    ("sobolev", dict(priors=("cauchy-ot",), ns=(1e3,), truncation=20,
                     include_bands=False)),
], ids=["custom-wavelet", "sparse-besov", "single-index"])
def test_contraction_errors_are_honoured(tmp_path, experiment, fields):
    cfg = _wavelet_config(tmp_path, experiment, include_contraction=True,
                          p_primes=(2.0, math.inf), **fields)
    result = run_experiment(cfg)
    kinds = [(r.error_type, r.p_prime) for r in result.records]
    assert kinds == [(harness.MEAN_ESTIMATE, 2.0), (harness.CONTRACTION, 2.0),
                     (harness.MEAN_ESTIMATE, math.inf),
                     (harness.CONTRACTION, math.inf)]
    # Jensen: the mean draw's distance never exceeds the mean distance
    assert result.records[1].mean >= result.records[0].mean


def test_bands_on_wavelet_truth(tmp_path):
    cfg = _wavelet_config(tmp_path, "inhomogeneous", truths=("bumps",),
                          priors=("cauchy-wavelet-ot",
                                  "gaussian-hierarchical"),
                          include_bands=True)
    result = run_experiment(cfg)
    assert [row[0] for row in result.band_widths] == list(cfg.priors)
    for name in cfg.priors:
        band = result.bands[(name, 1.0)]
        assert len(band["grid"]) == 2048
        assert np.all(band["lower"] <= band["upper"])
        assert os.path.exists(os.path.join(cfg.out_dir,
                                           f"bands_{name}_1.csv"))


def test_inhomogeneous_runs_every_n(tmp_path):
    cfg = _wavelet_config(tmp_path, "inhomogeneous", truths=("bumps",),
                          ns=(1.0, 4.0), p_primes=(4.0,))
    result = run_experiment(cfg)
    assert [r.n for r in result.records] == [1.0, 4.0]
    assert [s[:3] for s in result.slopes] == [("cauchy-wavelet-ot", "bumps",
                                               4.0)]
    assert os.path.exists(os.path.join(cfg.out_dir,
                                       "plot_inhomogeneous_errors.svg"))


def test_inhomogeneous_keeps_explicit_p_prime_two(tmp_path):
    cfg = _wavelet_config(tmp_path, "inhomogeneous", truths=("bumps",),
                          p_primes=(2.0,))
    run_experiment(cfg)
    with open(os.path.join(cfg.out_dir, "errors.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    assert rows and {row.split(",")[4] for row in rows} == {"2"}


def test_single_index_experiments_take_truths(tmp_path):
    fields = dict(priors=("cauchy-ot",), ns=(200.0, 2000.0), replications=2,
                  truncation=20, include_bands=False)
    both = run_experiment(ExperimentConfig(
        "sobolev", truths=("sobolev-sine", "sobolev-cos"),
        out_dir=str(tmp_path / "both"), **fields))
    default = run_experiment(ExperimentConfig(
        "sobolev", out_dir=str(tmp_path / "default"), **fields))
    cos = run_experiment(ExperimentConfig(
        "undersmoothing", truths=("sobolev-cos",),
        out_dir=str(tmp_path / "cos"), **fields))
    assert [r.truth for r in both.records] == (["sobolev-sine"] * 2
                                               + ["sobolev-cos"] * 2)
    assert [s[1] for s in both.slopes] == ["sobolev-sine", "sobolev-cos"]

    def means(result, truth):
        return [r.mean for r in result.records if r.truth == truth]

    assert means(both, "sobolev-cos") == means(default, "sobolev-cos")
    assert means(cos, "sobolev-cos") == means(default, "sobolev-cos")
    assert means(both, "sobolev-sine") != means(both, "sobolev-cos")


def test_custom_several_single_index_truths(tmp_path):
    cfg = ExperimentConfig(
        "custom", priors=("student3-ht-1.75",), ns=(100.0, 1000.0),
        replications=1, truncation=20, out_dir=str(tmp_path / "c"),
        truths=("sobolev-cos", "sobolev-sine"))
    result = run_experiment(cfg)
    assert [(r.truth, r.n) for r in result.records] == [
        ("sobolev-cos", 100.0), ("sobolev-cos", 1000.0),
        ("sobolev-sine", 100.0), ("sobolev-sine", 1000.0)]
    assert len(result.slopes) == 2


def test_custom_least_favorable_matches_sparse_besov(tmp_path):
    # both build block 1 on the same frame and draw the same streams
    custom = run_experiment(_wavelet_config(
        tmp_path, "custom", truths=("least-favorable",), ns=(1e2,), seed=4,
        p_primes=(2.0, 4.0)))
    sparse = run_experiment(_wavelet_config(
        tmp_path, "sparse-besov", ns=(1e2,), seed=4, p_primes=(2.0, 4.0)))
    assert [r.truth for r in sparse.records] == ["least-favorable-1"] * 2
    assert [r.mean for r in custom.records] == [r.mean for r in sparse.records]


def test_truth_group_validation(tmp_path):
    from heavyseries.errors import ShapeError

    out = str(tmp_path / "v")
    small = dict(ns=(1e3,), truncation=20, replications=1, out_dir=out)
    # SureShrink thresholds wavelet coefficients only
    for cfg in (ExperimentConfig("sobolev", include_sureshrink=True, **small),
                ExperimentConfig("custom", truths=("sobolev-cos",),
                                 priors=("cauchy-ot",),
                                 include_sureshrink=True, **small)):
        with pytest.raises(InvalidParameterError, match="SureShrink"):
            run_experiment(cfg)
    with pytest.raises(InvalidParameterError, match="unknown truth"):
        run_experiment(ExperimentConfig("custom", truths=("bump",),
                                        priors=("cauchy-ot",), **small))
    with pytest.raises(InvalidParameterError, match="takes no truths"):
        run_experiment(ExperimentConfig("sparse-besov", truths=("bumps",),
                                        out_dir=out))
    # band files are named by (prior, n) only
    with pytest.raises(InvalidParameterError, match="distinct n"):
        run_experiment(ExperimentConfig(
            "custom", truths=("sobolev-cos", "sobolev-sine"),
            priors=("cauchy-ot",), include_bands=True, **small))
    # a prior whose index mode does not match the truth
    with pytest.raises(ShapeError):
        run_experiment(ExperimentConfig("custom", truths=("sobolev-cos",),
                                        priors=("cauchy-wavelet-ot",),
                                        **small))
    with pytest.raises(InvalidParameterError, match="unknown config keys"):
        config_from_dict({"experiment": "sobolev", "extra": {}})


# -- one owner for a run's files ---------------------------------------------

def _sobolev_cos_run(out_dir, ns, include_bands):
    return run_experiment(ExperimentConfig(
        "custom", truths=("sobolev-cos",), priors=("cauchy-ot",), ns=ns,
        truncation=10, replications=1, draws=50, burn_in=50,
        include_bands=include_bands, out_dir=str(out_dir)))


def test_rerun_leaves_exactly_its_own_files(tmp_path):
    # the earlier run's band files, plots and band widths are not this run's
    _sobolev_cos_run(tmp_path / "out", (1e2, 1e3), include_bands=True)
    _sobolev_cos_run(tmp_path / "out", (1e2, 1e4), include_bands=False)
    _sobolev_cos_run(tmp_path / "fresh", (1e2, 1e4), include_bands=False)
    assert _files(tmp_path / "out") == _files(tmp_path / "fresh")


def test_rerun_keeps_what_is_not_an_output(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    (out / "plot_dir.svg").mkdir()  # a directory, though its name matches
    _sobolev_cos_run(out, (1e2, 1e3), include_bands=True)
    _sobolev_cos_run(out, (1e2,), include_bands=False)
    assert sorted(os.listdir(out)) == ["errors.csv", "notes.txt",
                                       "plot_dir.svg"]
    assert (out / "notes.txt").read_text() == "kept"


def test_every_output_kind_is_named_and_ordered(tmp_path):
    cfg = _wavelet_config(tmp_path, "custom", truths=("bumps",),
                          priors=("cauchy-wavelet-ot",
                                  "gaussian-hierarchical"),
                          ns=(1.0, 4.0), p_primes=(2.0, math.inf),
                          include_bands=True, include_contraction=True,
                          include_sureshrink=True)
    run_experiment(cfg)
    # every file the run writes has a name the removal rule knows, and
    # the run writes every kind of output
    written = os.listdir(cfg.out_dir)
    for name in written:
        assert any(fnmatch.fnmatchcase(name, pattern)
                   for pattern in harness.OUTPUT_NAMES), name
    for pattern in harness.OUTPUT_NAMES:
        assert fnmatch.filter(written, pattern), pattern
    # errors.csv rows run over n, then the priors and sureshrink, then p',
    # then the error types
    with open(os.path.join(cfg.out_dir, "errors.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    expected = [(name, n, p, etype)
                for n in cfg.ns
                for name in (*cfg.priors, "sureshrink")
                for p in cfg.p_primes
                for etype in harness.ERROR_TYPES
                if name != "sureshrink" or etype == harness.MEAN_ESTIMATE]
    assert [(r[1], float(r[3]), float(r[4]), r[5]) for r in rows] == expected


# -- draws streamed into contraction errors ----------------------------------

def _small_heavisine(monkeypatch, tmp_path, **fields):
    """A custom run on heavisine in the 256-sample Symmlet-8 frame of four
    levels, the Metropolis prior and the Gibbs baseline at n = 1."""
    monkeypatch.setitem(signals.FRAMES, "heavisine", ("symmlet-8", 256, 4))
    base = dict(truths=("heavisine",),
                priors=("cauchy-wavelet-ot", "gaussian-hierarchical"),
                ns=(1.0,), p_primes=(1.0, 2.0, math.inf), replications=1,
                draws=201, burn_in=70, include_contraction=True,
                out_dir=str(tmp_path))
    base.update(fields)
    return ExperimentConfig("custom", **base)


def test_contraction_only_parallel_matches_serial(monkeypatch, tmp_path):
    cfg = _small_heavisine(monkeypatch, tmp_path / "serial", replications=2)
    run_experiment(cfg)
    from dataclasses import replace

    run_experiment(replace(cfg, out_dir=str(tmp_path / "parallel"),
                           parallel=2))
    a, b = _files(tmp_path / "serial"), _files(tmp_path / "parallel")
    assert list(a) == ["errors.csv"]
    assert a == b


def test_sink_fed_bands_match_the_matrix_bands(monkeypatch, tmp_path):
    # a band is drawn from a `DrawMatrix` the sampler fills batch by batch
    # alongside the contraction fold; the sampler's own matrix gives the
    # same file, byte for byte
    from heavyseries import posterior

    cfg = _small_heavisine(monkeypatch, tmp_path, include_bands=True)
    result = run_experiment(cfg)
    seed = harness._rep_seed(cfg.seed, 0)
    truth = signals.make_truth("heavisine")
    data = model.simulate(truth, 1.0, seed=seed)
    (stack,) = posterior.metropolis_draws(
        [(data, make_prior("cauchy-wavelet-ot", n=1.0))], draws=cfg.draws,
        burn_in=cfg.burn_in, seed=seed)
    gibbs = posterior.fit_posterior(
        data, make_prior("gaussian-hierarchical", n=1.0), draws=cfg.draws,
        burn_in=cfg.burn_in, seed=seed)
    for name, summary in (("cauchy-wavelet-ot", stack),
                          ("gaussian-hierarchical", gibbs)):
        band = posterior.credible_band(summary, truth.basis)
        with open(os.path.join(cfg.out_dir, f"bands_{name}_1.csv")) as fh:
            assert fh.read() == harness.band_csv(band, name, 1.0), name
    assert set(result.bands) == {("cauchy-wavelet-ot", 1.0),
                                 ("gaussian-hierarchical", 1.0)}


def test_contraction_only_run_holds_no_draw_matrix(monkeypatch, tmp_path,
                                                   scratch_peak):
    # Every draw goes to the contraction folds batch by batch, so no K x
    # draws matrix is made.  Measured with a 2^15-value budget (128-step
    # Metropolis refills) and 2000 + 100 steps: a 2.41 MB traced peak
    # (2.40 MB at 1000 draws), against the 4.10 MB matrix; holding each
    # prior's matrix took 6.26 MB (4.22 MB at 1000 draws).
    from heavyseries import wavelets

    monkeypatch.setattr(wavelets, "_BLOCK_VALUES", 1 << 15)
    cfg = _small_heavisine(monkeypatch, tmp_path, draws=2000, burn_in=100)
    matrix = 256 * cfg.draws * 8
    peak = scratch_peak(run_experiment, cfg)
    assert peak < matrix, (peak, matrix)
