import math
import os

import numpy as np
import pytest

from heavyseries import harness
from heavyseries.errors import InvalidParameterError
from heavyseries.harness import (
    ErrorRecord,
    ExperimentConfig,
    config_from_dict,
    make_prior,
    resolve_config,
    run_experiment,
)
from heavyseries.priors import GaussianTail, HorseshoeTail, StudentTail


def test_make_prior_presets():
    assert isinstance(make_prior("student3-ot").tail, StudentTail)
    assert make_prior("cauchy-ot").tail.name == "cauchy"
    hs = make_prior("truncated-hs", n=100.0)
    assert isinstance(hs.tail, HorseshoeTail)
    assert hs.scaling.tau == pytest.approx(0.01)
    assert hs.scaling.k_trunc == 100
    ht = make_prior("student3-ht-1.25")
    assert ht.scaling.alpha == 1.25
    assert make_prior("cauchy-wavelet-ot").index_mode == "double"
    assert isinstance(make_prior("gaussian-hierarchical").tail, GaussianTail)
    with pytest.raises(InvalidParameterError):
        make_prior("truncated-hs")  # needs n
    with pytest.raises(InvalidParameterError):
        make_prior("nope")


def test_config_validation():
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
    # the figure band is replication 0's band: a fresh Metropolis refit of
    # that replication gives the same arrays
    seed0 = harness._rep_seed(cfg.seed, 0)
    truth = signals.make_truth("sobolev-cos", K=cfg.truncation)
    for n in cfg.ns:
        data = model.simulate(truth, n, cfg.truncation, seed=seed0)
        for name in cfg.priors:
            msum = posterior.fit_posterior(
                data, make_prior(name, n=n), method="metropolis",
                draws=cfg.draws, burn_in=cfg.burn_in, seed=seed0)
            refit = posterior.credible_band(msum, truth.basis)
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
    assert se_all == pytest.approx(se_half / 2.0, rel=0.25)


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
