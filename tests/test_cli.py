import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from heavyseries import basis, cli, harness, model, posterior, priors, signals
from heavyseries.errors import ConvergenceError


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rates_subcommand(capsys):
    code, out, _ = _run(capsys, "rates", "--s", "1.5", "--p", "1",
                        "--p-prime", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,p,q,p_prime,eta,s_eff,r,zone"
    assert "0.375" in lines[1]
    assert "regular" in lines[1]


def test_rates_admit_p_prime_one(capsys):
    # below p' = 2 admissibility is the L2 embedding and the zone regular
    code, out, _ = _run(capsys, "rates", "--s", "1.5", "--p", "1",
                        "--p-prime", "1")
    assert code == 0
    row = out.strip().splitlines()[1]
    assert row == "1.5,1.0,inf,1.0,1.5,1.5,0.375,regular"


def test_rates_config_list(tmp_path, capsys):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({"rates": [
        {"s": 1.5, "p": 1, "p_prime": 6},
        {"s": 1.5, "p": 1, "p_prime": "inf"},
    ]}))
    code, out, _ = _run(capsys, "rates", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    assert "sparse" in out


def test_rates_flags_override_config_list(tmp_path, capsys):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({"rates": [{"s": 1.5, "p": 1, "p_prime": 2}]}))
    code, out, _ = _run(capsys, "rates", "--config", str(cfg), "--s", "1.5",
                        "--p", "1", "--p-prime", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1.5,1.0,inf,6.0,")


def test_rates_missing_flags_config_error(capsys):
    code, _, err = _run(capsys, "rates")
    assert code == 2
    assert "rates" in err


def test_rates_q_flag_alone_selects_the_flag_row(tmp_path, capsys):
    # --q with a config list is a flag row, not an ignored flag, so it
    # needs --s/--p/--p-prime too; with them it sets the row's q
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({"rates": [{"s": 1.5, "p": 1, "p_prime": 2}]}))
    code, out, err = _run(capsys, "rates", "--config", str(cfg), "--q", "2")
    assert code == 2
    assert out == ""
    assert "--s/--p/--p-prime" in err
    code, out, _ = _run(capsys, "rates", "--config", str(cfg), "--s", "1.5",
                        "--p", "1", "--p-prime", "2", "--q", "2")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("1.5,1.0,2.0,2.0,")


def test_signals_coefficients(capsys):
    code, out, _ = _run(capsys, "signals", "--emit", "coefficients")
    assert code == 0
    assert "index_j,index_k,value" in out


def test_signals_samples(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"truth": "blocks", "signal_length": 64,
                               "coarse_level": 3}))
    code, out, _ = _run(capsys, "signals", "--config", str(cfg),
                        "--emit", "samples")
    assert code == 0
    assert out.count("\n") >= 64


def test_signals_rejects_an_unknown_emit(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"truncation": 8, "emit": "bogus"}))
    code, out, err = _run(capsys, "signals", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "bogus" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["signals", "--emit", "bogus"])
    assert exc.value.code == 2


def test_signals_emit_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"truncation": 8, "emit": "coefficients"}))
    code, out, _ = _run(capsys, "signals", "--config", str(cfg),
                        "--emit", "samples")
    assert code == 0
    assert "kind=samples" in out
    assert "kind=coefficients" not in out


@pytest.mark.parametrize("settings", [
    {"truth": "sobolev-cos", "grid_points": 5},
    {"truth": "blocks", "signal_length": 64, "coarse_level": 3},
], ids=["cosine", "quartet"])
def test_signals_samples_t_column_is_the_basis_grid(tmp_path, capsys,
                                                    settings):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(settings))
    code, out, _ = _run(capsys, "signals", "--config", str(cfg),
                        "--emit", "samples")
    assert code == 0
    t = [float(line.split(",")[0]) for line in out.splitlines()[2:]]
    truth = cli._make_truth(settings)
    assert t == basis.grid(truth.basis, len(t)).tolist()


def test_signals_least_favorable_defaults_to_the_sparse_besov_frame(
        tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"truth": "least-favorable"}))
    code, out, _ = _run(capsys, "signals", "--config", str(cfg),
                        "--emit", "coefficients")
    assert code == 0
    truth = signals.make_truth("least-favorable", block_index=1, seed=0)
    assert out == model.coefficients_to_csv(
        truth.coefficients, True,
        meta={"truth": "least-favorable", "kind": "coefficients"})


def test_simulate_deterministic(capsys):
    code, a, _ = _run(capsys, "simulate", "--seed", "3")
    code2, b, _ = _run(capsys, "simulate", "--seed", "3")
    assert code == code2 == 0
    assert a == b
    _, c, _ = _run(capsys, "simulate", "--seed", "4")
    assert a != c


def test_fit_writes_summary(tmp_path, capsys):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"truth": "sobolev-cos", "truncation": 8,
                               "n": 1000, "prior": "cauchy-ot"}))
    out_file = tmp_path / "fit.csv"
    code, _, _ = _run(capsys, "fit", "--config", str(cfg),
                      "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("index_j,index_k,mean")
    assert len(text.strip().splitlines()) >= 9


def test_chain_and_tol_defaults_agree(tmp_path, capsys, monkeypatch):
    # every fit entry point, the experiment config and `fit` default to
    # the same chain lengths and quadrature tol
    defaults = {"draws": posterior.DEFAULT_DRAWS,
                "burn_in": posterior.DEFAULT_BURN_IN,
                "tol": posterior.DEFAULT_TOL}
    for fn in (posterior.fit_posterior, posterior.metropolis_draws):
        params = inspect.signature(fn).parameters
        for key, value in defaults.items():
            if key in params:
                assert params[key].default == value, (fn.__name__, key)
    config = harness.ExperimentConfig("sobolev")
    assert (config.draws, config.burn_in, config.quadrature_tol) == (
        defaults["draws"], defaults["burn_in"], defaults["tol"])
    seen = []
    fit_posterior = posterior.fit_posterior

    def recorded(*args, **kwargs):
        seen.append({key: kwargs[key] for key in defaults})
        return fit_posterior(*args, **kwargs)

    monkeypatch.setattr(posterior, "fit_posterior", recorded)
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"truncation": 4, "n": 1000}))
    code, _, _ = _run(capsys, "fit", "--config", str(cfg))
    assert code == 0
    assert seen == [defaults]


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "fit", "--config", str(bad))
    assert code == 2
    assert "config" in err or "error" in err


def test_missing_config_exit_code(capsys):
    code, _, _ = _run(capsys, "fit", "--config", "/nonexistent.json")
    assert code == 2


def test_experiment_subcommand(tmp_path, capsys):
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({
        "priors": ["cauchy-ot"], "ns": [200.0, 2000.0], "replications": 2,
        "truncation": 30, "include_bands": False}))
    out_dir = str(tmp_path / "res")
    code, _, _ = _run(capsys, "experiment", "sobolev", "--config", str(cfg),
                      "--out", out_dir, "--seed", "0")
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "errors.csv"))
    code, out, _ = _run(capsys, "report", "--out", out_dir)
    assert code == 0
    assert "cauchy-ot" in out
    assert "slope" in out.splitlines()[0]


def test_report_prints_the_harness_slopes(tmp_path, capsys):
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"ns": [100.0, 1000.0], "replications": 1,
                               "p_primes": [2.0, "inf"]}))
    out_dir = str(tmp_path / "res")
    code, _, _ = _run(capsys, "experiment", "sparse-besov", "--config",
                      str(cfg), "--out", out_dir)
    assert code == 0
    code, out, _ = _run(capsys, "report", "--out", out_dir)
    assert code == 0
    with open(os.path.join(out_dir, "slopes.csv")) as fh:
        written = [line.split(",") for line in fh.read().splitlines()[1:]]
    reported = [line.split(",") for line in out.splitlines()[1:]]
    assert [w[1:5] for w in written] == [
        [prior, "least-favorable", p, "mean-estimate"]
        for prior in ("cauchy-wavelet-ot", "sureshrink") for p in ("2", "inf")]
    # prior,truth,p_prime,error_type,slope of each slopes.csv row
    assert reported == [w[1:6] for w in written]

    # contraction errors at two or more n get slopes too
    cfg.write_text(json.dumps({
        "truths": ["sobolev-cos"], "priors": ["cauchy-ot"],
        "ns": [100.0, 1000.0], "p_primes": [2.0, "inf"], "truncation": 10,
        "draws": 50, "burn_in": 20, "replications": 1,
        "include_contraction": True}))
    code, _, _ = _run(capsys, "experiment", "custom", "--config", str(cfg),
                      "--out", out_dir)
    assert code == 0
    code, out, _ = _run(capsys, "report", "--out", out_dir)
    assert code == 0
    reported = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[:4] for r in reported] == [
        ["cauchy-ot", "sobolev-cos", p, etype]
        for p in ("2", "inf") for etype in ("mean-estimate", "contraction")]
    with open(os.path.join(out_dir, "slopes.csv")) as fh:
        assert reported == [line.split(",")[1:6]
                            for line in fh.read().splitlines()[1:]]


def test_report_shows_no_slopes_of_an_earlier_experiment(tmp_path, capsys):
    out_dir = str(tmp_path / "res")
    cfg = tmp_path / "e.json"
    for ns in ([100.0, 1000.0], [100.0]):
        cfg.write_text(json.dumps({
            "truths": ["sobolev-cos"], "priors": ["cauchy-ot"], "ns": ns,
            "truncation": 10, "replications": 1}))
        code, _, _ = _run(capsys, "experiment", "custom", "--config",
                          str(cfg), "--out", out_dir)
        assert code == 0
    # one n per series fits no slopes, so the two-n run's slopes go
    assert not os.path.exists(os.path.join(out_dir, "slopes.csv"))
    code, out, _ = _run(capsys, "report", "--out", out_dir)
    assert code == 0
    assert out == "prior,truth,p_prime,error_type,slope\n"


def test_data_subcommands_reject_unknown_config_keys(tmp_path, capsys):
    shared = {"truth": "sobolev-cos", "truncation": 8, "n": 1000,
              "prior": "cauchy-ot", "seed": 1}
    for cmd in ("simulate", "fit", "signals"):
        cfg = tmp_path / f"{cmd}.json"
        cfg.write_text(json.dumps(shared))
        code, _, _ = _run(capsys, cmd, "--config", str(cfg))
        assert code == 0
        cfg.write_text(json.dumps({**shared, "methd": "metropolis"}))
        code, out, err = _run(capsys, cmd, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown config keys: ['methd']" in err


def test_signals_rejects_an_option_the_truth_does_not_take(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    for settings in ({"truth": "sobolev-cos", "snr": 3},
                     {"truth": "least-favorable", "snr": 3},
                     {"truth": "bumps", "signal_length": 256,
                      "coarse_level": 4, "amplitude": 3}):
        cfg.write_text(json.dumps(settings))
        code, out, err = _run(capsys, "signals", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unexpected keyword argument" in err


def test_experiment_bad_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, _ = _run(capsys, "experiment", "sobolev", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("cmd,setting", [
    ("experiment", {"draws": 0}),
    ("experiment", {"burn_in": -5}),
    ("fit", {"truth": "bumps", "prior": "gaussian-hierarchical",
             "draws": 0}),
    ("fit", {"truth": "bumps", "prior": "gaussian-hierarchical",
             "burn_in": -5}),
    ("fit", {"truncation": 8, "draws": 0}),
    ("fit", {"truncation": 8, "burn_in": -5}),
], ids=["experiment-draws", "experiment-burn-in", "fit-draws",
        "fit-burn-in", "fit-fixed-scale-draws", "fit-fixed-scale-burn-in"])
def test_invalid_chain_length_exit_code(tmp_path, capsys, cmd, setting):
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps(setting))
    argv = [cmd, "sobolev"] if cmd == "experiment" else [cmd]
    code, _, err = _run(capsys, *argv, "--config", str(cfg),
                        "--out", str(tmp_path / "out"))
    assert code == 2
    assert "error: " in err and "must be" in err


def test_fit_unknown_method_exit_code(tmp_path, capsys):
    # `fit` has one summary path per prior and no `method` key: a config
    # naming one, whatever its value, is a configuration error
    cfg = tmp_path / "f.json"
    for method in ("quadrature", "metropolis", "conjugate", "laplace"):
        cfg.write_text(json.dumps({"method": method, "truncation": 8}))
        code, out, err = _run(capsys, "fit", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown config keys: ['method']" in err


def test_report_missing_directory(capsys):
    code, _, _ = _run(capsys, "report", "--out", "/nonexistent-dir")
    assert code == 2


def test_unknown_experiment_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "nope"])
    assert exc.value.code == 2


def test_fit_convergence_error_names_coordinate(tmp_path, capsys,
                                                monkeypatch):
    real = posterior.quadrature_mean_var
    calls = []

    def failing(post, **kwargs):
        calls.append(post)
        if len(calls) == 4:  # coordinate index 3
            raise ConvergenceError("quadrature did not reach tol=1e-06",
                                   achieved=3e-5)
        return real(post, **kwargs)

    monkeypatch.setattr(posterior, "quadrature_mean_var", failing)
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"truth": "sobolev-cos", "truncation": 8,
                               "n": 1000, "prior": "cauchy-ot"}))
    code, _, err = _run(capsys, "fit", "--config", str(cfg),
                        "--out", str(tmp_path / "fit.csv"))
    assert code == 3
    post = calls[3]
    assert "convergence error" in err
    assert "at coordinate 3 " in err
    assert f"x={float(post.observation)!r}" in err
    assert "n=1000.0" in err
    assert f"log_sigma={float(post.log_scale)!r}" in err
    assert "tail=cauchy" in err


def test_fit_hierarchical_gaussian_prints_gibbs_summary(tmp_path, capsys):
    settings = {"truth": "heavisine", "signal_length": 256,
                "coarse_level": 4, "n": 4.0, "prior": "gaussian-hierarchical",
                "draws": 30, "burn_in": 20}
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps(settings))
    code, out, _ = _run(capsys, "fit", "--config", str(cfg), "--seed", "5")
    assert code == 0
    data = model.simulate(cli._make_truth(settings), 4.0, seed=5)
    ref = posterior.gibbs_hierarchical_gaussian(data, draws=30, burn_in=20,
                                                seed=5)
    csv = posterior.summary_to_csv(ref, double_indexed=True)
    assert out.startswith(csv)
    assert out[len(csv):].splitlines() == [
        "# " + line for line in
        posterior.diagnostics_text(ref).splitlines()]
    assert "# method = gibbs" in out


def test_experiment_rejects_removed_and_invalid_settings(tmp_path, capsys):
    for settings, message in [({"extra": {}}, "unknown config keys"),
                              ({"include_sureshrink": True}, "SureShrink")]:
        cfg = tmp_path / "e.json"
        cfg.write_text(json.dumps(settings))
        code, _, err = _run(capsys, "experiment", "sobolev", "--config",
                            str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        assert message in err


@pytest.mark.parametrize("flags,settings,message", [
    (["--parallel", "0"], {}, "parallel"),
    (["--parallel", "-2"], {}, "parallel"),
    ([], {"quadrature_tol": 0}, "quadrature_tol"),
    ([], {"ns": [0, 1000]}, "n values"),
    ([], {"ns": [1000, math.inf]}, "n values"),
    (["--replications", "0"], {}, "replications must be >= 1"),
    ([], {"p_primes": [0.5, 2]}, "p' must be >= 1 (may be inf), got 0.5"),
])
def test_experiment_rejects_invalid_sizes_before_running(tmp_path, capsys,
                                                         flags, settings,
                                                         message):
    # small sizes: a run that starts finishes quickly
    small = {"priors": ["cauchy-ot"], "ns": [100, 1000], "replications": 1,
             "truncation": 10, "draws": 20, "burn_in": 20}
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({**small, **settings}))
    out = tmp_path / "out"
    code, _, err = _run(capsys, "experiment", "sobolev", "--config",
                        str(cfg), "--out", str(out), *flags)
    assert code == 2
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("settings,message", [
    ({"priors": ["cauchy-ot", "cauchy-ot"]}, "priors has duplicate entries"),
    ({"truncation": 10.5}, "truncation must be an integer"),
    ({"replications": 2.0}, "replications must be an integer"),
    ({"priors": "cauchy-ot"}, "priors must be a list"),
    ({"priors": ["cauchy-ot"], "p_primes": "inf"}, "p_primes must be a list"),
    ({"priors": ["cauchy-ot"], "ns": 1000}, "ns must be a list"),
    ({"priors": ["cauchy-ot"], "truths": "sobolev-cos"},
     "truths must be a list"),
    ({"priors": ["cauchy-ot"], "include_bands": "false"},
     "include_bands must be true, false or null"),
])
def test_experiment_rejects_repeats_and_fractional_counts(tmp_path, capsys,
                                                         settings, message):
    small = {"ns": [100, 1000], "replications": 1, "truncation": 10,
             "draws": 20, "burn_in": 20}
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({**small, **settings}))
    out = tmp_path / "out"
    code, _, err = _run(capsys, "experiment", "sobolev", "--config",
                        str(cfg), "--out", str(out))
    assert code == 2
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("cmd,settings,key", [
    ("simulate", {"truncation": 10.5}, "truncation"),
    ("simulate", {"seed": 1.5}, "seed"),
    ("fit", {"truncation": 8, "draws": 50.0}, "draws"),
    ("fit", {"truncation": 8, "burn_in": True}, "burn_in"),
    ("signals", {"truth": "bumps", "signal_length": 2048.0},
     "signal_length"),
    ("signals", {"truth": "least-favorable", "block_index": 1.5},
     "block_index"),
    ("signals", {"truncation": 8, "emit": "samples", "grid_points": 64.5},
     "grid_points"),
])
def test_data_commands_reject_fractional_counts(tmp_path, capsys, cmd,
                                                settings, key):
    # int() used to cut 10.5 to 10 without a word
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(settings))
    code, out, err = _run(capsys, cmd, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"{key} must be an integer" in err


@pytest.mark.parametrize("cmd,settings,key", [
    ("simulate", {"truncation": 8, "n": True}, "n"),
    ("simulate", {"truncation": 8, "n": "1e3"}, "n"),
    ("fit", {"truncation": 8, "quadrature_tol": True}, "quadrature_tol"),
    ("signals", {"truth": "bumps", "snr": "7"}, "snr"),
    ("signals", {"truth": "least-favorable", "amplitude": True},
     "amplitude"),
])
def test_data_commands_reject_non_real_values(tmp_path, capsys, cmd,
                                              settings, key):
    # float() ran n = true at n = 1.0 and the string "1e3" at n = 1000
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(settings))
    code, out, err = _run(capsys, cmd, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"{key} must be a real number" in err


@pytest.mark.parametrize("cmd,settings,message", [
    ("signals", {"truncation": 8, "emit": "samples", "grid_points": 1},
     "grid needs at least 2 points"),
    ("signals", {"truth": "bumps", "snr": 0}, "snr must be > 0"),
    ("signals", {"truth": "bumps", "snr": -7}, "snr must be > 0"),
    ("signals", {"truth": "least-favorable", "amplitude": 0},
     "amplitude must be > 0"),
    ("rates", {"rates": [{"s": 1.5, "p": 0.5, "p_prime": 2}]},
     "p must be >= 1"),
    ("rates", {"rates": [{"s": 1.5, "p": 1, "p_prime": 2, "q": 0.5}]},
     "q must be >= 1"),
    ("rates", {"rates": "x"}, "rates must be a list"),
    ("rates", {"rates": {"s": 1.5, "p": 1, "p_prime": 2}},
     "rates must be a list"),
    ("rates", {"rates": [1]}, "rates must be a list of dicts"),
    # a number used to crash make_prior with an AttributeError
    ("fit", {"truncation": 8, "prior": 3}, "prior must be a string"),
    ("fit", {"truncation": 8, "prior": "student3-ht-1.250"}, "alpha '1.250'"),
])
def test_commands_reject_values_out_of_range(tmp_path, capsys, cmd, settings,
                                             message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(settings))
    code, out, err = _run(capsys, cmd, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("entry,key", [
    ({"s": True, "p": 1, "p_prime": 2}, "s"),
    ({"s": 1.5, "p": "1", "p_prime": 2}, "p"),
    ({"s": 1.5, "p": 1, "p_prime": "6"}, "p_prime"),
    ({"s": 1.5, "p": 1, "p_prime": 2, "q": False}, "q"),
])
def test_rates_config_rejects_non_real_values(tmp_path, capsys, entry, key):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({"rates": [entry]}))
    code, out, err = _run(capsys, "rates", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"{key} must be a real number" in err


def test_rates_flags_and_config_read_p_prime_alike(tmp_path, capsys):
    args = cli.build_parser().parse_args(["rates", "--p-prime", "6"])
    assert args.p_prime == 6.0 and isinstance(args.p_prime, float)
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({"rates": [
        {"s": 1.5, "p": "inf", "p_prime": "inf", "q": "inf"}]}))
    from_config = _run(capsys, "rates", "--config", str(cfg))
    from_flags = _run(capsys, "rates", "--s", "1.5", "--p", "inf",
                      "--p-prime", "inf")
    assert from_config == from_flags and from_config[0] == 0


def test_experiment_rejects_non_real_ns(tmp_path, capsys):
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"priors": ["cauchy-ot"], "ns": [True],
                               "replications": 1}))
    out_dir = tmp_path / "res"
    code, _, err = _run(capsys, "experiment", "sobolev", "--config",
                        str(cfg), "--out", str(out_dir))
    assert code == 2
    assert "each of ns must be a real number" in err
    assert not out_dir.exists()


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["rates", "--s", "1.5", "--p", "1", "--p-prime", "6"]
    code, out, _ = _run(capsys, *argv)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "heavyseries", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == code == 0
    assert proc.stdout == out


@pytest.mark.parametrize("key,value", [("filter_name", "haar"),
                                       ("signal_length", 256),
                                       ("coarse_level", 9)])
def test_frame_keys_rejected_on_single_index_truth(tmp_path, capsys, key,
                                                   value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"truth": "sobolev-cos", "truncation": 8,
                               key: value}))
    for cmd in ("signals", "simulate", "fit"):
        code, out, err = _run(capsys, cmd, "--config", str(cfg))
        assert code == 2, cmd
        assert out == ""
        assert "single-index" in err and key in err


def test_fit_default_prior_follows_the_truth_index_kind(tmp_path, capsys):
    cfg = tmp_path / "f.json"
    for settings, name in [({"truth": "least-favorable", "n": 100},
                            "cauchy-wavelet-ot"),
                           ({"truth": "sobolev-cos", "truncation": 8,
                             "n": 100}, "cauchy-ot")]:
        cfg.write_text(json.dumps(settings))
        code, out, _ = _run(capsys, "fit", "--config", str(cfg))
        assert code == 0
        truth = cli._make_truth(settings)
        data = model.simulate(truth, 100.0, seed=0)
        ref = posterior.fit_posterior(data, priors.make_prior(name, n=100.0),
                                      tol=1e-6)
        assert out.startswith(posterior.summary_to_csv(
            ref, data.basis.double_indexed))
