import json
import os

import pytest

from heavyseries import cli, posterior
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


def test_rates_missing_flags_config_error(capsys):
    code, _, err = _run(capsys, "rates")
    assert code == 2
    assert "rates" in err


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


def test_experiment_bad_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, _ = _run(capsys, "experiment", "sobolev", "--config", str(cfg))
    assert code == 2


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
