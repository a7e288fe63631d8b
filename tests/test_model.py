import math

import numpy as np
import pytest

from heavyseries import basis, model, signals
from heavyseries.errors import InvalidParameterError, ShapeError
from heavyseries.wavelets import WaveletFrame


def _truth(K=20):
    return signals.truth_sobolev_cos(K)


def test_simulate_deterministic():
    t = _truth()
    a = model.simulate(t, 100.0, seed=5)
    b = model.simulate(t, 100.0, seed=5)
    assert np.array_equal(a.observations, b.observations)
    c = model.simulate(t, 100.0, seed=6)
    assert not np.array_equal(a.observations, c.observations)


def test_noise_independent_of_truth():
    # identical seeds give identical noise realizations regardless of truth
    t = _truth()
    zero = model.TrueSignal(np.zeros(20), t.basis)
    a = model.simulate(t, 50.0, seed=3)
    z = model.simulate(zero, 50.0, seed=3)
    assert np.allclose(a.observations - t.coefficients, z.observations,
                       atol=1e-14)


def test_noise_scale():
    # across many coordinates the noise sd tracks 1/sqrt(n)
    zero = model.TrueSignal(np.zeros(4000), basis.cosine_basis())
    for n in (1.0, 1e4):
        d = model.simulate(zero, n, seed=0)
        sd = d.observations.std()
        assert sd == pytest.approx(1.0 / np.sqrt(n), rel=0.06)


def test_invalid_inputs():
    t = _truth()
    for n in (0.0, np.nan):
        with pytest.raises(InvalidParameterError):
            model.simulate(t, n, seed=0)
        with pytest.raises(InvalidParameterError):
            model.SequenceData(np.zeros(20), n, basis.cosine_basis(), 0)
    with pytest.raises(InvalidParameterError, match="must not be empty"):
        model.TrueSignal(np.array([]), basis.cosine_basis())
    with pytest.raises(InvalidParameterError):
        model.TrueSignal(np.array([1.0, np.nan]), basis.cosine_basis())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_data_rejects_non_finite_observations(bad):
    # one rule for every fit path: quadrature, Metropolis and Gibbs each
    # treated a non-finite observation its own way
    x = np.zeros(4)
    x[2] = bad
    with pytest.raises(InvalidParameterError, match="observations must be "
                                                    "finite"):
        model.SequenceData(x, 10.0, basis.cosine_basis(), 0)


def test_truncation_is_the_observation_count():
    # K is stated once, by the truth: the data count their observations,
    # and neither the data nor `simulate` takes a K of its own
    d = model.SequenceData(np.zeros(7), 10.0, basis.cosine_basis(), 0)
    assert d.truncation == len(d.observations) == 7
    with pytest.raises(TypeError):
        model.SequenceData(np.zeros(7), 10.0, 7, basis.cosine_basis(), 0)
    with pytest.raises(TypeError):
        model.SequenceData(np.zeros(7), 10.0, truncation=7,
                           basis=basis.cosine_basis(), seed=0)
    with pytest.raises(TypeError):
        model.simulate(_truth(), 10.0, 20, seed=0)
    assert model.simulate(_truth(12), 10.0, seed=0).truncation == 12


def test_wavelet_data_keeps_frame_length():
    # a wavelet truth has the frame's length, so its data do too
    frame = WaveletFrame("haar", 64, 3)
    t = signals.truth_quartet("blocks", frame)
    with pytest.raises(ShapeError, match="frame's length"):
        model.TrueSignal(t.coefficients[:32], t.basis)
    d = model.simulate(t, 1.0, seed=0)
    assert d.basis.double_indexed and d.truncation == 64


def test_csv_round_trip_single_index():
    t = _truth(6)
    d = model.simulate(t, 100.0, seed=1)
    text = model.data_to_csv(d)
    values, double_indexed, meta = model.values_from_csv(text)
    assert not double_indexed
    assert np.array_equal(values, d.observations)
    assert meta["n"] == repr(100.0)
    assert meta["K"] == "6"


def test_csv_round_trip_double_index():
    frame = WaveletFrame("haar", 16, 2)
    t = signals.truth_quartet("doppler", frame)
    d = model.simulate(t, 1.0, seed=2)
    values, double_indexed, _ = model.values_from_csv(model.data_to_csv(d))
    assert double_indexed
    assert np.array_equal(values, d.observations)


def test_coefficients_csv():
    text = model.coefficients_to_csv(np.array([1.5, -2.0]), False,
                                     meta={"x": 1})
    values, double_indexed, meta = model.values_from_csv(text)
    assert np.array_equal(values, [1.5, -2.0])
    assert meta["x"] == "1"


def test_csv_text_cell_rule():
    # any float, numpy floats included, is the repr of the Python float;
    # anything else is its str, in the meta line as in the rows
    text = model.csv_text(
        ("a", "b", "c", "d", "e", "f", "g"),
        [(np.float64(0.1), math.inf, -0.0, 3, np.int64(4), "x",
          np.float32(0.5)),
         (1e-300, -math.inf, np.float64(-0.0), -2, np.int64(-7), "y z",
          np.float64(1e300))],
        meta={"n": np.float64(100.0), "K": np.int64(6), "basis": "cosine",
              "w": math.inf})
    assert text == ("# n=100.0 K=6 basis=cosine w=inf\n"
                    "a,b,c,d,e,f,g\n"
                    "0.1,inf,-0.0,3,4,x,0.5\n"
                    "1e-300,-inf,-0.0,-2,-7,y z,1e+300\n")
    assert model.csv_text(("t", "value"), [], meta={}) == "t,value\n"


def test_write_text_makes_directories_and_writes_stdout(tmp_path, capsys):
    path = tmp_path / "a" / "b" / "x.csv"
    model.write_text(str(path), "t\n1.0\n")
    assert path.read_text() == "t\n1.0\n"
    model.write_text("-", "to stdout\n")
    model.write_text(None, "again\n")
    assert capsys.readouterr().out == "to stdout\nagain\n"
