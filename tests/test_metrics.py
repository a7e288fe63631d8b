import math

import numpy as np
import pytest

from heavyseries import basis, metrics, wavelets
from heavyseries.errors import InvalidParameterError, ShapeError


def test_grid_norm():
    v = np.array([3.0, -4.0])
    assert metrics.grid_norm(v, 2) == pytest.approx(math.sqrt(12.5))
    assert metrics.grid_norm(v, math.inf) == 4.0
    with pytest.raises(InvalidParameterError):
        metrics.grid_norm(v, 0.5)


def test_lp_error_parseval_matches_grid():
    b = basis.cosine_basis()
    gen = np.random.default_rng(0)
    est, truth = gen.normal(size=30), gen.normal(size=30)
    exact = metrics.lp_error(est, truth, 2, b)
    assert exact == pytest.approx(float(np.linalg.norm(est - truth)))
    # fine-grid Riemann value converges to the coefficient-space value
    grid_val = metrics.grid_norm(
        basis.synthesize(est - truth, b, 20001), 2)
    assert grid_val == pytest.approx(exact, rel=1e-3)


def test_lp_error_wavelet_normalization():
    frame = wavelets.WaveletFrame("symmlet-8", 256, 4)
    b = basis.wavelet_basis(frame)
    gen = np.random.default_rng(1)
    est, truth = gen.normal(size=256), gen.normal(size=256)
    # sample-domain L2: ||diff_samples|| / sqrt(m) by orthonormality
    samples = wavelets.synthesize(est - truth, frame)
    expect = float(np.linalg.norm(samples)) / math.sqrt(256)
    assert metrics.lp_error(est, truth, 2, b) == pytest.approx(expect,
                                                               abs=1e-12)
    # L_inf from the synthesized samples
    assert metrics.lp_error(est, truth, math.inf, b) == pytest.approx(
        float(np.max(np.abs(samples))))


def test_lp_error_shape_mismatch():
    with pytest.raises(ShapeError):
        metrics.lp_error(np.zeros(3), np.zeros(4), 2, basis.cosine_basis())


def test_contraction_errors_match_single():
    frame = wavelets.WaveletFrame("haar", 32, 3)
    b = basis.wavelet_basis(frame)
    gen = np.random.default_rng(2)
    draws = gen.normal(size=(32, 40))
    truth = gen.normal(size=32)
    ps = [1.0, 2.0, 4.0, math.inf]
    multi = metrics.contraction_errors(draws, truth, ps, b)
    for p in ps:
        assert multi[p] == metrics.contraction_errors(draws, truth, [p], b)[p]


def test_contraction_norms_blocked_bit_identical():
    # a draw count that is not a multiple of the row block
    frame = wavelets.WaveletFrame("symmlet-8", 256, 3)
    b = basis.wavelet_basis(frame)
    rows = 2 * metrics._NORM_BLOCK_ROWS + 37
    gen = np.random.default_rng(4)
    draws = gen.standard_cauchy(size=(256, rows))
    truth = gen.normal(size=256)
    ps = [1.0, 1.5, 3.0, 6.0, math.inf]
    values = wavelets.synthesize(draws.T - truth[None, :], frame)
    errors = metrics.contraction_errors(draws, truth, ps, b)
    for p in ps:
        if math.isinf(p):
            whole = np.max(np.abs(values), axis=1)
        else:
            whole = np.mean(np.abs(values) ** p, axis=1) ** (1.0 / p)
        assert np.array_equal(metrics._row_norms(values, p), whole)
        # cosine/sine stacks arrive F-ordered; the rows reduce the same way
        assert np.array_equal(
            metrics._row_norms(np.asfortranarray(values), p), whole)
        assert errors[p] == float(whole.mean())


def test_contraction_at_least_mean_error():
    # Jensen: mean over draws of ||f - f0|| >= ||mean(f) - f0||
    b = basis.cosine_basis()
    gen = np.random.default_rng(3)
    draws = gen.normal(size=(10, 100))
    truth = gen.normal(size=10)
    ce = metrics.contraction_errors(draws, truth, [2], b)[2]
    me = metrics.lp_error(draws.mean(axis=1), truth, 2, b)
    assert ce >= me - 1e-12


def test_contraction_degenerate_draws():
    b = basis.cosine_basis()
    truth = np.array([1.0, -1.0])
    draws = np.tile(truth[:, None], (1, 7))
    assert metrics.contraction_errors(draws, truth, [2], b)[2] == 0.0


def test_slope_fit_exact_power_law():
    ns = np.array([1e2, 1e3, 1e4])
    errors = 5.0 * ns**-0.375
    slope, intercept = metrics.slope_fit(ns, errors)
    assert slope == pytest.approx(-0.375, abs=1e-12)
    assert intercept == pytest.approx(math.log(5.0), abs=1e-10)


def test_slope_fit_validation():
    with pytest.raises(InvalidParameterError):
        metrics.slope_fit([1.0], [1.0])
    with pytest.raises(InvalidParameterError):
        metrics.slope_fit([1.0, 2.0], [1.0, 0.0])
