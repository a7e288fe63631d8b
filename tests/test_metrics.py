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


@pytest.mark.parametrize("p_prime", [0.5, 0.0, -math.inf, math.nan])
def test_p_prime_below_one_rejected(p_prime):
    b = basis.cosine_basis()
    v = np.array([3.0, -4.0])
    with pytest.raises(InvalidParameterError):
        metrics.grid_norm(v, p_prime)
    with pytest.raises(InvalidParameterError):
        metrics.lp_error(v, np.zeros(2), p_prime, b)
    with pytest.raises(InvalidParameterError):
        metrics.contraction_errors(np.ones((2, 3)), np.zeros(2),
                                   [2.0, p_prime], b)


def test_lp_error_parseval_matches_grid():
    b = basis.cosine_basis()
    gen = np.random.default_rng(0)
    est, truth = gen.normal(size=30), gen.normal(size=30)
    exact = metrics.lp_error(est, truth, 2, b)
    assert exact == pytest.approx(float(np.linalg.norm(est - truth)))
    # fine-grid Riemann value converges to the coefficient-space value
    grid_val = metrics.grid_norm(
        basis.synthesize(est - truth, b, 20001), 2)
    assert grid_val == pytest.approx(exact, rel=1e-3, abs=0.0)


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


def _whole_stack_errors(draws, truth, p_primes, b):
    # every draw at once; grid values reduced as C-ordered rows
    diff = draws.T - truth[None, :]
    values = np.abs(basis.synthesize(
        diff, b, basis.grid_size(b, metrics.DEFAULT_GRID)), order="C")
    out = {}
    for p in p_primes:
        if p == 2:
            norms = np.linalg.norm(diff, axis=1) / basis.parseval_scale(b)
        elif math.isinf(p):
            norms = np.max(values, axis=1)
        else:
            norms = np.mean(values ** p, axis=1) ** (1.0 / p)
        out[p] = float(norms.mean())
    return out


def test_contraction_norms_blocked_bit_identical(monkeypatch):
    # the budget is set to blocks of 256 draws over the wider of the
    # coordinates and the grid
    block = 256
    ps = [1.0, 1.5, 2.0, 3.0, 6.0, math.inf]
    frame = wavelets.WaveletFrame("symmlet-8", 256, 3)
    cases = [(basis.cosine_basis(), 64), (basis.wavelet_basis(frame), 256)]
    for b, K in cases:
        width = max(K, basis.grid_size(b, metrics.DEFAULT_GRID))
        monkeypatch.setattr(wavelets, "_BLOCK_VALUES", block * width)
        for count in (1, block - 1, block, block + 1, 2 * block + 37):
            gen = np.random.default_rng(count)
            draws = gen.standard_cauchy(size=(K, count))
            truth = gen.normal(size=K)
            errors = metrics.contraction_errors(draws, truth, ps, b)
            assert errors == _whole_stack_errors(draws, truth, ps, b), (
                b.kind, count)


def test_contraction_scratch_does_not_grow_with_draws(scratch_peak):
    # Measured on a 2048-coordinate Symmlet-8 stack, five p': 7.58 MB of
    # scratch at 1000 draws and 7.66 MB at 3000, in blocks of 128 draws;
    # blocks of 256 took 16.9 and 17.0 MB, and the whole-stack version
    # 49.2 and 147.5 MB.  The bounds leave 10% for the per-draw norms and
    # allocator noise.
    frame = wavelets.WaveletFrame("symmlet-8", 2048, 5)
    b = basis.wavelet_basis(frame)
    ps = (1.0, 2.0, 3.0, 6.0, math.inf)
    gen = np.random.default_rng(5)
    truth = gen.normal(size=2048)
    peaks = [scratch_peak(metrics.contraction_errors,
                          gen.standard_cauchy(size=(2048, count)), truth,
                          ps, b)
             for count in (1000, 3000)]
    assert peaks[1] < 1.1 * peaks[0], peaks
    assert peaks[1] < 1.1 * 7.66e6, peaks


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
