import numpy as np
import pytest
from scipy import integrate

from heavyseries import basis, wavelets
from heavyseries.errors import InvalidParameterError, ShapeError
from heavyseries.wavelets import WaveletFrame


@pytest.mark.parametrize("make", [basis.cosine_basis, basis.sine_basis])
def test_orthonormality_on_unit_interval(make):
    b = make()
    for j in (1, 2, 5):
        for k in (1, 2, 5):
            val, _ = integrate.quad(
                lambda t: basis.evaluate(b, j, t) * basis.evaluate(b, k, t),
                0.0, 1.0, limit=200)
            assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)


def test_synthesize_matches_evaluate():
    b = basis.cosine_basis()
    coeffs = np.array([1.0, -0.5, 0.25])
    t = basis.grid(b, 33)
    expect = sum(c * basis.evaluate(b, k + 1, t) for k, c in enumerate(coeffs))
    assert np.allclose(basis.synthesize(coeffs, b, 33), expect, atol=1e-12)


def test_wavelet_basis_round_trip():
    frame = WaveletFrame("symmlet-8", 256, 4)
    b = basis.wavelet_basis(frame)
    x = np.random.default_rng(0).normal(size=256)
    c = wavelets.analyze(x, frame)
    assert np.max(np.abs(basis.synthesize(c, b, 256) - x)) < 1e-10


@pytest.mark.parametrize("b", [
    basis.cosine_basis(), basis.sine_basis(),
    basis.wavelet_basis(WaveletFrame("symmlet-8", 64, 3))])
def test_synthesize_stack_and_parseval_scale(b):
    m = basis.grid_size(b, 40)
    stack = np.random.default_rng(1).normal(size=(64, 5)).T  # F-ordered
    values = basis.synthesize(stack, b, m)
    assert values.shape == (5, m)
    for row, coeffs in zip(values, stack):
        assert np.allclose(row, basis.synthesize(coeffs, b, m), atol=1e-12)
    # the wavelet frame is orthonormal on its own grid: ||c|| / scale is
    # the grid-normalized L2 norm of the function
    if b.double_indexed:
        assert basis.parseval_scale(b) == 8.0
        assert np.linalg.norm(stack[0]) / 8.0 == pytest.approx(
            np.sqrt(np.mean(values[0] ** 2)), rel=1e-12)
    else:
        assert basis.parseval_scale(b) == 1.0


def test_wavelet_basis_requires_frame_and_matching_m():
    with pytest.raises(InvalidParameterError):
        basis.BasisDescriptor(basis.WAVELET)
    frame = WaveletFrame("haar", 64, 3)
    b = basis.wavelet_basis(frame)
    with pytest.raises(ShapeError):
        basis.synthesize(np.zeros(64), b, 128)


def test_grid_conventions():
    assert basis.grid(basis.cosine_basis(), 5)[0] == 0.0
    assert basis.grid(basis.cosine_basis(), 5)[-1] == 1.0
    frame = WaveletFrame("haar", 8, 2)
    g = basis.grid(basis.wavelet_basis(frame), 999)  # m ignored for wavelets
    assert np.array_equal(g, (np.arange(8) + 1.0) / 8)


def test_evaluate_rejects_wavelet():
    frame = WaveletFrame("haar", 8, 2)
    with pytest.raises(InvalidParameterError):
        basis.evaluate(basis.wavelet_basis(frame), 1, 0.5)
