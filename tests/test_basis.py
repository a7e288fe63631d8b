import contextlib

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
            np.sqrt(np.mean(values[0] ** 2)), rel=1e-12, abs=0.0)
    else:
        assert basis.parseval_scale(b) == 1.0


@pytest.mark.parametrize("make", [basis.cosine_basis, basis.sine_basis])
def test_synthesize_reuses_one_read_only_design(make):
    b = make()
    mat = basis._grid_design(b, 33, 7)
    assert np.array_equal(mat, basis.design(b, basis.grid(b, 33), 7))
    assert basis._grid_design(make(), 33, 7) is mat
    with pytest.raises(ValueError):
        mat[0, 0] = 0.0
    coeffs = np.random.default_rng(2).normal(size=(3, 7))
    assert np.array_equal(basis.synthesize(coeffs, b, 33),
                          (basis.design(b, basis.grid(b, 33), 7)
                           @ coeffs.T).T)


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


_OPENBLAS = basis._openblas_threads()
needs_openblas = pytest.mark.skipif(_OPENBLAS is None,
                                    reason="numpy's OpenBLAS not found")


@contextlib.contextmanager
def _blas_threads(count):
    get, set_ = _OPENBLAS
    previous = get()
    set_(count)
    try:
        yield
    finally:
        set_(previous)


@needs_openblas
@pytest.mark.parametrize("make", [basis.cosine_basis, basis.sine_basis])
@pytest.mark.parametrize("draws", [None, 928, 1024, 4000],
                         ids=["vector", "928", "1024", "4000"])
def test_one_thread_synthesis_matches_the_pool(make, draws):
    # a `sobolev` band's products: its centre, and its slices of 4000
    # draws of K = 200 coefficients on 256 points
    b = make()
    gen = np.random.default_rng(draws or 0)
    coeffs = gen.normal(size=200 if draws is None else (draws, 200))
    mat = basis.design(b, basis.grid(b, 256), 200)
    with _blas_threads(2):
        assert np.array_equal(basis.synthesize(coeffs, b, 256),
                              (mat @ coeffs.T).T)


@needs_openblas
def test_one_thread_scope_restores_the_count(monkeypatch):
    get, _ = _OPENBLAS
    b = basis.cosine_basis()
    coeffs = np.ones((8, 5))
    with _blas_threads(3):
        with basis._one_blas_thread():
            assert get() == 1
        assert get() == 3
        basis.synthesize(coeffs, b, 16)
        assert get() == 3
        # a design of the wrong width makes the product itself raise
        monkeypatch.setattr(basis, "_grid_design",
                            lambda *args: np.ones((16, 6)))
        with pytest.raises(ValueError):
            basis.synthesize(coeffs, b, 16)
        assert get() == 3


def test_no_openblas_leaves_the_product_as_it_is(tmp_path, monkeypatch):
    (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    (tmp_path / "libopenblas.so").write_bytes(b"")
    assert basis._find_openblas([tmp_path / "missing", tmp_path]) is None
    monkeypatch.setattr(basis, "_openblas_threads", lambda: None)
    b = basis.sine_basis()
    coeffs = np.random.default_rng(3).normal(size=(7, 5))
    assert np.array_equal(basis.synthesize(coeffs, b, 33),
                          (basis.design(b, basis.grid(b, 33), 5)
                           @ coeffs.T).T)
