"""Checks of the one-dimensional quadrature engine in `quadrature`.

The engine's older checks are in `test_posterior.py`, next to the fits
that call it; they patch its internals where they live, in `quadrature`.
"""

import math

import pytest

from heavyseries.priors import CAUCHY, GAUSSIAN, HORSESHOE, STUDENT3
from heavyseries.quadrature import UnivariatePosterior, quadrature_mean_var

_LEVELS = (0.05, 0.5, 0.95)


@pytest.mark.parametrize("tail", [CAUCHY, STUDENT3, HORSESHOE, GAUSSIAN],
                         ids=lambda t: t.name)
@pytest.mark.parametrize("x", [5e-324, -5e-324], ids=["plus", "minus"])
def test_subnormal_observation_fits_like_zero(tail, x):
    # the panel [0, 5e-324] has half-width 0 after rounding, so all its
    # nodes sit on theta = 0, the horseshoe's pole; it carries no mass and
    # is dropped.  Measured: the x = 0 fit's variance and log normalizer
    # exactly, mean and quantiles within 1e-14 sd.
    mean, var, log_norm, qs = quadrature_mean_var(
        UnivariatePosterior(x, 1e3, 0.0, tail), quantiles=_LEVELS)
    z_mean, z_var, z_log_norm, z_qs = quadrature_mean_var(
        UnivariatePosterior(0.0, 1e3, 0.0, tail), quantiles=_LEVELS)
    sd = math.sqrt(z_var)
    assert z_mean == 0.0
    assert abs(mean) <= 1e-12 * sd
    assert var == pytest.approx(z_var, rel=1e-12)
    assert log_norm == pytest.approx(z_log_norm, abs=1e-12)
    for q in _LEVELS:
        assert abs(qs[q] - z_qs[q]) <= 1e-12 * sd, q
