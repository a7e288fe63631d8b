"""Level-wise soft thresholding with SURE-selected thresholds.

The hybrid scheme works per detail level on coefficients rescaled to unit
noise: if the level looks sparse by the standard energy test, the
universal threshold sqrt(2 log d) is used; otherwise the threshold
minimizes Stein's Unbiased Risk Estimate, capped at the universal value.
Coarse (pseudo-level) coefficients pass through untouched.
"""

import math

import numpy as np

from . import wavelets
from .errors import InvalidParameterError


def soft_threshold(values, threshold):
    if not threshold >= 0:  # NaN fails too
        raise InvalidParameterError("threshold must be >= 0")
    values = np.asarray(values, dtype=float)
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def sure_risk(values, threshold):
    """SURE for soft thresholding at unit noise:
    d - 2 #{|x_i| <= t} + sum min(x_i^2, t^2)."""
    values = np.asarray(values, dtype=float)
    d = len(values)
    small = np.abs(values) <= threshold
    return float(d - 2 * np.count_nonzero(small)
                 + np.sum(np.minimum(values**2, threshold**2)))


def sure_threshold(values):
    """Threshold minimizing SURE; candidates are the sorted |x_i| and 0."""
    values = np.asarray(values, dtype=float)
    d = len(values)
    ax = np.sort(np.abs(values))
    sq = ax**2
    csum = np.cumsum(sq)
    # risk at t = ax[i]: d - 2(i+1) + csum[i] + (d-i-1) * sq[i]
    idx = np.arange(d)
    risks = d - 2.0 * (idx + 1) + csum + (d - idx - 1) * sq
    best = int(np.argmin(risks))
    risk0 = sure_risk(values, 0.0)
    if risk0 <= risks[best]:
        return 0.0
    return float(ax[best])


def _sparse_level(values):
    """Energy test: treat the level as sparse when
    (sum x^2 - d)/d <= (log2 d)^{3/2} / sqrt(d)."""
    d = len(values)
    s2 = (np.sum(values**2) - d) / d
    return s2 <= math.log2(d) ** 1.5 / math.sqrt(d)


def hybrid_sureshrink(data_coeffs, frame, noise_precision):
    """Hybrid SureShrink estimate of the coefficient sequence.

    Each detail level is rescaled to unit noise (multiplied by sqrt(n)),
    thresholded, and rescaled back.  Pseudo-levels below the coarse level
    are returned unchanged.
    """
    x = np.asarray(data_coeffs, dtype=float)
    if not noise_precision > 0:  # NaN fails too
        raise InvalidParameterError("noise precision must be > 0")
    root_n = math.sqrt(noise_precision)
    out = x.copy()
    for j in frame.detail_levels():
        sl = wavelets.level_slice(j)
        level = x[sl] * root_n
        d = len(level)
        universal = math.sqrt(2.0 * math.log(d))
        if _sparse_level(level):
            t = universal
        else:
            t = min(sure_threshold(level), universal)
        out[sl] = soft_threshold(level, t) / root_n
    return out
