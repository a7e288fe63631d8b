"""Shared fixtures: the brute-force posterior oracle and a scratch-memory
probe.

The oracle integrates the unnormalized posterior density on a fixed,
deterministic grid with plain trapezoid rule over disjoint segments.  It
shares only the exact tail log-densities with the library (those are
validated separately against closed forms and analytic bounds), not the
horseshoe spline the engine evaluates; the integration scheme is entirely
independent of the adaptive quadrature engine it is used to check.
"""

import math
import tracemalloc

import numpy as np
import pytest

_WINDOW = 12.0


def _oracle_log_density(t, x, n, sigma, tail):
    ax = np.abs(t)
    prior = tail.log_density_log_abs(np.log(ax) - math.log(sigma))
    return -0.5 * n * (x - t) ** 2 + prior - math.log(sigma)


def _oracle_segments(x, n, sigma):
    w = _WINDOW / math.sqrt(n)
    T = sigma * 1e10
    lo = min(x - w, -T)
    hi = max(x + w, T)
    pts = {lo, hi, x - w, x + w}
    base = max(abs(lo), abs(hi))
    for m in range(140):
        s = base * 2.0**-m
        pts.add(s)
        pts.add(-s)
    for m in range(80):
        s = sigma * 2.0**-m
        pts.add(s)
        pts.add(-s)
    bp = sorted(p for p in pts if lo <= p <= hi)
    # drop near-duplicate breakpoints; keep segments strictly nonempty
    out = [bp[0]]
    for p in bp[1:]:
        if p - out[-1] > 1e-300:
            out.append(p)
    return out, w


def brute_force_mean_var(x, n, sigma, tail, dense=200_000, sparse=1_500):
    """Trapezoid-rule posterior mean and variance on a fixed grid.

    Segments inside the likelihood window x +/- 12/sqrt(n) get a share of
    `dense` points; every other segment gets `sparse`.  The tiny central
    gap (-sigma 2^-79, sigma 2^-79) is excluded, which removes the
    horseshoe pole at the cost of a relative mass error far below any
    tolerance used here.
    """
    bp, w = _oracle_segments(x, n, sigma)
    grids = []
    for a, b in zip(bp[:-1], bp[1:]):
        if a < 0.0 < b:
            continue  # central gap straddling the pole
        if b <= x + w and a >= x - w:
            npts = max(sparse, int(dense * (b - a) / (2.0 * w)))
        else:
            npts = sparse
        t = np.linspace(a, b, npts)
        grids.append((t, _oracle_log_density(t, x, n, sigma, tail)))
    peak = max(float(lf.max()) for _, lf in grids)
    z = m1 = 0.0
    for t, lf in grids:
        f = np.exp(lf - peak)
        z += np.trapezoid(f, t)
        m1 += np.trapezoid(t * f, t)
    mean = m1 / z
    m2 = 0.0
    for t, lf in grids:
        f = np.exp(lf - peak)
        m2 += np.trapezoid((t - mean) ** 2 * f, t)
    return mean, m2 / z


@pytest.fixture(scope="session")
def oracle():
    return brute_force_mean_var


def scratch_peak_bytes(fn, *args):
    """Peak bytes fn(*args) allocates beyond what exists when it starts,
    as numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def scratch_peak():
    return scratch_peak_bytes
