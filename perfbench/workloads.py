"""The benchmark's workloads: one heavyseries experiment each.

Every workload is a single `harness.run_experiment` call with the
experiment's default protocol sizes; only the replication count is cut,
to one.  The workloads were chosen to stress different layers:

  sobolev        narrow (200-chain) Metropolis blocks, credible bands, the
                 horseshoe spline; no wavelet code
  inhomogeneous  4000 x 2048 draw stacks: wide Metropolis, the Gibbs
                 baseline, wavelet synthesis inside contraction_errors
  sparse-besov   per-coordinate quadrature and nothing else of weight; no
                 draws, so draw-stack changes should leave it unchanged.
                 Runnable, but not listed in BENCHMARK.json: its ten-seed
                 wall-time spread reached 0.31 on a shared 2-CPU VM, above
                 the largest allowed bound (see README.md)

This module imports only the standard library at import time, so a fresh
process can time its own `import heavyseries`.
"""

import time

REPLICATIONS = 1

WORKLOADS = {
    "sobolev": {"experiment": "sobolev"},
    "inhomogeneous": {"experiment": "inhomogeneous", "truths": ("bumps",)},
    "sparse-besov": {"experiment": "sparse-besov"},
}

# Module-level tail instances each workload fits with; set-up evaluates
# one quadrature per tail, which builds whatever that tail keeps lazily
# (for the horseshoe, its cubic spline).
TAILS = {
    "sobolev": ("STUDENT3", "CAUCHY", "HORSESHOE"),
    "inhomogeneous": ("CAUCHY",),
    "sparse-besov": ("CAUCHY",),
}

# Tiny sizes for the benchmark's self-test: same code paths, seconds each.
TINY = {
    "sobolev": {"ns": (1e3, 1e4), "truncation": 20, "draws": 200,
                "burn_in": 100},
    "inhomogeneous": {"draws": 100, "burn_in": 100},
    "sparse-besov": {"ns": (1e2, 1e3)},
}


def experiment_config(name, seed, out_dir, tiny=False):
    """The workload's ExperimentConfig for one seed, writing to out_dir."""
    from heavyseries import harness

    fields = dict(WORKLOADS[name])
    if tiny:
        fields.update(TINY[name])
    return harness.ExperimentConfig(replications=REPLICATIONS, seed=seed,
                                    out_dir=str(out_dir), parallel=1,
                                    **fields)


def setup(name):
    """Import heavyseries and warm the lazy state the workload uses.

    Returns the seconds this took; in a fresh process that is the set-up
    cost every CLI run and every pool worker pays.
    """
    start = time.perf_counter()
    import heavyseries

    for tail in TAILS[name]:
        post = heavyseries.UnivariatePosterior(1.0, 1e3, 0.0,
                                               getattr(heavyseries, tail))
        heavyseries.quadrature_mean_var(post, tol=1e-6)
    return time.perf_counter() - start
