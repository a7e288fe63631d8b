"""Benchmark of heavyseries experiments, measured from outside the library.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sobolev --seed 0 --seconds 10 --trace 0

Each workload (see workloads.py) is one `harness.run_experiment` call in
this process with parallel=1; calls repeat until --seconds have been
measured (at least one call).  BLAS threads are capped at the number of
usable CPUs before numpy is imported.  Every call's errors.csv,
slopes.csv and band_widths.csv are checked (see check.py).

--trace 0 reports the end-to-end metrics:
    wall_s       median wall time of run_experiment, write_outputs included
    setup_s      median over fresh processes of `import heavyseries` plus
                 warming the workload's lazy state (this process is one of
                 them; SETUP_PROBES more are started one after another)
    peak_rss_mb  peak resident memory of this process, set-up included
--trace 1 runs the workload untraced as above, then once more with the
tracer of tracing.py installed, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count checked
output values, so failed / attempted is the failure fraction.  Machine and
build facts, the check's details and the spans go to
perfbench/out/<workload>-seed<seed>-trace<t>/.  The exit code is 0 when
every value passed, 1 when one failed and 2 when the library is missing.
"""

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "heavyseries"
REFERENCE = BENCH / "reference"
LAYOUT_SEED = 0
SETUP_PROBES = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny protocol sizes, for the benchmark's self-test")
    return ap.parse_args(argv)


def reference_dirs(workload, seed, tiny):
    """(layout dir, same-seed reference dir); None where nothing is stored."""
    if tiny:
        return None, None
    layout = REFERENCE / workload / f"seed-{LAYOUT_SEED}"
    same = REFERENCE / workload / f"seed-{seed}"
    return layout, (same if same.is_dir() else None)


def run_once(config, out_dir, layout, reference):
    """One run_experiment call: (wall seconds, CheckResult, error text)."""
    from heavyseries import harness

    shutil.rmtree(out_dir, ignore_errors=True)
    config = replace(config, out_dir=str(out_dir))
    start = time.perf_counter()
    try:
        harness.run_experiment(config)
    except Exception:  # a failed run fails every value; report, not crash
        wall = time.perf_counter() - start
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        count = check.expected_count(layout)
        res = check.CheckResult(checked=count)
        res.fail(count, "run_experiment raised")
        return wall, res, error
    wall = time.perf_counter() - start
    return wall, check.check_outputs(out_dir, layout, reference), None


def measure(config, run_dir, seconds, layout, reference):
    """Repeat untraced calls until `seconds` are measured; walls, checks."""
    walls, checks = [], []
    while not walls or sum(walls) < seconds:
        wall, res, error = run_once(config, run_dir / f"call-{len(walls)}",
                                    layout, reference)
        walls.append(wall)
        checks.append(res)
        if error:
            break
    return walls, checks


def setup_probe(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def facts(args, config):
    """Machine and build facts recorded next to every result."""
    import numpy
    import scipy
    from heavyseries import harness

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    loc = {}
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc[path.stem] = data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": NPROC,
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "loc": loc,
        "loc_total": sum(loc.values()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "config": {k: repr(v) for k, v in
                   vars(harness.resolve_config(config)).items()
                   if k != "out_dir"},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"heavyseries sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = BENCH / "out" / (f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}" +
                               ("-tiny" if args.tiny else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    if args.trace:
        import tracing

        with tracing.Tracer() as setup_tracer:
            workloads.setup(args.workload)
        cold_s = setup_tracer.self_times()[tracing.SPLINE_SPAN]
    else:
        setup_samples = [workloads.setup(args.workload)]
        setup_samples += [setup_probe(args.workload)
                          for _ in range(SETUP_PROBES)]

    config = workloads.experiment_config(args.workload, args.seed, run_dir,
                                         tiny=args.tiny)
    layout, reference = reference_dirs(args.workload, args.seed, args.tiny)
    walls, checks = measure(config, run_dir, args.seconds, layout, reference)
    wall_s = statistics.median(walls)
    record = {"facts": facts(args, config), "walls_s": walls}

    if args.trace:
        with tracing.Tracer() as tracer:
            traced_wall, res, _ = run_once(config, run_dir / "traced",
                                           layout, reference)
        checks.append(res)
        tracer.write_spans(run_dir / "spans.jsonl")
        layers = tracing.layer_metrics(tracer, traced_wall, wall_s, cold_s)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        record["traced_wall_s"] = traced_wall
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        record["setup_samples_s"] = setup_samples

    attempted = sum(res.checked for res in checks)
    failed = sum(res.failed for res in checks)
    identical = [res.byte_identical for res in checks]
    record["check"] = {
        "layout": str(layout.relative_to(ROOT)) if layout else None,
        "reference": str(reference.relative_to(ROOT)) if reference else None,
        "rel_tol": check.REL_TOL,
        "abs_tol": check.ABS_TOL,
        "byte_identical": None if reference is None else all(identical),
        "problems": [p for res in checks for p in res.problems][:20],
    }
    record["metrics"] = metrics
    with open(run_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"facts: {json.dumps(record['facts'], sort_keys=True)}")
    print(f"check: {json.dumps(record['check'], sort_keys=True)}")
    print(f"walls_s: {walls}")
    if args.trace:
        print(f"traced_wall_s: {traced_wall!r}  untraced wall_s: {wall_s!r}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
