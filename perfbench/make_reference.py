"""Store benchmark-size outputs as the correctness references.

Usage, from the root of the repository:

    python3 perfbench/make_reference.py --seeds 0 1 [--workload sobolev]

Runs each workload once per seed and copies its errors.csv, slopes.csv
and band_widths.csv to perfbench/reference/<workload>/seed-<seed>/.  The
stored files are the outputs of the library at the commit they were made
from; regenerate them only when a change is meant to move the outputs.
"""

import argparse
import shutil
import sys

import check
import run  # caps BLAS threads before numpy is imported
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    action="append")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from heavyseries import harness

    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            out = run.BENCH / "out" / f"reference-{name}-seed{seed}"
            shutil.rmtree(out, ignore_errors=True)
            harness.run_experiment(workloads.experiment_config(name, seed, out))
            dest = run.REFERENCE / name / f"seed-{seed}"
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for file in check.FILES:
                if (out / file).is_file():
                    shutil.copyfile(out / file, dest / file)
            print(f"wrote {dest.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
