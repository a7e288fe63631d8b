"""Self-test of the benchmark, at tiny protocol sizes.

Run from the root of the repository (about a minute):

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py   # the same tests

It checks that every workload in workloads.py emits exactly the metrics
BENCHMARK.json names, that the output check flags perturbed, missing and
invalid values, and that the benchmark refuses to run without the
library's sources.
Scratch files go under perfbench/out/selftest/.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / "out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every runnable workload, including those BENCHMARK.json does not list
WORKLOADS = sorted(workloads.WORKLOADS)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def reference_copy(workload, name):
    dest = SCRATCH / name
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(BENCH / "reference" / workload / "seed-0", dest)
    return dest


def edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def scale_first(column, factor):
    def edit(rows):
        rows[0][column] = repr(float(rows[0][column]) * factor)
        return rows
    return edit


def set_first(column, text):
    def edit(rows):
        rows[0][column] = text
        return rows
    return edit


def test_every_metric_for_every_workload():
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace)
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), (workload, name)
            if trace:
                remainder = result["metrics"]["trace.unattributed_frac"]
                assert abs(remainder["value"]) < 0.01, workload


def test_references_pass_their_own_check():
    for workload in WORKLOADS:
        layout = BENCH / "reference" / workload / "seed-0"
        for ref in sorted((BENCH / "reference" / workload).iterdir()):
            res = check.check_outputs(ref, layout, ref)
            assert res.failed == 0 and res.byte_identical, res.problems
            assert res.checked == check.expected_count(layout)


def test_perturbed_reference_value_is_a_failure():
    ref = BENCH / "reference" / "sobolev" / "seed-0"
    out = reference_copy("sobolev", "perturbed")
    edit_csv(out / "errors.csv", scale_first("mean", 1 + 10 * check.REL_TOL))
    res = check.check_outputs(out, ref, ref)
    assert res.failed == 1 and res.byte_identical is False, res.problems

    out = reference_copy("sobolev", "within-tolerance")
    edit_csv(out / "band_widths.csv",
             scale_first("width_mean", 1 + check.REL_TOL / 10))
    res = check.check_outputs(out, ref, ref)
    assert res.failed == 0 and res.byte_identical is False, res.problems


def test_missing_row_and_invalid_values_fail():
    layout = BENCH / "reference" / "sparse-besov" / "seed-0"
    out = reference_copy("sparse-besov", "missing-row")
    edit_csv(out / "slopes.csv", lambda rows: rows[1:])
    res = check.check_outputs(out, layout)
    assert res.failed == 2 and res.byte_identical is None, res.problems

    for name, edit in (("negative", scale_first("mean", -1.0)),
                       ("nan", set_first("se", "nan")),
                       ("garbled", set_first("mean", "x"))):
        out = reference_copy("sparse-besov", name)
        edit_csv(out / "errors.csv", edit)
        res = check.check_outputs(out, layout)
        assert res.failed == 1, (name, res.problems)


def test_refuses_to_run_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_"):
            test()
            print(f"ok  {test_name}")
