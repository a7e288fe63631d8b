"""Correctness check of an experiment's CSV outputs.

Three files are checked: errors.csv, slopes.csv and band_widths.csv.
Every numeric value in them counts as one checked value.

* The row set must equal the layout reference (the stored default-seed
  outputs, whose rows do not depend on the seed).  A missing or unexpected
  row fails all of its values.
* Every value must be finite; errors and band widths must be >= 0.
* When outputs for the same seed are stored, every value must match its
  stored value within REL_TOL (relative) or ABS_TOL (absolute).  Quadrature
  changes may move values within the quadrature tolerance (1e-6 relative
  per coordinate); REL_TOL leaves room for that to propagate into an error
  norm or a fitted slope.  Byte identity of the files is reported as a
  separate fact and does not count as a failure.
"""

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Optional

REL_TOL = 1e-4
ABS_TOL = 1e-9

# file name -> (key columns, value columns, values must be >= 0)
FILES = {
    "errors.csv": (("experiment", "prior", "truth", "n", "p_prime",
                    "error_type", "replications"), ("mean", "se"), True),
    "slopes.csv": (("experiment", "prior", "truth", "p_prime", "error_type"),
                   ("slope", "intercept"), False),
    "band_widths.csv": (("experiment", "prior", "n", "replications"),
                        ("width_mean", "width_se"), True),
}


@dataclass
class CheckResult:
    checked: int = 0
    failed: int = 0
    byte_identical: Optional[bool] = None  # None: no same-seed reference
    problems: list = field(default_factory=list)

    def fail(self, count, problem):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def read_table(path, name):
    """{key tuple: [values]} of one output file; None when it is absent."""
    if not os.path.isfile(path):
        return None
    key_cols, value_cols, _ = FILES[name]
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[tuple(row[c] for c in key_cols)] = [
                _number(row[c]) for c in value_cols]
    return rows


def _number(text):
    # an unparsable cell counts as a non-finite value, so it fails
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def expected_count(layout_dir):
    """Number of values the layout reference holds (at least 1)."""
    total = 0
    for name, (_, value_cols, _) in FILES.items():
        rows = read_table(os.path.join(layout_dir, name), name) \
            if layout_dir else None
        total += len(rows or ()) * len(value_cols)
    return max(total, 1)


def check_outputs(out_dir, layout_dir=None, reference_dir=None):
    """Check the files in out_dir; see the module docstring.

    layout_dir holds outputs of any seed and fixes the row set;
    reference_dir holds outputs of this seed and fixes the values.  Either
    may be None.
    """
    res = CheckResult()
    for name, (_, value_cols, nonneg) in FILES.items():
        width = len(value_cols)
        got = read_table(os.path.join(out_dir, name), name)
        layout = read_table(os.path.join(layout_dir, name), name) \
            if layout_dir else None
        ref = read_table(os.path.join(reference_dir, name), name) \
            if reference_dir else None
        if got is None and layout is None and ref is None:
            if name == "errors.csv":
                res.checked += 1
                res.fail(1, f"{name} missing")
            continue
        got = got or {}
        expected = layout if layout is not None else ref
        keys = list(got) + [k for k in (expected or ()) if k not in got]
        for key in keys:
            res.checked += width
            if key not in got:
                res.fail(width, f"{name}: missing row {key}")
                continue
            if expected is not None and key not in expected:
                res.fail(width, f"{name}: unexpected row {key}")
                continue
            for i, (col, value) in enumerate(zip(value_cols, got[key])):
                where = f"{name}: {col} of {key} = {value!r}"
                if not math.isfinite(value) or (nonneg and value < 0):
                    res.fail(1, where + (" is not finite and >= 0" if nonneg
                                         else " is not finite"))
                elif ref is not None and key not in ref:
                    res.fail(1, where + ", row not in the reference")
                elif ref is not None and not math.isclose(
                        value, ref[key][i], rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    res.fail(1, where + f", reference {ref[key][i]!r}")
    if reference_dir is not None:
        res.byte_identical = all(
            _read_bytes(os.path.join(out_dir, name))
            == _read_bytes(os.path.join(reference_dir, name))
            for name in FILES)
    return res


def _read_bytes(path):
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()
