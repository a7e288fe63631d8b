"""The normal sequence model: observations of basis coefficients under
additive Gaussian noise with precision n.

Single-indexed data carry coordinates k = 1..K; double-indexed (wavelet)
data carry (j, k) pairs in the packed layout of the wavelets module.
Noise is drawn coordinate-by-coordinate from counter-based streams, so a
simulated data set is a pure function of (truth, n, K, seed).
"""

import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng, wavelets
from .basis import BasisDescriptor
from .errors import InvalidParameterError, ShapeError


@dataclass(frozen=True)
class TrueSignal:
    """A truth: coefficient sequence plus the basis it refers to."""

    coefficients: np.ndarray
    basis: BasisDescriptor
    declared_class: Optional[dict] = None  # e.g. {"space": "sobolev", "beta": 1.0}

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=float)
        )
        if not np.all(np.isfinite(self.coefficients)):
            raise InvalidParameterError("truth coefficients must be finite")


@dataclass(frozen=True)
class SequenceData:
    observations: np.ndarray
    noise_precision: float
    truncation: int
    basis: BasisDescriptor
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "observations", np.asarray(self.observations, dtype=float)
        )
        if not self.noise_precision > 0:  # NaN fails too
            raise InvalidParameterError("noise precision n must be > 0")
        if len(self.observations) != self.truncation:
            raise ShapeError("observation length must equal the truncation K")
        if not np.all(np.isfinite(self.observations)):
            raise InvalidParameterError("observations must be finite")

    @property
    def double_indexed(self):
        return self.basis.double_indexed


def padded_coefficients(truth, K):
    f0 = truth.coefficients
    if len(f0) >= K:
        return f0[:K].copy()
    return np.concatenate([f0, np.zeros(K - len(f0))])


def simulate(truth, noise_precision, truncation, seed):
    """Draw X_k = f_{0,k} + xi_k / sqrt(n) with per-coordinate noise streams.

    For double-indexed truths the truncation must equal the frame length;
    coordinate keys are the packed flat indices.
    """
    n = float(noise_precision)
    K = int(truncation)
    if not n > 0:  # NaN fails too
        raise InvalidParameterError("noise precision n must be > 0")
    if K < 1:
        raise InvalidParameterError("truncation K must be >= 1")
    if truth.basis.double_indexed and K != truth.basis.frame.signal_length:
        raise ShapeError("wavelet data must keep the full frame length")
    f0 = padded_coefficients(truth, K)
    xi = rng.coord_normal(seed, rng.STREAM_NOISE, range(K))
    return SequenceData(
        observations=f0 + xi / np.sqrt(n),
        noise_precision=n,
        truncation=K,
        basis=truth.basis,
        seed=seed,
    )


# --- CSV text and the files it goes to ------------------------------------
# `csv_text` builds every CSV the package writes, `write_text` writes every
# file; coefficient rows are index_j,index_k,value, j = -2 if single-index.


def _cell(value):
    return (repr(float(value)) if isinstance(value, (float, np.floating))
            else str(value))


def csv_text(columns, rows, meta=None):
    """An optional `# key=value ...` line of meta, the header row of
    columns and one line per row.  A float, numpy floats included, is the
    repr of the Python float, so it reads back exactly; any other value
    is its str."""
    lines = ["# " + " ".join(f"{key}={_cell(value)}"
                             for key, value in meta.items())] if meta else []
    lines.append(",".join(columns))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def write_text(path, text):
    """Write text to path, making its directory; None or "-" is stdout."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


_SENTINEL_SINGLE = -2


def index_rows(length, double_indexed):
    """(index_j, index_k) of each of length CSV rows."""
    if double_indexed:
        return wavelets.flat_keys(length)
    return [(_SENTINEL_SINGLE, k) for k in range(1, length + 1)]


def data_to_csv(data):
    return coefficients_to_csv(
        data.observations, data.double_indexed,
        meta={"n": data.noise_precision, "K": data.truncation,
              "seed": data.seed, "basis": data.basis.kind})


def coefficients_to_csv(values, double_indexed, meta=None):
    rows = ((j, k, float(v)) for (j, k), v in
            zip(index_rows(len(values), double_indexed), values))
    return csv_text(("index_j", "index_k", "value"), rows, meta)


def values_from_csv(text):
    """Read back a coefficient CSV; returns (values, double_indexed, meta)."""
    meta = {}
    values = []
    double_indexed = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for item in line[1:].split():
                if "=" in item:
                    key, _, val = item.partition("=")
                    meta[key] = val
            continue
        if line.startswith("index_j"):
            continue
        j_s, k_s, v_s = line.split(",")
        if int(j_s) != _SENTINEL_SINGLE:
            double_indexed = True
        values.append(float(v_s))
    return np.array(values), double_indexed, meta
