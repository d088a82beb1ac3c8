"""CSV schemas and run sidecars (the plotting contract of the experiments).

Every result reaches its CSV as a list of rows, dicts keyed by the header's
columns.
"""

from __future__ import annotations

import csv
import json
import time

import numpy as np

from . import BLAS_THREAD_ENV

MOMENTS_HEADER = [
    "engine", "geometry", "N", "r", "t", "gamma", "noise_placement",
    "k", "quantity", "value", "stderr", "n_samples", "seed",
]
HISTOGRAM_HEADER = [
    "N", "t", "gamma", "bin_lo", "bin_hi", "density", "density_stderr",
    "zero_mass", "n_samples", "seed",
]
MSE_HEADER = ["N", "t", "gamma", "N_P", "mse", "stderr", "n_samples", "seed"]
KAPPA_HEADER = [
    "gamma", "gammaN", "kappa", "kappa_stderr", "t_min", "t_max", "r_squared", "n_points",
]


def _fmt(value) -> str:
    """A cell's text: "" for None, the repr of a (numpy) float, else str."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header: list[str], rows: list[dict]) -> None:
    """``header``, then each row's cells in header order, every line ending in \\n."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_fmt(row[col]) for col in header] for row in rows)


def write_moments_csv(path, rows: list[dict]) -> None:
    """For the rtn engine the stderr column holds the truncation-error estimate."""
    _write_csv(path, MOMENTS_HEADER, rows)


def write_histogram_csv(path, rows: list[dict]) -> None:
    _write_csv(path, HISTOGRAM_HEADER, rows)


def write_mse_csv(path, rows: list[dict]) -> None:
    _write_csv(path, MSE_HEADER, rows)


def write_kappa_csv(path, rows: list[dict]) -> None:
    """One row per fitted series."""
    _write_csv(path, KAPPA_HEADER, rows)


def write_sidecar(path, resolved_config: dict, wall_seconds: float) -> None:
    payload = dict(resolved_config)
    payload["wall_seconds"] = wall_seconds
    payload["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    payload["runtime"] = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                          "blas_thread_env": BLAS_THREAD_ENV}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv_rows(path, columns=()) -> list[dict]:
    """The rows of a CSV whose header names every one of ``columns``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks columns: {', '.join(missing)}")
        return list(reader)
