"""CSV schemas and run sidecars (the plotting contract of the experiments)."""

from __future__ import annotations

import csv
import json
import numbers
import time
from pathlib import Path

MOMENTS_HEADER = [
    "engine", "geometry", "N", "r", "t", "gamma", "noise_placement",
    "k", "quantity", "value", "stderr", "n_samples", "seed",
]
HISTOGRAM_HEADER = [
    "N", "t", "gamma", "bin_lo", "bin_hi", "density", "density_stderr",
    "zero_mass", "n_samples", "seed",
]
MSE_HEADER = ["N", "t", "gamma", "N_P", "mse", "stderr", "n_samples", "seed"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        return repr(float(value))
    return str(value)


def write_moments_csv(path, estimates, engine: str) -> None:
    """One row per MomentEstimate; meta must carry the CircuitSpec and t.

    For the rtn engine the stderr column holds the truncation-error
    estimate of the deterministic contraction.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(MOMENTS_HEADER)
        for est in estimates:
            spec = est.meta["spec"]
            w.writerow(
                [
                    engine,
                    spec.geometry,
                    spec.n_sites,
                    _fmt(spec.r),
                    est.meta["t"],
                    _fmt(spec.gamma),
                    spec.noise_placement,
                    est.k,
                    est.quantity,
                    _fmt(est.value),
                    _fmt(est.stderr),
                    est.n_samples,
                    spec.master_seed,
                ]
            )


def write_histogram_csv(path, ensembles, seed: int) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(HISTOGRAM_HEADER)
        for h in ensembles:
            bins = zip(h.bin_edges[:-1], h.bin_edges[1:], h.density_mean, h.density_stderr)
            for lo, hi, dens, dens_err in bins:
                w.writerow(
                    [h.n_sites, h.depth, _fmt(h.gamma), _fmt(float(lo)),
                     _fmt(float(hi)), _fmt(float(dens)), _fmt(float(dens_err)),
                     _fmt(h.zero_mass), h.n_samples, seed]
                )


def write_mse_csv(path, points, spec, seed: int) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(MSE_HEADER)
        for p in points:
            w.writerow(
                [spec.n_sites, spec.depth, _fmt(spec.gamma), p.n_paulis,
                 _fmt(p.mse), _fmt(p.stderr), p.n_samples, seed]
            )


def write_kappa_csv(path, rows: list[dict]) -> None:
    """One row per fitted series, columns in the order of the first row's keys."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(rows[0].keys())
        for row in rows:
            w.writerow([_fmt(v) for v in row.values()])


def write_sidecar(path, resolved_config: dict, wall_seconds: float) -> None:
    payload = dict(resolved_config)
    payload["wall_seconds"] = wall_seconds
    payload["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
