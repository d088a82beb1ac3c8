"""The figure scripts run end to end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

from pauliscope.csvio import HISTOGRAM_HEADER, MSE_HEADER, read_csv_rows

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        check=True, env=env, capture_output=True, text=True,
    )
    return done.stdout


def test_run_crossover_writes_curves(tmp_path):
    _run("run_crossover.py", "--sizes", 4, 5, "--chi", 16, "--out", tmp_path)
    lines = (tmp_path / "mu2_curves.csv").read_text().splitlines()
    assert lines[0] == "N,t,t_over_tstar,mu2,truncation_error"
    # t runs from 1 to int(t*) + 4: 10 depths at N = 4, 11 at N = 5
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [4] * 10 + [5] * 11
    # both sizes fit the exact engine, so nothing is truncated
    assert all(len(r) == 5 and float(r[4]) == 0.0 for r in rows)


def test_run_spectrum_2d_writes_histograms(tmp_path):
    stdout = _run("run_spectrum_2d.py", "--lx", 2, "--ly", 2, "--depth", 4,
                  "--realizations", 20, "--out", tmp_path)
    for gn in ("0.28", "1.05"):
        rows = read_csv_rows(tmp_path / f"histogram_gn{gn}.csv")
        assert list(rows[0]) == HISTOGRAM_HEADER and len(rows) == 60
        assert {(r["N"], r["t"], r["n_samples"]) for r in rows} == {("4", "4", "20")}
    assert stdout.count("tail slope") == 2


def test_run_truncation_mse_writes_curves(tmp_path):
    stdout = _run("run_truncation_mse.py", "--sizes", 3, "--gamma-n", 0.1, 1.0,
                  "--realizations", 20, "--out", tmp_path)
    for gn in ("0.1", "1"):
        rows = read_csv_rows(tmp_path / f"mse_N3_gn{gn}.csv")
        assert list(rows[0]) == MSE_HEADER
        # the default grid: powers of two up to 4^3
        assert [int(r["N_P"]) for r in rows] == [2**j for j in range(7)]
    assert stdout.count("log-log MSE slope") == 2
