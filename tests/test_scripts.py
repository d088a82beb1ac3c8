"""The figure scripts run end to end at a tiny size."""

import json
import os
import subprocess
import sys
from pathlib import Path

from pauliscope.cli import main
from pauliscope.csvio import HISTOGRAM_HEADER, MSE_HEADER, read_csv_rows
from pauliscope.rmpu import scaling_predictions

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


def test_run_threshold_scan_finds_the_sign_change(tmp_path):
    stdout = _run("run_threshold_scan.py", "--n-sites", 4, "--realizations", 20,
                  "--gamma-n", 0.1, 0.5, "--out", tmp_path)
    kappa_csv = tmp_path / "kappa.csv"
    data = kappa_csv.read_bytes()
    # the line ending of fit-kappa's CSV
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode().splitlines()
    assert lines[0] == "gammaN,kappa,kappa_stderr,r_squared,n_points"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.1", "0.5"]
    assert "(1 sign change(s);" in stdout
    prediction = scaling_predictions().gamma_c_times_n
    assert f"prediction log((d^2+1)/(2d)) = {prediction:.4f})" in stdout
    # the threshold subcommand reads it and finds the crossing the script printed
    out_json = tmp_path / "threshold.json"
    assert main(["threshold", "--input", str(kappa_csv), "--out", str(out_json)]) == 0
    payload = json.loads(out_json.read_text())
    assert payload["n_sign_changes"] == 1
    assert f"gammaN_c = {payload['gammaN_critical']:.4f} +-" in stdout
