"""The figure pipelines end to end at a tiny size: a ``pauliscope`` subcommand
writes the CSV, then the figure script reads it and prints its fit lines.

The pinned lines are what the scripts printed when they still ran the engines
themselves, on the same parameters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from pauliscope.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _cli(tmp_path, command, config) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out"


def _run(script, *inputs) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--input", *map(str, inputs)],
        check=True, env=env, capture_output=True, text=True,
    )
    return done.stdout.splitlines()


def test_run_crossover_writes_curves(tmp_path):
    out = _cli(tmp_path, "rtn", {
        "circuit": {"geometry": "chain", "n_sites": 4, "depth": 11},
        "sweep": {"n": [4, 5], "t": list(range(1, 12)), "k": [2]}, "chi_mps": 16,
    })
    assert len((out / "moments_rtn.csv").read_text().splitlines()) == 1 + 22
    assert _run("run_crossover.py", out / "moments_rtn.csv") == [
        "N=4: crossing at t=6.66 (t/t* = 1.072)",
        "N=5: crossing at t=7.59 (t/t* = 0.977)",
        "crossing-depth slope vs N: 0.925 (prediction 1.553)",
    ]


def test_run_spectrum_2d_writes_histograms(tmp_path):
    out = _cli(tmp_path, "spectrum-hist", {
        "circuit": {"geometry": "grid", "lx": 2, "ly": 2, "depth": 4, "master_seed": 90210},
        "sweep": {"gamma": [0.28 / 4, 1.05 / 4]}, "n_realizations": 20,
    })
    assert _run("run_spectrum_2d.py", out / "histogram.csv") == [
        "N=4 t=4 gammaN=0.28: tail slope -1.95 +- 0.07, max OPT pull in [0.1,10]: 16.4 sigma",
        "N=4 t=4 gammaN=1.05: tail slope -1.50 +- 0.07, max OPT pull in [0.1,10]: 46.7 sigma",
    ]


def test_run_truncation_mse_writes_curves(tmp_path):
    out = _cli(tmp_path, "truncate-mse", {
        "circuit": {"geometry": "chain", "n_sites": 3, "depth": 6, "master_seed": 31415},
        "sweep": {"gamma": [0.1 / 3, 1.0 / 3]}, "n_realizations": 20,
    })
    assert _run("run_truncation_mse.py", *sorted(out.glob("mse_gamma*.csv"))) == [
        "N=3 gammaN=0.1: log-log MSE slope -0.636 +- 0.087",
        "N=3 gammaN=1: log-log MSE slope -1.503 +- 0.101",
    ]
