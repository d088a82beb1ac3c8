"""The figure scripts run end to end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_crossover_writes_curves(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_crossover.py"),
         "--sizes", "4", "5", "--chi", "16", "--out", str(tmp_path)],
        check=True, env=env, capture_output=True,
    )
    lines = (tmp_path / "mu2_curves.csv").read_text().splitlines()
    assert lines[0] == "N,t,t_over_tstar,mu2,truncation_error"
    # t runs from 1 to int(t*) + 4: 10 depths at N = 4, 11 at N = 5
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [4] * 10 + [5] * 11
    # both sizes fit the exact engine, so nothing is truncated
    assert all(len(r) == 5 and float(r[4]) == 0.0 for r in rows)
