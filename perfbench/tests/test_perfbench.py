"""The benchmark's own tests (about 20 s):

    python3 -m pytest perfbench/tests -q

They run the small ``--smoke`` stand-in of every workload, so they need the
checkout's ``src/`` but not the recorded full-size timings.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS["full"])


@pytest.fixture(scope="module")
def rmpu_outputs(tmp_path_factory):
    """Real CLI output of the smoke rmpu scan (deterministic, has the
    known-defect rows)."""
    workload = WORKLOADS["smoke"]["rmpu_scan"]
    run_dir = tmp_path_factory.mktemp("rmpu")
    inv = run.invoke(workload, 0, run_dir, "once")
    assert inv.ok, inv.stderr
    return check.read_outputs(run_dir / "once" / "out")


def test_check_passes_on_recorded_reference(rmpu_outputs):
    entry = check.load_reference("smoke", "rmpu_scan")["entries"]["0"]
    res = check.check_outputs(entry, rmpu_outputs)
    assert res.failed == 0, res.problems
    assert res.attempted == check.expected_rows(entry)
    assert res.defect_rows and all("k=1" in name for name in res.defect_rows)


def test_check_fails_on_corrupted_reference(rmpu_outputs):
    entry = copy.deepcopy(check.load_reference("smoke", "rmpu_scan")["entries"]["0"])
    rows = next(iter(entry["files"].values()))
    victim = next(r for r in rows if r["rtol"] is not None and r["row"]["k"] == "2")
    victim["row"]["value"] = repr(float(victim["row"]["value"]) * (1 + 1e-4))
    res = check.check_outputs(entry, rmpu_outputs)
    assert res.failed == 1
    assert "differs from reference" in res.problems[0]


def test_check_enforces_invariants_on_known_defect_rows(rmpu_outputs):
    entry = check.load_reference("smoke", "rmpu_scan")["entries"]["0"]
    outputs = copy.deepcopy(rmpu_outputs)
    rows = next(iter(outputs.values()))
    victim = next(r for r in rows if r["k"] == "1" and float(r["gamma"]) > 0)
    victim["value"] = "1.5"  # nu_1 > 1
    res = check.check_outputs(entry, outputs)
    assert res.failed == 1 and "nu_1" in res.problems[0]


def test_without_source_tree_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".pycache", "__pycache__"))
    proc = _bench("--workload", "rmpu_scan", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
