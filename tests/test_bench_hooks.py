"""The benchmark reaches into the package by name; these names must exist.

``perfbench`` wraps functions where their callers look them up and marks
the first engine call through names bound in ``pauliscope.cli``.  A lost
name only reads as a zero metric there, so it is checked here, as are the
attributes its counters read off real results.  Nothing is wrapped or
installed.
"""

import argparse
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

from pauliscope import cli, rtn
from pauliscope.circuits import CircuitSpec, run_circuit
from pauliscope.driver import ExperimentConfig
from pauliscope.rtn import contract_brickwork_series

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """Run a benchmark module from its path, writing no bytecode beside it."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"_bench_{name}")
    sys.modules[module.__name__] = module  # dataclasses look their module up here
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _resolves(module, attr) -> bool:
    head, _, rest = attr.partition(".")
    owner = module.__dict__.get(head)
    if owner is None:
        return False
    for part in rest.split(".") if rest else ():
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return True


@pytest.mark.parametrize(
    "module_name, attr", [point[:2] for point in _load("spans").trace_points()]
)
def test_trace_point_resolves(module_name, attr):
    assert _resolves(importlib.import_module(module_name), attr)


def test_cli_binds_engine_entries():
    for name in _load("child").ENGINE_ENTRIES:
        assert callable(cli.__dict__.get(name)), name


class _EngineReached(Exception):
    pass


@pytest.mark.parametrize(
    "workload, entry",
    [("mc_chain", "run_ensemble"), ("rtn_chain", "run_ensemble"),
     ("rmpu_scan", "run_ensemble"), ("trunc_chain", "simulate_mse")],
)
def test_cli_enters_engines_through_its_bindings(workload, entry, tmp_path, monkeypatch):
    # the set-up probe replaces these cli attributes and stops at the first
    # call; a handler that held its own reference would run the whole engine
    def stub(name):
        def raise_reached(*args, **kwargs):
            raise _EngineReached(name)
        return raise_reached

    for name in _load("child").ENGINE_ENTRIES:
        monkeypatch.setattr(cli, name, stub(name))
    w = _load("workloads").WORKLOADS["smoke"][workload]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(w.config))
    with pytest.raises(_EngineReached) as exc:
        cli.main([w.command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.args == (entry,)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_workload_configs_pass_validation(size, tmp_path):
    for workload in _load("workloads").WORKLOADS[size].values():
        path = tmp_path / f"{workload.name}.json"
        path.write_text(json.dumps(workload.config))
        args = argparse.Namespace(command=workload.command, config=str(path), engine=None,
                                  realizations=None, threads=None, out=None, seed=None)
        assert cli._load_config(args) == ExperimentConfig.from_dict(workload.config)


def test_span_counters_read_real_results(monkeypatch):
    spans = _load("spans")
    # the state the wrapped step is called on, as the span's counter sees it
    states, step = [], rtn._BoundaryMps.apply_two_site

    def spy(self, i):
        states.append(self)
        step(self, i)

    monkeypatch.setattr(rtn._BoundaryMps, "apply_two_site", spy)
    # 7 sites: past the exact engine's size, so the series runs the boundary MPS
    spec = CircuitSpec(n_sites=7, depth=3, gamma=0.01, noise_placement="per_gate_support")
    series = contract_brickwork_series(spec, [1, 3], k=2, chi_mps=4)
    counts = spans._rtn_series_counts((), {}, series)
    assert counts == {"trunc_err_est": series[3].truncation_error,
                      "flagged_rows": sum(r.flagged for r in series.values())}
    assert counts["trunc_err_est"] > 0.0  # chi_mps = 4 truncates
    assert spans._mps_bond_counts((states[-1],), {}, None) == {"max_bond": 4}
    op = run_circuit(spec, 0)
    assert spans._state_bytes(op) == 8 * 4**7
