import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pauliscope import driver
from pauliscope.circuits import CircuitSpec
from pauliscope.cli import COMMANDS, main
from pauliscope.csvio import MOMENTS_HEADER, read_csv_rows
from pauliscope.driver import ExperimentConfig, run_ensemble, simulate_moments
from pauliscope.rmpu import rmpu_moment_exact
from pauliscope.rtn import contract_brickwork_series

CFG = {
    "circuit": {
        "geometry": "chain",
        "n_sites": 4,
        "depth": 6,
        "gamma": 0.05,
        "master_seed": 7,
    },
    "sweep": {"t": [2, 4, 6], "k": [2]},
    "n_realizations": 20,
    "engine": "simulator",
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CFG))
    return p


#: a config path that is never written
UNWRITTEN = "<unwritten>"


def _config_error(argv, capsys) -> str:
    """The stderr of a run whose config or input is rejected before any work:
    exit status 2, as for argparse usage errors, and one line, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    return err


def _csv_bytes(path) -> bytes:
    """A written CSV, whose lines all end in a bare \\n."""
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    return data


def test_moments_command(tmp_path, cfg_path):
    out = tmp_path / "run"
    assert main(["moments", "--config", str(cfg_path), "--out", str(out)]) == 0
    _csv_bytes(out / "moments.csv")
    rows = read_csv_rows(out / "moments.csv")
    assert len(rows) == 9
    meta = json.loads((out / "moments.meta.json").read_text())
    assert meta["n_realizations"] == 20 and "wall_seconds" in meta
    # a JSON integer for a float field is stored, and so written, as a float
    for key, value, gammas, stored in (
        ("circuit", {**CFG["circuit"], "gamma": 0}, ["0.0"], "0.0"),
        ("sweep", {"t": [2], "gamma": [0, 0.05], "k": [2]}, ["0.0", "0.05"], "[0.0, 0.05]"),
    ):
        cfg_path.write_text(json.dumps({**CFG, key: value}))
        out = tmp_path / key
        assert main(["moments", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "moments.csv")
        assert sorted({r["gamma"] for r in rows}) == gammas
        meta = json.loads((out / "moments.meta.json").read_text())
        assert json.dumps(meta[key]["gamma"]) == stored


def test_seeded_moments_rerun_is_byte_identical(tmp_path, cfg_path):
    """A seeded moments run (noisy chain, folded per-site noise) writes the
    same moments.csv, byte for byte, when it is run again."""
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["moments", "--config", str(cfg_path), "--out", str(out)]) == 0
    first, second = (_csv_bytes(out / "moments.csv") for out in outs)
    assert first == second


def _csv_at_blas_threads(tmp_path, command, cfg, csv_name) -> list[bytes]:
    """The CSV a CLI run of ``cfg`` writes with OpenBLAS at 1 and at 2 threads,
    each run in a fresh interpreter so the thread count takes effect."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "pauliscope.cli", command, "--config",
                        str(path), "--out", str(out)], check=True, env=env)
        outs.append(_csv_bytes(out / csv_name))
    return outs


def test_seeded_moments_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A seeded N=9 noisy-chain moments run at k = 2, 3 (a 4^9 spectrum, past any
    BLAS threading threshold) writes the same moments.csv, byte for byte, with
    OpenBLAS at 1 and at 2 threads: no threaded BLAS call splits a reduction."""
    cfg = {**CFG, "circuit": {**CFG["circuit"], "n_sites": 9, "depth": 4},
           "sweep": {"t": [2, 4], "k": [2, 3]}, "n_realizations": 2}
    first, second = _csv_at_blas_threads(tmp_path, "moments", cfg, "moments.csv")
    assert first == second


def test_exact_rtn_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The exact replica contraction of a noisy N=6 chain (k = 1, 2) writes the
    same moments_rtn.csv, byte for byte, with OpenBLAS at 1 and at 2 threads."""
    cfg = {"circuit": {"geometry": "chain", "n_sites": 6, "depth": 12, "gamma": 0.01},
           "sweep": {"t": [4, 8, 12], "k": [1, 2]}, "engine": "rtn"}
    first, second = _csv_at_blas_threads(tmp_path, "rtn", cfg, "moments_rtn.csv")
    assert first == second


def test_null_entries_count_as_left_out(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**CFG, "engine": None, "sweep": {"t": [2], "n_paulis": None}}))
    out = tmp_path / "run"
    assert main(["moments", "--config", str(p), "--out", str(out)]) == 0
    assert json.loads((out / "moments.meta.json").read_text())["engine"] == "simulator"


def test_flag_overrides(tmp_path, cfg_path):
    out = tmp_path / "run"
    main([
        "moments", "--config", str(cfg_path), "--out", str(out),
        "--seed", "99", "--realizations", "10",
    ])
    rows = read_csv_rows(out / "moments.csv")
    assert rows[0]["seed"] == "99" and rows[0]["n_samples"] == "10"


def test_flags_are_validated_with_the_config(tmp_path, cfg_path, capsys):
    argv = ["moments", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    assert "n_realizations" in _config_error(argv + ["--realizations", "1"], capsys)
    assert "threads" in _config_error(argv + ["--threads", "0"], capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, text, flags, message",
    [
        ("rtn", json.dumps({**CFG, "engine": "rtn", "sweep": {"t": [2], "k": [2, 3]}}), [],
         r"sweep\.k \[3\] outside \[1, 2\] for engine rtn"),
        ("moments", '{"circuit": {"n_sites": 4,}}', [], "Expecting property name"),
        ("moments", None, [], r"--config <path\.json> is required"),
        ("moments", UNWRITTEN, [], "No such file or directory"),
        ("moments", json.dumps({**CFG, "sweep": None}), [],
         "sweep must be a JSON object, not null"),
        ("moments", json.dumps({**CFG, "circuit": None}), [],
         "circuit must be a JSON object, not null"),
        # --seed is applied to the circuit before the config is built
        ("moments", json.dumps({**CFG, "circuit": None}), ["--seed", "3"],
         "circuit must be a JSON object, not null"),
        ("moments", json.dumps([CFG]), [], "config must be a JSON object, not list"),
        # values are checked against the dataclass annotations
        ("moments", json.dumps({**CFG, "circuit": {**CFG["circuit"], "n_sites": "4"}}), [],
         'circuit.n_sites must be int, not "4"'),
        ("moments", json.dumps({**CFG, "threads": None}), [],
         "config.threads must be int, not null"),
        ("moments", json.dumps({**CFG, "n_realizations": None}), [],
         "config.n_realizations must be int, not null"),
        ("moments", json.dumps({**CFG, "n_realizations": 2.5}), [],
         r"config.n_realizations must be int, not 2\.5"),
        ("moments", json.dumps({**CFG, "sweep": {"t": 2}}), [],
         "sweep.t must be a list of int or null, not 2"),
        ("moments", json.dumps({**CFG, "sweep": {"k": None}}), [],
         "sweep.k must be a list of int, not null"),
        # every swept point is built, and so checked, before any work starts
        ("moments", json.dumps({**CFG, "sweep": {"n": [1]}}), [],
         "need at least 2 sites"),
        ("moments", json.dumps({**CFG, "sweep": {"gamma": [2.0]}}), [],
         r"gamma=2\.0 outside \[0, 1\]"),
        ("moments", json.dumps({**CFG, "sweep": {"t": [2], "n": [14]}}), [],
         "N=14 exceeds the simulator's 13 sites"),
        ("rmpu-exact", json.dumps({"circuit": {"geometry": "rmpu", "n_sites": 6, "r": 4},
                                   "sweep": {"n": [6, 4]}}), [],
         "rmpu needs 1 <= r <= N-1, got r=4"),
        ("truncate-mse", json.dumps({**CFG, "circuit": {**CFG["circuit"], "n_sites": 3},
                                     "sweep": {"n_paulis": [1, 1000]}}), [],
         r"sweep\.n_paulis \[1000\] outside \[1, 64\] at N=3"),
        ("moments", json.dumps({**CFG, "sweep": {"t": []}}), [], r"sweep\.t is empty"),
        ("truncate-mse", json.dumps({**CFG, "sweep": {"n_paulis": []}}), [],
         r"sweep\.n_paulis is empty"),
        ("moments", json.dumps({**CFG, "sweep": {"t": [2], "k": []}}), [],
         r"sweep\.k is empty"),
        ("moments", json.dumps({**CFG, "sweep": {"t": [2], "gamma": []}}), [],
         r"sweep\.gamma is empty"),
        ("moments", json.dumps({**CFG, "sweep": {"t": [2], "n": []}}), [],
         r"sweep\.n is empty"),
        # each engine's circuits are checked at load time, not once it has started
        ("rtn", json.dumps({**CFG, "engine": "rtn", "sweep": {"t": [2]},
                            "circuit": {"geometry": "grid", "lx": 2, "ly": 2, "depth": 4}}), [],
         "the rtn engine evaluates chain circuits with per_gate_support noise, "
         "not grid with per_gate_support"),
        ("rtn", json.dumps({"circuit": {"geometry": "rmpu", "n_sites": 4, "r": 1}}), [],
         "not rmpu with per_gate_support"),
        ("rtn", json.dumps({**CFG, "engine": "rtn", "sweep": {"t": [2]},
                            "circuit": {**CFG["circuit"],
                                        "noise_placement": "per_qubit_per_layer"}}), [],
         "not chain with per_qubit_per_layer"),
        ("rmpu-exact", json.dumps({"circuit": CFG["circuit"]}), [],
         "the rmpu_exact engine evaluates rmpu circuits with per_gate_support noise, "
         "not chain with per_gate_support"),
        ("rmpu-asymptotic", json.dumps({"circuit": {"geometry": "grid", "lx": 2, "ly": 2}}), [],
         "the rmpu_asymptotic engine evaluates rmpu circuits with per_gate_support noise, "
         "not grid with per_gate_support"),
        # the rmpu engines start the operator inside the first staircase block
        ("rmpu-exact", json.dumps({"circuit": {"geometry": "rmpu", "n_sites": 4, "r": 1,
                                               "initial_site": 3}}), [],
         r"the rmpu_exact engine needs initial_site in \[0, r=1\], not 3"),
        ("rmpu-asymptotic", json.dumps({"circuit": {"geometry": "rmpu", "n_sites": 6, "r": 2,
                                                    "initial_site": 3},
                                        "sweep": {"gamma": [0.0, 0.01]}}), [],
         r"the rmpu_asymptotic engine needs initial_site in \[0, r=2\], not 3"),
        # both gammas format as 0.01: their rows would overwrite each other
        ("truncate-mse", json.dumps({**CFG, "sweep": {"gamma": [0.01, 0.0100000001]}}), [],
         r"sweep\.gamma \[0\.01, 0\.0100000001\] would write two values to "
         r"mse_gamma0\.01\.csv"),
    ],
    ids=["rtn_k", "bad_json", "no_config", "missing_path", "sweep_null", "circuit_null",
         "circuit_null_seed", "top_level_array", "n_sites_str", "threads_null",
         "realizations_null", "realizations_float", "sweep_t_int", "sweep_k_null",
         "sweep_n_one", "sweep_gamma_two", "sweep_n_above_simulator", "rmpu_sweep_n_at_r",
         "n_paulis_above_4n", "sweep_t_empty", "n_paulis_empty", "sweep_k_empty",
         "sweep_gamma_empty", "sweep_n_empty", "rtn_grid", "rtn_rmpu", "rtn_layer_noise",
         "rmpu_exact_chain", "rmpu_asymptotic_grid", "rmpu_exact_site",
         "rmpu_asymptotic_site", "mse_gamma_shared_file"],
)
def test_config_errors_are_one_line_usage_errors(tmp_path, capsys, command, text, flags,
                                                 message):
    argv = [command, "--out", str(tmp_path / "out"), *flags]
    if text is not None:  # None: no --config flag at all
        p = tmp_path / "cfg.json"
        if text != UNWRITTEN:
            p.write_text(text)
        argv += ["--config", str(p)]
    err = _config_error(argv, capsys)
    assert re.fullmatch(rf"pauliscope {command}: error: .*{message}.*\n", err)
    assert not (tmp_path / "out").exists()


def test_spectrum_hist_command(tmp_path):
    p = tmp_path / "hist.json"
    p.write_text(json.dumps({**CFG, "sweep": {"t": [2, 4, 6]}}))
    out = tmp_path / "hist"
    assert main(["spectrum-hist", "--config", str(p), "--out", str(out)]) == 0
    _csv_bytes(out / "histogram.csv")
    rows = read_csv_rows(out / "histogram.csv")
    assert len(rows) == 3 * 60  # three depths x 60 bins


def test_spectrum_hist_threads_match_serial(tmp_path):
    # the histogram observable reaches spawned workers and comes back unchanged
    data = []
    for threads in (1, 2):
        p = tmp_path / f"hist{threads}.json"
        p.write_text(json.dumps({**CFG, "sweep": {"t": [2, 6]}, "threads": threads}))
        out = tmp_path / f"out{threads}"
        assert main(["spectrum-hist", "--config", str(p), "--out", str(out)]) == 0
        data.append(_csv_bytes(out / "histogram.csv"))
    assert data[0] == data[1]


def test_rmpu_commands(tmp_path):
    cfg = {
        "circuit": {"geometry": "rmpu", "n_sites": 4, "r": 1, "master_seed": 3,
                     "initial_site": 0},
        "sweep": {"k": [2], "gamma": [0.0, 0.05]},
        "n_realizations": 2,
    }
    p = tmp_path / "rmpu.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["rmpu-exact", "--config", str(p), "--out", str(out)]) == 0
    assert main(["rmpu-asymptotic", "--config", str(p), "--out", str(out)]) == 0
    exact = read_csv_rows(out / "moments_rmpu_exact.csv")
    asym = read_csv_rows(out / "moments_rmpu_asymptotic.csv")
    _csv_bytes(out / "moments_rmpu_exact.csv")
    _csv_bytes(out / "moments_rmpu_asymptotic.csv")
    assert len(exact) == 2 and len(asym) == 2
    assert exact[0]["engine"] == "rmpu_exact"


def test_rmpu_exact_sweep_matches_single_points(tmp_path):
    cfg = {
        "circuit": {"geometry": "rmpu", "n_sites": 6, "r": 2, "master_seed": 3},
        "sweep": {"n": [6, 7, 8, 9, 10, 11, 12], "gamma": [0.0, 0.03], "k": [1, 2, 3]},
        "n_realizations": 1,
    }
    p = tmp_path / "rmpu.json"
    p.write_text(json.dumps(cfg))
    assert main(["rmpu-exact", "--config", str(p), "--out", str(tmp_path)]) == 0
    rows = read_csv_rows(tmp_path / "moments_rmpu_exact.csv")
    # N outermost, then gamma, then k
    want = [(n, g, k) for n in range(6, 13) for g in (0.0, 0.03) for k in (1, 2, 3)]
    assert [(int(r["N"]), float(r["gamma"]), int(r["k"])) for r in rows] == want
    for row, (n, g, k) in zip(rows, want):
        spec = CircuitSpec(geometry="rmpu", n_sites=n, r=2, gamma=g)
        single = rmpu_moment_exact([(spec, k)])[0]
        assert float(row["value"]) == single


def test_rtn_command(tmp_path):
    cfg = {
        "circuit": {"geometry": "chain", "n_sites": 4, "depth": 4, "master_seed": 3},
        "sweep": {"t": [2, 4], "k": [2]},
        "engine": "rtn",
        "n_realizations": 2,
    }
    p = tmp_path / "rtn.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["rtn", "--config", str(p), "--out", str(out)]) == 0
    _csv_bytes(out / "moments_rtn.csv")
    rows = read_csv_rows(out / "moments_rtn.csv")
    assert len(rows) == 2 and rows[0]["engine"] == "rtn"
    # an unset placement is the one the rtn engine needs, in the rows and the sidecar
    sidecar = json.loads((out / "moments_rtn.meta.json").read_text())["circuit"]
    assert {r["noise_placement"] for r in rows} == {sidecar["noise_placement"]}
    assert sidecar["noise_placement"] == "per_gate_support"


def test_every_engine_has_a_subcommand():
    assert set(driver.ENGINES) == {engine for engine, _, _ in COMMANDS.values()}


@pytest.mark.parametrize("command, engine", [("moments", "simulator"), ("rtn", "rtn")])
def test_configured_initial_site_reaches_the_rows(tmp_path, command, engine):
    # on 5 sites the edge site 0 and the default centre site 2 give different values
    cfg = {
        "circuit": {"geometry": "chain", "n_sites": 5, "depth": 4, "gamma": 0.05,
                     "master_seed": 7, "initial_site": 0},
        "sweep": {"t": [2, 4], "k": [2]},
        "n_realizations": 20,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(p), "--out", str(out)]) == 0
    stem = "moments" if command == "moments" else "moments_rtn"
    sidecar = json.loads((out / f"{stem}.meta.json").read_text())["circuit"]
    assert sidecar["initial_site"] == 0
    rows = run_ensemble(ExperimentConfig.from_dict({**cfg, "engine": engine}))
    columns = {"geometry": sidecar["geometry"], "N": sidecar["n_sites"], "r": sidecar["r"],
               "gamma": sidecar["gamma"], "seed": sidecar["master_seed"],
               "noise_placement": sidecar["noise_placement"]}
    assert all({key: r[key] for key in columns} == columns for r in rows)
    spec = CircuitSpec(**sidecar)
    if engine == "simulator":
        expected = [e["value"] for e in simulate_moments(spec, [2, 4], [2], 20)]
    else:
        series = contract_brickwork_series(spec, [2, 4], k=2)
        expected = [series[t].value for t in (2, 4)]
    values = [float(r["value"]) for r in read_csv_rows(out / f"{stem}.csv")]
    assert values == expected == [r["value"] for r in rows]


def test_rtn_command_rejects_non_physical_values(tmp_path):
    # chi_mps = 8 truncates so hard that the contraction at t = 6 goes negative; the
    # value itself is not pinned, as the cut falls inside a degenerate multiplet
    cfg = {
        "circuit": {"geometry": "chain", "n_sites": 7, "depth": 6, "gamma": 0.0,
                     "master_seed": 1},
        "sweep": {"t": [2, 4, 6], "k": [2]},
        "engine": "rtn",
        "chi_mps": 8,
    }
    p = tmp_path / "rtn.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with pytest.raises(FloatingPointError, match=r"N=7, t=6, k=2 .* non-physical value -\d"):
        main(["rtn", "--config", str(p), "--out", str(out)])
    assert not out.exists()


def test_truncate_mse_command(tmp_path):
    cfg = dict(CFG)
    cfg["sweep"] = {"gamma": [0.1], "n_paulis": [1, 4, 16]}
    p = tmp_path / "mse.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["truncate-mse", "--config", str(p), "--out", str(out)]) == 0
    _csv_bytes(out / "mse_gamma0.1.csv")
    rows = read_csv_rows(out / "mse_gamma0.1.csv")
    assert [r["N_P"] for r in rows] == ["1", "4", "16"]


def test_seeded_truncate_mse_rerun_is_byte_identical(tmp_path):
    """A seeded truncate-mse run (noisy chain, gates drawn per realization and
    transformed per layer) writes the same CSV, byte for byte, when it is run
    again."""
    p = tmp_path / "mse.json"
    p.write_text(json.dumps({**CFG, "circuit": {**CFG["circuit"], "n_sites": 5},
                             "sweep": {"n_paulis": [1, 4, 16, 64]}}))
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["truncate-mse", "--config", str(p), "--out", str(out)]) == 0
    first, second = (_csv_bytes(out / "mse_gamma0.05.csv") for out in outs)
    assert first == second


def test_truncate_mse_honours_threads(tmp_path, monkeypatch):
    used = []
    map_ordered = driver.map_ordered

    def spy(fn, jobs, threads):
        used.append(threads)
        return map_ordered(fn, jobs, threads)

    monkeypatch.setattr(driver, "map_ordered", spy)
    data = []
    for threads in (1, 2):
        p = tmp_path / f"mse{threads}.json"
        p.write_text(json.dumps({**CFG, "sweep": {"n_paulis": [1, 4, 16]}, "threads": threads}))
        out = tmp_path / f"out{threads}"
        assert main(["truncate-mse", "--config", str(p), "--out", str(out)]) == 0
        data.append(_csv_bytes(out / "mse_gamma0.05.csv"))
    assert used == [1, 2]
    assert data[0] == data[1]


def test_truncate_mse_default_grid_fits_small_n(tmp_path):
    # at N = 4 there are 4^4 = 256 Pauli strings: the default grid stops there
    p = tmp_path / "mse.json"
    p.write_text(json.dumps({**CFG, "sweep": {}}))
    out = tmp_path / "out"
    assert main(["truncate-mse", "--config", str(p), "--out", str(out)]) == 0
    rows = read_csv_rows(out / "mse_gamma0.05.csv")
    assert [int(r["N_P"]) for r in rows] == [2**j for j in range(9)]


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("spectrum-hist", {"engine": "rtn", "sweep": {}}, "runs the simulator engine, not 'rtn'"),
        ("truncate-mse", {"engine": "rtn", "sweep": {}}, "runs the simulator engine, not 'rtn'"),
        ("spectrum-hist", {"sweep": {"n": [4, 6]}}, "sweep.n"),
        ("truncate-mse", {"sweep": {"n": [4, 6]}}, "sweep.n"),
        ("truncate-mse", {"sweep": {"t": [2]}}, "sweep.t"),
        ("rmpu-exact", {"sweep": {"t": [2]}}, "sweep.t"),
        ("rmpu-asymptotic", {"sweep": {"t": [2]}}, "sweep.t"),
        ("moments", {"engine": "rtn"}, "runs the simulator engine, not 'rtn'"),
        ("rmpu-asymptotic", {"engine": "rmpu_exact", "sweep": {}},
         "runs the rmpu_asymptotic engine, not 'rmpu_exact'"),
        ("spectrum-hist", {"sweep": {"k": [2]}}, "sweep.k"),
        ("truncate-mse", {"sweep": {"k": [2]}}, "sweep.k"),
        ("moments", {"sweep": {"n_paulis": [4]}}, "sweep.n_paulis"),
        ("rtn", {"sweep": {"n_paulis": [4]}}, "sweep.n_paulis"),
    ],
    ids=["hist_engine", "mse_engine", "hist_n", "mse_n", "mse_t", "rmpu_exact_t",
         "rmpu_asymptotic_t", "moments_engine", "rmpu_asymptotic_engine", "hist_k",
         "mse_k", "moments_n_paulis", "rtn_n_paulis"],
)
def test_commands_reject_config_they_ignore(tmp_path, capsys, command, overrides, message):
    base = dict(CFG)
    if command.startswith("rmpu"):
        base["circuit"] = {"geometry": "rmpu", "n_sites": 4, "r": 1}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**base, **overrides}))
    err = _config_error([command, "--config", str(p), "--out", str(tmp_path / "out")], capsys)
    assert re.search(message, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["circuit", "sweep"])
@pytest.mark.parametrize("command", ["moments", "spectrum-hist", "rtn"])
def test_moments_and_histograms_reject_full_depolarization(tmp_path, capsys, command, where):
    # gamma = 1 leaves the zero operator, which has no moments and no distribution
    cfg = {**CFG, "circuit": {**CFG["circuit"], "depth": 3}, "n_realizations": 3,
           "sweep": {"t": [3]}, "engine": None}  # null: the command's own engine
    if where == "circuit":
        cfg["circuit"]["gamma"] = 1.0
    else:
        cfg["sweep"]["gamma"] = [0.5, 1.0]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    err = _config_error([command, "--config", str(p), "--out", str(tmp_path / "out")], capsys)
    assert f"pauliscope {command}: error: {command} needs gamma < 1" in err
    assert not (tmp_path / "out").exists()


def test_truncate_mse_keeps_full_depolarization(tmp_path):
    # every truncation of the zero operator is exact: the MSE rows are 0 and valid
    cfg = {**CFG, "circuit": {**CFG["circuit"], "depth": 3, "gamma": 1.0},
           "n_realizations": 3, "sweep": {"n_paulis": [1, 4]}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["truncate-mse", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    rows = read_csv_rows(tmp_path / "out" / "mse_gamma1.csv")
    assert [(r["N_P"], r["mse"], r["stderr"]) for r in rows] == [("1", "0.0", "0.0"),
                                                                 ("4", "0.0", "0.0")]


_MOMENTS_LINE = ("simulator,chain,{n},,{t},{gamma},per_qubit_per_layer,2,{quantity},{value!r},"
                 "0.0001,100,1")


def _moments_csv(path, series, quantity="nu_over_F2k"):
    """A moments CSV with one k=2 row per (N, gamma, t, value) of ``series``."""
    lines = [",".join(MOMENTS_HEADER)] + [
        _MOMENTS_LINE.format(n=n, t=t, gamma=gamma, quantity=quantity, value=value)
        for n, gamma, t, value in series
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fit_kappa_and_threshold_pipeline(tmp_path):
    # synthetic moments CSV: two gammas, one decaying and one growing
    moments = _moments_csv(tmp_path / "moments.csv", [
        (7, gamma, t, float(3.0 + 2.0 * np.exp(-kappa * t)))
        for gamma, kappa in ((0.01, 0.4), (0.05, -0.2)) for t in range(4, 13)
    ])
    kappa_csv = tmp_path / "kappa.csv"
    assert main(["fit-kappa", "--input", str(moments), "--out", str(kappa_csv)]) == 0
    data = kappa_csv.read_bytes()
    assert data.startswith(b"gamma,gammaN,kappa,kappa_stderr,t_min,t_max,r_squared,n_points\n")
    assert b"\r" not in data and data.count(b"\n") == 3
    rows = read_csv_rows(kappa_csv)
    assert len(rows) == 2
    assert abs(float(rows[0]["kappa"]) - 0.4) < 1e-3
    assert abs(float(rows[1]["kappa"]) + 0.2) < 1e-3
    out_json = tmp_path / "threshold.json"
    assert main(["threshold", "--input", str(kappa_csv), "--out", str(out_json)]) == 0
    payload = json.loads(out_json.read_text())
    assert 0.07 < payload["gammaN_critical"] < 0.35
    assert payload["n_sign_changes"] == 1


def test_moments_fit_kappa_threshold_find_the_transition(tmp_path):
    """The paper's transition through the CLI: a seeded chain (N=4, depth 8,
    t = 4..8, gamma*N in {0.1, 0.5}, 20 realizations, seed 20250809; about
    0.2 s) decays at the weak noise and grows at the strong one.  The kappas
    are those of the noise scan this pipeline replaced.  They are compared to
    1e-12 relative, not bit for bit: the simulator's gate product and its
    folded per-site noise sum in another order than the tensordot and the
    separate noise pass that recorded them (measured change 5.5e-15);
    reruns of one build stay byte-identical
    (``test_seeded_moments_rerun_is_byte_identical``)."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "circuit": {"geometry": "chain", "n_sites": 4, "depth": 8, "master_seed": 20250809},
        "sweep": {"t": [4, 5, 6, 7, 8], "gamma": [0.025, 0.125], "k": [2]},
        "n_realizations": 20,
    }))
    assert main(["moments", "--config", str(p), "--out", str(tmp_path)]) == 0
    kappa_csv, out_json = tmp_path / "kappa.csv", tmp_path / "threshold.json"
    assert main(["fit-kappa", "--input", str(tmp_path / "moments.csv"),
                 "--out", str(kappa_csv)]) == 0
    assert main(["threshold", "--input", str(kappa_csv), "--out", str(out_json)]) == 0
    data = kappa_csv.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    rows = read_csv_rows(kappa_csv)
    assert [r["gammaN"] for r in rows] == ["0.1", "0.5"]
    for row, want in zip(rows, (0.06594168674749189, -0.7730298705145441)):
        assert abs(float(row["kappa"]) - want) <= 1e-12 * abs(want)
    payload = json.loads(out_json.read_text())
    assert payload["n_sign_changes"] == 1 and payload["bracket"] == [0.1, 0.5]
    assert abs(payload["gammaN_critical"] - 0.1314) < 1e-4
    assert payload["gammaN_prediction"] == math.log(5 / 4)


def test_fit_kappa_rejects_mixed_sizes(tmp_path, capsys):
    moments = _moments_csv(tmp_path / "moments.csv", [
        (n_sites, 0.01, t, 3.0 + np.exp(-0.3 * t)) for n_sites in (6, 8) for t in range(4, 9)
    ])
    err = _config_error(
        ["fit-kappa", "--input", str(moments), "--out", str(tmp_path / "k.csv")], capsys
    )
    assert "N = 6, 8" in err
    assert not (tmp_path / "k.csv").exists()


def _mu_rows_csv(tmp_path):
    # the mu and nu rows rtn and rmpu-* write carry no transition to fit
    return _moments_csv(tmp_path / "rtn.csv", [
        (6, 0.01, t, 3.0 + np.exp(-0.3 * t)) for t in range(4, 9)
    ], quantity="mu")


def _histogram_csv(tmp_path):
    p = tmp_path / "hist.json"
    p.write_text(json.dumps({**CFG, "sweep": {"t": [2]}}))
    assert main(["spectrum-hist", "--config", str(p), "--out", str(tmp_path)]) == 0
    return tmp_path / "histogram.csv"


def _kappa_csv_without_crossing(tmp_path):
    p = tmp_path / "kappa.csv"
    p.write_text("gamma,gammaN,kappa,kappa_stderr\n0.01,0.1,0.3,0.01\n0.05,0.5,0.1,0.01\n")
    return p


@pytest.mark.parametrize(
    "command, make_input, message",
    [
        ("fit-kappa", _mu_rows_csv, "no quantity=nu_over_F2k, k=2 rows"),
        ("fit-kappa", _histogram_csv, "lacks columns: engine, geometry, r"),
        ("fit-kappa", lambda tmp_path: tmp_path / "missing.csv", "No such file or directory"),
        ("threshold", _kappa_csv_without_crossing, "does not bracket a sign change"),
        ("threshold", _mu_rows_csv, "lacks columns: gammaN, kappa, kappa_stderr"),
    ],
    ids=["fit_mu_rows", "fit_histogram", "fit_missing_path", "threshold_no_crossing",
         "threshold_moments"],
)
def test_fit_and_threshold_input_errors_are_one_line_usage_errors(tmp_path, capsys, command,
                                                                   make_input, message):
    path = make_input(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    err = _config_error([command, "--input", str(path), "--out", str(out)], capsys)
    assert re.fullmatch(rf"pauliscope {command}: error: .*{message}.*\n", err)
    assert not out.exists()


def test_selftest_passes():
    assert main(["selftest"]) == 0


@pytest.mark.parametrize(
    "argv", [["selftest", "--seed", "1"], ["moments", "--engine", "simulator"]],
    ids=["selftest_seed", "moments_engine_flag"],
)
def test_removed_flags_are_argparse_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
