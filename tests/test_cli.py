import hashlib
import json
import math
import os
import re
import runpy
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
from pauliscope.rtn import RtnResult, contract_brickwork_series

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

ROOT = Path(__file__).resolve().parents[1]


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


def _csv_at_blas_threads(tmp_path, command, cfg, csv_name, threads=("1", "2")) -> list[bytes]:
    """The CSV a CLI run of ``cfg`` writes with OpenBLAS at each thread count
    (1 and 2 by default), each run in a fresh interpreter so the thread count
    takes effect."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = str(ROOT / "src")
    outs = []
    for count in threads:
        out = tmp_path / f"blas{count}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": count, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "pauliscope.cli", command, "--config",
                        str(path), "--out", str(out)], check=True, env=env)
        outs.append(_csv_bytes(out / csv_name))
    return outs


def test_seeded_moments_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A seeded N=9 noisy moments run at k = 2, 3 (a 4^9 spectrum, past any
    BLAS threading threshold) writes the same moments.csv, byte for byte, with
    OpenBLAS at 1 and at 2 threads: no threaded BLAS call splits a reduction.
    It runs on a chain and on a 3x3 grid, whose vertical pairs are
    non-adjacent supports: their gates move the axes of each block."""
    base = {key: value for key, value in CFG["circuit"].items() if key != "n_sites"}
    for name, circuit in (("chain", {"n_sites": 9}),
                          ("grid", {"geometry": "grid", "lx": 3, "ly": 3})):
        cfg = {**CFG, "circuit": {**base, **circuit, "depth": 4},
               "sweep": {"t": [2, 4], "k": [2, 3]}, "n_realizations": 2}
        (tmp_path / name).mkdir()
        first, second = _csv_at_blas_threads(tmp_path / name, "moments", cfg, "moments.csv")
        assert first == second, name


def test_exact_rtn_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The exact replica contraction of a noisy N=6 chain (k = 1, 2) writes the
    same moments_rtn.csv, byte for byte, with OpenBLAS at 1 and at 2 threads."""
    cfg = {"circuit": {"geometry": "chain", "n_sites": 6, "depth": 12, "gamma": 0.01},
           "sweep": {"t": [4, 8, 12], "k": [1, 2]}, "engine": "rtn"}
    first, second = _csv_at_blas_threads(tmp_path, "rtn", cfg, "moments_rtn.csv")
    assert first == second


def test_rmpu_exact_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A noisy staircase sweep with k = 3 and k = 4 rows (r = 1 and 4, so q
    below and above 2k) writes the same CSV, byte for byte, with OpenBLAS at
    1 and at 2 threads: the class solves and the class sweep make no BLAS
    call large enough to be split between threads."""
    for r in (1, 4):
        cfg = {"circuit": {"geometry": "rmpu", "n_sites": 8, "r": r}, "engine": "rmpu_exact",
               "sweep": {"gamma": [0.0, 0.024], "k": [3, 4], "n": [8, 32, 64]}}
        (tmp_path / f"r{r}").mkdir()
        first, second = _csv_at_blas_threads(tmp_path / f"r{r}", "rmpu-exact", cfg,
                                             "moments_rmpu_exact.csv")
        assert first == second and first.count(b"\n") == 13, r


#: sha256 of the moments_rmpu_exact.csv of a k = 4 staircase scan (r = 4,
#: N = 8..64 in steps of 4, gamma = 0, 0.016 and 0.04) with OpenBLAS at 1
#: thread, recorded when S_8's pair tables were built by following cycles and
#: each gamma swept its own running vector.  No benchmark workload reaches k = 4
PINNED_K4_RMPU_CSV = "0dbb479739c65115ae7f5cfab061239c63bc91278934812552644968168ebf19"


def test_k4_rmpu_exact_csv_is_pinned_bit_for_bit(tmp_path):
    """The k = 4 staircase rows, end to end through the CLI, byte for byte as
    recorded: this pins S_8's pair tables and the stacked class sweep."""
    cfg = {"circuit": {"geometry": "rmpu", "n_sites": 8, "r": 4}, "engine": "rmpu_exact",
           "sweep": {"gamma": [0.0, 0.016, 0.04], "k": [4], "n": list(range(8, 65, 4))}}
    (data,) = _csv_at_blas_threads(tmp_path, "rmpu-exact", cfg, "moments_rmpu_exact.csv",
                                   threads=("1",))
    assert data.count(b"\n") == 46
    assert hashlib.sha256(data).hexdigest() == PINNED_K4_RMPU_CSV


#: sha256 of the CSV that the smoke config of each simulator benchmark
#: workload writes at master seed 101 with OpenBLAS at 1 thread
PINNED_SMOKE_CSVS = {
    "mc_chain": "0c41ea16a909e2fcde6ce0b34f68fc91d5769d5b544e0ed3a13b74bcdefd9ae8",
    "trunc_chain": "87003368a3c28852e91e32ef69fa3ae9b1edd32042840844f89b6f7c9a9a2b51",
}
#: the same for the full trunc_chain config (N=7, 40 realizations): its
#: largest N_P, 4096, is below 4^7, so it keeps a top selection, not the
#: whole vector, as the smoke config's N=6 does
PINNED_FULL_TRUNC_CSV = "d20f52f97f3e6c63b9003b8c1f412716d817cdd99141ca2f170bf5124fac1731"
#: the same for the full mc_chain config (N=10, t = 10..20, 2 realizations):
#: its 4^10 vector spans many of the simulator's blocks, where the smoke
#: config's 4^6 fits in one
PINNED_FULL_MC_CSV = "42fe78bc87737504017150fdffc28d439d5c46a6cbd7c0727e7ed89cf0eb40f1"


def _workload_csv(tmp_path, size, name) -> bytes:
    """The CSV a benchmark workload's config writes through the CLI at master
    seed 101 with OpenBLAS at 1 thread.  The configs are read from the
    benchmark's own workload list."""
    workload = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"][size][name]
    cfg = json.loads(json.dumps(workload.config))
    cfg["circuit"]["master_seed"] = 101
    csv_name = {"moments": "moments.csv", "rtn": "moments_rtn.csv"}.get(
        workload.command, f"mse_gamma{cfg['circuit']['gamma']:g}.csv")
    (data,) = _csv_at_blas_threads(tmp_path, workload.command, cfg, csv_name, threads=("1",))
    return data


def _workload_csv_sha256(tmp_path, size, name) -> str:
    return hashlib.sha256(_workload_csv(tmp_path, size, name)).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SMOKE_CSVS))
def test_simulator_benchmark_csvs_are_pinned_bit_for_bit(tmp_path, name):
    """The seeded simulator CSVs, end to end through the CLI, byte for byte as
    recorded (numpy 2.4, OpenBLAS 0.3.31, x86-64, 1 thread): both workloads
    run per-qubit noise, so this pins that path across changes."""
    assert _workload_csv_sha256(tmp_path, "smoke", name) == PINNED_SMOKE_CSVS[name]


def test_full_trunc_chain_csv_is_pinned_bit_for_bit(tmp_path):
    """The full-size truncation workload's CSV, byte for byte as recorded when
    every realization sorted all 4^N coefficients: selecting only the top
    N_P changes no bit."""
    assert _workload_csv_sha256(tmp_path, "full", "trunc_chain") == PINNED_FULL_TRUNC_CSV


def test_full_mc_chain_csv_is_pinned_bit_for_bit(tmp_path):
    """The full-size Monte Carlo workload's CSV, byte for byte as recorded when
    every gate and every moment reduction passed over the whole 4^10 vector at
    once: updating and reducing it block by block changes no bit."""
    assert _workload_csv_sha256(tmp_path, "full", "mc_chain") == PINNED_FULL_MC_CSV


#: sha256 of the moments_rtn.csv that each rtn_chain config writes at master
#: seed 101 with OpenBLAS at 1 thread: smoke runs N=4 exact and N=7 as a
#: boundary MPS, full N=6 exact and N=8 as a boundary MPS
PINNED_RTN_CSVS = {
    "smoke": "94034c7a353e9895b828595ff5828dac403dca9ee25194aba527e518ed053151",
    "full": "fcec162abb55eee66decf9fdb1a4100df1e7b148d1f811c6d0f0af46b0554ebd",
}


@pytest.mark.parametrize("size", sorted(PINNED_RTN_CSVS))
def test_rtn_benchmark_csvs_are_pinned_bit_for_bit(tmp_path, size):
    """Both rtn_chain CSVs, end to end through the CLI, byte for byte as
    recorded (numpy 2.4, OpenBLAS 0.3.31, x86-64, 1 thread): this pins both
    wire states, and the engine choice between them, across changes."""
    assert _workload_csv_sha256(tmp_path, size, "rtn_chain") == PINNED_RTN_CSVS[size]


#: the full rtn_chain CSV's values before the range finder's power iterations
#: ran by shifted CholeskyQR: the exact N=6 rows, which no change to the
#: boundary MPS may move, and the N=8 boundary-MPS rows (t = 4, 8, 12, 16)
RTN_EXACT_ROWS = ["14.886643780147581", "2.1118133636805307", "1.147261249909628",
                  "0.7717725793691077"]
RTN_MPS_ROWS = [186.456326279632, 8.435244756447192, 1.3759815964294204, 0.5586024253573579]


def test_rtn_benchmark_rows_stay_within_their_stated_tolerance(tmp_path):
    """The full rtn_chain rows against the values recorded before the range
    finder's power iterations changed: exact rows byte for byte, boundary-MPS
    rows within 5e-5 relative, far inside their chi error of about 1e-3."""
    (tmp_path / "csv").write_bytes(_workload_csv(tmp_path, "full", "rtn_chain"))
    rows = read_csv_rows(tmp_path / "csv")
    assert [r["value"] for r in rows if r["N"] == "6"] == RTN_EXACT_ROWS
    mps = [float(r["value"]) for r in rows if r["N"] == "8"]
    assert len(mps) == len(RTN_MPS_ROWS)
    for got, want in zip(mps, RTN_MPS_ROWS):
        assert abs(got - want) <= 5e-5 * abs(want)


#: what a fresh interpreter prints after one CLI run: the thread count the
#: loaded OpenBLAS reports through ctypes (perfbench's ``blas_threads``)
_CLI_THEN_BLAS_THREADS = (
    "import runpy, sys\n"
    "from pauliscope.cli import main\n"
    "child = sys.argv.pop(1)\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print(runpy.run_path(child)['blas_threads']())\n"
)


@pytest.mark.parametrize("openblas", [None, "2"])
def test_cli_runs_one_blas_thread_unless_a_variable_is_set(tmp_path, openblas):
    """With no BLAS thread variable set, a CLI run uses one OpenBLAS thread;
    a user's variable still wins.  The sidecar records the variables as they
    stood at import, the numpy version and the BLAS."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in names}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    path, out = tmp_path / "cfg.json", tmp_path / "run"
    path.write_text(json.dumps({"circuit": {"geometry": "rmpu", "n_sites": 8, "r": 2},
                                "engine": "rmpu_exact", "sweep": {"k": [2], "n": [8]}}))
    run = subprocess.run(
        [sys.executable, "-c", _CLI_THEN_BLAS_THREADS, str(ROOT / "perfbench" / "child.py"),
         "rmpu-exact", "--config", str(path), "--out", str(out)],
        check=True, env=env, capture_output=True, text=True)
    assert run.stdout.split()[-1] == (openblas or "1")
    runtime = json.loads((out / "moments_rmpu_exact.meta.json").read_text())["runtime"]
    assert runtime["blas_thread_env"] == {**dict.fromkeys(names), "OPENBLAS_NUM_THREADS": openblas}
    assert runtime["numpy"] == np.__version__ and "openblas" in runtime["blas"]


def test_initial_axis_is_an_unknown_circuit_key(tmp_path, capsys):
    """Every run seeds Z; a config that still names an axis is rejected."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**CFG, "circuit": {**CFG["circuit"], "initial_axis": "Z"}}))
    argv = ["moments", "--config", str(p), "--out", str(tmp_path / "run")]
    assert "unknown circuit keys: ['initial_axis']" in _config_error(argv, capsys)


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
    assert "master_seed=-1 must be >= 0" in _config_error(argv + ["--seed", "-1"], capsys)
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


def test_non_physical_value_is_a_one_line_run_error(tmp_path, capsys, monkeypatch):
    # a contraction that comes out negative stops the run before anything is
    # written: one error line and exit status 1 (2 is for usage errors)
    def negative(spec, depths, k, chi_mps):
        return {t: RtnResult(-2.088e-11, 1e-6, False, 16) for t in depths}

    monkeypatch.setattr(driver, "contract_brickwork_series", negative)
    p = tmp_path / "rtn.json"
    p.write_text(json.dumps({"circuit": {"n_sites": 4, "depth": 4, "gamma": 0.01},
                             "sweep": {"t": [2, 4], "k": [1]}, "engine": "rtn"}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["rtn", "--config", str(p), "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("pauliscope rtn: error: rtn nu at N=4, t=2, k=1 gave the non-physical")
    assert not out.exists()


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


def test_rtn_command_rejects_non_physical_values(tmp_path, capsys):
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
    with pytest.raises(SystemExit) as exc:
        main(["rtn", "--config", str(p), "--out", str(out)])
    assert exc.value.code == 1
    assert re.search(r"N=7, t=6, k=2 .* non-physical value -\d", capsys.readouterr().err)
    assert not out.exists()


def test_rtn_command_rejects_a_mu_1_that_is_not_1(tmp_path, capsys):
    # the k = 1 boundary MPS of a long noiseless chain drifts above mu_1 = 1
    # (1.0000000178 here, in about 0.2 s), with an estimate of the same size
    cfg = {"circuit": {"geometry": "chain", "n_sites": 32, "depth": 64, "gamma": 0.0},
           "sweep": {"t": [64], "k": [1]}, "engine": "rtn", "chi_mps": 16}
    p = tmp_path / "rtn.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["rtn", "--config", str(p), "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("pauliscope rtn: error: rtn mu at N=32, t=64, k=1 gave the "
                          "non-physical value 1.00000001")
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


#: kappa.csv then threshold.json of the synthetic fit-kappa -> threshold pipeline
PINNED_SYNTHETIC_PIPELINE = (
    b'gamma,gammaN,kappa,kappa_stderr,t_min,t_max,r_squared,n_points\n'
    b'0.01,0.07,0.40000000000000174,0.00015421313879672446,4.0,12.0,1.0,9\n'
    b'0.05,0.35000000000000003,-0.20000000000000084,1.3497037263085823e-06,4.0,12.0,1.0,9\n'
    b'{\n'
    b'  "gammaN_critical": 0.2566666666666667,\n'
    b'  "stderr": 2.3992385313909824e-05,\n'
    b'  "n_sign_changes": 1,\n'
    b'  "bracket": [\n'
    b'    0.07,\n'
    b'    0.35000000000000003\n'
    b'  ],\n'
    b'  "gammaN_prediction": 0.22314355131420976\n'
    b'}\n'
)

#: kappa.csv then threshold.json of the seeded N=4 moments -> fit-kappa -> threshold run
PINNED_SEEDED_PIPELINE = (
    b'gamma,gammaN,kappa,kappa_stderr,t_min,t_max,r_squared,n_points\n'
    b'0.025,0.1,0.06594168674749225,0.03967068226089114,4.0,8.0,0.8842273901754897,5\n'
    b'0.125,0.5,-0.7730298705145461,0.059696217494157156,4.0,8.0,0.9944530002524624,5\n'
    b'{\n'
    b'  "gammaN_critical": 0.13143929549301586,\n'
    b'  "stderr": 0.017570344203553172,\n'
    b'  "n_sign_changes": 1,\n'
    b'  "bracket": [\n'
    b'    0.1,\n'
    b'    0.5\n'
    b'  ],\n'
    b'  "gammaN_prediction": 0.22314355131420976\n'
    b'}\n'
)


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
    assert data + out_json.read_bytes() == PINNED_SYNTHETIC_PIPELINE


def test_moments_fit_kappa_threshold_find_the_transition(tmp_path):
    """The paper's transition through the CLI: a seeded chain (N=4, depth 8,
    t = 4..8, gamma*N in {0.1, 0.5}, 20 realizations, seed 20250809; about
    0.2 s) decays at the weak noise and grows at the strong one.  The kappas
    are those of the noise scan this pipeline replaced.  They are compared to
    1e-12 relative, not bit for bit: the simulator's gate product and its
    folded per-site noise sum in another order than the tensordot and the
    separate noise pass that recorded them (measured change 5.5e-15);
    reruns of one build stay byte-identical
    (``test_seeded_moments_rerun_is_byte_identical``), so the kappa.csv and
    threshold.json this build writes are pinned byte for byte."""
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
    assert data + out_json.read_bytes() == PINNED_SEEDED_PIPELINE


def test_fit_kappa_rejects_mixed_sizes(tmp_path, capsys):
    moments = _moments_csv(tmp_path / "moments.csv", [
        (n_sites, 0.01, t, 3.0 + np.exp(-0.3 * t)) for n_sites in (6, 8) for t in range(4, 9)
    ])
    err = _config_error(
        ["fit-kappa", "--input", str(moments), "--out", str(tmp_path / "k.csv")], capsys
    )
    assert "N = 6, 8" in err
    assert not (tmp_path / "k.csv").exists()


def _with_cell(path, index, column, text):
    """``path`` with the cell ``column`` of data row ``index`` set to ``text``."""
    rows = read_csv_rows(path)
    rows[index][column] = text
    path.write_text("\n".join([",".join(rows[0])] + [",".join(r.values()) for r in rows]) + "\n")
    return path


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


def _moments_csv_with(column, text):
    """A synthetic moments CSV whose row at t = 7 has ``column`` set to ``text``."""
    return lambda tmp_path: _with_cell(_moments_csv(tmp_path / "moments.csv", [
        (7, 0.01, t, float(3.0 + 2.0 * np.exp(-0.4 * t))) for t in range(4, 13)
    ]), 3, column, text)


def _two_runs_csv(tmp_path):
    """Two runs' moments rows joined in one CSV: every (gamma, t) appears twice."""
    series = [(7, 0.01, t, float(3.0 + 2.0 * np.exp(-0.4 * t))) for t in range(4, 13)]
    return _moments_csv(tmp_path / "moments.csv", series + series)


def _kappa_csv_with(column, text):
    """A kappa CSV with one sign change whose line 3 has ``column`` set to ``text``."""
    def make(tmp_path):
        path = tmp_path / "kappa.csv"
        path.write_text("gamma,gammaN,kappa,kappa_stderr\n0.01,0.1,0.3,0.01\n"
                        "0.03,0.3,0.2,0.01\n0.05,0.5,-0.1,0.01\n")
        return _with_cell(path, 1, column, text)
    return make


@pytest.mark.parametrize(
    "command, make_input, message",
    [
        ("fit-kappa", _mu_rows_csv, "no quantity=nu_over_F2k, k=2 rows"),
        ("fit-kappa", _histogram_csv, "lacks columns: engine, geometry, r"),
        ("fit-kappa", lambda tmp_path: tmp_path / "missing.csv", "No such file or directory"),
        ("threshold", _kappa_csv_without_crossing, "does not bracket a sign change"),
        ("threshold", _mu_rows_csv, "lacks columns: gammaN, kappa, kappa_stderr"),
        ("fit-kappa", _moments_csv_with("value", "nan"),
         "value = nan at gamma=0.01, t=7 is not finite"),
        ("fit-kappa", _moments_csv_with("stderr", "inf"),
         "stderr = inf at gamma=0.01, t=7 is not finite"),
        ("threshold", _kappa_csv_with("gammaN", "nan"), "gammaN = nan at line 3 is not finite"),
        ("threshold", _kappa_csv_with("kappa", "-inf"), "kappa = -inf at line 3 is not finite"),
        ("threshold", _kappa_csv_with("kappa_stderr", "nan"),
         "kappa_stderr = nan at line 3 is not finite"),
        ("fit-kappa", _moments_csv_with("stderr", "-0.5"),
         "stderr = -0.5 at gamma=0.01, t=7 is negative"),
        ("threshold", _kappa_csv_with("kappa_stderr", "-0.01"),
         "kappa_stderr = -0.01 at line 3 is negative"),
        ("fit-kappa", _two_runs_csv, "two k=2 nu_over_F2k rows at gamma=0.01, t=4"),
    ],
    ids=["fit_mu_rows", "fit_histogram", "fit_missing_path", "threshold_no_crossing",
         "threshold_moments", "fit_nan_value", "fit_inf_stderr", "threshold_nan_gammaN",
         "threshold_minus_inf_kappa", "threshold_nan_kappa_stderr", "fit_negative_stderr",
         "threshold_negative_kappa_stderr", "fit_two_runs"],
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
