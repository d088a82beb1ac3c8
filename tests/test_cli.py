import json

import numpy as np
import pytest

from pauliscope.cli import main
from pauliscope.csvio import read_csv_rows

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


def test_moments_command(tmp_path, cfg_path):
    out = tmp_path / "run"
    assert main(["moments", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_csv_rows(out / "moments.csv")
    assert len(rows) == 9
    meta = json.loads((out / "moments.meta.json").read_text())
    assert meta["n_realizations"] == 20 and "wall_seconds" in meta


def test_flag_overrides(tmp_path, cfg_path):
    out = tmp_path / "run"
    main([
        "moments", "--config", str(cfg_path), "--out", str(out),
        "--seed", "99", "--realizations", "10",
    ])
    rows = read_csv_rows(out / "moments.csv")
    assert rows[0]["seed"] == "99" and rows[0]["n_samples"] == "10"


def test_flags_are_validated_with_the_config(tmp_path, cfg_path):
    argv = ["moments", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    with pytest.raises(ValueError, match="n_realizations"):
        main(argv + ["--realizations", "1"])
    with pytest.raises(ValueError, match="threads"):
        main(argv + ["--threads", "0"])
    assert not (tmp_path / "run").exists()


def test_spectrum_hist_command(tmp_path, cfg_path):
    out = tmp_path / "hist"
    assert main(["spectrum-hist", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_csv_rows(out / "histogram.csv")
    assert len(rows) == 3 * 60  # three depths x 60 bins


def test_rmpu_commands(tmp_path):
    cfg = {
        "circuit": {"geometry": "rmpu", "n_sites": 4, "r": 1, "master_seed": 3,
                     "initial_site": 0},
        "sweep": {"k": [2], "gamma": [0.0, 0.05]},
        "engine": "rmpu_exact",
        "n_realizations": 2,
    }
    p = tmp_path / "rmpu.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["rmpu-exact", "--config", str(p), "--out", str(out)]) == 0
    assert main(["rmpu-asymptotic", "--config", str(p), "--out", str(out)]) == 0
    exact = read_csv_rows(out / "moments_rmpu_exact.csv")
    asym = read_csv_rows(out / "moments_rmpu_asymptotic.csv")
    assert len(exact) == 2 and len(asym) == 2
    assert exact[0]["engine"] == "rmpu_exact"


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
    rows = read_csv_rows(out / "moments_rtn.csv")
    assert len(rows) == 2 and rows[0]["engine"] == "rtn"


def test_rtn_command_rejects_non_physical_values(tmp_path):
    # chi_mps = 8 truncates so hard that the contraction at t = 6 goes negative
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
    with pytest.raises(FloatingPointError, match=r"N=7, t=6, k=2 .* non-physical value -8\.9"):
        main(["rtn", "--config", str(p), "--out", str(out)])
    assert not out.exists()


def test_truncate_mse_command(tmp_path):
    cfg = dict(CFG)
    cfg["sweep"] = {"gamma": [0.1], "n_paulis": [1, 4, 16], "k": [2]}
    p = tmp_path / "mse.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["truncate-mse", "--config", str(p), "--out", str(out)]) == 0
    rows = read_csv_rows(out / "mse_gamma0.1.csv")
    assert [r["N_P"] for r in rows] == ["1", "4", "16"]


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
        ("spectrum-hist", {"engine": "rtn"}, "simulator only"),
        ("truncate-mse", {"engine": "rtn", "sweep": {}}, "simulator only"),
        ("spectrum-hist", {"sweep": {"n": [4, 6]}}, "sweep.n"),
        ("truncate-mse", {"sweep": {"n": [4, 6]}}, "sweep.n"),
        ("truncate-mse", {"sweep": {"t": [2]}}, "sweep.t"),
        ("rmpu-exact", {"sweep": {"t": [2]}}, "sweep.t"),
        ("rmpu-asymptotic", {"sweep": {"t": [2]}}, "sweep.t"),
    ],
    ids=["hist_engine", "mse_engine", "hist_n", "mse_n", "mse_t", "rmpu_exact_t",
         "rmpu_asymptotic_t"],
)
def test_commands_reject_config_they_ignore(tmp_path, command, overrides, message):
    base = dict(CFG)
    if command.startswith("rmpu"):
        base["circuit"] = {"geometry": "rmpu", "n_sites": 4, "r": 1}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**base, **overrides}))
    with pytest.raises(ValueError, match=message):
        main([command, "--config", str(p), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_fit_kappa_and_threshold_pipeline(tmp_path):
    # synthetic moments CSV: two gammas, one decaying and one growing
    lines = ["engine,geometry,N,r,t,gamma,noise_placement,k,quantity,value,stderr,n_samples,seed"]
    for gamma, kappa in ((0.01, 0.4), (0.05, -0.2)):
        for t in range(4, 13):
            value = float(3.0 + 2.0 * np.exp(-kappa * t))
            lines.append(
                f"simulator,chain,7,,{t},{gamma},per_qubit_per_layer,2,mu,{value!r},0.0001,100,1"
            )
    moments = tmp_path / "moments.csv"
    moments.write_text("\n".join(lines) + "\n")
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


def test_fit_kappa_rejects_mixed_sizes(tmp_path):
    lines = ["engine,geometry,N,r,t,gamma,noise_placement,k,quantity,value,stderr,n_samples,seed"]
    for n_sites in (6, 8):
        for t in range(4, 9):
            lines.append(
                f"simulator,chain,{n_sites},,{t},0.01,per_qubit_per_layer,2,mu,"
                f"{3.0 + np.exp(-0.3 * t)!r},0.0001,100,1"
            )
    moments = tmp_path / "moments.csv"
    moments.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit, match="N = 6, 8"):
        main(["fit-kappa", "--input", str(moments), "--out", str(tmp_path / "k.csv")])
    assert not (tmp_path / "k.csv").exists()


def test_selftest_passes():
    assert main(["selftest"]) == 0
