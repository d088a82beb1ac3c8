import json
import numbers

import numpy as np
import pytest

from pauliscope.circuits import CircuitSpec, iter_circuit
from pauliscope.csvio import (
    HISTOGRAM_HEADER,
    MOMENTS_HEADER,
    MSE_HEADER,
    _fmt,
    read_csv_rows,
    write_histogram_csv,
    write_moments_csv,
    write_mse_csv,
    write_sidecar,
)
from pauliscope.driver import (
    ExperimentConfig,
    SweepSpec,
    ensemble,
    run_ensemble,
    simulate_histogram,
    simulate_moments,
    simulate_mse,
)
from pauliscope.rmpu import global_haar_moment
from pauliscope.rtn import contract_brickwork_series
from pauliscope.spectrum import HIST_EDGES, moment_mu, moment_nu, moment_pairs

BASE = {
    "circuit": {
        "geometry": "chain",
        "n_sites": 4,
        "depth": 6,
        "gamma": 0.05,
        "master_seed": 5,
    },
    "sweep": {"t": [2, 4, 6], "k": [2]},
    "n_realizations": 24,
    "engine": "simulator",
}


def test_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
    assert cfg.circuit.n_sites == 4
    assert cfg.sweep.t == [2, 4, 6]
    resolved = cfg.resolved()
    assert resolved["version"]
    assert ExperimentConfig.from_dict(resolved | {"version": None} if False else BASE)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="bogus"):
        ExperimentConfig.from_dict({**BASE, "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**BASE, "sweep": {"tt": [1]}})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**BASE, "engine": "quantum"})


RMPU_SIM = {
    "circuit": {"geometry": "rmpu", "n_sites": 4, "r": 1, "master_seed": 5},
    "sweep": {"t": [3], "n": [4, 6], "k": [2]},
    "n_realizations": 4,
}


@pytest.mark.parametrize(
    "config, message",
    [
        ({**BASE, "threads": 0}, "threads"),
        ({**BASE, "chi_mps": 0}, "chi_mps"),
        # the SVD cut-off is the contraction's own default, not a config field
        ({**BASE, "svd_threshold": -1e-3}, r"unknown config keys: \['svd_threshold'\]"),
        ({**BASE, "svd_threshold": 1.0}, r"unknown config keys: \['svd_threshold'\]"),
        ({**BASE, "sweep": {"t": [2, 7], "k": [2]}}, r"sweep.t \[7\]"),
        ({**BASE, "sweep": {"t": [0, 2], "k": [2]}}, r"sweep.t \[0\]"),
        # rmpu depth is N - r: t=4 fits N=6 but not N=4
        ({**RMPU_SIM, "sweep": {"t": [4], "n": [6, 4], "k": [2]}}, "at N=4"),
        ({**BASE, "circuit": {"geometry": "grid", "lx": 2, "ly": 2, "depth": 4},
          "sweep": {"n": [4, 6]}}, "grid"),
        ({**BASE, "n_realizations": 1}, "n_realizations"),
        ({**BASE, "circuit": {**BASE["circuit"], "initial_site": 0},
          "sweep": {"n": [4, 6]}}, "initial_site cannot be combined with sweep.n"),
        # every engine, the rtn contraction included, stops at circuit.depth
        ({**BASE, "engine": "rtn", "sweep": {"t": [2, 9], "k": [2]}}, r"sweep.t \[9\]"),
        # each engine's replica orders, checked before any engine starts
        ({**BASE, "sweep": {"t": [2], "k": [0, 2]}}, r"sweep.k \[0\]"),
        ({**BASE, "engine": "rtn", "sweep": {"t": [2], "k": [2, 3]}}, r"sweep.k \[3\]"),
        ({**RMPU_SIM, "engine": "rmpu_exact", "sweep": {"n": [4], "k": [5]}},
         r"sweep.k \[5\] outside \[1, 4\]"),
        ({**RMPU_SIM, "engine": "rmpu_asymptotic", "sweep": {"n": [4], "k": [1, 2]}},
         r"sweep.k \[1\]"),
        # gamma = 0 is the one way to ask for a noiseless circuit
        ({**BASE, "circuit": {**BASE["circuit"], "noise_placement": "none"}},
         "unknown noise placement 'none'"),
        # fields of another geometry would reach the sidecar but not the circuit
        ({**BASE, "circuit": {**BASE["circuit"], "r": 3}}, "r applies to rmpu circuits only"),
        ({**BASE, "circuit": {**BASE["circuit"], "lx": 2}}, "lx and ly apply to grid circuits only"),
        ({**RMPU_SIM, "circuit": {**RMPU_SIM["circuit"], "ly": 2}},
         "lx and ly apply to grid circuits only, not to rmpu"),
        ({**BASE, "circuit": {"geometry": "grid", "lx": 2, "ly": 2, "depth": 6, "r": 1}},
         "r applies to rmpu circuits only, not to grid"),
        # a set n_sites that disagrees with lx * ly would be replaced silently
        ({**BASE, "circuit": {"geometry": "grid", "n_sites": 4, "lx": 3, "ly": 2, "depth": 4}},
         "a 3x2 grid has 6 sites, not n_sites=4"),
        # realization seeds derive from a non-negative master seed
        ({**BASE, "circuit": {**BASE["circuit"], "master_seed": -3}}, r"master_seed=-3 must be >= 0"),
        # each engine's circuits: an unset placement is the one the engine needs
        ({**BASE, "engine": "rmpu_exact"},
         "the rmpu_exact engine evaluates rmpu circuits with per_gate_support noise, "
         "not chain with per_gate_support"),
        ({**BASE, "engine": "rmpu_asymptotic",
          "circuit": {**BASE["circuit"], "noise_placement": "per_gate_support"}},
         "the rmpu_asymptotic engine evaluates rmpu circuits"),
        ({**RMPU_SIM, "engine": "rmpu_exact", "sweep": {"n": [4]},
          "circuit": {**RMPU_SIM["circuit"], "noise_placement": "per_qubit_per_layer"}},
         "rmpu circuits with per_gate_support noise, not rmpu with per_qubit_per_layer"),
        ({**BASE, "engine": "rtn", "circuit": {"geometry": "grid", "lx": 2, "ly": 2, "depth": 4},
          "sweep": {"t": [2]}},
         "the rtn engine evaluates chain circuits with per_gate_support noise, "
         "not grid with per_gate_support"),
        ({**RMPU_SIM, "engine": "rtn", "sweep": {"t": [2]}},
         "chain circuits with per_gate_support noise, not rmpu with per_gate_support"),
        ({**BASE, "engine": "rtn",
          "circuit": {**BASE["circuit"], "noise_placement": "per_qubit_per_layer"}},
         "chain circuits with per_gate_support noise, not chain with per_qubit_per_layer"),
    ],
    ids=["threads", "chi_mps", "svd_threshold_neg", "svd_threshold_one", "t_above_depth",
         "t_zero", "t_per_swept_n", "grid_n_sweep", "one_realization", "site_with_n_sweep",
         "rtn_t_above_depth", "simulator_k", "rtn_k", "rmpu_exact_k", "rmpu_asymptotic_k",
         "noise_placement_none", "chain_r", "chain_lx", "rmpu_ly", "grid_r", "grid_n_sites",
         "negative_seed",
         "rmpu_exact_chain", "rmpu_asymptotic_chain_gate_noise", "rmpu_layer_noise",
         "rtn_grid", "rtn_rmpu", "rtn_layer_noise"],
)
def test_config_rejects_bad_values(config, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(config)


def test_config_accepts_t_within_every_swept_n():
    cfg = ExperimentConfig.from_dict(RMPU_SIM)
    assert cfg.sweep.n == [4, 6]


def test_run_ensemble_reproducible():
    rows1 = run_ensemble(ExperimentConfig.from_dict(BASE))
    rows2 = run_ensemble(ExperimentConfig.from_dict(BASE))
    assert len(rows1) == 9  # 3 depths x (mu, nu, nu_over_F2k)
    for a, b in zip(rows1, rows2):
        assert a["value"] == b["value"] and a["stderr"] == b["stderr"]


def test_threaded_matches_serial():
    serial = run_ensemble(ExperimentConfig.from_dict(BASE))
    threaded = run_ensemble(ExperimentConfig.from_dict({**BASE, "threads": 2}))
    for a, b in zip(serial, threaded):
        assert a["value"] == b["value"] and a["stderr"] == b["stderr"]


def test_stderr_shrinks_with_ensemble():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=4, gamma=0.1, master_seed=17)
    small = simulate_moments(spec, [4], [2], 200)
    large = simulate_moments(spec, [4], [2], 800)
    ratio = small[0]["stderr"] / large[0]["stderr"]
    assert 1.5 < ratio < 2.7  # ~2 from quadrupling, statistical slack


def test_moments_match_per_column_reductions():
    # the ensemble sums realizations in order (axis 0); numpy's 1-D mean and
    # std sum pairwise once n >= 8, so the two agree to rounding, not bit for
    # bit.  A stderr of a constant (mu_1, or nu_1 at gamma = 0) is itself
    # rounding noise, so stderrs are compared relative to the mean as well.
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=6, gamma=0.05, master_seed=5)
    n, depths, ks = 30, [2, 6], [1, 2, 3]
    samples = {}  # (t, k, quantity) -> one value per realization
    for r in range(n):
        for t, coeffs in iter_circuit(spec, r):
            if t not in depths:
                continue
            for k, mu, nu in zip(ks, moment_mu(coeffs, ks), moment_nu(coeffs, ks)):
                samples.setdefault((t, k, "mu"), []).append(mu)
                samples.setdefault((t, k, "nu"), []).append(nu)
    rows = iter(simulate_moments(spec, depths, ks, n))
    for t in depths:
        for k in ks:
            for quantity in ("mu", "nu"):
                vals = np.array(samples[t, k, quantity])
                row = next(rows)
                assert (row["quantity"], row["k"], row["t"]) == (quantity, k, t)
                assert row["value"] == pytest.approx(vals.mean(), rel=1e-12, abs=0)
                want = vals.std(ddof=1) / np.sqrt(n)
                assert row["stderr"] == pytest.approx(want, rel=1e-12,
                                                      abs=1e-12 * row["value"])
            assert next(rows)["quantity"] == "nu_over_F2k"


def test_moment_pairs_match_moment_mu_bit_for_bit():
    # one reduction per state: mu_k = nu_k / nu_1^k is the same float as moment_mu's
    for gamma, seed in ((0.0, 3), (0.1, 4)):
        spec = CircuitSpec(geometry="chain", n_sites=5, depth=6, gamma=gamma, master_seed=seed)
        for _, coeffs in iter_circuit(spec, 0):
            ks = [1, 2, 3, 5]
            pairs = moment_pairs(coeffs, ks)
            assert pairs[:, 0].tolist() == moment_mu(coeffs, ks).tolist()
            assert pairs[:, 1].tolist() == moment_nu(coeffs, ks).tolist()


def _log_mu_2_3(coeffs):
    return np.log(moment_mu(coeffs, [2, 3]))


def test_brickwork_hierarchy_higher_k_scrambles_later():
    # the paper's noiseless hierarchy on the brickwork chain: <ln mu_k> reaches its
    # global-Haar value later for larger k.  N = 6, gamma = 0, seed 11, 100
    # realizations (about 1 s); t_k* is the first depth at which <ln mu_k> - ln mu_k(Haar)
    # is below 0.1, measured at t_2* = 9 and t_3* = 11
    spec = CircuitSpec(geometry="chain", n_sites=6, depth=24, master_seed=11)
    depths, mean, _ = ensemble(spec, range(1, 25), _log_mu_2_3, 100)
    excess = mean - np.log([global_haar_moment(64.0, k) for k in (2, 3)])
    t2, t3 = (depths[int(np.argmax(excess[:, j] < 0.1))] for j in (0, 1))
    assert excess[-1].max() < 0.1
    assert t3 > t2, (t2, t3)


@pytest.mark.parametrize("depths", [[2, 9], [0, 4]], ids=["above_depth", "zero"])
def test_histogram_rejects_depths_outside_the_circuit(depths):
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=4, master_seed=1)
    with pytest.raises(ValueError, match=r"must lie in \[1, 4\]"):
        simulate_histogram(spec, depths, 3)


def test_moment_quantities_consistent():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=4, gamma=0.1, master_seed=3)
    rows = simulate_moments(spec, [4], [2], 30)
    by_q = {r["quantity"]: r for r in rows}
    fid = (1 - 0.1) ** (4 * 4)
    assert by_q["nu_over_F2k"]["value"] == pytest.approx(by_q["nu"]["value"] / fid**4)
    assert by_q["mu"]["value"] > 0 and by_q["nu"]["n_samples"] == 30


def test_csv_schemas(tmp_path):
    cfg = ExperimentConfig.from_dict(BASE)
    rows = run_ensemble(cfg)
    mpath = tmp_path / "moments.csv"
    write_moments_csv(mpath, rows)
    records = read_csv_rows(mpath)
    assert list(records[0].keys()) == MOMENTS_HEADER
    assert {r["quantity"] for r in records} == {"mu", "nu", "nu_over_F2k"}
    assert all(r["geometry"] == "chain" and r["N"] == "4" for r in records)

    spec = cfg.circuit
    hists = simulate_histogram(spec, [4], 10)
    hpath = tmp_path / "hist.csv"
    write_histogram_csv(hpath, hists)
    hrec = read_csv_rows(hpath)
    assert list(hrec[0].keys()) == HISTOGRAM_HEADER
    assert len(hrec) == 60
    stderr = [float(r["density_stderr"]) for r in hrec]
    assert min(stderr) >= 0.0 and max(stderr) > 0.0
    assert stderr == [h["density_stderr"] for h in hists]

    points = simulate_mse(spec, [1, 4], 5)
    spath = tmp_path / "mse.csv"
    write_mse_csv(spath, points)
    srec = read_csv_rows(spath)
    assert list(srec[0].keys()) == MSE_HEADER

    write_sidecar(tmp_path / "meta.json", cfg.resolved(), 1.23)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["wall_seconds"] == 1.23
    assert meta["circuit"]["n_sites"] == 4


def abc_cell(value) -> str:
    """A CSV cell's text told by the ``numbers`` ABCs alone: "" for None, the
    repr of the float for a real that is not an integral, else str."""
    if value is None:
        return ""
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        return repr(float(value))
    return str(value)


@pytest.mark.parametrize("value, text", [
    (0.1, "0.1"), (-0.0, "-0.0"), (1e22, "1e+22"), (5e-324, "5e-324"), (float("inf"), "inf"),
    (0, "0"), (-3, "-3"), (2**70, "1180591620717411303424"), ("rmpu_exact", "rmpu_exact"),
    ("", ""), (None, ""), (True, "True"), (False, "False"), (np.float64(0.1), "0.1"),
    (np.float64(1e-300), "1e-300"), (np.int64(7), "7"), (np.int64(-2), "-2"),
])
def test_csv_cells_have_the_text_of_the_abc_path(value, text):
    """Cells are told by concrete type (float or numpy floating, else str),
    with the text of the ``numbers`` ABC path for every value the CSVs hold."""
    assert _fmt(value) == abc_cell(value) == text


def test_histogram_ensemble_normalization():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=6, gamma=0.02, master_seed=2)
    rows = simulate_histogram(spec, [6], 12)
    widths = np.diff(HIST_EDGES)
    density = np.array([r["density"] for r in rows])
    total = rows[0]["zero_mass"] + float(np.sum(density * widths))
    assert abs(total - 1.0) < 1e-8


def test_rtn_engine_rows():
    cfg = ExperimentConfig.from_dict(
        {
            "circuit": {"geometry": "chain", "n_sites": 4, "depth": 6, "master_seed": 5},
            "sweep": {"t": [2, 4], "k": [2], "gamma": [0.0, 0.02]},
            "engine": "rtn",
            "n_realizations": 2,
        }
    )
    rows = run_ensemble(cfg)
    assert len(rows) == 4
    assert {r["quantity"] for r in rows} == {"mu", "nu"}
    # the stderr column carries the contraction's truncation-error estimate
    for gamma in (0.0, 0.02):
        spec = CircuitSpec(n_sites=4, depth=6, gamma=gamma, master_seed=5,
                           noise_placement="per_gate_support")
        series = contract_brickwork_series(spec, [2, 4], k=2)
        got = [(r["t"], r["stderr"]) for r in rows if r["gamma"] == gamma]
        assert got == [(t, series[t].truncation_error) for t in (2, 4)]


def test_rmpu_engine_rows():
    cfg = ExperimentConfig.from_dict(
        {
            "circuit": {
                "geometry": "rmpu", "n_sites": 4, "r": 1, "master_seed": 5,
            },
            "sweep": {"k": [2, 3], "gamma": [0.0, 0.05], "n": [3, 4]},
            "engine": "rmpu_exact",
            "n_realizations": 2,
        }
    )
    rows = run_ensemble(cfg)
    assert len(rows) == 8
    cfg.engine = "rmpu_asymptotic"
    asym = run_ensemble(cfg)
    assert len(asym) == 8
    for a, b in zip(rows, asym):
        assert abs(a["value"] - b["value"]) < 0.5 * max(a["value"], b["value"])
