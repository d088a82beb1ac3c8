from typing import Optional

import numpy as np
import pytest

from pauliscope.circuits import (
    CircuitSpec,
    _as_json_of,
    circuit_fidelity,
    iter_circuit,
    layer_supports,
    realization_rng,
    run_circuit,
    sample_haar_unitary,
)
from pauliscope.driver import SweepSpec
from pauliscope.spectrum import moment_nu


def test_chain_layer_supports():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=2)
    assert layer_supports(spec, 0) == [(0, 1), (2, 3)]
    assert layer_supports(spec, 1) == [(1, 2)]
    with pytest.raises(ValueError):
        layer_supports(spec, 2)


def test_rmpu_layer_supports():
    spec = CircuitSpec(geometry="rmpu", n_sites=5, r=2)
    assert spec.depth == 3
    assert layer_supports(spec, 1) == [(1, 2, 3)]
    assert spec.initial_site == 0


def test_grid_layer_supports():
    spec = CircuitSpec(geometry="grid", lx=3, ly=3, depth=8)
    assert spec.n_sites == 9 and spec.initial_site == 4
    assert layer_supports(spec, 0) == [(0, 1), (3, 4), (6, 7)]
    assert layer_supports(spec, 1) == [(1, 2), (4, 5), (7, 8)]
    assert layer_supports(spec, 2) == [(0, 3), (1, 4), (2, 5)]
    assert layer_supports(spec, 3) == [(3, 6), (4, 7), (5, 8)]
    assert layer_supports(spec, 4) == layer_supports(spec, 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        CircuitSpec(geometry="ring", n_sites=4)
    with pytest.raises(ValueError):
        CircuitSpec(geometry="rmpu", n_sites=4, r=4)
    with pytest.raises(ValueError):
        CircuitSpec(geometry="chain", n_sites=4, depth=0)
    with pytest.raises(ValueError):
        CircuitSpec(geometry="chain", n_sites=4, gamma=1.5)
    with pytest.raises(ValueError):
        CircuitSpec.from_dict({"geometry": "chain", "n_sites": 4, "depht": 3})


def test_from_dict_checks_value_types():
    # an Optional field admits null, and a float field a JSON integer
    spec = CircuitSpec.from_dict({"n_sites": 4, "gamma": 0, "initial_site": None})
    assert (spec.gamma, spec.initial_site) == (0, 2)
    # such an integer is stored as a float, also inside an Optional or a list
    assert type(spec.gamma) is float
    assert type(_as_json_of(0, Optional[float])) is float
    assert [type(g) for g in SweepSpec.from_dict({"gamma": [0, 0.05]}).gamma] == [float, float]
    with pytest.raises(ValueError, match="circuit.n_sites must be int, not true"):
        CircuitSpec.from_dict({"n_sites": True})
    with pytest.raises(ValueError, match="circuit.r must be int or null, not 1.0"):
        CircuitSpec.from_dict({"geometry": "rmpu", "n_sites": 4, "r": 1.0})


def test_noise_placement_defaults():
    assert CircuitSpec(geometry="chain", n_sites=4).noise_placement == "per_qubit_per_layer"
    assert CircuitSpec(geometry="rmpu", n_sites=4, r=1).noise_placement == "per_gate_support"


def test_haar_unitarity(rng):
    for dim in (2, 4, 8):
        u = sample_haar_unitary(dim, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12


def test_haar_moments_monte_carlo():
    rng = np.random.default_rng(7)
    n = 20000
    p = np.array([abs(sample_haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(n)])
    for moment, target in ((p, 0.5), (p * p, 1 / 3)):
        se = moment.std(ddof=1) / np.sqrt(n)
        assert abs(moment.mean() - target) < 3 * se


def test_determinism():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=3, gamma=0.05, master_seed=42)
    a = run_circuit(spec, 7).values
    assert np.array_equal(a, run_circuit(spec, 7).values)
    assert not np.array_equal(a, run_circuit(spec, 8).values)
    # distinct realization streams
    r0 = realization_rng(1, 0).integers(2**31)
    assert r0 != realization_rng(1, 1).integers(2**31)
    assert r0 == realization_rng(1, 0).integers(2**31)


def test_noiseless_norm_preserved():
    spec = CircuitSpec(geometry="chain", n_sites=5, depth=8, master_seed=1)
    assert abs(moment_nu(run_circuit(spec, 0), 1) - 1.0) < 1e-8


def test_lightcone_exact_zero_outside_cone():
    spec = CircuitSpec(geometry="chain", n_sites=5, depth=1, initial_site=4, master_seed=3)
    coeffs = run_circuit(spec, 0).values
    want = np.zeros(4**5)
    want[3 << 8] = 1.0  # Z at site 4
    assert np.array_equal(coeffs, want)


def test_lightcone_on_off_agree():
    spec = CircuitSpec(geometry="chain", n_sites=5, depth=4, gamma=0.07, master_seed=11)
    on = run_circuit(spec, 0).values
    off = None
    for _, op in iter_circuit(spec, 0, lightcone=False):
        off = op.values
    assert np.max(np.abs(on - off)) < 1e-12


def test_full_depolarization_kills_traceless_operator():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=2, gamma=1.0, master_seed=5)
    assert moment_nu(run_circuit(spec, 0), 1) < 1e-20


def test_fidelity_bookkeeping():
    chain = CircuitSpec(geometry="chain", n_sites=4, depth=3, gamma=0.1)
    assert abs(circuit_fidelity(chain) - 0.9**12) < 1e-15
    rmpu = CircuitSpec(geometry="rmpu", n_sites=5, r=2, gamma=0.1)
    assert abs(circuit_fidelity(rmpu) - 0.9**3) < 1e-15
    assert circuit_fidelity(chain, 1) == pytest.approx(0.9**4)
