import hashlib
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


@pytest.mark.parametrize("dim, count", [(2, 5), (4, 39), (8, 3), (32, 2)])
def test_haar_stack_equals_single_draws_in_turn(dim, count):
    stacked_rng, single_rng = np.random.default_rng(11), np.random.default_rng(11)
    stack = sample_haar_unitary(dim, stacked_rng, count)
    assert stack.shape == (count, dim, dim)
    for u in stack:
        assert u.tobytes() == sample_haar_unitary(dim, single_rng).tobytes()
    # the two streams were read to the same point
    assert stacked_rng.standard_normal() == single_rng.standard_normal()


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
    assert abs(moment_nu(run_circuit(spec, 0), [1])[0] - 1.0) < 1e-8


def test_lightcone_exact_zero_outside_cone():
    spec = CircuitSpec(geometry="chain", n_sites=5, depth=1, initial_site=4, master_seed=3)
    coeffs = run_circuit(spec, 0).values
    want = np.zeros(4**5)
    want[3 << 8] = 1.0  # Z at site 4
    assert np.array_equal(coeffs, want)


def test_full_depolarization_kills_traceless_operator():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=2, gamma=1.0, master_seed=5)
    assert moment_nu(run_circuit(spec, 0), [1])[0] < 1e-20


def test_fidelity_bookkeeping():
    chain = CircuitSpec(geometry="chain", n_sites=4, depth=3, gamma=0.1)
    assert abs(circuit_fidelity(chain) - 0.9**12) < 1e-15
    rmpu = CircuitSpec(geometry="rmpu", n_sites=5, r=2, gamma=0.1)
    assert abs(circuit_fidelity(rmpu) - 0.9**3) < 1e-15
    assert circuit_fidelity(chain, 1) == pytest.approx(0.9**4)


#: circuit -> sha256 per realization 0, 1, 2; each realization's
#: hash is fed every layer's coefficient bytes in turn
PINNED_LAYER_HASHES = {
    "chain7_per_qubit": (
        "2f4d25dadb5c0539067f4e642aa14f2f3f51eec3c4bacc00712232a764c80815",
        "c159ff711ba1f73c84b86ae5c12673f7f985eaa925154e9b3f2ed95b5ae2875d",
        "5b3ab97074f0646b934232474887b1ae85508874596c32806bb28b601c7c6dcd",
    ),
    "chain6_per_gate": (
        "5c6d218d70a07bf8ff1f5dc90151e78731989d4118c5c7965f331a7d4e6b7501",
        "361d643357155c79cc05d589854778e2fea7052a2b86b68afdab6ecd9b26c42a",
        "861bf982e800c3e38ba4bd44669faef8c7f3055663509b662307e9fc47858cad",
    ),
    "grid2x3": (
        "f342244787b56b41ff9cf8892e077c6cb84ec0d9e62fb098a636de10835d0193",
        "f4e0f8bc552701027acb07ba983fba004ab8676edb6b3c59520c1c96d8b87814",
        "3402025f8f62e5ac4e8816006d14d5c3d25f5d415c5d26d36bf798acda0c2750",
    ),
    "rmpu6_r2": (
        "f1eb24f05b6c8507a918e987e7846aa95e8e036264d665ccf1e8657b9c61cba9",
        "14936c94ea98f5369a5a52e7e6e6ade33dd7dd5a52873a5df4fcfd0a50ebfa60",
        "d898a2da0b1a17a453c935a0dee23124ccb7b0ac6f09584b627b3ebe03772d5b",
    ),
}

PINNED_CIRCUITS = {
    "chain7_per_qubit": dict(geometry="chain", n_sites=7, depth=14, gamma=1 / 7),
    "chain6_per_gate": dict(geometry="chain", n_sites=6, depth=8, gamma=0.1,
                            noise_placement="per_gate_support"),
    # row-major 2 x 3 sites: the vertical pairs (i, i + 2) are not adjacent
    "grid2x3": dict(geometry="grid", lx=2, ly=3, depth=8, gamma=0.05),
    "rmpu6_r2": dict(geometry="rmpu", n_sites=6, r=2, gamma=0.05),
}


@pytest.mark.parametrize("name", list(PINNED_LAYER_HASHES))
def test_layer_states_are_pinned_bit_for_bit(name):
    """Every layer's state, byte for byte, as the simulator wrote it when each
    gate had its own Haar draw, unitarity check and Pauli transform; drawing
    per realization and transforming per layer changes no bit.  Recorded with
    numpy 2.4 and OpenBLAS 0.3.31 (x86-64, 1 and 2 threads alike); another
    BLAS may round the gate products differently."""
    spec = CircuitSpec(master_seed=7, **PINNED_CIRCUITS[name])
    got = []
    for realization in range(3):
        digest = hashlib.sha256()
        for _, op in iter_circuit(spec, realization):
            digest.update(op.values.tobytes())
        got.append(digest.hexdigest())
    assert tuple(got) == PINNED_LAYER_HASHES[name]
