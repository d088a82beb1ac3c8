import hashlib
import tracemalloc
from functools import reduce
from typing import Optional

import numpy as np
import pytest

from pauliscope import circuits, opsim
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
from pauliscope.opsim import apply_depolarizing
from pauliscope.pauli import PauliCoefficients
from pauliscope.spectrum import moment_nu

from conftest import unfolded_per_gate_layers


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


#: per_gate_support circuits whose folded noise is checked against the
#: unfolded path: a chain, a grid with non-adjacent vertical pairs and a
#: 5-site staircase
FOLD_CIRCUITS = {
    "chain6": dict(geometry="chain", n_sites=6, depth=8, gamma=0.1),
    "chain8": dict(geometry="chain", n_sites=8, depth=10, gamma=0.03),
    "grid3x3": dict(geometry="grid", lx=3, ly=3, depth=8, gamma=0.05),
    "rmpu8_r4": dict(geometry="rmpu", n_sites=8, r=4, gamma=0.05),
}


@pytest.mark.parametrize("name", sorted(FOLD_CIRCUITS))
def test_per_gate_noise_folded_into_rows_matches_unfolded_path(name):
    """Per-gate noise scaled into each gate's transfer-matrix rows agrees with
    each gate applied, then its own joint depolarizing pass, to 1e-14 of the
    layer's largest coefficient at every layer: the two orders of the same
    products differ by rounding only (at most 1.8e-15 measured)."""
    spec = CircuitSpec(noise_placement="per_gate_support", master_seed=7,
                       **FOLD_CIRCUITS[name])
    for realization in range(2):
        layers = zip(iter_circuit(spec, realization), unfolded_per_gate_layers(spec, realization))
        for (t, op), (t_ref, ref) in layers:
            assert t == t_ref
            scale = np.max(np.abs(ref.values))
            assert np.max(np.abs(op.values - ref.values)) <= 1e-14 * scale, (realization, t)


@pytest.mark.parametrize("width", range(1, 6))
@pytest.mark.parametrize("gamma", [0.02, 1 / 7, 0.3, 1.0])
def test_channel_on_ones_is_the_kronecker_power_bit_for_bit(width, gamma):
    """The per-qubit row factors that ``iter_circuit`` builds with the channel
    equal the Kronecker power of [1, 1-g, 1-g, 1-g], bit for bit."""
    ones = PauliCoefficients(width, np.ones(4**width))
    rows = apply_depolarizing(ones, gamma, range(width)).values
    kron = reduce(np.kron, [np.array([1.0, 1.0 - gamma, 1.0 - gamma, 1.0 - gamma])] * width)
    assert np.array_equal(rows, kron)


#: circuit -> sha256 per realization 0, 1, 2; each realization's
#: hash is fed every layer's coefficient bytes in turn.  The per-gate hashes
#: were re-recorded when per-gate noise was folded into the transfer-matrix
#: rows; the fold test above states the tolerance of that change
PINNED_LAYER_HASHES = {
    "chain7_per_qubit": (
        "2f4d25dadb5c0539067f4e642aa14f2f3f51eec3c4bacc00712232a764c80815",
        "c159ff711ba1f73c84b86ae5c12673f7f985eaa925154e9b3f2ed95b5ae2875d",
        "5b3ab97074f0646b934232474887b1ae85508874596c32806bb28b601c7c6dcd",
    ),
    "chain6_per_gate": (
        "a58bb44b5a5c07471e50933ff5fe2eb766144e3dc6cd68ad8e298c0908072693",
        "e7a86e4d19e93c61c76e50f6434c48a7d1068cd92a51b87a5964fde228bdfb6d",
        "19f950ce62c6bbf2a3664751ea58d3639b73a4eb70cbe4bd11486e90625e6bab",
    ),
    "grid2x3": (
        "f342244787b56b41ff9cf8892e077c6cb84ec0d9e62fb098a636de10835d0193",
        "f4e0f8bc552701027acb07ba983fba004ab8676edb6b3c59520c1c96d8b87814",
        "3402025f8f62e5ac4e8816006d14d5c3d25f5d415c5d26d36bf798acda0c2750",
    ),
    "rmpu6_r2": (
        "5a11b3178544376827dc2ab6314621dd79430d96030fd93175c4b579beb2ff61",
        "0c4fa93acc11849b778efd2e22cb7dbd5385a6e9f061e4d32c6fb52409f28951",
        "c606456d44a34426bc2058ecd65b21f33c93d2a5f8e95aeda49b95f114aa1507",
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
    per realization and transforming per layer changes no bit (the per-gate
    states as recorded with their noise folded into the rows).  Recorded with
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


def _spied_realization(monkeypatch, spec):
    """Run realization 0 of ``spec``; return the number of gates each
    transfer-matrix build took, the number of gates applied, and the
    tracemalloc peak in bytes."""
    builds, applied = [], []
    build, apply = circuits.pauli_transfer_matrix, circuits.apply_gate

    def spy_build(u):
        builds.append(len(u))
        return build(u)

    def spy_apply(op, support, r):
        applied.append(support)
        return apply(op, support, r)

    monkeypatch.setattr(circuits, "pauli_transfer_matrix", spy_build)
    monkeypatch.setattr(circuits, "apply_gate", spy_apply)
    tracemalloc.start()
    try:
        run_circuit(spec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return builds, len(applied), peak


def test_chain_builds_every_applied_gate_in_one_call(monkeypatch):
    """Two-site gates are small, so one build covers the whole realization."""
    spec = CircuitSpec(master_seed=7, **PINNED_CIRCUITS["chain7_per_qubit"])
    builds, applied, _ = _spied_realization(monkeypatch, spec)
    assert builds == [applied] and applied > 0


def test_wide_staircase_builds_one_gate_per_call_in_bounded_memory(monkeypatch):
    """A 5-site gate's build alone is past the entry cap, so an N=8, r=4
    staircase builds its four gates one at a time: its peak stays near the
    51 MB of a single 5-site build (two at once would pass 100 MB)."""
    spec = CircuitSpec(geometry="rmpu", n_sites=8, r=4, gamma=0.01, master_seed=7)
    builds, applied, peak = _spied_realization(monkeypatch, spec)
    assert builds == [1, 1, 1, 1] and applied == 4
    assert peak < 60e6


#: the Clifford letters of the oracle's gate words, on (support[1], support[0])
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_S = np.diag([1.0, 1.0j])
CLIFFORD_LETTERS = (
    np.kron(_H, np.eye(2)), np.kron(np.eye(2), _H), np.kron(_S, np.eye(2)),
    np.kron(np.eye(2), _S),
    np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),  # CNOT
)
#: largest move of a Clifford transfer-matrix entry when rounded to an integer
CLIFFORD_ROUNDING = 1e-14

CLIFFORD_CIRCUITS = {
    # 4^10 coefficients run the blocked path, with gates on site 0
    "chain10": dict(geometry="chain", n_sites=10, depth=12),
    # row-major 3 x 3 sites: the vertical pairs (i, i + 3) are not adjacent
    "grid3x3": dict(geometry="grid", lx=3, ly=3, depth=8),
}


def _integer_transfer(u):
    """The gates' transfer matrices rounded to integers, after checking that
    rounding moves no entry by more than ``CLIFFORD_ROUNDING``."""
    r = opsim.pauli_transfer_matrix(u)
    rounded = np.rint(r)
    assert np.max(np.abs(r - rounded)) <= CLIFFORD_ROUNDING
    return rounded


@pytest.mark.parametrize("name", sorted(CLIFFORD_CIRCUITS))
@pytest.mark.parametrize("placement", ["per_qubit_per_layer", "per_gate_support"])
@pytest.mark.parametrize("gamma", [0.0, 0.03])
def test_clifford_circuits_follow_one_string_exactly(monkeypatch, name, placement, gamma):
    """With random two-qubit Clifford words for the Haar gates and their
    transfer matrices rounded to integers, every layer's state holds exactly
    one nonzero coefficient: at the string a tracker finds by following the
    initial Z through each gate's signed permutation R, with the value +- the
    product of the noise factors on its path, bit for bit.  The tracker walks
    ``layer_supports`` and applies every gate, so it shares neither the causal
    cone plan nor the folding of the noise into R's rows."""
    drawn = []

    def clifford_words(dim, rng, count):
        words = rng.integers(len(CLIFFORD_LETTERS), size=(count, 12))
        drawn.append(np.stack([reduce(np.matmul, [CLIFFORD_LETTERS[i] for i in word])
                               for word in words]))
        return drawn[-1]

    monkeypatch.setattr(circuits, "sample_haar_unitary", clifford_words)
    monkeypatch.setattr(circuits, "pauli_transfer_matrix", _integer_transfer)
    spec = CircuitSpec(gamma=gamma, noise_placement=placement, master_seed=3,
                       **CLIFFORD_CIRCUITS[name])
    per_site = placement == "per_qubit_per_layer"

    def noise(letters):  # the factor of the channel on sites holding these letters
        factor = 1.0
        for letter in letters if per_site else [max(letters)]:
            if letter:
                factor *= 1.0 - gamma
        return factor

    index, value, gate = 3 << (2 * spec.initial_site), 1.0, 0
    for t, op in iter_circuit(spec, 0):
        (r_stack,) = drawn
        touched = set()
        for support in layer_supports(spec, t - 1):
            r = _integer_transfer(r_stack[gate])
            gate += 1
            touched.update(support)
            b = sum((index >> 2 * s & 3) << 2 * j for j, s in enumerate(support))
            (a,) = np.flatnonzero(r[:, b])
            for j, s in enumerate(support):
                index += ((a >> 2 * j & 3) - (index >> 2 * s & 3)) << 2 * s
            value *= r[a, b] * noise([a & 3, a >> 2])
        if per_site:
            for s in sorted(set(range(spec.n_sites)) - touched):
                value *= noise([index >> 2 * s & 3])
        assert np.flatnonzero(op.values).tolist() == [index], t
        assert op.values[index] == value, t
