import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliscope.circuits import CircuitSpec, run_circuit
from pauliscope.opsim import init_local_pauli
from pauliscope.pauli import PAULI_MATRICES, PauliCoefficients, pauli_transform
from pauliscope.spectrum import moment_mu, moment_nu, ose
from pauliscope.truncation import (
    expectation_zero_state,
    residual_spectral_norm,
    simulability_bound,
    truncate_top,
    truncation_mse,
)


def test_truncate_sorting_example():
    coeffs = PauliCoefficients(1, np.array([0.0, 0.8, 0.5, 0.3]))
    res = truncate_top(coeffs, 2)
    assert set(res.kept_indices.tolist()) == {1, 2}
    assert abs(res.dropped_weight - 0.09) < 1e-15
    assert truncate_top(coeffs, 4).dropped_weight == 0.0
    single = truncate_top(init_local_pauli(2, 0, "Z"), 1)
    assert single.dropped_weight == 0.0


def test_truncate_tie_break_deterministic():
    coeffs = PauliCoefficients(1, np.array([0.5, -0.5, 0.5, 0.2]))
    assert truncate_top(coeffs, 2).kept_indices.tolist() == [0, 1]
    with pytest.raises(ValueError):
        truncate_top(coeffs, 0)
    with pytest.raises(ValueError):
        truncate_top(coeffs, 5)


def test_expectation_zero_state_examples():
    assert expectation_zero_state(init_local_pauli(1, 0, "Z")) == 1.0
    assert expectation_zero_state(init_local_pauli(1, 0, "X")) == 0.0
    proj = (np.eye(2, dtype=complex) + PAULI_MATRICES["Z"]) / 2
    assert abs(expectation_zero_state(pauli_transform(proj)) - 1.0) < 1e-15
    trunc = truncate_top(pauli_transform(proj), 1)
    assert abs(expectation_zero_state(trunc) - 0.5) < 1e-15


def test_bound_examples():
    assert abs(simulability_bound(1.0, math.log(4) + 1.0, 4, 3)) < 1e-12
    assert simulability_bound(1.0, 0.0, 1, 2) < 0.0
    with pytest.raises(ValueError):
        simulability_bound(1.0, 1.0, 0, 2)


def test_bound_validity_against_adversarial_state():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=6, master_seed=10)
    for real in range(4):
        coeffs = run_circuit(spec, real)
        m2 = ose(coeffs, 2)
        norm = math.sqrt(moment_nu(coeffs, 1))
        for n_keep in (1, 4, 16):
            lhs = residual_spectral_norm(coeffs, n_keep)
            rhs = simulability_bound(norm, m2, n_keep, 4)
            assert lhs >= rhs - 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_top_truncation_is_optimal(seed):
    rng = np.random.default_rng(seed)
    spec = CircuitSpec(
        geometry="chain", n_sites=3, depth=4, gamma=0.05, master_seed=int(seed) % 997
    )
    coeffs = run_circuit(spec, 0)
    n_keep = 8
    best = truncate_top(coeffs, n_keep).dropped_weight
    total = float(np.sum(coeffs.values**2))
    for _ in range(10):
        subset = rng.choice(coeffs.values.size, size=n_keep, replace=False)
        alt = total - float(np.sum(coeffs.values[subset] ** 2))
        assert best <= alt + 1e-12


def test_mse_exact_at_full_basis():
    spec = CircuitSpec(geometry="chain", n_sites=3, depth=4, gamma=0.05, master_seed=3)
    points = truncation_mse(spec, [4**3], n_realizations=5)
    assert points[0].mse == 0.0


def test_mse_nonincreasing_in_np():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=8, gamma=0.25, master_seed=9)
    points = truncation_mse(spec, [1, 4, 16, 64, 256], n_realizations=60)
    for a, b in zip(points, points[1:]):
        assert b.mse <= a.mse + 3 * (a.stderr + b.stderr)


def test_mse_matches_direct_truncation():
    spec = CircuitSpec(geometry="chain", n_sites=3, depth=4, gamma=0.1, master_seed=5)
    grid = [1, 4, 16]
    points = truncation_mse(spec, grid, n_realizations=3)
    direct = np.zeros(len(grid))
    for real in range(3):
        coeffs = run_circuit(spec, real)
        full = expectation_zero_state(coeffs)
        for j, n_keep in enumerate(grid):
            err = full - expectation_zero_state(truncate_top(coeffs, n_keep))
            direct[j] += err**2 / 3
    for p, want in zip(points, direct):
        assert abs(p.mse - want) < 1e-12


def test_ensemble_jensen_direction():
    # -log(mean mu2) <= mean(-log mu2): the averaged bound never exceeds the
    # mean per-realization bound
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=8, master_seed=21)
    mus = [
        moment_mu(run_circuit(spec, real), 2) for real in range(40)
    ]
    lhs = -math.log(np.mean(mus))
    rhs = float(np.mean([-math.log(m) for m in mus]))
    assert lhs <= rhs + 1e-12
