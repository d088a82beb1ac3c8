import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliscope.circuits import CircuitSpec, iter_circuit, run_circuit
from pauliscope.opsim import init_local_pauli
from pauliscope.pauli import PauliCoefficients, pauli_transform, zdiag_mask
from pauliscope.spectrum import moment_mu, moment_nu, ose
from pauliscope.truncation import (
    _squared_tails,
    _top_order,
    residual_spectral_norm,
    simulability_bound,
    truncation_mse,
)

from conftest import decode_pauli, random_hermitian, truncate_top, zdiag_indicator


def test_truncate_sorting_example():
    values = np.array([0.0, 0.8, 0.5, 0.3])
    assert _top_order(values, values.size).tolist() == [1, 2, 3, 0]
    assert _top_order(init_local_pauli(2, 0, "Z").values, 1)[0] == 3


def test_truncate_tie_break_deterministic():
    values = np.array([0.5, -0.5, 0.5, 0.2])
    assert _top_order(values, values.size).tolist() == [0, 1, 2, 3]
    spec = CircuitSpec(geometry="chain", n_sites=2, depth=1)
    for bad in ([0, 4], [4, 17]):
        with pytest.raises(ValueError, match="outside"):
            truncation_mse(spec, bad, n_realizations=2)


def _full_sort_squared_tails(coeffs, mask, np_grid):
    """The tails as computed before the top-N_P selection: one stable sort of
    all 4^N coefficients, then one suffix sum with the off-diagonal entries
    as exact zeros."""
    order = np.argsort(-np.abs(coeffs.values), kind="stable")
    diag_sorted = np.where(mask[order], coeffs.values[order], 0.0)
    suffix = np.concatenate([np.cumsum(diag_sorted[::-1])[::-1], [0.0]])
    return suffix[np_grid] ** 2


def _tie_heavy_values(rng, n):
    """4^N coefficients drawn from a few magnitudes with both signs, so exact
    ties (diagonal against off-diagonal, positive against negative) and
    exact zeros are everywhere; every other vector is continuous with a
    quarter of its entries copied from others."""
    size = 4**n
    if rng.random() < 0.5:
        levels = np.array([0.0, 0.0, 0.125, 0.25, 0.5, 1.0 / 3.0, 0.7])
        return rng.choice(levels, size) * rng.choice([-1.0, 1.0], size)
    values = rng.standard_normal(size)
    copied = rng.random(size) < 0.25
    values[copied] = values[rng.integers(0, size, copied.sum())] * rng.choice([-1.0, 1.0])
    values[rng.random(size) < 0.1] = 0.0
    return values


def _default_grid(n):
    return [2**j for j in range(0, min(12, 2 * n) + 1)]


def _boundary_tie_values(rng, n, most, run, before):
    """Coefficients whose ``most``-th largest |a| = 1 sits in a run of ``run``
    tied magnitudes, ``before`` of them within the top ``most``: distinct
    magnitudes above 1 and below it around the run, both signs everywhere,
    and a third of the run (up to 32) on diagonal strings."""
    size = 4**n
    mask = zdiag_mask(n)
    on_diagonal = min(run // 3, 32)
    tied = np.concatenate([rng.choice(np.flatnonzero(mask), on_diagonal, replace=False),
                           rng.choice(np.flatnonzero(~mask), run - on_diagonal, replace=False)])
    rest = rng.permutation(np.setdiff1d(np.arange(size), tied))
    values = np.empty(size)
    values[tied] = 1.0
    values[rest[: most - before]] = 2.0 + rng.random(most - before)
    values[rest[most - before:]] = 0.9 * rng.random(rest.size - most + before)
    return values * rng.choice([-1.0, 1.0], size)


@pytest.mark.parametrize("n", range(1, 8))
def test_selected_tails_equal_the_full_sort_bit_for_bit(n):
    """The selection's squared tails and top order equal the full stable
    sort's, bit for bit, on tie- and zero-heavy vectors with negative
    diagonal values, on grids that are not powers of two, with cutoffs inside
    runs of tied |a|, with N_P = 4^N, and on the default grid.  At N = 7
    the default grid stops at 4096 < 4^7, so the top magnitudes come from a
    partition; there it also runs tie runs that straddle, end at, or start
    at the partition boundary, an all-zero diagonal, and early-depth
    operators whose strings outside the light cone are exact zeros."""
    rng = np.random.default_rng(1000 + n)
    mask = zdiag_mask(n)
    size = 4**n
    trials = 20 if n == 7 else 60
    for trial in range(trials):
        values = _tie_heavy_values(rng, n)
        full = np.argsort(-np.abs(values), kind="stable")
        mag = np.abs(values[full])
        tied = np.flatnonzero(mag[1:] == mag[:-1]) + 1  # cutoffs inside a tie run
        grid = set(rng.integers(1, size + 1, size=rng.integers(1, 6)).tolist())
        if tied.size:
            grid.add(int(rng.choice(tied)))
        if trial % 3 == 0:
            grid.add(size)
        grid = sorted(grid)
        coeffs = PauliCoefficients(n, values)
        got = _squared_tails(coeffs, mask, grid)
        assert np.array_equal(got, _full_sort_squared_tails(coeffs, mask, grid))
        default = _default_grid(n)
        got = _squared_tails(coeffs, mask, default)
        assert np.array_equal(got, _full_sort_squared_tails(coeffs, mask, default))
        for cut in grid[:3] if n == 7 else grid:
            assert np.array_equal(_top_order(values, cut), full[:cut])
    if n < 7:
        return
    default = _default_grid(n)
    most = default[-1]
    assert most < size
    cases = [_boundary_tie_values(rng, n, most, run, before)
             for run, before in ((40, 17), (40, 40), (40, 1), (9, 9), (2 * most, most))]
    zero_diagonal = rng.standard_normal(size)
    zero_diagonal[mask] = 0.0
    cases.append(zero_diagonal)
    spec = CircuitSpec(geometry="chain", n_sites=n, depth=4, gamma=0.05, master_seed=17)
    for _, op in iter_circuit(spec, 0):
        cases.append(op.values.copy())
    assert np.count_nonzero(cases[-4] == 0.0) > size - most  # the cut falls among zeros
    for values in cases:
        coeffs = PauliCoefficients(n, values)
        for grid in (default, [most], [most - 1, most, most + 1]):
            got = _squared_tails(coeffs, mask, grid)
            assert np.array_equal(got, _full_sort_squared_tails(coeffs, mask, grid))


def test_expectation_zero_state_examples(rng):
    # <0..0| O |0..0> is the sum of a_P over the {I, Z}^N strings
    for n in (1, 2, 3):
        h = random_hermitian(n, rng)
        diag_sum = np.sum(pauli_transform(h).values[zdiag_mask(n)])
        assert abs(diag_sum - h[0, 0].real) < 1e-12 * np.max(np.abs(h))


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
        norm = math.sqrt(moment_nu(coeffs, [1])[0])
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
    kept = _top_order(coeffs.values, n_keep)
    assert kept.tolist() == truncate_top(coeffs.values, n_keep)
    total = float(np.sum(coeffs.values**2))
    best = total - float(np.sum(coeffs.values[kept] ** 2))
    for _ in range(10):
        subset = rng.choice(coeffs.values.size, size=n_keep, replace=False)
        alt = total - float(np.sum(coeffs.values[subset] ** 2))
        assert best <= alt + 1e-12


def test_mse_needs_two_realizations():
    # one realization has no standard error; it is not written as 0
    spec = CircuitSpec(geometry="chain", n_sites=2, depth=2, gamma=0.1)
    with pytest.raises(ValueError, match="n_realizations >= 2"):
        truncation_mse(spec, [1, 4], n_realizations=1)


def test_mse_exact_at_full_basis():
    spec = CircuitSpec(geometry="chain", n_sites=3, depth=4, gamma=0.05, master_seed=3)
    points = truncation_mse(spec, [4**3], n_realizations=5)
    assert points[0]["mse"] == 0.0


def test_mse_nonincreasing_in_np():
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=8, gamma=0.25, master_seed=9)
    points = truncation_mse(spec, [1, 4, 16, 64, 256], n_realizations=60)
    for a, b in zip(points, points[1:]):
        assert b["mse"] <= a["mse"] + 3 * (a["stderr"] + b["stderr"])


def test_mse_matches_direct_truncation():
    spec = CircuitSpec(geometry="chain", n_sites=3, depth=4, gamma=0.1, master_seed=5)
    grid = [1, 4, 16]
    points = truncation_mse(spec, grid, n_realizations=3)
    direct = np.zeros(len(grid))
    for real in range(3):
        values = run_circuit(spec, real).values
        diagonal = [i for i in range(values.size) if zdiag_indicator(decode_pauli(i, 3))]
        for j, n_keep in enumerate(grid):
            dropped = set(diagonal) - set(truncate_top(values, n_keep))
            err = sum(values[i] for i in sorted(dropped))
            direct[j] += err**2 / 3
    for p, want in zip(points, direct):
        assert abs(p["mse"] - want) < 1e-12


def test_ensemble_jensen_direction():
    # -log(mean mu2) <= mean(-log mu2): the averaged bound never exceeds the
    # mean per-realization bound
    spec = CircuitSpec(geometry="chain", n_sites=4, depth=8, master_seed=21)
    mus = [
        moment_mu(run_circuit(spec, real), [2])[0] for real in range(40)
    ]
    lhs = -math.log(np.mean(mus))
    rhs = float(np.mean([-math.log(m) for m in mus]))
    assert lhs <= rhs + 1e-12
