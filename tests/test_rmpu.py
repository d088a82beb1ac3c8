import math

import numpy as np
import pytest

from pauliscope.circuits import CircuitSpec, run_circuit
from pauliscope.rmpu import (
    RmpuParams,
    boundary_vectors,
    global_haar_moment,
    lambda_matrices,
    rmpu_moment_asymptotic,
    rmpu_moment_exact,
    scaling_predictions,
    transfer_matrix,
)
from pauliscope.spectrum import haar_moment, moment_nu
from pauliscope.weingarten import _tables, enumerate_group


def pairing_index():
    return next(i for i, p in enumerate(enumerate_group(4)) if p.image == (1, 0, 3, 2))


def test_lambda_matrix_values():
    lam1, lam2 = lambda_matrices(4, 2)
    assert lam1[0] == 16.0 and lam2[0] == 4.0  # identity: d^4 and d^(4-2)
    assert lam2[pairing_index()] == 4.0  # pairing: d^(2+2-2)
    tb = _tables(4)
    assert np.allclose(lam2, lam1 * 2.0 ** (2 * tb.even.astype(int)) / 4.0)


def test_left_boundary_structure():
    left, _ = boundary_vectors(RmpuParams(n_sites=2, r=1, k=2))
    # 9 even-cycle permutations of S4: 3 pairings at chi^2, 6 four-cycles at chi
    assert np.count_nonzero(left) == 9
    assert sorted(left[left > 0]) == [2, 2, 2, 2, 2, 2, 4, 4, 4]
    assert left[0] == 0.0  # identity has odd cycles


def test_single_gate_equals_global_haar():
    val = rmpu_moment_exact([RmpuParams(n_sites=2, r=1, k=2)])[0]
    assert abs(val - global_haar_moment(4.0, 2)) < 1e-12 * val


def test_transfer_diagonal_dominance():
    # T_ss -> d^(2#+2 1_E-2-2k) as chi grows, and the pairing -> identity
    # jump element satisfies chi^k T_(tau,e) -> d^-2 (d^2-1) (the chi^-k
    # jump cost is bookkept separately in the scaling-limit derivation)
    tb = _tables(4)
    i_tau = pairing_index()
    prev_err = None
    for r in (2, 3, 4, 5, 6):
        params = RmpuParams(n_sites=r + 2, r=r, k=2)
        t = transfer_matrix(params).T
        a = 2.0 ** (2 * tb.cycles + 2 * tb.even.astype(int) - 2 - 4)
        rel = np.abs(np.diag(t) - a) / a
        err = float(np.max(rel))
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
        jump = params.chi**2 * t[i_tau, 0]
        assert abs(jump - (2.0**-2) * 3) < 10.0 / params.chi
    assert prev_err < 0.01


def test_exact_matches_monte_carlo_noiseless():
    params = RmpuParams(n_sites=3, r=2, k=2)
    exact = rmpu_moment_exact([params])[0]
    spec = CircuitSpec(geometry="rmpu", n_sites=3, r=2, master_seed=31, initial_site=0)
    vals = [moment_nu(run_circuit(spec, i), 2) for i in range(600)]
    mean, se = np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - exact) < 3 * se


def test_exact_matches_monte_carlo_noisy():
    params = RmpuParams(n_sites=4, r=2, k=2, gamma=0.05)
    exact = rmpu_moment_exact([params])[0]
    spec = CircuitSpec(
        geometry="rmpu", n_sites=4, r=2, gamma=0.05, master_seed=77, initial_site=0
    )
    vals = [moment_nu(run_circuit(spec, i), 2) for i in range(600)]
    mean, se = np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - exact) < 3 * se


def test_k1_transfer_pipeline():
    # noiseless nu_1 = 1 deterministically
    assert rmpu_moment_exact([RmpuParams(n_sites=5, r=2, k=1)])[0] == 1.0
    # with noise: the S_2 transfer value, confirmed by Monte Carlo
    params = RmpuParams(n_sites=4, r=1, k=1, gamma=0.2)
    exact = rmpu_moment_exact([params])[0]
    assert abs(exact - 0.36130816) < 1e-10
    spec = CircuitSpec(
        geometry="rmpu", n_sites=4, r=1, gamma=0.2, master_seed=77, initial_site=0
    )
    vals = [moment_nu(run_circuit(spec, i), 1) for i in range(600)]
    mean, se = np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - exact) < 3 * se


def test_grouped_points_match_single_points():
    # two (r, k, gamma) groups interleaved, N shuffled, N = 7 of the first twice
    first = [RmpuParams(n_sites=n, r=2, k=2, gamma=0.05) for n in (9, 4, 7, 3, 7)]
    second = [RmpuParams(n_sites=n, r=1, k=3) for n in (6, 2, 5)]
    points = [first[0], second[0], first[1], first[2], second[1], first[3],
              second[2], first[4]]
    values = rmpu_moment_exact(points)
    assert values == [rmpu_moment_exact([p])[0] for p in points]
    assert values[3] == values[7]  # the repeated N
    assert len({values[i] for i in (0, 2, 3, 5)}) == 4  # distinct N, distinct values
    op = transfer_matrix(first[0])  # unscaled reference at these small m
    for p in first:
        ref = float(op.L @ np.linalg.matrix_power(op.T, p.m - 1) @ op.R)
        assert values[points.index(p)] == pytest.approx(ref, rel=1e-12)
    # gamma = 1 keeps only the identity-identity coefficient, where L vanishes:
    # the vector dies on the first step, so that m and every later one read 0.0
    dead = [RmpuParams(n_sites=n, r=1, k=2, gamma=1.0) for n in (4, 2, 3)]
    assert rmpu_moment_exact(dead) == [0.0, 0.0, 0.0]
    assert rmpu_moment_exact([]) == []


def test_asymptotic_examples():
    # x = 1, k = 2, d = 2: C2 = 0.25 so mu2 = 3.75
    assert abs(rmpu_moment_asymptotic(RmpuParams(n_sites=8, r=4, k=2)) - 3.75) < 1e-12
    c2_gamma = 3.0 / (16.0 * 0.9**-4 - 4.0)
    assert abs(c2_gamma - 0.14715) < 1e-4
    params = RmpuParams(n_sites=8, r=4, k=2, gamma=0.1)
    fid = 0.9**4
    want = fid**4 * 3.0 * (1.0 + c2_gamma / fid**4)
    assert abs(rmpu_moment_asymptotic(params) - want) < 1e-12
    with pytest.raises(ValueError):
        rmpu_moment_asymptotic(RmpuParams(n_sites=4, r=1, k=1))


def test_noiseless_reduction_is_bit_identical():
    for n_sites, r, k in ((4, 2, 2), (6, 3, 3)):
        plain = rmpu_moment_exact([RmpuParams(n_sites=n_sites, r=r, k=k)])[0]
        zero_gamma = rmpu_moment_exact([RmpuParams(n_sites=n_sites, r=r, k=k, gamma=0.0)])[0]
        assert plain == zero_gamma
        a = rmpu_moment_asymptotic(RmpuParams(n_sites=n_sites, r=r, k=2))
        b = rmpu_moment_asymptotic(RmpuParams(n_sites=n_sites, r=r, k=2, gamma=0.0))
        assert a == b


def test_asymptotic_gap_halves_as_chi_doubles():
    for r_of in (lambda n: n // 2, lambda n: n // 2 + 1):  # x = 1 and x = 0.5
        gaps = []
        for n_sites in (4, 6, 8, 10, 12):
            params = RmpuParams(n_sites=n_sites, r=r_of(n_sites), k=2)
            gaps.append(
                abs(rmpu_moment_exact([params])[0] - rmpu_moment_asymptotic(params))
                / rmpu_moment_asymptotic(params)
            )
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert all(r <= 0.5 for r in ratios), ratios


def test_haar_floor():
    # noiseless exact moments approach (2k-1)!! from above as chi grows at fixed N
    for k in (2, 3):
        vals = [
            rmpu_moment_exact([RmpuParams(n_sites=8, r=r, k=k)])[0] for r in (3, 5, 7)
        ]
        assert all(v >= haar_moment(k) * (1 - 1e-9) for v in vals)
        assert abs(vals[-1] - haar_moment(k)) < abs(vals[0] - haar_moment(k))


def test_scaling_predictions():
    sp = scaling_predictions(2, 2)
    assert abs(sp.tau - 4.4814) < 1e-3
    assert abs(sp.gamma_c_times_n - math.log(1.25)) < 1e-12
    assert abs(sp.t_star(10) - 15.53) < 0.01


def test_params_validation():
    with pytest.raises(ValueError):
        RmpuParams(n_sites=4, r=4, k=2)
    with pytest.raises(ValueError):
        RmpuParams(n_sites=4, r=1, k=2, d=3)
    with pytest.raises(ValueError):
        RmpuParams(n_sites=4, r=1, k=0)
