import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pauliscope.circuits import CircuitSpec, run_circuit
from pauliscope.rmpu import (
    GAMMA_C_TIMES_N,
    TAU,
    global_haar_moment,
    rmpu_moment_asymptotic,
    rmpu_moment_exact,
    t_star,
    transfer_matrix,
)
from pauliscope.spectrum import haar_moment, moment_nu

from conftest import (
    decode_pauli,
    dense_gram,
    dense_noisy_weingarten,
    dense_staircase_moments,
    dense_transfer,
    exact_staircase_moments,
    one_vector_scaled_product,
    pauli_matrix,
)
from pauliscope.weingarten import _tables, pauli_sum_weights


def staircase(n_sites, r, gamma=0.0):
    return CircuitSpec(geometry="rmpu", n_sites=n_sites, r=r, gamma=gamma)


def pairing_index():
    return _tables(4).images.tolist().index([1, 0, 3, 2])


def test_lambda_matrix_values():
    tb = _tables(4)
    lam1, lam2 = 2.0**tb.cycles, pauli_sum_weights(4, 2.0)
    assert lam1[0] == 16.0 and lam2[0] == 4.0  # identity: d^4 and d^(4-2)
    assert lam2[pairing_index()] == 4.0  # pairing: d^(2+2-2)
    assert np.allclose(lam2, lam1 * 2.0 ** (2 * tb.even.astype(int)) / 4.0)
    # T = Lam1 Wg~(d chi, gamma) Lam2 G(chi) and R = Lam1 Wg~ Lam2^(r+1) 1
    t, _, right = dense_transfer(2, 2, 0.1)
    wg = dense_noisy_weingarten(4, 8.0, 0.1)
    assert np.allclose(t, np.diag(lam1) @ wg @ np.diag(lam2) @ dense_gram(4, 4.0),
                       rtol=1e-12, atol=0)
    assert np.allclose(right, lam1 * (wg @ lam2**3), rtol=1e-12, atol=0)


def test_left_boundary_structure():
    _, left, _ = dense_transfer(1, 2, 0.0)
    # 9 even-cycle permutations of S4: 3 pairings at chi^2, 6 four-cycles at chi
    assert np.count_nonzero(left) == 9
    assert sorted(left[left > 0]) == [2, 2, 2, 2, 2, 2, 4, 4, 4]
    assert left[0] == 0.0  # identity has odd cycles


def test_single_gate_equals_global_haar():
    val = rmpu_moment_exact([(staircase(2, 1), 2)])[0]
    assert abs(val - global_haar_moment(4.0, 2)) < 1e-12 * val
    # k = 4 (S_8): one block on r+1 qubits, at q = 2^(r+1) below, at and above 2k
    for r in (1, 2, 3):
        val = rmpu_moment_exact([(staircase(r + 1, r), 4)])[0]
        assert abs(val - global_haar_moment(2.0 ** (r + 1), 4)) < 1e-12 * val, r


def test_transfer_diagonal_dominance():
    # T_ss -> d^(2#+2 1_E-2-2k) as chi grows, and the pairing -> identity
    # jump element satisfies chi^k T_(tau,e) -> d^-2 (d^2-1) (the chi^-k
    # jump cost is bookkept separately in the scaling-limit derivation)
    tb = _tables(4)
    i_tau = pairing_index()
    prev_err = None
    for r in (2, 3, 4, 5, 6):
        t = dense_transfer(r, 2, 0.0)[0]
        a = 2.0 ** (2 * tb.cycles + 2 * tb.even.astype(int) - 2 - 4)
        rel = np.abs(np.diag(t) - a) / a
        err = float(np.max(rel))
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
        chi = 2**r
        jump = chi**2 * t[i_tau, 0]
        assert abs(jump - (2.0**-2) * 3) < 10.0 / chi
    assert prev_err < 0.01


def test_exact_matches_monte_carlo_noiseless():
    spec = CircuitSpec(geometry="rmpu", n_sites=3, r=2, master_seed=31, initial_site=0)
    exact = rmpu_moment_exact([(spec, 2)])[0]
    vals = [moment_nu(run_circuit(spec, i), [2])[0] for i in range(600)]
    mean, se = np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - exact) < 3 * se


def test_exact_matches_monte_carlo_noisy():
    spec = CircuitSpec(
        geometry="rmpu", n_sites=4, r=2, gamma=0.05, master_seed=77, initial_site=0
    )
    exact = rmpu_moment_exact([(spec, 2)])[0]
    vals = [moment_nu(run_circuit(spec, i), [2])[0] for i in range(600)]
    mean, se = np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - exact) < 3 * se


def haar_batch(dim: int, size: int, rng) -> np.ndarray:
    """``size`` Haar unitaries: QR of Ginibre matrices with R's diagonal made positive."""
    z = rng.standard_normal((size, dim, dim)) + 1j * rng.standard_normal((size, dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def dense_staircase_nu(n_sites, k, gamma, n_samples, rng, chunk=10_000):
    """Mean and standard error of nu_k over r = 1 staircases, by dense matrices.

    Z on site 0 is conjugated by a Haar gate on sites (s, s+1) for s = 0..N-2,
    each gate followed by O <- (1-gamma) O + gamma Tr_S[O] x 1_S/4 on its
    support S; a_P = Tr[P O]/D is read off every Pauli word.
    """
    dim = 2**n_sites
    paulis = np.array([pauli_matrix(decode_pauli(i, n_sites)) for i in range(dim * dim)])
    trace_with = paulis.transpose(0, 2, 1).reshape(dim * dim, dim * dim).T
    vals = []
    for start in range(0, n_samples, chunk):
        b = min(chunk, n_samples - start)
        op = np.broadcast_to(pauli_matrix("Z" + "I" * (n_sites - 1)), (b, dim, dim))
        for s in range(n_sites - 1):
            # matrix index bits: site s+1, s sit between 2^(N-s-2) higher and 2^s lower
            hi, lo = 2 ** (n_sites - s - 2), 2**s
            u = haar_batch(4, b, rng)
            t = op.reshape(b, hi, 4, lo, hi, 4, lo)
            t = np.einsum("bjk,bxjyzlw,blm->bxkyzmw", u.conj(), t, u, optimize=True)
            traced = np.einsum("bxjyzjw->bxyzw", t)
            t = (1 - gamma) * t + gamma * np.einsum("bxyzw,jl->bxjyzlw", traced, np.eye(4) / 4)
            op = t.reshape(b, dim, dim)
        a2 = np.square((op.reshape(b, dim * dim) @ trace_with).real / dim)
        vals.append(dim ** (2 * k - 2) * np.sum(a2**k, axis=1))
    vals = np.concatenate(vals)
    return float(np.mean(vals)), float(np.std(vals, ddof=1)) / math.sqrt(n_samples)


@pytest.mark.parametrize("gamma, n_samples", [(0.0, 120_000), (0.1, 170_000)])
def test_exact_matches_dense_haar_average_for_q_below_2k(gamma, n_samples):
    # r = 1, k = 3: the gate dimension q = 4 is below n = 2k = 6, where the
    # Weingarten matrices are pseudo-inverses of singular Gram matrices
    exact = rmpu_moment_exact([(staircase(3, 1, gamma), 3)])[0]
    mean, se = dense_staircase_nu(3, 3, gamma, n_samples, np.random.default_rng(8))
    assert se <= 0.005 * exact
    assert abs(mean - exact) < 3 * se


def test_k1_transfer_pipeline():
    # noiseless nu_1 = 1 deterministically
    assert rmpu_moment_exact([(staircase(5, 2), 1)])[0] == 1.0
    # with noise: the S_2 transfer value, confirmed by Monte Carlo
    spec = CircuitSpec(
        geometry="rmpu", n_sites=4, r=1, gamma=0.2, master_seed=77, initial_site=0
    )
    exact = rmpu_moment_exact([(spec, 1)])[0]
    assert abs(exact - 0.36130816) < 1e-10
    vals = [moment_nu(run_circuit(spec, i), [1])[0] for i in range(600)]
    mean, se = np.mean(vals), np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - exact) < 3 * se


def test_grouped_points_match_single_points():
    # (r, k) = (2, 2) stacks three gammas with different N lists, N = 7 of the
    # first twice, and a gamma = 1 row that vanishes; (1, 3) and (3, 4) are
    # one and two rows; all interleaved, N shuffled
    first = [(staircase(n, 2, 0.05), 2) for n in (9, 4, 7, 3, 7)]
    second = [(staircase(n, 1), 3) for n in (6, 2, 5)]
    third = [(staircase(n, 2, 0.2), 2) for n in (12, 5)]
    # gamma = 1 keeps only the identity-identity coefficient, where L vanishes:
    # the vector dies on the first step, so that m and every later one read 0.0
    dead = [(staircase(n, 2, 1.0), 2) for n in (4, 3, 10)]
    k4 = [(staircase(n, 3, gamma), 4) for n, gamma in ((4, 0.0), (9, 0.03), (6, 0.0), (5, 0.03))]
    points = [first[0], second[0], dead[0], first[1], k4[0], first[2], third[0], second[1],
              k4[1], first[3], dead[1], second[2], k4[2], third[1], first[4], dead[2], k4[3]]
    values = rmpu_moment_exact(points)
    assert values == [rmpu_moment_exact([p])[0] for p in points]
    # bit for bit against one pass of a single running vector per (r, k, gamma)
    for group in (first, second, third, dead, k4):
        for gamma in {p[0].gamma for p in group}:
            specs = [p[0] for p in group if p[0].gamma == gamma]
            ms = sorted({spec.depth for spec in specs})
            want = one_vector_scaled_product(transfer_matrix(specs[0].r, group[0][1], gamma), ms)
            for spec in specs:
                assert values[points.index((spec, group[0][1]))] == want[ms.index(spec.depth)]
    assert values[points.index(first[2])] == values[points.index(first[4])]  # the repeated N
    assert len({values[points.index(p)] for p in first}) == 4  # distinct N, distinct values
    assert [values[points.index(p)] for p in dead] == [0.0, 0.0, 0.0]
    assert all(values[points.index(p)] > 0.0 for p in first + third)  # live rows of that stack
    t, left, right = dense_transfer(2, 2, 0.05)  # unscaled reference at these small m
    for p in first:
        ref = float(left @ np.linalg.matrix_power(t, p[0].depth - 1) @ right)
        assert values[points.index(p)] == pytest.approx(ref, rel=1e-12)
    assert rmpu_moment_exact([(staircase(n, 1, 1.0), 2) for n in (4, 2, 3)]) == [0.0, 0.0, 0.0]
    assert rmpu_moment_exact([]) == []


#: largest relative error of an rmpu_moment_exact value against exact
#: rationals, per k, over test_staircase_moments_match_exact_rationals'
#: points: about twice the worst measured (k=1: 6.9e-15, k=2: 7.9e-14,
#: k=3: 1.62e-13, each at m = N - r up to 60)
EXACT_STAIRCASE_BOUND = {1: 1.5e-14, 2: 1.6e-13, 3: 3.5e-13}


def test_staircase_moments_match_exact_rationals():
    """The whole staircase sweep, transfer matrix and rescaled class sweep,
    against ``exact_staircase_moments``: the benchmark's full scan (r = 4,
    N = 8..64 in steps of 2, six gammas, k = 1..3) and r = 2, k = 3 (gate
    dimension q = 8 nearest 2k = 6) at N = 3..62 for gamma = 0, 0.3 and 1.
    About 2 s; gamma = 1 rows are exactly 0.0, and noiseless k = 1 rows 1.0."""
    scan = [(4, k, gamma, range(8, 65, 2)) for k in (1, 2, 3)
            for gamma in (0.0, 0.008, 0.016, 0.024, 0.032, 0.04)]
    for r, k, gamma, ns in scan + [(2, 3, gamma, range(3, 63)) for gamma in (0.0, 0.3, 1.0)]:
        exact = exact_staircase_moments(r, k, gamma, {n - r for n in ns})
        got = rmpu_moment_exact([(staircase(n, r, gamma), k) for n in ns])
        for n, value in zip(ns, got):
            want = exact[n - r]
            assert abs(Fraction(value) - want) <= EXACT_STAIRCASE_BOUND[k] * abs(want), (r, k, gamma, n)
            if gamma == 1.0:
                assert value == want == 0.0
            elif gamma == 0.0 and k == 1:
                assert value == want == 1.0


def test_class_sweep_matches_dense_oracle():
    # transfer_matrix sweeps the p(2k) conjugacy classes; the dense (2k)! sweep
    # gives the same moments.  r = 1, k = 3 has q = 4 < 2k, where Wg is a
    # pseudo-inverse
    ms = range(1, 13)
    for r in (1, 2, 3, 4):
        for k in (1, 2, 3):
            n_classes = len(_tables(2 * k).types)
            m_red, left, right = transfer_matrix(r, k, 0.05)
            assert m_red.shape == (n_classes, n_classes)
            assert left.shape == right.shape == (n_classes,)
            for gamma in (0.0, 0.05):
                want = dense_staircase_moments(r, k, gamma, ms)
                got = rmpu_moment_exact([(staircase(m + r, r, gamma), k) for m in ms])
                for m, value in zip(ms, got):
                    assert abs(value - want[m]) <= 1e-12 * abs(want[m]), (r, k, gamma, m)
            assert rmpu_moment_exact([(staircase(m + r, r, 1.0), k) for m in ms]) == [0.0] * 12


def test_asymptotic_examples():
    # x = 1, k = 2, d = 2: C2 = 0.25 so mu2 = 3.75
    assert abs(rmpu_moment_asymptotic(staircase(8, 4), 2) - 3.75) < 1e-12
    c2_gamma = 3.0 / (16.0 * 0.9**-4 - 4.0)
    assert abs(c2_gamma - 0.14715) < 1e-4
    fid = 0.9**4
    want = fid**4 * 3.0 * (1.0 + c2_gamma / fid**4)
    assert abs(rmpu_moment_asymptotic(staircase(8, 4, 0.1), 2) - want) < 1e-12


def test_noiseless_reduction_is_bit_identical():
    for n_sites, r, k in ((4, 2, 2), (6, 3, 3)):
        plain = CircuitSpec(geometry="rmpu", n_sites=n_sites, r=r)
        zero_gamma = staircase(n_sites, r, 0.0)
        assert rmpu_moment_exact([(plain, k)]) == rmpu_moment_exact([(zero_gamma, k)])
        a = rmpu_moment_asymptotic(plain, 2)
        b = rmpu_moment_asymptotic(zero_gamma, 2)
        assert a == b


def test_asymptotic_gap_halves_as_chi_doubles():
    for r_of in (lambda n: n // 2, lambda n: n // 2 + 1):  # x = 1 and x = 0.5
        gaps = []
        for n_sites in (4, 6, 8, 10, 12):
            spec = staircase(n_sites, r_of(n_sites))
            gaps.append(
                abs(rmpu_moment_exact([(spec, 2)])[0] - rmpu_moment_asymptotic(spec, 2))
                / rmpu_moment_asymptotic(spec, 2)
            )
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert all(r <= 0.5 for r in ratios), ratios


def test_haar_floor():
    # noiseless exact moments approach (2k-1)!! from above as chi grows at fixed N
    for k in (2, 3, 4):
        vals = [
            rmpu_moment_exact([(staircase(8, r), k)])[0] for r in (3, 5, 7)
        ]
        assert all(v >= haar_moment(k) * (1 - 1e-9) for v in vals)
        assert abs(vals[-1] - haar_moment(k)) < abs(vals[0] - haar_moment(k))


@pytest.mark.parametrize("n_sites", [24, 48])
def test_staircase_hierarchy_steps_at_r_star(n_sites):
    # the paper's noiseless hierarchy: at gamma = 0, mu_k / mu_k(global Haar) - 1
    # drops below 1 at block width r* = N (1 - 1/k), later for larger k.  At N = 24 the
    # excess reads 4.0 -> 0.25 at r = 11 -> 12 (k = 2), 3.2 -> 0.05 at r = 15 -> 16
    # (k = 3) and 3.05 -> 0.012 at r = 17 -> 18 (k = 4), and the same at N = 48;
    # only r* - 1 and r* are evaluated (about 1 s for both N)
    for k in (2, 3, 4):
        r_star = n_sites * (k - 1) // k
        before, at = rmpu_moment_exact([(staircase(n_sites, r), k)
                                        for r in (r_star - 1, r_star)])
        haar = global_haar_moment(2.0**n_sites, k)
        assert before / haar - 1 >= 1 > at / haar - 1, (k, before / haar, at / haar)


def test_scaling_predictions():
    assert abs(TAU - 4.4814) < 1e-3
    assert abs(GAMMA_C_TIMES_N - math.log(1.25)) < 1e-12
    assert abs(t_star(10, 2) - 15.53) < 0.01


def test_params_validation():
    with pytest.raises(ValueError):
        staircase(4, 4)
    with pytest.raises(ValueError):
        rmpu_moment_exact([(staircase(4, 1), 0)])


def test_full_staircase_scan_matches_its_reference_and_the_dense_oracle(tmp_path):
    """The benchmark's full rmpu_scan (r=4, N=8..64, six gammas, k=1..3) through
    ``run_ensemble``.  Every value is within 1e-12 relative of the dense
    (2k)! oracle, and of the reference where it has one: rows with rtol null
    are the k=1, gamma>0 rows the reference file exempts.  The class solve
    and sweep move values at rounding level against the dense ones the
    references were recorded with (at most 9.95e-13 relative, where the
    reference itself is 1.04e-12 off a 50-digit value), so no bit comparison
    holds.  The CLI runs in subprocesses at 1 OpenBLAS thread, twice, to the
    same bytes; ``test_cli`` compares 1 and 2 threads."""
    root = Path(__file__).resolve().parents[1]
    reference = json.loads((root / "perfbench/references/full/rmpu_scan.json").read_text())
    cfg = tmp_path / "rmpu_scan.json"
    cfg.write_text(json.dumps(reference["config"]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    (entry,) = reference["entries"].values()
    ((file_name, want),) = entry["files"].items()
    written = []
    for run in ("a", "b"):
        subprocess.run([sys.executable, "-m", "pauliscope.cli", "rmpu-exact", "--config",
                        str(cfg), "--out", str(tmp_path / run)], check=True, env=env)
        written.append((tmp_path / run / file_name).read_bytes())
    assert written[0] == written[1]
    with open(tmp_path / "a" / file_name, newline="") as fh:
        got = {(r["N"], r["gamma"], r["k"]): float(r["value"]) for r in csv.DictReader(fh)}

    def close(value, target):
        return abs(value - target) <= 1e-12 * abs(target)

    checked = [(float(ref["row"]["value"]),
                got[ref["row"]["N"], ref["row"]["gamma"], ref["row"]["k"]])
               for ref in want if ref["rtol"] is not None]
    assert len(got) == len(want) and len(checked) == 377
    assert all(close(g, w) for w, g in checked)
    r = reference["config"]["circuit"]["r"]
    depths = {}
    for n_sites, gamma, k in got:
        depths.setdefault((float(gamma), int(k)), set()).add(int(n_sites) - r)
    oracle = {(gamma, k): dense_staircase_moments(r, k, gamma, ms)
              for (gamma, k), ms in depths.items()}
    assert all(close(value, oracle[float(gamma), int(k)][int(n_sites) - r])
               for (n_sites, gamma, k), value in got.items())
    assert all(value == 1.0 for (_, gamma, k), value in got.items()
               if float(gamma) == 0.0 and k == "1")
