import tracemalloc

import numpy as np
import pytest
from conftest import dense_gate_kernel, dense_gram, dense_rtn_series

from pauliscope import rtn
from pauliscope.circuits import CircuitSpec
from pauliscope.driver import simulate_moments
from pauliscope.rmpu import global_haar_moment, rmpu_moment_exact
from pauliscope.rtn import BrickworkContraction, _wire_basis, contract_brickwork_series
from pauliscope.weingarten import (
    _tables,
    noisy_weingarten,
    pauli_sum_weights,
    traceless_seed_weights,
)


def chain(n_sites, depth=1, gamma=0.0, **extra):
    """The brickwork chain the contraction evaluates: per-gate-support noise."""
    return CircuitSpec(n_sites=n_sites, depth=depth, gamma=gamma,
                       noise_placement="per_gate_support", **extra)


def perm_index(image):
    return _tables(len(image)).images.tolist().index(list(image))


def plaquette_j(k, gamma):
    """J[s, p, r] = sum_d Wg~_{r,d}(4, gamma) G_{d,s}(2) G_{d,p}(2)."""
    w = noisy_weingarten(2 * k, 4.0, gamma, rows=slice(None))
    g = dense_gram(2 * k, 2.0)
    return np.einsum("rd,ds,dp->spr", w, g, g)


def gate_kernel(k, gamma):
    """The engine's gate kernel, composed from its two factors."""
    left, right = BrickworkContraction(chain(2, gamma=gamma), k)._kernel
    return left @ right


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_factored_kernel_matches_dense_kernel(k, gamma):
    dense = dense_gate_kernel(k, gamma)
    left, right = BrickworkContraction(chain(2, gamma=gamma), k)._kernel
    assert left.shape[1] == right.shape[0] == len(_tables(2 * k).images)
    assert np.max(np.abs(left @ right - dense)) < 1e-14 * np.max(np.abs(dense))


def test_plaquette_lightcone_identity():
    # J[e, e, r] = delta_{e,r}: the gate kernel fixes the state e x e
    for k in (1, 2):
        c_e = _wire_basis(2 * k)[0][:, 0]
        ee = np.kron(c_e, c_e)
        for gamma in (0.0, 0.1, 0.7):
            kernel = gate_kernel(k, gamma)
            assert np.max(np.abs(kernel @ ee - ee)) < 1e-12 * np.max(np.abs(ee))


def test_plaquette_uniform_weights():
    j = plaquette_j(2, 0.1)
    images = _tables(4).images
    for idx, image in enumerate(images):
        n_moved = np.count_nonzero(image != np.arange(4))
        assert abs(j[idx, idx, idx] - 0.9**n_moved) < 1e-12
    i_tau = perm_index((1, 0, 3, 2))
    assert abs(j[i_tau, i_tau, i_tau] - 0.6561) < 1e-12
    j0 = plaquette_j(2, 0.0)
    assert np.allclose(np.einsum("iii->i", j0), 1.0, atol=1e-12)
    # the gate kernel maps |s>> x |p>> to sum_r J[s, p, r] |r>> x |r>>
    coords = _wire_basis(4)[0]
    pairs = np.einsum("as,bs->abs", coords, coords).reshape(-1, 24)
    kernel = gate_kernel(2, 0.1)
    for s in range(24):
        got = kernel @ np.einsum("a,bp->abp", coords[:, s], coords).reshape(-1, 24)
        assert np.max(np.abs(got - pairs @ j[s].T)) < 1e-12 * np.max(np.abs(got))


def test_pauli_sum_and_seed_weights():
    top, bottom = pauli_sum_weights(4, 2.0), traceless_seed_weights(4, 2.0)
    assert top[perm_index((1, 0, 3, 2))] == 4.0  # pairing: 2^(2+2-2)
    assert bottom[0] == 0.0  # identity permutation has odd cycles
    assert bottom[perm_index((1, 2, 3, 0))] == 2.0  # four-cycle: 2^1


def test_single_gate_matches_transfer_matrix():
    res = contract_brickwork_series(chain(2), [1], k=2)[1]
    ref = rmpu_moment_exact([(CircuitSpec(geometry="rmpu", n_sites=2, r=1), 2)])[0]
    assert res.truncation_error == 0.0
    assert abs(res.value - ref) < 1e-10 * ref


def test_unevolved_value_is_d_squared_k():
    eng = BrickworkContraction(chain(4), 2)
    assert abs(eng.value() - 4.0**4) < 1e-9


@pytest.mark.parametrize("n_sites,depth", [(2, 1), (4, 3), (5, 4), (6, 9)])
def test_norm_moment_is_one(n_sites, depth):
    res = contract_brickwork_series(chain(n_sites, depth), [depth], k=1)[depth]
    assert abs(res.value - 1.0) < 1e-10


# (N, initial_site, depth, gamma, k): the seed at the centre (None), at site 0
# and at the last site, which on odd N the first layer leaves untouched, to
# depth 2N; and one N=6 case
ORACLE_CASES = [(n, site, 2 * n, gamma, k)
                for n, site in [(2, None), (2, 0), (3, None), (3, 0), (3, 2), (4, None),
                                (4, 0), (4, 3), (5, None), (5, 0), (5, 4)]
                for gamma in (0.0, 0.02) for k in (1, 2)] + [(6, 5, 6, 0.02, 2)]


@pytest.mark.parametrize("n_sites, initial_site, depth, gamma, k", ORACLE_CASES)
def test_factored_state_matches_dense_oracle(n_sites, initial_site, depth, gamma, k):
    spec = chain(n_sites, depth, gamma, initial_site=initial_site)
    series = contract_brickwork_series(spec, range(depth + 1), k=k)
    for t, want in dense_rtn_series(spec, k, range(depth + 1)).items():
        assert abs(series[t].value - want) <= 1e-12 * abs(want), (t, series[t].value, want)


def test_exact_state_stays_factored(monkeypatch):
    # N=6, k=2: the full wire state has 14^6 = 7,529,536 entries; a gate expands
    # only the legs of its two sites, so the state never holds more than 14^4 24
    largest = 14**4 * 24
    sizes = []
    apply = rtn._ExactState.apply_kernel

    def spy(self, i, kernel):
        apply(self, i, kernel)
        sizes.append(self.state.size)

    monkeypatch.setattr(rtn._ExactState, "apply_kernel", spy)
    eng = BrickworkContraction(chain(6, 12), 2)
    assert eng.engine == "exact"
    tracemalloc.start()
    try:
        eng.advance(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and max(sizes) <= largest
    # nor does a gate build the full tensor on the way (8-byte entries)
    assert peak <= 2 * 8 * largest


def mps_only(monkeypatch):
    """Make every later contraction use the boundary MPS, however small."""
    monkeypatch.setattr(rtn, "_EXACT_ENTRY_CAP", 0)


@pytest.mark.parametrize("k, gamma", [(1, 0.0), (1, 0.02), (2, 0.0), (2, 0.02)])
def test_exact_and_mps_engines_agree(k, gamma, monkeypatch):
    results = {}
    for engine in ("exact", "mps"):
        if engine == "mps":
            mps_only(monkeypatch)
        eng = BrickworkContraction(chain(5, 4, gamma), k, chi_mps=512)
        assert eng.engine == engine
        eng.advance(4)
        results[engine] = eng.result()
    exact, mps = results["exact"], results["mps"]
    assert exact.truncation_error == 0.0
    assert abs(exact.value - mps.value) < 1e-8 * exact.value


def test_matches_simulator_monte_carlo_on_a_noisy_chain():
    # an independent engine: the Pauli-coefficient simulator's ensemble mean of
    # nu_2 on the same circuits, with the cone off centre (N=5, initial site 1)
    spec = chain(5, 4, 0.02, initial_site=1, master_seed=3)
    depths = [1, 2, 4]
    series = contract_brickwork_series(spec, depths, k=2)
    rows = [row for row in simulate_moments(spec, depths, [2], 2000) if row["quantity"] == "nu"]
    assert [row["t"] for row in rows] == depths
    for row in rows:
        z = (row["value"] - series[row["t"]].value) / row["stderr"]
        assert abs(z) <= 4, (row["t"], z)


# max_bond of the same contractions with a full SVD kept above 1e-12 s_0
SVD_SPLIT_BONDS = {(5, 4, 1): 4, (5, 4, 2): 196, (6, 12, 1): 4, (6, 12, 2): 336,
                   (4, 32, 1): 2, (4, 32, 2): 196}


@pytest.mark.parametrize("n_sites, depth, k", sorted(SVD_SPLIT_BONDS))
def test_untruncated_mps_is_not_flagged(n_sites, depth, k, monkeypatch):
    mps_only(monkeypatch)
    eng = BrickworkContraction(chain(n_sites, depth), k, chi_mps=512)
    eng.advance(depth)
    res = eng.result()
    assert not res.flagged
    assert res.max_bond <= SVD_SPLIT_BONDS[n_sites, depth, k]


def dense_theta(c, x):
    """theta[(l, s), (p, m)] = sum_b C[s, b] C[p, b] X[b, l, m], formed densely."""
    nf, dl, dr = x.shape
    r = c.shape[0]
    return np.einsum("sb,pb,blm->lspm", c, c, x).reshape(dl * r, r * dr)


def _split_inputs(monkeypatch):
    """The (C, X) an N=8, chi=64 boundary-MPS sweep splits, with their two-site
    tensors theta, wide and tall."""
    inputs = []
    split = rtn._split

    def spy(c, x, chi_max):
        inputs.append((c, x.copy()))
        return split(c, x, chi_max)

    monkeypatch.setattr(rtn, "_split", spy)
    BrickworkContraction(chain(8, 6, 0.01), 2, chi_mps=64).advance(6)  # 14^8 > the cap
    big = [(c, x, dense_theta(c, x)) for c, x in inputs]
    big = [item for item in big if min(item[2].shape) >= 196]
    assert {m.shape[0] > m.shape[1] for _, _, m in big} == {False, True}  # wide/square and tall
    return split, big


def test_split_is_near_optimal(monkeypatch):
    # the range finder keeps nearly, not exactly, the top singular directions;
    # its miss is measured in ``discarded``, which must stay honest
    split, big = _split_inputs(monkeypatch)
    for c, x, mat in big:
        left, right, s0, discarded = split(c, x, 64)
        m = left.shape[1]
        s = np.linalg.svd(mat, compute_uv=False)
        assert abs(s0 - s[0]) < 1e-12 * s[0]
        assert np.max(np.abs(left.T @ left - np.eye(m))) < 1e-12
        resid = mat - left @ right
        measured = float(np.vdot(resid, resid) / np.vdot(mat, mat))
        assert abs(discarded - measured) <= 1e-12 * measured
        kept = np.linalg.svd(right, compute_uv=False)
        assert np.max(np.abs(kept - s[:m])) < 1e-3 * s[0]
        optimal = float(np.sum(s[m:] ** 2) / np.sum(s**2))
        assert discarded <= 1.02 * optimal


def test_split_is_deterministic():
    c = _wire_basis(4)[0]
    x = np.random.default_rng(5).standard_normal((24, 20, 15))  # theta is 280 x 210
    np.random.seed(1)
    first = rtn._split(c, x, 64)
    np.random.seed(2)
    before = np.random.get_state()
    second = rtn._split(c, x, 64)
    after = np.random.get_state()  # the global state did not advance
    assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("dl, dr", [(3, 5), (6, 2), (1, 4), (5, 1), (1, 1)])
def test_leg_products_match_dense_theta(k, dl, dr):
    c = _wire_basis(2 * k)[0]
    rng = np.random.default_rng(10 * dl + dr)
    x = rng.standard_normal((c.shape[1], dl, dr))
    theta = dense_theta(c, x)
    omega = rng.standard_normal((theta.shape[1], 7))
    q = rng.standard_normal((theta.shape[0], 7))
    for got, want in [(rtn._leg_product(c, x, omega), theta @ omega),
                      (rtn._leg_product(c, x, q, True), theta.T @ q),
                      (rtn._leg_product(c, x, q, True).T, q.T @ theta)]:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_split_spanning_every_column_makes_one_qr(monkeypatch):
    # theta is 28 x 42 and Omega has min(8 + 24, 28, 42) = 28 columns: the
    # first QR spans theta's range, and the split is a dense SVD truncation
    c = _wire_basis(4)[0]
    x = np.random.default_rng(7).standard_normal((24, 2, 3))
    qr, calls = np.linalg.qr, []

    def counting_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    left, right, s0, discarded = rtn._split(c, x, 8)
    assert len(calls) == 1
    theta = dense_theta(c, x)
    u, s, vt = np.linalg.svd(theta)
    best = (u[:, :8] * s[:8]) @ vt[:8]
    assert left.shape[1] == 8
    assert np.max(np.abs(left @ right - best)) <= 1e-12 * s[0]
    assert abs(s0 - s[0]) <= 1e-12 * s[0]
    assert abs(discarded - np.sum(s[8:] ** 2) / np.sum(s**2)) <= 1e-12


def test_mps_value_moves_less_than_its_chi_gap():
    # chi_convergence rows of the rtn_chain benchmark (N=8, gamma=0.01, t=8):
    # chi=64 with the exact-eigendecomposition split, and chi=256
    v64, v256 = 8.435225345979479, 8.447769278217983
    value = contract_brickwork_series(chain(8, 8, 0.01), [8], k=2, chi_mps=64)[8].value
    assert abs(value - v64) <= 0.1 * abs(v64 - v256)


@pytest.mark.parametrize("k", [0, 3])
def test_contraction_rejects_unsupported_k(k, monkeypatch):
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(rtn, "noisy_weingarten", no_tables)
    monkeypatch.setattr(rtn, "_wire_basis", no_tables)
    with pytest.raises(ValueError, match=r"k in \{1, 2\}, not " + str(k)):
        BrickworkContraction(chain(8, 2), k, chi_mps=16)


@pytest.mark.parametrize("engine", ["exact", "mps"])
def test_non_finite_state_raises(engine, monkeypatch):
    if engine == "mps":
        mps_only(monkeypatch)
    eng = BrickworkContraction(chain(4, 2), 2)
    assert eng.engine == engine
    for arr in [eng.mps.state] if engine == "exact" else eng.mps.tensors:
        arr.fill(np.nan)
    with pytest.raises(FloatingPointError, match="not finite"):
        eng.advance(1)


def test_truncation_error_monotone_in_chi(monkeypatch):
    exact = contract_brickwork_series(chain(6, 6), [6], k=2)[6].value
    mps_only(monkeypatch)
    results = {}
    for chi in (16, 32, 64):
        eng = BrickworkContraction(chain(6, 6), 2, chi_mps=chi)
        eng.advance(6)
        results[chi] = eng.result()
    errs = [results[chi].truncation_error for chi in (16, 32, 64)]
    assert errs[0] >= errs[1] >= errs[2]
    # value deviation from the exact engine stays within a few reported errors
    for chi in (32, 64):
        res = results[chi]
        assert abs(res.value - exact) <= max(5 * res.truncation_error * exact, 1e-9)


def test_deep_limit_matches_global_haar():
    series = contract_brickwork_series(chain(4, 32), [4, 8, 16, 24, 32], k=2)
    reference = global_haar_moment(16.0, 2)
    gaps = [abs(series[t].value - reference) for t in (4, 8, 16, 24, 32)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6
    assert series[32].truncation_error < 1e-10


def test_series_matches_individual_runs():
    series = contract_brickwork_series(chain(5, 4, 0.05), [2, 4], k=2)
    for t in (2, 4):
        single = contract_brickwork_series(chain(5, 4, 0.05), [t], k=2)[t]
        assert abs(series[t].value - single.value) < 1e-12 * single.value


@pytest.mark.parametrize("spec, depths, message", [
    (chain(4, 4), [2, 5], r"\[0, 4\]"),
], ids=["depth_above_spec"])
def test_series_rejects_other_circuits(spec, depths, message):
    with pytest.raises(ValueError, match=message):
        contract_brickwork_series(spec, depths, k=2)
