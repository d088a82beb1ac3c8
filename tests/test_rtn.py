import tracemalloc

import numpy as np
import pytest
from conftest import dense_gate_kernel, dense_gram, dense_rtn_series

from pauliscope import rtn
from pauliscope.circuits import CircuitSpec
from pauliscope.driver import simulate_moments
from pauliscope.rmpu import global_haar_moment, rmpu_moment_exact
from pauliscope.rtn import _wire_basis, contract_brickwork_series
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


def series_and_state(spec, depths, k, **kwargs):
    """``contract_brickwork_series(spec, depths, k, **kwargs)`` and the one wire
    state it built, caught by wrapping both state classes' ``__init__``."""
    states = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in (rtn._ExactState, rtn._BoundaryMps):
            def init(self, *args, _init=cls.__init__):
                _init(self, *args)
                states.append(self)

            mp.setattr(cls, "__init__", init)
        series = contract_brickwork_series(spec, depths, k, **kwargs)
    (state,) = states
    return series, state


def kernel_factors(k, gamma):
    """The factors (A, Wg~ A^T) of the gate kernel the exact state applies."""
    return series_and_state(chain(2, gamma=gamma), [0], k)[1].kernel


def gate_kernel(k, gamma):
    """The engine's gate kernel, composed from its two factors."""
    left, right = kernel_factors(k, gamma)
    return left @ right


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_factored_kernel_matches_dense_kernel(k, gamma):
    dense = dense_gate_kernel(k, gamma)
    left, right = kernel_factors(k, gamma)
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
    assert abs(contract_brickwork_series(chain(4), [0], k=2)[0].value - 4.0**4) < 1e-9


@pytest.mark.parametrize("k, want", [(1, 1.0), (2, 1024.0)])
@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_rows_before_a_gate_touches_the_seed_are_exact(k, want, gamma):
    """On N=5 with the seed at site 4, layer 1 leaves the seed idle: the rows at
    t = 0 and 1 are the bare Pauli's nu_k = D^(2k-2) = 4^(N(k-1)) exactly,
    with truncation error 0."""
    series = contract_brickwork_series(chain(5, 1, gamma, initial_site=4), [0, 1], k)
    for t in (0, 1):
        assert (series[t].value, series[t].truncation_error) == (want, 0.0)


# r^N against _EXACT_ENTRY_CAP = 9e6 picks the state: rank r = 14 at k = 2
# (exact to N = 6) and r = 2 at k = 1 (exact to N = 23, since 2^23 <= 9e6 < 2^24)
@pytest.mark.parametrize("k, n_sites, state_class", [
    (2, 6, "_ExactState"), (2, 7, "_BoundaryMps"), (1, 23, "_ExactState"), (1, 24, "_BoundaryMps"),
])
def test_state_is_chosen_by_the_full_state_size(k, n_sites, state_class):
    series, state = series_and_state(chain(n_sites), [1], k)
    assert type(state) is getattr(rtn, state_class)
    assert series[1].truncation_error == 0.0  # one gate keeps every bond


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

    def spy(self, i):
        apply(self, i)
        sizes.append(self.state.size)

    monkeypatch.setattr(rtn._ExactState, "apply_kernel", spy)
    contract_brickwork_series(chain(6, 12), [0], 2)  # builds the cached tables
    tracemalloc.start()
    try:
        contract_brickwork_series(chain(6, 12), [12], 2)
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
        series, state = series_and_state(chain(5, 4, gamma), [4], k, chi_mps=512)
        assert type(state) is (rtn._ExactState if engine == "exact" else rtn._BoundaryMps)
        results[engine] = series[4]
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
    res = contract_brickwork_series(chain(n_sites, depth), [depth], k, chi_mps=512)[depth]
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
    contract_brickwork_series(chain(8, 6, 0.01), [6], 2, chi_mps=64)  # 14^8 > the cap
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
        # read off the split, discarded carries an absolute error of a few eps
        # where the range finder misses: |theta|^2 - |B|^2 cancels there
        assert abs(discarded - measured) <= 1e-12 * measured + 32 * np.finfo(float).eps
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


@pytest.mark.parametrize("k, dl, dr", [(1, 3, 5), (1, 1, 1), (2, 6, 2), (2, 1, 4),
                                       (2, 5, 1), (2, 7, 7), (3, 2, 3), (3, 1, 2)])
def test_split_takes_theta_norm_from_its_legs(k, dl, dr, monkeypatch):
    # |theta|^2 = sum((C^T C)^2 * X X^T): the split's one vdot, never on theta
    c = _wire_basis(2 * k)[0]
    x = np.random.default_rng(dl + 10 * dr + 100 * k).standard_normal((c.shape[1], dl, dr))
    theta = dense_theta(c, x)
    want = float(np.vdot(theta, theta))
    vdot, seen = np.vdot, []

    def spy(a, b):
        assert a.shape == b.shape == (c.shape[1],) * 2
        seen.append(float(vdot(a, b)))
        return seen[-1]

    monkeypatch.setattr(np, "vdot", spy)
    rtn._split(c, x, 4)
    assert len(seen) == 1 and abs(seen[0] - want) <= 1e-13 * want


def test_split_dropping_nothing_reports_exactly_zero():
    # theta is 28 x 42 of rank 28 and Omega spans every column: nothing is missed
    # and no direction falls below the floor, so no roundoff residual is reported
    c = _wire_basis(4)[0]
    x = np.random.default_rng(7).standard_normal((24, 2, 3))
    left, right, s0, discarded = rtn._split(c, x, 64)
    assert left.shape[1] == 28
    assert discarded == 0.0
    theta = dense_theta(c, x)
    assert np.linalg.norm(left @ right - theta) <= 1e-13 * np.linalg.norm(theta)


def test_k3_split_stays_within_its_memory_bound():
    # chi=64 at k=3: theta would be (64 * 132)^2 entries (571 MB); the split on
    # the gate's leg, X of 720 * 64 * 64 entries, peaks near 93 MB
    c = _wire_basis(6)[0]
    x = np.random.default_rng(3).standard_normal((c.shape[1], 64, 64))
    tracemalloc.start()
    try:
        left, right, s0, discarded = rtn._split(c, x, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert left.shape == (64 * 132, 64) and right.shape == (64, 132 * 64)
    assert 0.0 < discarded < 1.0
    assert peak <= 128e6


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


def test_power_iterated_split_makes_one_qr(monkeypatch):
    # theta is 896 x 896 and Omega has 64 + 24 columns: the power iterations
    # carry the span by shifted CholeskyQR, and only the final basis is a QR
    c = _wire_basis(4)[0]
    x = np.random.default_rng(11).standard_normal((24, 64, 64))
    qr, calls = np.linalg.qr, []

    def counting_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    left, right, s0, discarded = rtn._split(c, x, 64)
    assert calls == [(896, 88)]
    assert left.shape[1] == 64 and 0.0 < discarded < 1.0


def test_range_finder_draws_omega_once_and_read_only():
    omega = rtn._omega(300, 40)
    assert rtn._omega(300, 40) is omega and not omega.flags.writeable
    assert np.array_equal(omega, np.random.default_rng(0).standard_normal((300, 40)))


@pytest.mark.parametrize("rank, exponent", [(1, 0), (2, -10), (5, -14), (40, -12)])
def test_split_is_honest_on_rank_deficient_ill_conditioned_theta(rank, exponent):
    # X[b] = U_b V_b^T of rank ``rank``, legs scaled by logspace(0, exponent, 24):
    # theta Omega is rank deficient or spans 1e10 and more, where an unshifted
    # CholeskyQR breaks down; the bounds are test_split_is_near_optimal's
    c = _wire_basis(4)[0]
    rng = np.random.default_rng(rank)
    u, v = rng.standard_normal((2, 24, 64, rank))
    x = (u @ v.transpose(0, 2, 1)) * np.logspace(0, exponent, 24)[:, None, None]
    mat = dense_theta(c, x)
    left, right, s0, discarded = rtn._split(c, x, 64)
    m, eps = left.shape[1], np.finfo(float).eps
    s = np.linalg.svd(mat, compute_uv=False)
    assert np.max(np.abs(left.T @ left - np.eye(m))) < 1e-12
    resid = mat - left @ right
    measured = float(np.vdot(resid, resid) / np.vdot(mat, mat))
    assert abs(discarded - measured) <= 1e-12 * measured + 32 * eps
    assert discarded <= 1.02 * float(np.sum(s[m:] ** 2) / np.sum(s**2)) + 32 * eps


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
        contract_brickwork_series(chain(8, 2), [2], k, chi_mps=16)


@pytest.mark.parametrize("engine", ["exact", "mps"])
def test_non_finite_state_raises(engine, monkeypatch):
    if engine == "mps":
        mps_only(monkeypatch)
    cls = rtn._ExactState if engine == "exact" else rtn._BoundaryMps
    init = cls.__init__

    def poisoned_init(self, *args):
        init(self, *args)
        for arr in [self.state] if engine == "exact" else self.tensors:
            arr.fill(np.nan)

    monkeypatch.setattr(cls, "__init__", poisoned_init)
    with pytest.raises(FloatingPointError, match="not finite"):
        contract_brickwork_series(chain(4, 2), [1], 2)


def test_truncation_error_monotone_in_chi(monkeypatch):
    exact = contract_brickwork_series(chain(6, 6), [6], k=2)[6].value
    mps_only(monkeypatch)
    results = {}
    for chi in (16, 32, 64):
        results[chi] = contract_brickwork_series(chain(6, 6), [6], 2, chi_mps=chi)[6]
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
