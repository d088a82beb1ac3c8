import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliscope import opsim
from pauliscope.circuits import (
    CircuitSpec,
    iter_circuit,
    layer_supports,
    run_circuit,
    sample_haar_unitary,
)
from pauliscope.opsim import (
    MAX_SITES,
    GateMatrix,
    apply_depolarizing,
    apply_depolarizing_support,
    apply_gate,
    init_local_pauli,
    pauli_transfer_matrix,
)
from pauliscope.pauli import (
    BLOCK,
    PauliCoefficients,
    inverse_pauli_transform,
    pauli_transform,
)
from pauliscope.spectrum import HIST_EDGES, moment_mu, moment_nu, spectrum_histogram

from conftest import (
    BLOCKED_PEAK_BYTES,
    PAULI_MATRICES,
    dense_circuit_layers,
    divide_then_check_transform,
    embedded_unitary,
    random_hermitian,
    traced_peak,
    whole_vector_gate,
)

#: agreement of the coefficient evolution with the dense oracle
ORACLE_TOL = 1e-12


def dense_depolarize(mat, gamma, support, n):
    """Reference channel O <- (1-g) O + g Tr_S[O] x 1_S/2^|S| on a dense
    matrix; the partial trace over S is taken one site at a time."""
    traced = mat
    for s in support:
        a, b = 2 ** (n - 1 - s), 2**s
        reduced = np.einsum("xiyzik->xyzk", traced.reshape(a, 2, b, a, 2, b))
        traced = np.einsum("xyzk,ij->xiyzjk", reduced, np.eye(2) / 2).reshape(mat.shape)
    return (1.0 - gamma) * mat + gamma * traced


def test_init_local_pauli():
    coeffs = init_local_pauli(2, 0, "Z")
    assert coeffs.values[3] == 1.0  # Z on site 0, I on site 1
    assert np.count_nonzero(coeffs.values) == 1
    assert np.array_equal(
        inverse_pauli_transform(init_local_pauli(1, 0, "X")), PAULI_MATRICES["X"]
    )
    assert moment_nu(init_local_pauli(3, 1, "Y"), [1])[0] == 1.0
    assert init_local_pauli(3, 2, "Z").values[0] == 0.0  # traceless
    with pytest.raises(ValueError, match="guard"):
        init_local_pauli(MAX_SITES + 1, 0, "Z")


def test_init_guards():
    with pytest.raises(ValueError):
        init_local_pauli(2, 2, "Z")
    with pytest.raises(ValueError):
        init_local_pauli(2, 0, "W")
    with pytest.raises(ValueError, match="guard"):
        init_local_pauli(14, 0, "Z")


def test_gate_matrix_validation(rng):
    with pytest.raises(ValueError, match="unitary"):
        GateMatrix([(0, 1)], np.ones((1, 4, 4)))
    with pytest.raises(ValueError, match="repeated"):
        GateMatrix([(0, 0)], np.eye(4)[None])
    with pytest.raises(ValueError, match=r"\(1, 4, 4\) stack"):
        GateMatrix([(0, 1)], np.eye(2)[None])
    with pytest.raises(ValueError, match=r"\(2, 4, 4\) stack"):
        GateMatrix([(0, 1), (2, 3)], np.eye(4)[None])
    with pytest.raises(ValueError, match="one width"):
        GateMatrix([(0, 1), (2,)], np.eye(4)[None])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gate_stack_rejects_non_finite_gates(bad, rng):
    # U U+ of an infinite entry holds inf - inf = NaN; numpy warns of it, silenced here
    u = sample_haar_unitary(4, rng, 3)
    u[2, 3, 3] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=r"gate 0 on sites \(0, 1\) is not unitary .* nan"):
            GateMatrix([(0, 1)], np.full((1, 4, 4), bad))
        with pytest.raises(ValueError, match=r"gate 2 on sites \(2, 3\) is not unitary .* nan"):
            GateMatrix([(0, 1), (1, 2), (2, 3)], u)


def test_gate_stack_names_its_non_unitary_gate(rng):
    supports = [(0, 1), (2, 3), (1, 2), (3, 4), (0, 4)]
    u = sample_haar_unitary(4, rng, len(supports))
    assert GateMatrix(supports, u).matrices.shape == (5, 4, 4)
    u[3, 1, 2] += 1e-9
    with pytest.raises(ValueError, match=r"gate 3 on sites \(3, 4\) is not unitary"):
        GateMatrix(supports, u)


def test_identity_gate_is_noop(rng):
    coeffs = pauli_transform(random_hermitian(3, rng))
    before = coeffs.values.copy()
    apply_gate(coeffs, (1, 2), pauli_transfer_matrix(np.eye(4)))
    assert np.allclose(coeffs.values, before, atol=1e-14)


def test_apply_gate_checks_sites_and_transfer_matrix_shape(rng):
    coeffs = pauli_transform(random_hermitian(3, rng))
    with pytest.raises(ValueError, match="out of range"):
        apply_gate(coeffs, (2, 3), np.eye(16))
    with pytest.raises(ValueError, match="16x16 transfer matrix"):
        apply_gate(coeffs, (1, 2), np.eye(4))


def test_hadamard_conjugation():
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    coeffs = init_local_pauli(1, 0, "Z")
    apply_gate(coeffs, (0,), pauli_transfer_matrix(had))
    assert np.allclose(coeffs.values, [0.0, 1.0, 0.0, 0.0], atol=1e-14)


#: (N, support): single sites, pairs and a scrambled triple at N=3; every
#: adjacent pair of an N=6 chain, so the gate block is also the first and the
#: last axis; 3-, 4- and 5-site runs; a non-adjacent reversed pair
GATE_CASES = (
    [(3, s) for s in [(0,), (2,), (0, 1), (1, 2), (0, 2), (2, 0), (2, 0, 1)]]
    + [(6, (s, s + 1)) for s in range(5)]
    + [(6, (1, 2, 3)), (6, (2, 3, 4, 5)), (6, (0, 1, 2, 3, 4)), (6, (4, 1))]
)


@pytest.mark.parametrize(
    "n, support", GATE_CASES, ids=[f"support{i}" for i in range(len(GATE_CASES))]
)
def test_gate_matches_embedded_conjugation(n, support, rng):
    u = sample_haar_unitary(2 ** len(support), rng)
    h = random_hermitian(n, rng)
    coeffs = pauli_transform(h)
    apply_gate(coeffs, support, pauli_transfer_matrix(u))
    full = embedded_unitary(u, support, n)
    want = pauli_transform(full @ h @ full.conj().T).values
    assert np.max(np.abs(coeffs.values - want)) < 1e-11


def test_gate_preserves_norm_and_trace(rng):
    coeffs = pauli_transform(random_hermitian(4, rng))
    before = moment_nu(coeffs, [1])[0]
    trace_before = coeffs.values[0]
    apply_gate(coeffs, (1, 2), pauli_transfer_matrix(sample_haar_unitary(4, rng)))
    assert abs(moment_nu(coeffs, [1])[0] - before) < 1e-10 * before
    assert abs(coeffs.values[0] - trace_before) < 1e-10


#: supports on N=9 sites, whose 4^9 vector is 8 blocks: every pair of the
#: chain (site 0's pair takes the 2-D product), staircase blocks of w = 4
#: and 5 at both ends (the top ones' slices are wider than a block, so they
#: run in column strips), the vertical pairs of a 3x3 grid, a reversed pair
#: and a scrambled triple, whose axes are moved block by block
BLOCKED_GATE_CASES = (
    [(s, s + 1) for s in range(8)]
    + [(0, 1, 2, 3), (5, 6, 7, 8), (0, 1, 2, 3, 4), (4, 5, 6, 7, 8)]
    + [(s, s + 3) for s in range(6)]
    + [(3, 0), (2, 0, 5)]
)


@pytest.mark.parametrize("block", [2**11, BLOCK])
@pytest.mark.parametrize("support", BLOCKED_GATE_CASES, ids=str)
def test_blocked_gate_matches_the_whole_vector_product_bit_for_bit(support, block,
                                                                   monkeypatch, rng):
    # a scaled R, as a gate with folded noise has; the smaller block runs the
    # w = 5 gates in strips of two columns
    monkeypatch.setattr(opsim, "BLOCK", block)
    n, w = 9, len(support)
    r = pauli_transfer_matrix(sample_haar_unitary(2**w, rng))
    r *= rng.uniform(0.5, 1.0, size=(4**w, 1))
    coeffs = PauliCoefficients(n, rng.normal(size=4**n))
    want = whole_vector_gate(coeffs.values, n, support, r)
    values = coeffs.values
    apply_gate(coeffs, support, r)
    assert coeffs.values is values  # updated in place
    assert coeffs.values.tobytes() == want.tobytes()


def test_blocked_gate_makes_no_vector_sized_temporary(rng):
    """At N=9 the vector takes 8 blocks, and a whole-vector product would
    allocate at least one more vector; the blocked gate stays under three
    blocks at every chain pair, on w = 4 and 5 staircase blocks at both ends
    (whose R is as big as the vector at w = 5) and on the grid's vertical
    pairs."""
    n = 9
    coeffs = PauliCoefficients(n, rng.normal(size=4**n))
    assert coeffs.values.nbytes == 8 * 4**n > 2 * BLOCKED_PEAK_BYTES
    rs = {w: pauli_transfer_matrix(sample_haar_unitary(2**w, rng)) for w in (2, 4, 5)}
    supports = ([(s, s + 1) for s in range(n - 1)] + [(0, 1, 2, 3), (5, 6, 7, 8)]
                + [(0, 1, 2, 3, 4), (4, 5, 6, 7, 8)] + [(s, s + 3) for s in range(n - 3)])
    for support in supports:
        peak = traced_peak(lambda: apply_gate(coeffs, support, rs[len(support)]))
        assert peak <= BLOCKED_PEAK_BYTES, (support, peak)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), w=st.integers(1, 3))
def test_transfer_matrix_is_real_orthogonal_and_unital(seed, w):
    r = pauli_transfer_matrix(sample_haar_unitary(2**w, np.random.default_rng(seed)))
    assert r.dtype == np.float64 and r.shape == (4**w, 4**w)
    assert np.max(np.abs(r @ r.T - np.eye(4**w))) < 1e-12
    assert abs(r[0, 0] - 1.0) < 1e-12
    assert np.max(np.abs(r[0, 1:])) < 1e-12 and np.max(np.abs(r[1:, 0])) < 1e-12


@pytest.mark.parametrize("w, count", [(1, 3), (2, 5), (3, 2), (5, 2)])
def test_stacked_transfer_matrices_equal_single_builds_bit_for_bit(w, count, rng):
    u = sample_haar_unitary(2**w, rng, count).reshape(count, 1, 2**w, 2**w)
    stack = pauli_transfer_matrix(u)
    assert stack.shape == (count, 1, 4**w, 4**w)
    for i in range(count):
        assert stack[i, 0].tobytes() == pauli_transfer_matrix(u[i, 0]).tobytes()


@pytest.mark.parametrize("w", [1, 2, 3])
def test_transfer_matrices_equal_the_divide_then_check_transform_bit_for_bit(w):
    """1000 Haar gates of each width, in stacks of 250: the transfer
    matrices equal q times the coefficients of the divide-then-check
    transform, bit for bit, signs of zeros included."""
    rng = np.random.default_rng(40 + w)
    q = 2**w
    for _ in range(4):
        u = sample_haar_unitary(q, rng, 250)
        x = np.einsum("...jk,...il->...jlik", u, u.conj()).reshape(250, q * q, q * q)
        want = q * divide_then_check_transform(x).reshape(250, q * q, q * q)
        assert pauli_transfer_matrix(u).tobytes() == want.tobytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), support=st.permutations(range(4)), w=st.integers(1, 3))
def test_gate_then_inverse_round_trip(seed, support, w):
    rng = np.random.default_rng(seed)
    support = tuple(support[:w])
    u = sample_haar_unitary(2**w, rng)
    h = random_hermitian(4, rng)
    coeffs = pauli_transform(h / np.sqrt(moment_nu(pauli_transform(h), [1])[0]))
    before = coeffs.values.copy()
    apply_gate(coeffs, support, pauli_transfer_matrix(u))
    apply_gate(coeffs, support, pauli_transfer_matrix(u.conj().T))
    assert np.max(np.abs(coeffs.values - before)) < 1e-12


def test_depolarizing_examples():
    coeffs = init_local_pauli(1, 0, "X")
    apply_depolarizing(coeffs, 0.1, [0])
    assert np.allclose(coeffs.values, [0.0, 0.9, 0.0, 0.0], atol=1e-15)
    assert abs(moment_nu(coeffs, [1])[0] - 0.81) < 1e-14

    ident = PauliCoefficients(2, np.eye(16)[0])
    apply_depolarizing(ident, 0.7, [0, 1])
    assert np.array_equal(ident.values, np.eye(16)[0])

    zz = pauli_transform(np.kron(PAULI_MATRICES["Z"], PAULI_MATRICES["Z"]))
    apply_depolarizing(zz, 0.2, [0])
    assert abs(zz.values[15] - 0.8) < 1e-14  # ZZ = 3 + 3*4


def test_depolarizing_rejects_bad_gamma(rng):
    coeffs = pauli_transform(random_hermitian(2, rng))
    with pytest.raises(ValueError):
        apply_depolarizing(coeffs, 1.2, [0])
    with pytest.raises(ValueError):
        apply_depolarizing(coeffs, -0.1, [0])
    with pytest.raises(ValueError):
        apply_depolarizing(coeffs, 0.1, [5])


def test_depolarizing_pauli_picture(rng):
    for n in (2, 4):
        h = random_hermitian(n, rng)
        gamma, site = 0.23, n - 1
        coeffs = pauli_transform(h)
        apply_depolarizing(coeffs, gamma, [site])
        want = pauli_transform(dense_depolarize(h, gamma, (site,), n)).values
        assert np.max(np.abs(coeffs.values - want)) < 1e-10


def test_joint_support_depolarizing_rule(rng):
    n = 3
    h = random_hermitian(n, rng)
    gamma = 0.31
    for support in [(0, 1), (0, 2), (2, 0), (0, 1, 2)]:
        coeffs = pauli_transform(h)
        apply_depolarizing_support(coeffs, gamma, support)
        want = pauli_transform(dense_depolarize(h, gamma, support, n)).values
        assert np.max(np.abs(coeffs.values - want)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), gamma=st.floats(0.0, 1.0))
def test_depolarizing_site_order_commutes(seed, gamma):
    h = random_hermitian(3, np.random.default_rng(seed))
    a = pauli_transform(h)
    b = pauli_transform(h)
    apply_depolarizing(a, gamma, [0, 2, 1])
    apply_depolarizing(b, gamma, [1, 0, 2])
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_depolarizing_contracts_norm(rng):
    coeffs = pauli_transform(random_hermitian(3, rng))
    before = moment_nu(coeffs, [1])[0]
    trace_before = coeffs.values[0]
    apply_depolarizing(coeffs, 0.4, [1])
    assert moment_nu(coeffs, [1])[0] <= before + 1e-12
    assert coeffs.values[0] == trace_before
    # identity-supported operator is a fixed point, no contraction
    ident = PauliCoefficients(2, np.eye(16)[0])
    apply_depolarizing(ident, 0.5, [0, 1])
    assert moment_nu(ident, [1])[0] == 1.0


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_depolarizing_matches_strided_slices_bit_for_bit(n, gamma):
    values = np.random.default_rng(n).standard_normal(4**n)
    for s in range(n):
        coeffs = PauliCoefficients(n, values.copy())
        apply_depolarizing(coeffs, gamma, [s])
        want = values.copy()
        want.reshape(4 ** (n - 1 - s), 4, 4**s)[:, 1:, :] *= 1.0 - gamma
        assert np.array_equal(coeffs.values, want), s


SMALL_CIRCUITS = {
    "chain": st.fixed_dictionaries(
        {"geometry": st.just("chain"), "n_sites": st.integers(2, 5),
         "depth": st.integers(1, 5)}
    ),
    "grid": st.fixed_dictionaries(
        {"geometry": st.just("grid"), "lx": st.just(2), "ly": st.just(2),
         "depth": st.integers(1, 5)}
    ),
    "rmpu_r1": st.fixed_dictionaries(
        {"geometry": st.just("rmpu"), "n_sites": st.integers(2, 5), "r": st.just(1)}
    ),
    "rmpu_r2": st.fixed_dictionaries(
        {"geometry": st.just("rmpu"), "n_sites": st.integers(3, 5), "r": st.just(2)}
    ),
}


@pytest.mark.parametrize("placement", ["per_qubit_per_layer", "per_gate_support"])
@pytest.mark.parametrize("kind", sorted(SMALL_CIRCUITS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_circuit_matches_dense_oracle_and_invariants(kind, placement, data):
    circuit = data.draw(SMALL_CIRCUITS[kind])
    n_sites = circuit.get("n_sites", 4)
    spec = CircuitSpec(
        **circuit,
        gamma=data.draw(st.floats(0.0, 0.3)),
        noise_placement=placement,
        initial_site=data.draw(st.integers(0, n_sites - 1)),
        master_seed=data.draw(st.integers(0, 2**31)),
    )
    coeffs = run_circuit(spec, 0)
    *_, (_, mat) = dense_circuit_layers(spec, 0)
    want = pauli_transform(mat).values
    assert np.max(np.abs(coeffs.values - want)) < ORACLE_TOL
    hist = spectrum_histogram(coeffs)
    assert abs(hist[-1] + float(np.sum(hist[:-1] * np.diff(HIST_EDGES))) - 1.0) < 1e-12
    assert np.all(moment_mu(coeffs, [2, 3]) >= 1.0)
    assert 0.0 <= moment_nu(coeffs, [1])[0] <= 1.0 + 1e-12


#: small circuits of every geometry; the chain's odd layers leave sites 0 and
#: N-1 idle, the grid's H-odd and V-odd layers are empty, the staircase
#: leaves site 3, then site 0, idle
ORACLE_CIRCUITS = {
    "chain": dict(geometry="chain", n_sites=4, depth=5),
    "grid": dict(geometry="grid", lx=2, ly=2, depth=6),
    "rmpu": dict(geometry="rmpu", n_sites=4, r=2),
}


@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("placement", ["per_qubit_per_layer", "per_gate_support"])
@pytest.mark.parametrize("kind", sorted(ORACLE_CIRCUITS))
def test_every_layer_matches_dense_noisy_oracle(kind, placement, gamma):
    spec = CircuitSpec(**ORACLE_CIRCUITS[kind], gamma=gamma, noise_placement=placement,
                       master_seed=11)
    n = spec.n_sites
    idle = [set(range(n)).difference(*layer_supports(spec, t)) for t in range(spec.depth)]
    assert any(idle)
    if kind == "chain":
        assert all(idle[t] == {0, n - 1} for t in range(1, spec.depth, 2))
    depths = []
    # the simulator yields its live state, so compare in step
    for (t, coeffs), (t_dense, mat) in zip(iter_circuit(spec, 0), dense_circuit_layers(spec, 0)):
        assert t == t_dense
        want = pauli_transform(mat).values
        assert np.max(np.abs(coeffs.values - want)) < ORACLE_TOL, t
        depths.append(t)
    assert depths == list(range(1, spec.depth + 1))
