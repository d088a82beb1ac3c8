"""Shared fixtures and the reference oracles tests compare the package against.

The oracles are written independently of the package's own fast paths: Pauli
words are decoded digit by digit and built by Kronecker products, permutation
states are filled entry by entry, top-N_P truncation is a Python sort, and
the staircase transfer matrix is the dense (2k)! x (2k)! product.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from pauliscope.circuits import layer_supports, realization_rng, sample_haar_unitary
from pauliscope.opsim import (
    apply_depolarizing_support,
    apply_gate,
    init_local_pauli,
    pauli_transfer_matrix,
)
from pauliscope.rtn import _wire_basis
from pauliscope.weingarten import (
    _tables,
    gram_matrix,
    noisy_weingarten,
    pauli_sum_weights,
    traceless_seed_weights,
)

# every run draws the same examples, so tier-1 reruns are identical
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(n_sites: int, rng) -> np.ndarray:
    d = 2**n_sites
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def decode_pauli(index: int, n_sites: int) -> str:
    """The word over IXYZ of a flat Pauli index (site 0 in the lowest 2 bits)."""
    return "".join("IXYZ"[(index >> (2 * s)) & 3] for s in range(n_sites))


def pauli_matrix(word: str) -> np.ndarray:
    """Dense 2^N x 2^N matrix of a Pauli word (site 0 in the low bits)."""
    m = np.ones((1, 1), dtype=complex)
    for c in word:
        m = np.kron(PAULI_MATRICES[c], m)
    return m


def zdiag_indicator(word: str) -> bool:
    """True iff every letter is I or Z, i.e. Tr[P |0..0><0..0|] = 1."""
    return all(c in "IZ" for c in word)


def permutation_vectors(n: int, q: int) -> np.ndarray:
    """Vectorized permutation operators for n replicas of a q-dim space.

    Row s is |sigma_s>> over the package's enumeration of S_n, with
    interleaved (row, col) index pairs per replica, matching
    kron(M, M, ..., M) ordering of per-replica superoperators.
    """
    images = _tables(n).images
    out = np.zeros((len(images), q ** (2 * n)))
    for s_idx, image in enumerate(images):
        inv = np.argsort(image)
        v = np.zeros((q,) * (2 * n))
        for idx in itertools.product(range(q), repeat=n):
            pos = [0] * (2 * n)
            for a in range(n):
                pos[2 * a] = idx[a]
                pos[2 * a + 1] = idx[inv[a]]
            v[tuple(pos)] = 1.0
        out[s_idx] = v.reshape(-1)
    return out


def dense_transfer(r: int, k: int, gamma: float):
    """Dense (T, L, R) over all of S_2k for staircase blocks on r+1 qubits:
    T = Lam1 Wg~(2 chi, gamma) Lam2 G(chi), L_s = chi^#(s) 1_E(s) and
    R = Lam1 Wg~ Lam2^(r+1) 1, chi = 2^r (``pauliscope.rmpu`` docstring)."""
    n, chi = 2 * k, 2.0**r
    lam1 = 2.0 ** _tables(n).cycles
    lam2 = pauli_sum_weights(n, 2.0)
    wg = noisy_weingarten(n, 2.0 * chi, gamma)
    t = (lam1[:, None] * wg * lam2) @ gram_matrix(n, chi)
    return t, traceless_seed_weights(n, chi), lam1 * (wg @ lam2 ** (r + 1))


def dense_staircase_moments(r: int, k: int, gamma: float, ms) -> dict[int, float]:
    """L^T T^(m-1) R of ``dense_transfer`` at each m in ``ms``: the running
    vector is scaled by exact powers of two, the exponent kept apart."""
    t, v, right = dense_transfer(r, k, gamma)
    out, exp2 = {}, 0
    for m in range(1, max(ms) + 1):
        if m in ms:
            out[m] = math.ldexp(float(v @ right), exp2)
        v = v @ t
        shift = math.frexp(float(np.max(np.abs(v))))[1]
        v, exp2 = np.ldexp(v, -shift), exp2 + shift
    return out


def dense_gate_kernel(k: int, gamma: float) -> np.ndarray:
    """One gate's (rank^2, rank^2) replica kernel in wire coordinates, summed
    densely: K[(s p), (u v)] = sum_{a,d} C[s,a] C[p,a] Wg~_{a,d} C[u,d] C[v,d]."""
    coords = _wire_basis(2 * k)[0]
    rank = coords.shape[0]
    y = np.einsum("sa,pa,ad->spad", coords, coords, noisy_weingarten(2 * k, 4.0, gamma))
    y = np.einsum("spad,ud,vd->spuv", y, coords, coords, optimize=True)
    return y.reshape(rank * rank, rank * rank)


def dense_rtn_series(spec, k: int, depths) -> dict[int, float]:
    """Reference nu_k of the replica network of a brickwork chain at each depth
    in ``depths``, from the full r^N wire-coordinate tensor.

    Every gate, inside the lightcone or not, is applied to its two axes as
    A @ (Wg~ A^T @ state), A[(s p), a] = C[s, a] C[p, a], with no rescaling.
    Until a gate reaches the seed, the seed wire's top contraction is
    q^(2k-2) = 4^(k-1), the raw seed's own value.
    """
    coords, f_top, g_op = _wire_basis(2 * k)
    r, n, seed = coords.shape[0], spec.n_sites, spec.initial_site
    a = np.einsum("sa,pa->spa", coords, coords).reshape(r * r, -1)
    wa = noisy_weingarten(2 * k, 4.0, spec.gamma) @ a.T
    state = np.ones(())
    for s in range(n):
        state = np.multiply.outer(state, g_op if s == seed else coords[:, 0])
    touched, out = False, {}
    for t in range(max(depths) + 1):
        if t in depths:
            top = [f_top] * n
            if not touched:
                top[seed] = g_op * (4.0 ** (k - 1) / (g_op @ g_op))
            value = state
            for w in reversed(top):
                value = value @ w
            out[t] = float(value)
        if t < max(depths):
            for i, j in layer_supports(spec, t):
                touched |= seed in (i, j)
                x = np.moveaxis(state, (i, j), (0, 1))
                y = a @ (wa @ x.reshape(r * r, -1))
                state = np.moveaxis(y.reshape(x.shape), (0, 1), (i, j))
    return out


def embedded_unitary(u, support, n):
    """Reference full-space embedding with support[m] as bit m."""
    w = len(support)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**n):
        gi = sum(((i >> support[m]) & 1) << m for m in range(w))
        base = i
        for m in range(w):
            base &= ~(1 << support[m])
        for gj in range(2**w):
            j = base
            for m in range(w):
                j |= ((gj >> m) & 1) << support[m]
            full[i, j] = u[gi, gj]
    return full


def site_twirl(site: int, n: int) -> np.ndarray:
    """The D^2 x D^2 superoperator O -> Tr_s[O] x 1_s/2 on the row-major
    vec(O): the mean of P_s O P_s over the four Paulis P, where vec(A O A^dag)
    = kron(A, conj(A)) vec(O).  It is real."""
    paulis = [embedded_unitary(p, (site,), n) for p in PAULI_MATRICES.values()]
    return sum(np.kron(p, p.conj()) for p in paulis).real / 4


def dense_circuit_layers(spec, realization):
    """Reference run of a circuit on the dense D x D operator, yielding (t, O)
    after every layer.

    Gates are drawn in the simulator's order and every one is applied by
    conjugation with its embedded unitary (no lightcone).  A depolarizing
    channel on a site set S is the superoperator (1-g) 1 + g prod_{s in S} T_s
    on vec(O), T_s the twirl of site s; per-qubit noise acts on every site
    after each layer, idle ones included.
    """
    n = spec.n_sites
    rng = realization_rng(spec.master_seed, realization)
    twirls = {}

    def depolarize(mat, sites):
        vec = traced = mat.reshape(-1)
        for s in sites:
            if s not in twirls:
                twirls[s] = site_twirl(s, n)
            traced = twirls[s] @ traced
        return ((1.0 - spec.gamma) * vec + spec.gamma * traced).reshape(mat.shape)

    mat = embedded_unitary(PAULI_MATRICES["Z"], (spec.initial_site,), n)
    for t in range(spec.depth):
        for support in layer_supports(spec, t):
            full = embedded_unitary(sample_haar_unitary(2 ** len(support), rng), support, n)
            mat = full @ mat @ full.conj().T
            if spec.noise_placement == "per_gate_support":
                mat = depolarize(mat, support)
        if spec.noise_placement == "per_qubit_per_layer":
            for s in range(n):
                mat = depolarize(mat, (s,))
        yield t + 1, mat


def unfolded_per_gate_layers(spec, realization):
    """Reference run of a per_gate_support circuit on the Pauli coefficients,
    yielding (t, coefficients) after every layer.

    Gates are drawn in the simulator's order; every one is applied with its
    own unscaled transfer matrix (no lightcone), and its joint depolarizing
    channel follows as a separate ``apply_depolarizing_support`` pass.
    """
    supports = [s for t in range(spec.depth) for s in layer_supports(spec, t)]
    rng = realization_rng(spec.master_seed, realization)
    gates = iter(sample_haar_unitary(2 ** len(supports[0]), rng, len(supports)))
    op = init_local_pauli(spec.n_sites, spec.initial_site, "Z")
    for t in range(spec.depth):
        for support in layer_supports(spec, t):
            apply_gate(op, support, pauli_transfer_matrix(next(gates)))
            apply_depolarizing_support(op, spec.gamma, support)
        yield t + 1, op


def truncate_top(values, n_keep: int) -> list[int]:
    """Indices of the n_keep largest |a|, ties to the lower Pauli index."""
    return sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))[:n_keep]
