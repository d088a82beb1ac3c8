"""Shared fixtures and the reference oracles tests compare the package against.

The oracles are written independently of the package's own fast paths: Pauli
words are decoded digit by digit and built by Kronecker products, permutation
states are filled entry by entry, and top-N_P truncation is a Python sort.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from pauliscope.rtn import _wire_basis
from pauliscope.weingarten import _tables, noisy_weingarten

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


def dense_gate_kernel(k: int, gamma: float) -> np.ndarray:
    """One gate's (rank^2, rank^2) replica kernel in wire coordinates, summed
    densely: K[(s p), (u v)] = sum_{a,d} C[s,a] C[p,a] Wg~_{a,d} C[u,d] C[v,d]."""
    coords = _wire_basis(2 * k)[0]
    rank = coords.shape[0]
    y = np.einsum("sa,pa,ad->spad", coords, coords, noisy_weingarten(2 * k, 4.0, gamma))
    y = np.einsum("spad,ud,vd->spuv", y, coords, coords, optimize=True)
    return y.reshape(rank * rank, rank * rank)


def truncate_top(values, n_keep: int) -> list[int]:
    """Indices of the n_keep largest |a|, ties to the lower Pauli index."""
    return sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))[:n_keep]
