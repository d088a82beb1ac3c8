"""Exact dense Heisenberg evolution of an operator under gates and noise.

The operator is held as a D x D complex matrix (D = 2^N) and updated in
place: a gate conjugates O -> U O U^dag on its support, a depolarizing
channel on a site set S maps O -> (1-g) O + g * Tr_S[O] x (1_S / 2^|S|).
Sites are addressed little-endian (site 0 = lowest bit of the row/column
index), consistent with :mod:`pauliscope.pauli`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .pauli import PAULI_MATRICES

#: refuse dense evolution above this size unless explicitly overridden
#: (2^(2*13) * 16 bytes is already ~1.1 GB)
MAX_SITES = 13


@dataclass
class OperatorState:
    """Dense Heisenberg operator on N qubits."""

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        d = 2**self.n_sites
        self.matrix = np.ascontiguousarray(self.matrix, dtype=complex)
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({d}, {d})")

    def copy(self) -> "OperatorState":
        return OperatorState(self.n_sites, self.matrix.copy())


@dataclass
class GateMatrix:
    """Unitary acting on an ordered list of sites (support[0] = low bit)."""

    support: tuple[int, ...]
    matrix: np.ndarray
    unitarity_tol: float = field(default=1e-12, repr=False)

    def __post_init__(self):
        self.support = tuple(int(s) for s in self.support)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        q = 2 ** len(self.support)
        if self.matrix.shape != (q, q):
            raise ValueError(
                f"gate on {len(self.support)} sites needs a {q}x{q} matrix, "
                f"got {self.matrix.shape}"
            )
        if len(set(self.support)) != len(self.support):
            raise ValueError(f"repeated sites in support {self.support}")
        dev = np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(q)))
        if dev > self.unitarity_tol:
            raise ValueError(f"gate is not unitary (||U U+ - 1|| = {dev:.2e})")


def init_local_pauli(
    n_sites: int, site: int, axis: str, allow_large: bool = False
) -> OperatorState:
    """Pauli ``axis`` at ``site``, identity elsewhere (traceless, O^2 = 1)."""
    if n_sites > MAX_SITES and not allow_large:
        raise ValueError(
            f"N={n_sites} exceeds the dense-evolution guard ({MAX_SITES}); "
            "pass allow_large=True to override"
        )
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for N={n_sites}")
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    m = np.kron(
        np.eye(2 ** (n_sites - 1 - site)),
        np.kron(PAULI_MATRICES[axis], np.eye(2**site)),
    )
    return OperatorState(n_sites, m)


def _check_support(op: OperatorState, sites: Iterable[int]) -> tuple[int, ...]:
    sites = tuple(int(s) for s in sites)
    for s in sites:
        if not 0 <= s < op.n_sites:
            raise ValueError(f"site {s} out of range for N={op.n_sites}")
    return sites


def _is_contiguous_ascending(support: Sequence[int]) -> bool:
    return all(support[i + 1] == support[i] + 1 for i in range(len(support) - 1))


@lru_cache(maxsize=256)
def _support_perm(n: int, support: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) row permutations packing the support bits (support[0]
    least significant) into the top bits of the index."""
    idx = np.arange(2**n)
    gate_bits = np.zeros(2**n, dtype=np.int64)
    for m, s in enumerate(support):
        gate_bits |= ((idx >> s) & 1) << m
    rest_sites = [s for s in range(n) if s not in support]
    rest_bits = np.zeros(2**n, dtype=np.int64)
    for j, s in enumerate(rest_sites):
        rest_bits |= ((idx >> s) & 1) << j
    forward = gate_bits * (1 << len(rest_sites)) + rest_bits
    inverse = np.argsort(forward)
    return forward, inverse


def _apply_rows(mat: np.ndarray, u: np.ndarray, support, n: int) -> np.ndarray:
    """mat <- (U on the contiguous ascending support bits of the row index) . mat"""
    w = len(support)
    d = mat.shape[0]
    s = support[0]
    a, b = 2 ** (n - s - w), 2**s
    return np.matmul(u, mat.reshape(a, 2**w, b * d)).reshape(d, d)


def _apply_cols(mat: np.ndarray, u: np.ndarray, support, n: int) -> np.ndarray:
    """mat <- mat . (U on the contiguous ascending support bits of the column
    index)^T, i.e. column action with the given matrix; pass U.conj() to
    realize O -> O U^dag."""
    w = len(support)
    d = mat.shape[0]
    s = support[0]
    a, b = 2 ** (n - s - w), 2**s
    # column bits live inside the fast index: (d*a, 2^w, b)
    return np.matmul(u, mat.reshape(d * a, 2**w, b)).reshape(d, d)


def apply_gate(op: OperatorState, gate: GateMatrix) -> OperatorState:
    """Conjugate O <- U O U^dag on the gate support (in place)."""
    support = _check_support(op, gate.support)
    n = op.n_sites
    if _is_contiguous_ascending(support):
        m = _apply_rows(op.matrix, gate.matrix, support, n)
        op.matrix = _apply_cols(m, gate.matrix.conj(), support, n)
        return op
    # scattered support: one gather makes both index sides contiguous
    fwd, inv = _support_perm(n, support)
    q = 2 ** len(support)
    d = op.matrix.shape[0]
    m = op.matrix[np.ix_(inv, inv)]
    m = np.matmul(gate.matrix, m.reshape(q, -1)).reshape(d, q, d // q)
    m = np.matmul(gate.matrix.conj(), m)
    op.matrix = m.reshape(d, d)[np.ix_(fwd, fwd)]
    return op


def apply_depolarizing(
    op: OperatorState, gamma: float, sites: Iterable[int]
) -> OperatorState:
    """Single-site depolarizing channels applied sequentially to ``sites``.

    Per site s: O <- (1-g) O + g Tr_s[O] x 1_s/2.  In the Pauli picture every
    coefficient whose letter at s is non-identity is rescaled by (1-g).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1]")
    sites = _check_support(op, sites)
    if gamma == 0.0:
        return op
    n, d = op.n_sites, op.matrix.shape[0]
    for s in sites:
        a, b = 2 ** (n - 1 - s), 2**s
        t = op.matrix.reshape(a, 2, b, a, 2, b)
        tr = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
        t *= 1.0 - gamma
        half = 0.5 * gamma
        t[:, 0, :, :, 0, :] += half * tr
        t[:, 1, :, :, 1, :] += half * tr
        op.matrix = t.reshape(d, d)
    return op


def apply_depolarizing_support(
    op: OperatorState, gamma: float, sites: Iterable[int]
) -> OperatorState:
    """One joint depolarizing channel over the full site set ``sites``.

    O <- (1-g) O + g Tr_S[O] x 1_S/2^|S|.  Every Pauli coefficient that is
    non-identity anywhere on S is rescaled by a single factor (1-g); this is
    the per-gate noise convention of staircase/RMPU circuits.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1]")
    support = _check_support(op, sites)
    if gamma == 0.0 or not support:
        return op
    n, d = op.n_sites, op.matrix.shape[0]
    q = 2 ** len(support)
    fwd, inv = _support_perm(n, support)
    rest = d // q
    t = op.matrix[np.ix_(inv, inv)].reshape(q, rest, q, rest)
    idx = np.arange(q)
    tr = np.einsum("aras->rs", t)
    t *= 1.0 - gamma
    t[idx, :, idx, :] += (gamma / q) * tr[None, :, :]
    op.matrix = t.reshape(d, d)[np.ix_(fwd, fwd)]
    return op


def hs_norm_sq(op: OperatorState) -> float:
    """Normalized Hilbert-Schmidt norm squared, Tr[O^2]/D (= nu_1)."""
    m = op.matrix
    return float(np.einsum("ij,ji->", m, m).real) / m.shape[0]
