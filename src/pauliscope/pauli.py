"""Pauli-string indexing and the operator -> Pauli-coefficient transform.

An N-qubit operator O decomposes uniquely as O = sum_P a_P P with
a_P = Tr[O P] / D over the 4^N Pauli strings P in {I, X, Y, Z}^N,
D = 2^N.  Strings are indexed little-endian with 2 bits per site
(I=0, X=1, Y=2, Z=3; site 0 in the lowest bits), so the coefficient
array can be addressed by a flat integer index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LETTERS = "IXYZ"
_LETTER_CODE = {c: i for i, c in enumerate(LETTERS)}

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Site-local change of basis: _SITE_FORWARD[a, 2*i + j] = P_a[j, i], so that
# contracting it with the (row, col) pair of one site computes Tr[. P_a] on
# that site.  Its inverse (adjoint / 2) undoes the rotation.
_SITE_FORWARD = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
        [1, 0, 0, -1],
    ],
    dtype=complex,
)
_SITE_INVERSE = _SITE_FORWARD.conj().T / 2.0


@dataclass(frozen=True)
class PauliString:
    """A word over {I, X, Y, Z} together with its flat base-4 index."""

    letters: str
    index: int

    @property
    def n_sites(self) -> int:
        return len(self.letters)

    def __post_init__(self):
        if not self.letters:
            raise ValueError("empty Pauli word")
        if self.index != _index_of_word(self.letters):
            raise ValueError(
                f"index {self.index} inconsistent with letters {self.letters!r}"
            )


def _index_of_word(letters: str) -> int:
    idx = 0
    for site, c in enumerate(letters):
        try:
            idx += _LETTER_CODE[c] << (2 * site)
        except KeyError:
            raise ValueError(f"invalid Pauli letter {c!r} (expected one of IXYZ)")
    return idx


def encode_pauli(letters: str) -> PauliString:
    """Encode a word over {I,X,Y,Z} into its indexed PauliString."""
    return PauliString(letters, _index_of_word(letters))


def decode_pauli(index: int, n_sites: int) -> PauliString:
    """Inverse of :func:`encode_pauli` for a flat index in [0, 4^n_sites)."""
    if not 0 <= index < 4**n_sites:
        raise ValueError(f"index {index} out of range for {n_sites} sites")
    letters = "".join(LETTERS[(index >> (2 * s)) & 3] for s in range(n_sites))
    return PauliString(letters, index)


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^N x 2^N matrix of a Pauli string (site 0 in the low bits)."""
    m = np.ones((1, 1), dtype=complex)
    for c in p.letters:
        m = np.kron(PAULI_MATRICES[c], m)
    return m


def zdiag_indicator(p: PauliString) -> bool:
    """True iff every letter is I or Z, i.e. Tr[P |0..0><0..0|] = 1."""
    return all(c in "IZ" for c in p.letters)


def zdiag_mask(n_sites: int) -> np.ndarray:
    """Boolean mask over all 4^N indices selecting the {I,Z}^N strings."""
    idx = np.arange(4**n_sites, dtype=np.int64)
    # a base-4 digit is 0 (I) or 3 (Z) iff its two bits agree
    odd_bits = (idx ^ (idx >> 1)) & int("01" * n_sites, 2)
    return odd_bits == 0


@dataclass
class PauliCoefficients:
    """Dense real coefficient vector a_P over all 4^N Pauli strings."""

    n_sites: int
    values: np.ndarray

    def __post_init__(self):
        # contiguous, so that reshapes are views the simulator updates in place
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (4**self.n_sites,):
            raise ValueError(
                f"expected {4 ** self.n_sites} coefficients, got {self.values.shape}"
            )


def _as_matrix(op) -> tuple[np.ndarray, int]:
    mat = np.asarray(op)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
    n = int(round(np.log2(mat.shape[0])))
    if 2**n != mat.shape[0]:
        raise ValueError(f"dimension {mat.shape[0]} is not a power of two")
    return np.ascontiguousarray(mat, dtype=complex), n


def _interleave(mat: np.ndarray, n: int) -> np.ndarray:
    """(D, D) -> N legs of dimension 4, leg t holding (row, col) of site N-1-t."""
    t = mat.reshape((2,) * (2 * n))
    perm = [ax for s in range(n) for ax in (s, n + s)]
    return t.transpose(perm).reshape((4,) * n)


def _deinterleave(t: np.ndarray, n: int) -> np.ndarray:
    d = 2**n
    t = t.reshape((2,) * (2 * n))
    inv = [0] * (2 * n)
    for s in range(n):
        inv[s] = 2 * s
        inv[n + s] = 2 * s + 1
    return t.transpose(inv).reshape(d, d)


def pauli_transform(op, imag_tol: float = 1e-10) -> PauliCoefficients:
    """Rotate an operator matrix into the Pauli basis.

    Returns a_P = Tr[O P]/D for every string P, computed by N sequential
    site-local 4x4 rotations on the reshaped 2N-leg tensor (cost O(N 4^N)).
    The result of a Hermitian input is real; a residual imaginary part
    above ``imag_tol`` (relative to the largest coefficient) raises.
    """
    mat, n = _as_matrix(op)
    d = 2**n
    t = _interleave(mat, n)
    for leg in range(n):
        a, b = 4**leg, 4 ** (n - 1 - leg)
        t = np.matmul(_SITE_FORWARD, t.reshape(a, 4, b))
    t = t.reshape(-1) / d
    scale = max(1.0, float(np.max(np.abs(t.real))))
    resid = float(np.max(np.abs(t.imag)))
    if resid > imag_tol * scale:
        raise ValueError(
            f"imaginary residue {resid:.3e} exceeds tolerance (non-Hermitian input?)"
        )
    return PauliCoefficients(n, np.ascontiguousarray(t.real))


def inverse_pauli_transform(coeffs: PauliCoefficients) -> np.ndarray:
    """Rebuild the dense matrix sum_P a_P P from a coefficient vector."""
    n = coeffs.n_sites
    d = 2**n
    t = coeffs.values.astype(complex)
    for leg in range(n):
        a, b = 4**leg, 4 ** (n - 1 - leg)
        t = np.matmul(_SITE_INVERSE, t.reshape(a, 4, b))
    return _deinterleave(t * d, n)
