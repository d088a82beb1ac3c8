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

#: entries of a coefficient vector that the simulator's kernels update or
#: reduce at a time: 2^15 doubles (256 KB) stay in cache, and a temporary of
#: this size is reused by the allocator instead of being faulted in afresh
BLOCK = 2**15

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


def zdiag_mask(n_sites: int) -> np.ndarray:
    """Boolean mask over all 4^N indices selecting the {I,Z}^N strings."""
    idx = np.arange(4**n_sites, dtype=np.int64)
    # a base-4 digit is 0 (I) or 3 (Z) iff its two bits agree
    odd_bits = (idx ^ (idx >> 1)) & int("01" * n_sites, 2)
    return odd_bits == 0


@dataclass
class PauliCoefficients:
    """Dense real coefficient vector a_P over all 4^N Pauli strings, or a
    stack of them along leading axes (the transform of a stack of operators)."""

    n_sites: int
    values: np.ndarray

    def __post_init__(self):
        # contiguous, so that reshapes are views the simulator updates in place
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape[-1:] != (4**self.n_sites,):
            raise ValueError(
                f"expected {4 ** self.n_sites} coefficients, got {self.values.shape}"
            )


def _as_matrix(op) -> tuple[np.ndarray, int]:
    mat = np.asarray(op)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
    n = int(round(np.log2(mat.shape[-1])))
    if 2**n != mat.shape[-1]:
        raise ValueError(f"dimension {mat.shape[-1]} is not a power of two")
    return np.ascontiguousarray(mat, dtype=complex), n


def _interleave(mat: np.ndarray, n: int) -> np.ndarray:
    """(..., D, D) -> N legs of dimension 4, leg t holding (row, col) of site
    N-1-t, then one axis over the flattened stack (length 1 for one matrix),
    which :func:`_rotate_legs` brings to the front."""
    count = int(np.prod(mat.shape[:-2]))
    t = mat.reshape((count,) + (2,) * (2 * n))
    perm = [1 + ax for s in range(n) for ax in (s, n + s)] + [0]
    return t.transpose(perm).reshape((4,) * n + (count,))


def _deinterleave(t: np.ndarray, n: int) -> np.ndarray:
    d = 2**n
    t = t.reshape((2,) * (2 * n))
    inv = [0] * (2 * n)
    for s in range(n):
        inv[s] = 2 * s
        inv[n + s] = 2 * s + 1
    return t.transpose(inv).reshape(d, d)


def _rotate_legs(t: np.ndarray, n: int, site: np.ndarray) -> np.ndarray:
    """Apply the 4x4 ``site`` matrix to each of the N leading legs of ``t``.

    Each step is one product that contracts the first axis and puts its new
    axis last, so after N steps the legs, in their order, follow the axes
    that came after them.  A row of either site matrix has two non-zero
    entries of modulus 1 or 1/2, so every output is a signed sum of two
    inputs, rounded once, whatever the shape of the product.
    """
    for _ in range(n):
        t = t.reshape(4, -1).T @ site.T
    return t


def pauli_transform(op) -> PauliCoefficients:
    """Rotate an operator matrix, or a stack (..., D, D) of them, into the
    Pauli basis.

    Returns a_P = Tr[O P]/D for every string P, computed by N site-local 4x4
    rotations on the reshaped 2N-leg tensor (cost O(N 4^N) per operator); a
    stack gives coefficient vectors of shape (..., 4^N), each bit for bit
    the transform of its operator alone.  The result of a Hermitian input
    is real; a residual imaginary part above 1e-10 (relative to the
    operator's largest coefficient, or to 1 if that is smaller) raises.  The
    check reads the rotation before its scaling by 1/D, against
    1e-10 max(D, max|Re|), which is the same decision since D is a power of
    two; only the real part is then divided by D.
    """
    mat, n = _as_matrix(op)
    batch = mat.shape[:-2]
    d = 2**n
    t = _rotate_legs(_interleave(mat, n), n, _SITE_FORWARD).reshape(batch + (4**n,))
    scale = np.maximum(d, np.max(np.abs(t.real), axis=-1))
    resid = np.max(np.abs(t.imag), axis=-1)
    over = ~(resid <= 1e-10 * scale)  # NaN fails the check too
    if over.any():
        first = np.unravel_index(np.argmax(over), over.shape)
        which = f" of operator {', '.join(map(str, first))}" if batch else ""
        raise ValueError(
            f"imaginary residue {resid[first] / d:.3e}{which} exceeds tolerance "
            "(non-Hermitian input?)"
        )
    return PauliCoefficients(n, t.real / d)


def inverse_pauli_transform(coeffs: PauliCoefficients) -> np.ndarray:
    """Rebuild the dense matrix sum_P a_P P from a coefficient vector."""
    n = coeffs.n_sites
    t = _rotate_legs(coeffs.values.astype(complex), n, _SITE_INVERSE)
    return _deinterleave(t * 2**n, n)
