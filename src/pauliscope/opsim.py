"""Heisenberg evolution of an operator's Pauli coefficients under gates and noise.

The operator is held as its real coefficient vector a_P over all 4^N Pauli
strings (:class:`~pauliscope.pauli.PauliCoefficients`) and updated in place.
A gate U on w sites acts on the base-4 digits of its support through its
real orthogonal Pauli transfer matrix R_ab = Tr[P_a U P_b U^dag] / 2^w; a
depolarizing channel on a site set S, O -> (1-g) O + g Tr_S[O] x 1_S/2^|S|,
rescales every coefficient that is non-identity somewhere on S by (1-g).
Sites are addressed little-endian (site 0 = lowest base-4 digit of the
string index), consistent with :mod:`pauliscope.pauli`.

The transfer matrices of a stack of gates are built in one transform
(:func:`pauli_transfer_matrix`), and their unitarity is checked in one
product (:class:`GateMatrix`); :func:`pauliscope.circuits.iter_circuit`
builds a realization's applied gates in stacks of bounded size, all at once
for two-site gates.  A gate is then a matrix product of its R with a
(4^lo, 4^w, 4^hi) view of the vector; once the vector is longer than one
block of ``pauli.BLOCK`` entries it is made block by block in place, so
the simulator holds one copy of the vector and block-sized temporaries.
Either depolarizing channel right after a gate, per site or joint on its
support, only rescales the support's strings, so
:func:`pauliscope.circuits.iter_circuit` folds it into R's rows: the row
factors are the channel applied to an all-ones coefficient vector on the
gate's sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .pauli import BLOCK, LETTERS, PauliCoefficients, pauli_transform

#: largest N the dense 4^N coefficient vector is built for (4^13 coefficients
#: * 8 bytes is already ~0.5 GB; the simulator holds this one copy, updated
#: in place, and block-sized temporaries)
MAX_SITES = 13


@dataclass
class GateMatrix:
    """A stack of unitaries of one width: ``matrices[i]`` acts on the ordered
    sites ``supports[i]`` (support[0] = low bit)."""

    supports: tuple[tuple[int, ...], ...]
    matrices: np.ndarray

    def __post_init__(self):
        self.supports = tuple(tuple(int(s) for s in support) for support in self.supports)
        self.matrices = np.asarray(self.matrices, dtype=complex)
        widths = {len(support) for support in self.supports}
        if len(widths) != 1:
            raise ValueError(f"a gate stack needs one width, got widths {sorted(widths)}")
        w = widths.pop()
        shape = (len(self.supports), 2**w, 2**w)
        if self.matrices.shape != shape:
            raise ValueError(f"{shape[0]} gates on {w} sites need a {shape} stack, "
                             f"got {self.matrices.shape}")
        for support in self.supports:
            if len(set(support)) != len(support):
                raise ValueError(f"repeated sites in support {support}")
        u = self.matrices
        dev = np.max(np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(2**w)), axis=(1, 2))
        over = ~(dev <= 1e-12)  # NaN fails the check too
        if over.any():
            i = int(np.argmax(over))
            raise ValueError(f"gate {i} on sites {self.supports[i]} is not unitary "
                             f"(||U U+ - 1|| = {dev[i]:.2e})")


def init_local_pauli(n_sites: int, site: int, axis: str) -> PauliCoefficients:
    """Pauli ``axis`` at ``site``, identity elsewhere (traceless, O^2 = 1)."""
    if n_sites > MAX_SITES:
        raise ValueError(f"N={n_sites} exceeds the evolution guard ({MAX_SITES})")
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for N={n_sites}")
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    values = np.zeros(4**n_sites)
    values[LETTERS.index(axis) << (2 * site)] = 1.0
    return PauliCoefficients(n_sites, values)


def _check_support(coeffs: PauliCoefficients, sites: Iterable[int]) -> tuple[int, ...]:
    sites = tuple(int(s) for s in sites)
    for s in sites:
        if not 0 <= s < coeffs.n_sites:
            raise ValueError(f"site {s} out of range for N={coeffs.n_sites}")
    return sites


def pauli_transfer_matrix(u: np.ndarray) -> np.ndarray:
    """Real orthogonal R_ab = Tr[P_a U P_b U^dag] / q of a q x q unitary, or
    the (..., q^2, q^2) stack of a (..., q, q) stack of them.

    The realigned product x[(j, l), (i, k)] = U[j, k] conj(U[i, l]) is an
    operator on twice the gate's sites whose Pauli coefficient at the string
    (P_a on the high half, P_b on the low half) is Tr[P_a U P_b U^dag] / q^2,
    so one call of the existing transform builds every R of the stack,
    imaginary-residue check included.
    """
    u = np.asarray(u)
    q = u.shape[-1]
    shape = u.shape[:-2] + (q * q, q * q)
    x = np.einsum("...jk,...il->...jlik", u, u.conj()).reshape(shape)
    return q * pauli_transform(x).values.reshape(shape)


def apply_gate(
    coeffs: PauliCoefficients, support: Iterable[int], r: np.ndarray
) -> PauliCoefficients:
    """Conjugate O <- U O U^dag on ``support`` (in place), given the gate's
    transfer matrix ``r`` (:func:`pauli_transfer_matrix`).

    The support's digit axes are moved next to each other and the vector is
    read as (4^lo, 4^w, 4^hi), so the gate is a matrix product with R of
    each 4^w x 4^hi slice.  Where the support's lowest site is site 0 the
    last axis has length 1, and one 2-D product x @ R^T replaces 4^lo tiny
    ones.  A vector of at most ``BLOCK`` entries is read that way whole: for
    a run of adjacent, ascending sites the move is the identity and the
    reshape a view; other supports pay one copy in the reshape.  The product
    is a new array that becomes the vector, which saves the copy back that
    an update in place makes.

    A longer vector is updated block by block: each block of ``BLOCK``
    entries, whole slices or a column strip of one slice, is multiplied by
    R into one block-sized buffer and written back, so no vector-sized
    temporary is made and the blocks stay in cache.  Only a block's axes are
    moved, so a non-adjacent support copies one block at a time.  Each slice
    meets the same product as in the whole-vector read, and the values do
    not depend on the block size.

    R's rows may come scaled: a channel that rescales the support's Pauli
    strings right after the gate then costs no pass of its own over the
    vector.
    """
    support = _check_support(coeffs, support)
    n, w = coeffs.n_sites, len(support)
    q = 4**w
    if r.shape != (q, q):
        raise ValueError(f"gate on {w} sites needs a {q}x{q} transfer matrix, "
                         f"got {r.shape}")
    # tensor axis n-1-s holds the digit of site s; R's row digits run from
    # support[w-1] (high) down to support[0] (low)
    src = [n - 1 - s for s in reversed(support)]
    hi = min(support)
    lo = n - w - hi
    dst = list(range(lo, lo + w))
    if hi == 0:
        # numpy multiplies by a C-ordered R^T about twice as fast as by r.T's
        # view for w <= 2, with the same bits; from w = 4, where the copy
        # would outgrow a block, the two run alike
        rt = np.ascontiguousarray(r.T) if q * q <= BLOCK else r.T
    if coeffs.values.size <= BLOCK:
        moved = src != dst
        x = coeffs.values.reshape((4,) * n)
        x = (np.moveaxis(x, src, dst) if moved else x).reshape(4**lo, q, -1)
        out = x[:, :, 0] @ rt if hi == 0 else r @ x
        out = out.reshape((4,) * n)
        coeffs.values = (np.moveaxis(out, dst, src) if moved else out).reshape(-1)
        return coeffs
    # blocks of 2^e whole slices, or column strips of one slice, each a basic
    # index of a view whose lo axes are split in two (which never copies):
    # a block fixes the leading halves
    strip = min(4**hi, BLOCK // q)
    e = (BLOCK // (q * strip)).bit_length() - 1
    x = np.moveaxis(coeffs.values.reshape((4,) * (n - hi) + (4**hi,)), src, dst)
    x = x.reshape((2,) * (2 * lo) + (4,) * w + (4**hi,))
    out = np.empty((2**e, q, strip))
    for index in np.ndindex(x.shape[:2 * lo - e]):
        for start in range(0, 4**hi, strip):
            view = x[index + (Ellipsis, slice(start, start + strip))]
            block = view.reshape(2**e, q, strip)  # a copy only where moved
            if hi == 0:
                np.matmul(block[:, :, 0], rt, out=out[:, :, 0])
            else:
                np.matmul(r, block, out=out)
            view[...] = out.reshape(view.shape)
    return coeffs


@lru_cache(maxsize=64)
def _factor_row(n_sites: int, site: int, gamma: float) -> np.ndarray:
    """Read-only factors of one row of 4^min(N, 5) strings under the channel on
    ``site`` (< 3): 1 where the string's letter there is I, else 1 - gamma."""
    width = 4 ** min(n_sites, 5)
    row = np.where(np.arange(width) // 4**site % 4 == 0, 1.0, 1.0 - gamma)
    row.flags.writeable = False
    return row


def apply_depolarizing(
    coeffs: PauliCoefficients, gamma: float, sites: Iterable[int]
) -> PauliCoefficients:
    """Single-site depolarizing channels applied sequentially to ``sites``.

    Per site s: O <- (1-g) O + g Tr_s[O] x 1_s/2, i.e. every coefficient
    whose letter at s is non-identity is rescaled by (1-g).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1]")
    sites = _check_support(coeffs, sites)
    if gamma == 0.0:
        return coeffs
    n = coeffs.n_sites
    for s in sites:
        if s < 3:  # runs of 3 * 4^s are short: scale rows of 4^5 by one factor row
            row = _factor_row(n, s, gamma)
            coeffs.values.reshape(-1, row.size)[...] *= row
        else:
            coeffs.values.reshape(4 ** (n - 1 - s), 4, 4**s)[:, 1:, :] *= 1.0 - gamma
    return coeffs


def apply_depolarizing_support(
    coeffs: PauliCoefficients, gamma: float, sites: Iterable[int]
) -> PauliCoefficients:
    """One joint depolarizing channel over the full site set ``sites``.

    O <- (1-g) O + g Tr_S[O] x 1_S/2^|S|.  Every Pauli coefficient that is
    non-identity anywhere on S is rescaled by a single factor (1-g); this is
    the per-gate noise convention of staircase/RMPU circuits.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1]")
    support = _check_support(coeffs, sites)
    if gamma == 0.0 or not support:
        return coeffs
    n = coeffs.n_sites
    t = coeffs.values.reshape((4,) * n)
    # tensor axis n-1-s holds the digit of site s
    identity_on_s = tuple(0 if n - 1 - ax in support else slice(None) for ax in range(n))
    kept = t[identity_on_s].copy()
    t *= 1.0 - gamma
    t[identity_on_s] = kept
    return coeffs
