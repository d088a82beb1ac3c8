"""Heisenberg evolution of an operator's Pauli coefficients under gates and noise.

The operator is held as its real coefficient vector a_P over all 4^N Pauli
strings (:class:`~pauliscope.pauli.PauliCoefficients`) and updated in place.
A gate U on w sites acts on the base-4 digits of its support through its
real orthogonal Pauli transfer matrix R_ab = Tr[P_a U P_b U^dag] / 2^w; a
depolarizing channel on a site set S, O -> (1-g) O + g Tr_S[O] x 1_S/2^|S|,
rescales every coefficient that is non-identity somewhere on S by (1-g).
Sites are addressed little-endian (site 0 = lowest base-4 digit of the
string index), consistent with :mod:`pauliscope.pauli`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .pauli import LETTERS, PauliCoefficients, pauli_transform

#: refuse evolution above this size unless explicitly overridden
#: (4^13 coefficients * 8 bytes is already ~0.5 GB)
MAX_SITES = 13


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
) -> PauliCoefficients:
    """Pauli ``axis`` at ``site``, identity elsewhere (traceless, O^2 = 1)."""
    if n_sites > MAX_SITES and not allow_large:
        raise ValueError(
            f"N={n_sites} exceeds the evolution guard ({MAX_SITES}); "
            "pass allow_large=True to override"
        )
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
    """Real orthogonal R_ab = Tr[P_a U P_b U^dag] / q of a q x q unitary.

    The realigned product x[(j, l), (i, k)] = U[j, k] conj(U[i, l]) is an
    operator on twice the gate's sites whose Pauli coefficient at the string
    (P_a on the high half, P_b on the low half) is Tr[P_a U P_b U^dag] / q^2,
    so the existing transform builds R, imaginary-residue check included.
    """
    q = u.shape[0]
    x = np.einsum("jk,il->jlik", u, u.conj()).reshape(q * q, q * q)
    return q * pauli_transform(x).values.reshape(q * q, q * q)


def apply_gate(coeffs: PauliCoefficients, gate: GateMatrix) -> PauliCoefficients:
    """Conjugate O <- U O U^dag on the gate support (in place)."""
    support = _check_support(coeffs, gate.support)
    n, w = coeffs.n_sites, len(support)
    r = pauli_transfer_matrix(gate.matrix).reshape((4,) * (2 * w))
    # tensor axis n-1-s holds the digit of site s; R's input axis w+i holds
    # the digit of support[w-1-i]
    axes = [n - 1 - s for s in reversed(support)]
    t = np.tensordot(r, coeffs.values.reshape((4,) * n), axes=(range(w, 2 * w), axes))
    coeffs.values = np.moveaxis(t, range(w), axes).reshape(-1)
    return coeffs


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
