"""Pauli spectrum, its moments, operator stabilizer entropies, OPT reference.

For a coefficient vector a_P the Pauli probability distribution is
pi(P) = a_P^2 / sum_Q a_Q^2.  Moments of the rescaled spectrum
u = D^2 pi are mu_k = D^(2k-2) sum_P pi(P)^k; their unnormalized
companions are nu_k = D^(2k-2) sum_P a_P^(2k), so mu_k = nu_k / nu_1^k.
The fully scrambled reference is the operator Porter-Thomas density
exp(-u/2)/sqrt(2 pi u) with moments (2k-1)!!.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .pauli import BLOCK, PauliCoefficients


def _squares(coeffs: PauliCoefficients):
    """a_P^2, ``BLOCK`` entries at a time, each block in the same reused buffer."""
    values = coeffs.values.reshape(-1)
    out = np.empty(min(values.size, BLOCK))
    for start in range(0, values.size, BLOCK):
        yield np.square(values[start:start + BLOCK], out=out)


def _pairwise(sums: list) -> float:
    """The total of a power-of-two number of equal blocks' sums, joined in the
    binary tree numpy's pairwise sum makes over the blocks as one array, so
    the total has the bits of ``np.sum`` of the whole."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return float(sums[0])


def moment_nu(coeffs: PauliCoefficients, ks: Sequence[int]) -> np.ndarray:
    """Unnormalized moments nu_k = D^(2k-2) sum_P a_P^(2k) (nu_1 = |O|_2^2) for
    each order k in ks, all from one squared coefficient vector.

    The vector is squared a block of ``BLOCK`` entries at a time.  a^(2k)
    comes from in-place products of one running power, squared in place when
    no k exceeds 2 and multiplied by a kept copy of a^2 otherwise.  numpy's
    pairwise sum of each block's terms >= 0, joined across blocks by
    :func:`_pairwise`, is accurate to O(eps log 4^N), gives the bits of one
    sum over the whole vector and calls no BLAS, so the sums depend on
    neither the block size nor the thread count.
    """
    if not ks or min(ks) < 1:
        raise ValueError(f"moment orders {list(ks)} must be >= 1")
    top = max(ks)
    sums = {k: [] for k in ks}
    for power in _squares(coeffs):
        a2 = power.copy() if top > 2 else power
        for k in range(1, top + 1):
            if k >= 2:
                np.multiply(power, a2, out=power)
            if k in sums:
                sums[k].append(np.sum(power))
    d = 2.0**coeffs.n_sites
    return np.array([d ** (2 * k - 2) * _pairwise(sums[k]) for k in ks])


def moment_pairs(coeffs: PauliCoefficients, ks: Sequence[int]) -> np.ndarray:
    """(mu_k, nu_k) for each k in ks, shape (len(ks), 2), from one spectrum
    reduction, with mu_k = nu_k / nu_1^k; a zero operator gives mu = NaN."""
    nu1, *nu = moment_nu(coeffs, [1, *ks]).tolist()
    pairs = [(v / nu1**k if nu1 > 0.0 else math.nan, v) for k, v in zip(ks, nu)]
    return np.array(pairs, dtype=float).reshape(-1, 2)


def moment_mu(coeffs: PauliCoefficients, ks: Sequence[int]) -> np.ndarray:
    """Normalized moments mu_k = D^(2k-2) sum_P pi(P)^k = nu_k / nu_1^k for
    each k in ks (mu_1 = 1): the mu column of :func:`moment_pairs`."""
    mu = moment_pairs(coeffs, ks)[:, 0]
    if np.isnan(mu).any():
        raise ValueError("zero operator has no Pauli distribution")
    return mu


def ose(coeffs: PauliCoefficients, k: int) -> float:
    """Operator stabilizer Renyi entropy of order k != 1.

    k = 0 counts the support (coefficients that are exactly zero, e.g.
    outside a causal cone, are excluded); k >= 2 evaluates
    log(sum pi^k)/(1-k) = log(mu_k / D^(2k-2))/(1-k).
    """
    if k == 1:
        raise ValueError("Renyi index k=1 is excluded (use a limit instead)")
    if k < 0:
        raise ValueError("Renyi index must be >= 0")
    if k == 0:
        support = int(np.count_nonzero(coeffs.values))
        if support == 0:
            raise ValueError("zero operator")
        return math.log(support)
    (mu,) = moment_mu(coeffs, [k])
    return math.log(mu / 4.0 ** (coeffs.n_sites * (k - 1))) / (1 - k)


def haar_moment(k: int) -> float:
    """Fully scrambled (OPT) moment (2k-1)!!."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = 1.0
    for j in range(1, 2 * k, 2):
        out *= j
    return out


def opt_bin_mass(u_lo: float, u_hi: float) -> float:
    """Exact OPT probability mass of a bin, erf(sqrt(u/2)) differences."""
    return math.erf(math.sqrt(u_hi / 2.0)) - math.erf(math.sqrt(u_lo / 2.0))


#: the one histogram grid: HIST_BINS log-spaced bins of u from HIST_U_MIN to HIST_U_MAX
HIST_BINS = 60
HIST_U_MIN = 1e-6
HIST_U_MAX = 1e3
HIST_EDGES = np.geomspace(HIST_U_MIN, HIST_U_MAX, HIST_BINS + 1)
HIST_EDGES.flags.writeable = False


def spectrum_histogram(coeffs: PauliCoefficients) -> np.ndarray:
    """Density of u = D^2 pi(P) of one operator on the fixed grid, zero mass appended.

    Every string carries mass D^-2; mass below the first edge is the zero
    mass and mass at or above the last edge is folded into the last bin, so
    zero_mass + sum(density * width) = 1.  The counts are made a block of
    ``BLOCK`` entries at a time, after the norm (:func:`moment_nu`'s nu_1).
    """
    (s2,) = moment_nu(coeffs, [1])
    if s2 <= 0.0:
        raise ValueError("zero operator has no Pauli distribution")
    d2 = float(4.0**coeffs.n_sites)
    counts, below = np.zeros(HIST_BINS, dtype=np.int64), 0
    for u in _squares(coeffs):
        u /= s2
        u *= d2  # u = D^2 pi(P)
        below += int(np.count_nonzero(u < HIST_U_MIN))
        np.clip(u, HIST_U_MIN, np.nextafter(HIST_U_MAX, 0.0), out=u)
        counts += np.histogram(u, bins=HIST_EDGES)[0]
    counts = counts.astype(float)
    counts[0] -= below  # clipped-from-below entries landed in bin 0
    density = counts / d2 / np.diff(HIST_EDGES)
    return np.append(density, below / d2)
