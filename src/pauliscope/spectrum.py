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

from .pauli import PauliCoefficients


def moment_nu(coeffs: PauliCoefficients, ks: Sequence[int]) -> np.ndarray:
    """Unnormalized moments nu_k = D^(2k-2) sum_P a_P^(2k) (nu_1 = |O|_2^2) for
    each order k in ks, all from one squared coefficient vector.

    a^(2k) comes from in-place products of one running power, squared in place
    when no k exceeds 2 and multiplied by a kept copy of a^2 otherwise.  numpy's
    pairwise sum of these terms >= 0 is accurate to O(eps log 4^N) and calls no
    BLAS, so the sums do not depend on the thread count.
    """
    if not ks or min(ks) < 1:
        raise ValueError(f"moment orders {list(ks)} must be >= 1")
    power = np.square(coeffs.values)
    a2 = power.copy() if max(ks) > 2 else power
    d, nu = 2.0**coeffs.n_sites, {}
    for k in range(1, max(ks) + 1):
        if k >= 2:
            np.multiply(power, a2, out=power)
        if k in ks:
            nu[k] = d ** (2 * k - 2) * float(np.sum(power))
    return np.array([nu[k] for k in ks])


def moment_mu(coeffs: PauliCoefficients, ks: Sequence[int]) -> np.ndarray:
    """Normalized moments mu_k = D^(2k-2) sum_P pi(P)^k = nu_k / nu_1^k for
    each k in ks (mu_1 = 1)."""
    nu1, *nu = moment_nu(coeffs, [1, *ks]).tolist()
    if nu1 <= 0.0:
        raise ValueError("zero operator has no Pauli distribution")
    return np.array([v / nu1**k for k, v in zip(ks, nu)])


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
    zero_mass + sum(density * width) = 1.
    """
    u = np.square(coeffs.values)
    s2 = float(np.sum(u))
    if s2 <= 0.0:
        raise ValueError("zero operator has no Pauli distribution")
    d2 = float(4.0**coeffs.n_sites)
    u /= s2
    u *= d2  # u = D^2 pi(P)
    below = int(np.count_nonzero(u < HIST_U_MIN))
    clipped = np.clip(u, HIST_U_MIN, np.nextafter(HIST_U_MAX, 0.0))
    counts, _ = np.histogram(clipped, bins=HIST_EDGES)
    counts = counts.astype(float)
    counts[0] -= below  # clipped-from-below entries landed in bin 0
    density = counts / d2 / np.diff(HIST_EDGES)
    return np.append(density, below / d2)
