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

import numpy as np

from .pauli import PauliCoefficients

_CHUNK = 1 << 16


def stable_sum(x: np.ndarray) -> float:
    """Deterministic compensated reduction (pairwise within fixed chunks,
    Kahan across chunks); sums spanning many orders of magnitude keep
    ~1e-15 relative accuracy independent of array length."""
    x = np.asarray(x).ravel()
    total = 0.0
    comp = 0.0
    for start in range(0, x.size, _CHUNK):
        y = float(np.sum(x[start : start + _CHUNK])) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _sum_pi_power(coeffs: PauliCoefficients, k: int) -> tuple[float, float]:
    """(sum a^2, sum a^(2k)) with stable reductions."""
    a2 = np.square(coeffs.values)
    s2 = stable_sum(a2)
    s2k = s2 if k == 1 else stable_sum(a2**k)
    return s2, s2k


def pi_distribution(coeffs: PauliCoefficients) -> np.ndarray:
    """Probability over Pauli strings, pi(P) = a_P^2 / sum a^2."""
    a2 = np.square(coeffs.values)
    s2 = stable_sum(a2)
    if s2 <= 0.0:
        raise ValueError("zero operator has no Pauli distribution")
    return a2 / s2


def moment_mu(coeffs: PauliCoefficients, k: int) -> float:
    """Normalized spectrum moment mu_k = D^(2k-2) sum_P pi(P)^k (mu_1 = 1)."""
    if k < 1:
        raise ValueError("moment index k must be >= 1")
    s2, s2k = _sum_pi_power(coeffs, k)
    if s2 <= 0.0:
        raise ValueError("zero operator has no Pauli distribution")
    if k == 1:
        return 1.0
    d = 2.0**coeffs.n_sites
    return d ** (2 * k - 2) * s2k / s2**k


def moment_nu(coeffs: PauliCoefficients, k: int) -> float:
    """Unnormalized moment nu_k = D^(2k-2) sum_P a_P^(2k); nu_1 = |O|_2^2."""
    if k < 1:
        raise ValueError("moment index k must be >= 1")
    _, s2k = _sum_pi_power(coeffs, k)
    d = 2.0**coeffs.n_sites
    return d ** (2 * k - 2) * s2k


def ose(coeffs: PauliCoefficients, k: int) -> float:
    """Operator stabilizer Renyi entropy of order k != 1.

    k = 0 counts the support (coefficients that are exactly zero, e.g.
    outside a causal cone, are excluded); k >= 2 evaluates
    log(sum pi^k)/(1-k) through stable log-domain sums.
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
    s2, s2k = _sum_pi_power(coeffs, k)
    if s2 <= 0.0 or s2k <= 0.0:
        raise ValueError("zero operator")
    return (math.log(s2k) - k * math.log(s2)) / (1 - k)


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
    pi = pi_distribution(coeffs)
    d2 = float(4.0**coeffs.n_sites)
    u = d2 * pi
    below = int(np.count_nonzero(u < HIST_U_MIN))
    clipped = np.clip(u, HIST_U_MIN, np.nextafter(HIST_U_MAX, 0.0))
    counts, _ = np.histogram(clipped, bins=HIST_EDGES)
    counts = counts.astype(float)
    counts[0] -= below  # clipped-from-below entries landed in bin 0
    density = counts / d2 / np.diff(HIST_EDGES)
    return np.append(density, below / d2)
