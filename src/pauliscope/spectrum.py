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
from dataclasses import dataclass, field
from typing import Optional

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


def opt_density(u) -> np.ndarray:
    """Operator Porter-Thomas density exp(-u/2)/sqrt(2 pi u), u > 0."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("OPT density is defined for u > 0")
    return np.exp(-u / 2.0) / np.sqrt(2.0 * np.pi * u)


def opt_bin_mass(u_lo: float, u_hi: float) -> float:
    """Exact OPT probability mass of a bin, erf(sqrt(u/2)) differences."""
    return math.erf(math.sqrt(u_hi / 2.0)) - math.erf(math.sqrt(u_lo / 2.0))


@dataclass
class SpectrumHistogram:
    """Ensemble-ready histogram of u = D^2 pi(P) with log-spaced bins.

    Every string carries mass D^-2; mass below the first edge accumulates in
    ``zero_mass`` and mass at or above the last edge is folded into the last
    bin, so zero_mass + sum(density * width) = 1.
    """

    bin_edges: np.ndarray
    density: np.ndarray
    zero_mass: float

    @property
    def bins(self) -> list[tuple[float, float]]:
        return list(zip(self.bin_edges[:-1], self.bin_edges[1:]))

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    @property
    def centers(self) -> np.ndarray:
        return np.sqrt(self.bin_edges[:-1] * self.bin_edges[1:])


def spectrum_histogram(
    coeffs: PauliCoefficients,
    n_bins: int = 60,
    u_min: float = 1e-6,
    u_max: float = 1e3,
) -> SpectrumHistogram:
    """Histogram of the rescaled Pauli spectrum of one operator."""
    if not (u_min > 0 and u_max > u_min and n_bins >= 1):
        raise ValueError("need u_max > u_min > 0 and n_bins >= 1")
    pi = pi_distribution(coeffs)
    d2 = float(4.0**coeffs.n_sites)
    u = d2 * pi
    edges = np.geomspace(u_min, u_max, n_bins + 1)
    below = int(np.count_nonzero(u < u_min))
    counts, _ = np.histogram(np.clip(u, u_min, np.nextafter(u_max, 0.0)), bins=edges)
    counts = counts.astype(float)
    counts[0] -= below  # clipped-from-below entries landed in bin 0
    density = counts / d2 / np.diff(edges)
    return SpectrumHistogram(edges, density, below / d2)


@dataclass
class MomentEstimate:
    """Ensemble-averaged moment with provenance."""

    quantity: str  # mu | nu | nu_over_F2k
    k: int
    value: float
    stderr: float
    n_samples: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.quantity not in ("mu", "nu", "nu_over_F2k"):
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.stderr >= 0:  # also rejects NaN
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")
