"""Exact transfer-matrix moments of staircase (RMPU) circuits + asymptotics.

A staircase of m = N - r overlapping Haar blocks on r+1 qudits (gate
dimension q = d*chi, chi = d^r) admits an exact ensemble average of the
Pauli-spectrum moments as a product over S_2k:

    moment = L^T T^(m-1) R,     T = Lam1(d) Wg(q) Lam2(d) G(chi),

with [Lam1]_ss = d^#(s), [Lam2]_ss = d^(#(s) + 2*1_E(s) - 2),
L_s = chi^#(s) 1_E(s) and R_s = [Lam1]_ss sum_p Wg_sp [Lam2^(r+1)]_pp.
With a joint depolarizing channel of rate gamma after every gate, Wg is
replaced by the noisy Weingarten matrix and the product evaluates the
unnormalized moment average (the gamma = 0 pipeline is unchanged bit for
bit since the noisy coefficients then reduce to the plain ones).

The closed-form large-(N, chi) limit at fixed x = d^(N(1-1/k))/chi is

    nu_k = F^2k (2k-1)!! [1 + C_k(gamma) (x/F)^2k],   F = (1-gamma)^m,

with C_k(gamma) = (d^2-1)/(d^2k (1-gamma)^(-2k) - d^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectrum import haar_moment
from .weingarten import (
    _tables,
    gram_matrix,
    noisy_weingarten,
    pauli_sum_weights,
    traceless_seed_weights,
    weingarten_matrix,
)


@dataclass(frozen=True)
class RmpuParams:
    """Staircase-ensemble parameters (qudit dimension d a power of two)."""

    n_sites: int
    r: int
    k: int
    d: int = 2
    gamma: float = 0.0

    def __post_init__(self):
        if not 1 <= self.r <= self.n_sites - 1:
            raise ValueError(f"need 1 <= r <= N-1, got r={self.r}, N={self.n_sites}")
        if self.d < 2 or self.d & (self.d - 1):
            raise ValueError(f"local dimension d={self.d} must be a power of two >= 2")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma={self.gamma} outside [0, 1]")

    @property
    def chi(self) -> int:
        return self.d**self.r

    @property
    def m(self) -> int:
        """Number of staircase gates."""
        return self.n_sites - self.r

    @property
    def gate_dim(self) -> int:
        return self.d ** (self.r + 1)


def lambda_matrices(n: int, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of Lam1 and Lam2 over the fixed enumeration of S_n."""
    if n % 2:
        raise ValueError("replica count n must be even")
    tb = _tables(n)
    lam1 = (float(d) ** tb.cycles).astype(float)
    lam2 = pauli_sum_weights(n, float(d))
    return lam1, lam2


@dataclass
class TransferOperator:
    """Transfer matrix and boundary vectors over S_2k."""

    n: int
    T: np.ndarray
    L: np.ndarray
    R: np.ndarray
    pseudo_inverse: bool = False


def boundary_vectors(params: RmpuParams) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) boundary vectors; gamma = 0 uses the plain Weingarten in R."""
    n = 2 * params.k
    lam1, lam2 = lambda_matrices(n, params.d)
    left = traceless_seed_weights(n, float(params.chi))
    wg = noisy_weingarten(n, float(params.gate_dim), params.gamma).entries
    right = lam1 * (wg @ lam2 ** (params.r + 1))
    return left, right


def transfer_matrix(params: RmpuParams) -> TransferOperator:
    """Exact transfer operator T = Lam1 Wg~(d*chi, gamma) Lam2 G(chi)."""
    n = 2 * params.k
    if n > 6:
        raise ValueError("transfer matrices supported for 2k <= 6")
    lam1, lam2 = lambda_matrices(n, params.d)
    wg = noisy_weingarten(n, float(params.gate_dim), params.gamma)
    g = gram_matrix(n, float(params.chi)).entries
    t = (lam1[:, None] * wg.entries) @ (lam2[:, None] * g)
    left, right = boundary_vectors(params)
    return TransferOperator(n, t, left, right, pseudo_inverse=wg.pseudo_inverse)


def rescale_pow2(arr: np.ndarray, peak: float) -> float:
    """Divide ``arr`` in place by the largest power of two <= ``peak`` > 0 and
    return the log of the divisor; the division is exact in floating point."""
    s = 2.0 ** math.floor(math.log2(peak))
    arr /= s
    return math.log(s)


def unscale(val: float, log_scale: float) -> float:
    """val * exp(log_scale), formed in logs so large scales do not overflow."""
    if val == 0.0:
        return 0.0
    return math.copysign(math.exp(log_scale + math.log(abs(val))), val)


def _scaled_product(op: TransferOperator, m: int) -> float:
    """L^T T^(m-1) R with power-of-two rescaling of the running vector."""
    v = op.L.copy()
    log_scale = 0.0
    for _ in range(m - 1):
        v = v @ op.T
        peak = float(np.max(np.abs(v)))
        if peak == 0.0:
            return 0.0
        log_scale += rescale_pow2(v, peak)
    return unscale(float(v @ op.R), log_scale)


def rmpu_moment_exact(params: RmpuParams) -> float:
    """Exact ensemble-averaged moment of the staircase ensemble.

    Returns mu_k for gamma = 0 (where nu_1 = 1 deterministically) and the
    unnormalized nu_k average for gamma > 0.
    """
    return _scaled_product(transfer_matrix(params), params.m)


def rmpu_moment_asymptotic(params: RmpuParams) -> float:
    """Closed-form scaling limit (module docstring); requires k >= 2."""
    if params.k < 2:
        raise ValueError("asymptotic formula defined for k >= 2")
    d, k, gamma = float(params.d), params.k, params.gamma
    if gamma >= 1.0:
        return 0.0
    fid = (1.0 - gamma) ** params.m
    c_k = (d**2 - 1.0) / (d ** (2 * k) * (1.0 - gamma) ** (-2 * k) - d**2)
    x = d ** (params.n_sites * (1.0 - 1.0 / k) - params.r)
    return fid ** (2 * k) * haar_moment(k) * (1.0 + c_k * (x / fid) ** (2 * k))


def global_haar_moment(q: float, k: int) -> float:
    """Exact mu_k for a single Haar unitary on dimension q (traceless
    involution seed); the deep-circuit limit of any geometry on q = 2^N."""
    n = 2 * k
    top = pauli_sum_weights(n, q)
    bottom = traceless_seed_weights(n, q)
    return float(top @ weingarten_matrix(n, q).entries @ bottom)


@dataclass(frozen=True)
class ScalingPredictions:
    """Closed-form brickwork scaling constants derived from tau."""

    d: int
    k: int
    tau: float
    gamma_c_times_n: float

    def t_star(self, n_sites: int) -> float:
        """Scrambling depth t_k* = N tau (1 - 1/k) log d."""
        return n_sites * self.tau * (1.0 - 1.0 / self.k) * math.log(self.d)

    def brickwork_correction(
        self, n_sites: int, t: float, gamma: float, c_prime: float = 1.0
    ) -> float:
        """Bracketed correction factor of the noisy scaling form,
        1 + C' (e^(gamma N t) d^(N(1-1/k)) e^(-t/tau))^2k, with the
        non-universal constant C' defaulting to 1."""
        log_arg = (
            gamma * n_sites * t
            + n_sites * (1.0 - 1.0 / self.k) * math.log(self.d)
            - t / self.tau
        )
        return 1.0 + c_prime * math.exp(2 * self.k * log_arg)


def scaling_predictions(
    d: int = 2, k: int = 2, tau_override: Optional[float] = None
) -> ScalingPredictions:
    """tau from the half-system purity decay, 1/tau = log((d^2+1)/(2d)),
    or a user-supplied override; derived thresholds follow from it."""
    if d < 2:
        raise ValueError("d must be >= 2")
    tau = tau_override if tau_override is not None else 1.0 / math.log((d * d + 1.0) / (2.0 * d))
    return ScalingPredictions(d=d, k=k, tau=tau, gamma_c_times_n=1.0 / tau)
