"""Exact transfer-matrix moments of staircase (RMPU) circuits + asymptotics.

A staircase of m = N - r overlapping Haar blocks on r+1 qubits (d = 2, gate
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
from typing import Sequence

import numpy as np

from .circuits import CircuitSpec
from .spectrum import haar_moment
from .weingarten import (
    _tables,
    gram_matrix,
    noisy_weingarten,
    pauli_sum_weights,
    traceless_seed_weights,
    weingarten_matrix,
)


def _check_staircase(spec: CircuitSpec) -> None:
    if spec.geometry != "rmpu" or spec.noise_placement != "per_gate_support":
        raise ValueError("rmpu engines need an rmpu circuit with per_gate_support noise, "
                         f"not {spec.geometry} with {spec.noise_placement}")


def transfer_matrix(r: int, k: int, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, L, R) over S_2k for blocks on r+1 qubits: T = Lam1 Wg~(2 chi, gamma)
    Lam2 G(chi) with chi = 2^r, and the boundary vectors of the module docstring."""
    n = 2 * k
    chi = 2.0**r
    lam1 = 2.0 ** _tables(n).cycles
    lam2 = pauli_sum_weights(n, 2.0)
    wg = noisy_weingarten(n, 2.0 * chi, gamma)
    g = gram_matrix(n, chi)
    t = (lam1[:, None] * wg) @ (lam2[:, None] * g)
    left = traceless_seed_weights(n, chi)
    right = lam1 * (wg @ lam2 ** (r + 1))
    return t, left, right


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


def _scaled_product(
    op: tuple[np.ndarray, np.ndarray, np.ndarray], ms: Sequence[int]
) -> list[float]:
    """L^T T^(m-1) R for ``op = (T, L, R)`` at each of the ascending ``ms``,
    read off one pass of the running vector with power-of-two rescaling;
    0.0 once the vector vanishes."""
    t, left, right = op
    out: list[float] = []
    v = left.copy()
    log_scale = 0.0
    steps = 1
    for m in ms:
        while steps < m:
            v = v @ t
            peak = float(np.max(np.abs(v)))
            if peak == 0.0:
                return out + [0.0] * (len(ms) - len(out))
            log_scale += rescale_pow2(v, peak)
            steps += 1
        out.append(unscale(float(v @ right), log_scale))
    return out


def rmpu_moment_exact(points: Sequence[tuple[CircuitSpec, int]]) -> list[float]:
    """Exact ensemble-averaged moments of the staircase ensemble at each
    (circuit, k), in input order.

    Each value is mu_k for gamma = 0 (where nu_1 = 1 deterministically) and the
    unnormalized nu_k average for gamma > 0.  T, L and R depend only on
    (r, k, gamma), so every N of one such group is read off one transfer
    matrix and one sweep of the running vector.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (spec, k) in enumerate(points):
        _check_staircase(spec)
        if k < 1:
            raise ValueError(f"k={k} must be >= 1")
        groups.setdefault((spec.r, k, spec.gamma), []).append(i)
    out = [0.0] * len(points)
    for key, idx in groups.items():
        idx.sort(key=lambda i: points[i][0].depth)
        # T is a temporary: the previous group's T is freed before the next is built
        values = _scaled_product(transfer_matrix(*key), [points[i][0].depth for i in idx])
        for i, value in zip(idx, values):
            out[i] = value
    return out


def rmpu_moment_asymptotic(spec: CircuitSpec, k: int) -> float:
    """Closed-form scaling limit (module docstring); requires k >= 2."""
    _check_staircase(spec)
    if k < 2:
        raise ValueError("asymptotic formula defined for k >= 2")
    d, gamma = 2.0, spec.gamma
    if gamma >= 1.0:
        return 0.0
    fid = (1.0 - gamma) ** spec.depth
    c_k = (d**2 - 1.0) / (d ** (2 * k) * (1.0 - gamma) ** (-2 * k) - d**2)
    x = d ** (spec.n_sites * (1.0 - 1.0 / k) - spec.r)
    return fid ** (2 * k) * haar_moment(k) * (1.0 + c_k * (x / fid) ** (2 * k))


def global_haar_moment(q: float, k: int) -> float:
    """Exact mu_k for a single Haar unitary on dimension q (traceless
    involution seed); the deep-circuit limit of any geometry on q = 2^N."""
    n = 2 * k
    top = pauli_sum_weights(n, q)
    bottom = traceless_seed_weights(n, q)
    return float(top @ weingarten_matrix(n, q) @ bottom)


@dataclass(frozen=True)
class ScalingPredictions:
    """Closed-form brickwork scaling constants derived from tau (qubits, d = 2)."""

    k: int
    tau: float
    gamma_c_times_n: float

    def t_star(self, n_sites: int) -> float:
        """Scrambling depth t_k* = N tau (1 - 1/k) log d."""
        return n_sites * self.tau * (1.0 - 1.0 / self.k) * math.log(2)


def scaling_predictions(k: int = 2) -> ScalingPredictions:
    """tau from the half-system purity decay, 1/tau = log((d^2+1)/(2d)) with
    d = 2; derived thresholds follow from it."""
    tau = 1.0 / math.log(5.0 / 4.0)
    return ScalingPredictions(k=k, tau=tau, gamma_c_times_n=1.0 / tau)
