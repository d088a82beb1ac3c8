"""Exact transfer-matrix moments of staircase (RMPU) circuits + asymptotics.

A staircase of m = N - r overlapping Haar blocks on r+1 qubits (d = 2, gate
dimension q = d*chi, chi = d^r) admits an exact ensemble average of the
Pauli-spectrum moments as a product over S_2k:

    moment = L^T T^(m-1) R,     T = Lam1(d) Wg(q) Lam2(d) G(chi),

with [Lam1]_ss = d^#(s), [Lam2]_ss = d^(#(s) + 2*1_E(s) - 2),
L_s = chi^#(s) 1_E(s) and R_s = [Lam1]_ss sum_p Wg_sp [Lam2^(r+1)]_pp.
With a joint depolarizing channel of rate gamma after every gate, Wg is
replaced by the noisy Weingarten function Wg~ (equal to Wg bit for bit at
gamma = 0) and the product evaluates the unnormalized moment average.

T commutes with simultaneous conjugation (T[g s g^-1, g t g^-1] = T[s, t])
and L, R are class functions, so the product runs over the p(2k) = 2, 5, 11,
22 conjugacy classes of S_2k (k <= 4) instead of its (2k)! = 2, 24, 720,
40320 permutations, and only the representatives' rows of Wg~ are formed:

    L^T T^(m-1) R = sum_C |C| L_C (T_red^(m-1) R)_C,
    T_red[C, D] = sum_{t in D} T[s_C, t],

s_C a representative of class C and |C| its size (``transfer_matrix``).

The closed-form large-(N, chi) limit at fixed x = d^(N(1-1/k))/chi is

    nu_k = F^2k (2k-1)!! [1 + C_k(gamma) (x/F)^2k],   F = (1-gamma)^m,

with C_k(gamma) = (d^2-1)/(d^2k (1-gamma)^(-2k) - d^2).
"""

from __future__ import annotations

import math
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
)


def _class_sums(rows: np.ndarray, type_of: np.ndarray) -> np.ndarray:
    """rows[:, tau] summed over each conjugacy class of tau, in class-id order."""
    order = np.argsort(type_of, kind="stable")
    sizes = np.bincount(type_of)
    return np.add.reduceat(rows[:, order], np.cumsum(sizes) - sizes, axis=1)


def transfer_matrix(r: int, k: int, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, l, w) over the p(2k) conjugacy classes of S_2k for blocks on r+1
    qubits (chi = 2^r), with l^T M^j w = L^T T^j R (module docstring).

    With s_C = ``_tables(2k).reps[C]`` and |C| the class size, the running
    class vector steps with M[C, D] = |C| T_red[C, D] / |D|, l_C = L[s_C] and
    w_C = |C| R[s_C].  Lam2 is a class function and sum_{t in D} G[p, t]
    depends only on the class E of p, so T_red needs only class sums of the
    representatives' rows and the class Gram matrix H = ``gram_matrix(2k, chi)``:

        T_red[C, D] = Lam1[s_C] sum_E Wbar[C, E] Lam2[s_E] H[E, D],
        Wbar[C, E] = sum_{p in E} Wg~[s_C, p],  H[E, D] = sum_{t in D} chi^#(s_E^-1 t).
    """
    n = 2 * k
    chi = 2.0**r
    tb = _tables(n)
    lam1 = 2.0 ** tb.cycles[tb.reps]
    lam2 = pauli_sum_weights(n, 2.0)[tb.reps]
    wbar = _class_sums(noisy_weingarten(n, 2.0 * chi, gamma), tb.type_of)
    t_red = (lam1[:, None] * wbar * lam2) @ gram_matrix(n, chi)
    left = traceless_seed_weights(n, chi)[tb.reps]
    right = tb.sizes * lam1 * (wbar @ lam2 ** (r + 1))
    return tb.sizes[:, None] * t_red / tb.sizes, left, right


def pow2_below(peak: float) -> float:
    """The largest power of two <= ``peak`` > 0: dividing by it is exact in
    floating point."""
    return 2.0 ** math.floor(math.log2(peak))


def rescale_pow2(arr: np.ndarray, peak: float) -> float:
    """Divide ``arr`` in place by ``pow2_below(peak)`` and return the log of the divisor."""
    s = pow2_below(peak)
    arr /= s
    return math.log(s)


def unscale(val: float, log_scale: float) -> float:
    """val * exp(log_scale), formed in logs so large scales do not overflow."""
    if val == 0.0:
        return 0.0
    return math.copysign(math.exp(log_scale + math.log(abs(val))), val)


def _scaled_product(
    ops: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], depths: Sequence[Sequence[int]]
) -> list[list[float]]:
    """l^T M^(m-1) w for each ``ops[g] = (M, l, w)`` at each m of ``depths[g]``,
    read off one stacked sweep: all running vectors step together as one
    (G, 1, p) @ (G, p, p) product up to the deepest m, each rescaled by its own
    power of two; a row reads 0.0 once its vector vanishes."""
    t, left, right = (np.stack(part) for part in zip(*ops))
    v = left[:, None, :]
    log_scale = [0.0] * len(ops)
    out = [[0.0] * len(ms) for ms in depths]
    steps = 1
    for m, g, j in sorted((m, g, j) for g, ms in enumerate(depths) for j, m in enumerate(ms)):
        while steps < m:
            v = v @ t
            scales = [1.0] * len(ops)  # a vanished row stays 0 and is not rescaled
            for row, peak in enumerate(np.max(np.abs(v), axis=2)[:, 0].tolist()):
                if peak != 0.0:
                    scales[row] = pow2_below(peak)
                    log_scale[row] += math.log(scales[row])
            v /= np.array(scales)[:, None, None]
            steps += 1
        out[g][j] = unscale(float(v[g, 0] @ right[g]), log_scale[g])
    return out


def rmpu_moment_exact(points: Sequence[tuple[CircuitSpec, int]]) -> list[float]:
    """Exact ensemble-averaged moments of the staircase ensemble at each
    (circuit, k), in input order: rmpu circuits with per_gate_support noise,
    1 <= k <= weingarten.MAX_DEGREE // 2.

    Each value is mu_k for gamma = 0 (where nu_1 = 1 deterministically) and the
    unnormalized nu_k average for gamma > 0.  The class-reduced transfer
    matrix depends only on (r, k, gamma), so every N of one (r, k) is read off
    one stacked sweep of the running class vectors, one row per gamma.
    """
    groups: dict[tuple, dict[float, list[int]]] = {}
    for i, (spec, k) in enumerate(points):
        groups.setdefault((spec.r, k), {}).setdefault(spec.gamma, []).append(i)
    out = [0.0] * len(points)
    for (r, k), by_gamma in groups.items():
        ops = [transfer_matrix(r, k, gamma) for gamma in by_gamma]
        rows = list(by_gamma.values())
        values = _scaled_product(ops, [[points[i][0].depth for i in idx] for idx in rows])
        for idx, row in zip(rows, values):
            for i, value in zip(idx, row):
                out[i] = value
    return out


def rmpu_moment_asymptotic(spec: CircuitSpec, k: int) -> float:
    """Closed-form scaling limit (module docstring) of an rmpu circuit with
    per_gate_support noise; defined for k >= 2."""
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
    tb = _tables(n)
    top = tb.sizes * pauli_sum_weights(n, q)[tb.reps]
    bottom = traceless_seed_weights(n, q)[tb.reps]
    return float(top @ _class_sums(noisy_weingarten(n, q, 0.0), tb.type_of) @ bottom)


#: tau from the half-system purity decay, 1/tau = log((d^2+1)/(2d)) with d = 2,
#: and the large-N noise threshold gamma_c N = 1/tau derived from it
GAMMA_C_TIMES_N = math.log(5.0 / 4.0)
TAU = 1.0 / GAMMA_C_TIMES_N


def t_star(n_sites: int, k: int) -> float:
    """Brickwork scrambling depth t_k* = N tau (1 - 1/k) log d (qubits, d = 2)."""
    return n_sites * TAU * (1.0 - 1.0 / k) * math.log(2)
