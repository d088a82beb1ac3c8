"""Top-N_P Pauli truncation, its error metrics, and the simulability bound.

Truncating an operator to its N_P largest-|a_P| Pauli terms is the optimal
Pauli truncation; the worst-case expectation-value error it leaves behind
is lower bounded through the k = 2 stabilizer entropy:

    max_rho |Tr[(O - O~) rho]| >= (|O|_2 / 2N) (M2 - log N_P - 1),

with the maximizer rho the top eigenvector of the (Hermitian) residual.
The average-case figure of merit used here is the mean squared error of
<0...0| . |0...0> expectation values over circuit realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .circuits import CircuitSpec
from .driver import ensemble
from .pauli import PauliCoefficients, inverse_pauli_transform, zdiag_mask


def _top_order(values: np.ndarray) -> np.ndarray:
    """Indices by descending |a|, ties broken by ascending Pauli index."""
    # stable sort on -|a| keeps ascending-index order within ties
    return np.argsort(-np.abs(values), kind="stable")


def _squared_tails(coeffs: PauliCoefficients, mask: np.ndarray, np_grid: list[int]) -> np.ndarray:
    """Squared zero-state error each cutoff of the grid leaves in one operator."""
    order = _top_order(coeffs.values)
    diag_sorted = np.where(mask[order], coeffs.values[order], 0.0)
    # dropped-tail expectation for every cutoff in one suffix sum
    suffix = np.concatenate([np.cumsum(diag_sorted[::-1])[::-1], [0.0]])
    return suffix[np_grid] ** 2


def simulability_bound(norm: float, m2: float, n_paulis: int, n_sites: int) -> float:
    """Worst-case truncation-error lower bound (may be negative = vacuous)."""
    if n_paulis < 1:
        raise ValueError("n_paulis must be >= 1")
    return norm / (2.0 * n_sites) * (m2 - math.log(n_paulis) - 1.0)


def residual_spectral_norm(coeffs: PauliCoefficients, n_keep: int) -> float:
    """Largest singular value of O - O~ by dense eigensolve (N <= 6 scale);
    realizes the adversarial state of the bound."""
    order = _top_order(coeffs.values)
    residual = coeffs.values.copy()
    residual[order[:n_keep]] = 0.0
    mat = inverse_pauli_transform(PauliCoefficients(coeffs.n_sites, residual))
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


@dataclass
class MsePoint:
    n_paulis: int
    mse: float
    stderr: float
    n_samples: int


def truncation_mse(
    spec: CircuitSpec,
    np_grid: Optional[Sequence[int]] = None,
    n_realizations: int = 100,
    threads: int = 1,
) -> list[MsePoint]:
    """Mean squared error of the zero-state expectation after truncation.

    Per realization the error is the sum of dropped diagonal-string
    coefficients; the ensemble average is taken over circuit realizations
    at every N_P of the grid (default: powers of two up to min(2^12, 4^N)).
    """
    total = 4**spec.n_sites
    if np_grid is None:
        np_grid = [2**j for j in range(0, min(12, 2 * spec.n_sites) + 1)]
    np_grid = sorted(set(int(v) for v in np_grid))
    if np_grid[0] < 1 or np_grid[-1] > total:
        raise ValueError(f"N_P grid outside [1, {total}]")
    observe = partial(_squared_tails, mask=zdiag_mask(spec.n_sites), np_grid=np_grid)
    _, mse, stderr = ensemble(spec, [spec.n_layers], observe, n_realizations, threads)
    return [
        MsePoint(n, float(m), float(s), n_realizations)
        for n, m, s in zip(np_grid, mse[0], stderr[0])
    ]
