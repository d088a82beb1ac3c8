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
from typing import Optional, Sequence

import numpy as np

from .circuits import CircuitSpec, run_circuit
from .pauli import PauliCoefficients, inverse_pauli_transform, zdiag_mask
from .spectrum import stable_sum

TIE_RULE = "descending |a|, ties broken by ascending Pauli index"


@dataclass
class TruncationResult:
    """The N_P kept coefficients (sorted per TIE_RULE) and what was lost."""

    n_sites: int
    kept_indices: np.ndarray
    kept_values: np.ndarray
    dropped_weight: float
    tie_rule: str = TIE_RULE

    @property
    def kept(self) -> list[tuple[int, float]]:
        return list(zip(self.kept_indices.tolist(), self.kept_values.tolist()))


def _top_order(values: np.ndarray) -> np.ndarray:
    # stable sort on -|a| keeps ascending-index order within ties
    return np.argsort(-np.abs(values), kind="stable")


def truncate_top(coeffs: PauliCoefficients, n_keep: int) -> TruncationResult:
    """Keep the n_keep largest-|a| strings (deterministic tie-break)."""
    total = coeffs.values.size
    if not 1 <= n_keep <= total:
        raise ValueError(f"n_keep={n_keep} outside [1, {total}]")
    order = _top_order(coeffs.values)
    kept = order[:n_keep]
    dropped = coeffs.values[order[n_keep:]]
    return TruncationResult(
        n_sites=coeffs.n_sites,
        kept_indices=kept,
        kept_values=coeffs.values[kept],
        dropped_weight=float(stable_sum(np.square(dropped))),
    )


def expectation_zero_state(obj, n_sites: Optional[int] = None) -> float:
    """<0..0| O |0..0> = sum of a_P over the {I, Z}^N strings."""
    if isinstance(obj, TruncationResult):
        mask = zdiag_mask(obj.n_sites)
        return float(stable_sum(obj.kept_values[mask[obj.kept_indices]]))
    if isinstance(obj, PauliCoefficients):
        return float(stable_sum(obj.values[zdiag_mask(obj.n_sites)]))
    raise TypeError("expected PauliCoefficients or TruncationResult")


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
    mask = zdiag_mask(spec.n_sites)
    errors = np.empty((n_realizations, len(np_grid)))
    for real in range(n_realizations):
        coeffs = run_circuit(spec, real)
        order = _top_order(coeffs.values)
        diag_sorted = np.where(mask[order], coeffs.values[order], 0.0)
        # dropped-tail expectation for every cutoff in one suffix sum
        suffix = np.concatenate([np.cumsum(diag_sorted[::-1])[::-1], [0.0]])
        errors[real] = suffix[np_grid]
    mse = np.mean(errors**2, axis=0)
    stderr = (
        np.std(errors**2, axis=0, ddof=1) / math.sqrt(n_realizations)
        if n_realizations > 1
        else np.zeros_like(mse)
    )
    return [
        MsePoint(n, float(m), float(s), n_realizations)
        for n, m, s in zip(np_grid, mse, stderr)
    ]
