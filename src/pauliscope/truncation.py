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
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .circuits import CircuitSpec
from .driver import ensemble
from .pauli import PauliCoefficients, inverse_pauli_transform, zdiag_mask


def _top_order(values: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` indices by descending |a|, ties broken by ascending
    Pauli index.

    A partition finds the n-th largest |a|; only the entries at least that
    large are sorted, stably and in ascending-index order, so ties keep the
    order a full stable sort would give them.
    """
    mag = np.abs(values)
    candidates = np.arange(mag.size)
    if 0 < n < mag.size:
        cut = np.partition(mag, mag.size - n)[mag.size - n]
        candidates = np.flatnonzero(mag >= cut)
    return candidates[np.argsort(-mag[candidates], kind="stable")[:n]]


def _squared_tails(coeffs: PauliCoefficients, mask: np.ndarray, np_grid: list[int]) -> np.ndarray:
    """Squared zero-state error each cutoff of the grid leaves in one operator.

    The top n strings (by descending |a|, ties to the lower Pauli index) keep
    the diagonal strings with |a| above the cut c_n, the n-th largest |a|,
    and those with |a| = c_n that come first in index order.  The cuts come
    from one partition and one plain sort of the top max(grid) magnitudes,
    and each count from a search of the diagonal's magnitudes; only a run of
    |a| = c_n that straddles the cut, or may go on past the partition, is
    scanned for its strings' indices.  Nothing is ordered but the diagonal:
    its dropped strings, in the same order, are summed from the smallest up
    as one suffix sum.
    """
    values = coeffs.values
    mag = np.abs(values)
    size, most = mag.size, max(np_grid)
    top = np.sort(np.partition(mag, size - most)[size - most:])
    diagonal = values[mask]
    diagonal = diagonal[_top_order(diagonal, diagonal.size)]
    cuts = top[most - np.asarray(np_grid)]
    # top candidates with |a| > c and with |a| >= c; every diagonal string
    # with |a| >= c is kept unless the run of |a| = c straddles the cut or
    # may go on past the partition
    above = most - np.searchsorted(top, cuts, side="right")
    ends = most - np.searchsorted(top, cuts, side="left")
    ascending = np.abs(diagonal[::-1])
    kept = diagonal.size - np.searchsorted(ascending, cuts, side="left")
    for j, n in enumerate(np_grid):
        if ends[j] > n or ends[j] == most < size:
            ties = np.flatnonzero(mag == cuts[j])[:n - above[j]]
            kept[j] = (diagonal.size - np.searchsorted(ascending, cuts[j], side="right")
                       + np.count_nonzero(mask[ties]))
    suffix = np.concatenate([np.cumsum(diagonal[::-1])[::-1], [0.0]])
    return suffix[kept] ** 2


def simulability_bound(norm: float, m2: float, n_paulis: int, n_sites: int) -> float:
    """Worst-case truncation-error lower bound (may be negative = vacuous)."""
    if n_paulis < 1:
        raise ValueError("n_paulis must be >= 1")
    return norm / (2.0 * n_sites) * (m2 - math.log(n_paulis) - 1.0)


def residual_spectral_norm(coeffs: PauliCoefficients, n_keep: int) -> float:
    """Largest singular value of O - O~ by dense eigensolve (N <= 6 scale);
    realizes the adversarial state of the bound."""
    residual = coeffs.values.copy()
    residual[_top_order(residual, n_keep)] = 0.0
    mat = inverse_pauli_transform(PauliCoefficients(coeffs.n_sites, residual))
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def truncation_mse(
    spec: CircuitSpec,
    np_grid: Optional[Sequence[int]] = None,
    n_realizations: int = 100,
    threads: int = 1,
) -> list[dict]:
    """The truncation MSE rows: mean squared error of the zero-state
    expectation after truncation, one row per N_P.

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
    _, mse, stderr = ensemble(spec, [spec.depth], observe, n_realizations, threads)
    return [
        {"N": spec.n_sites, "t": spec.depth, "gamma": spec.gamma, "N_P": n, "mse": m,
         "stderr": s, "n_samples": n_realizations, "seed": spec.master_seed}
        for n, m, s in zip(np_grid, mse[0].tolist(), stderr[0].tolist())
    ]
