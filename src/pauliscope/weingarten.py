"""Symmetric-group tables and (noisy) Weingarten matrices as plain arrays.

Haar averages of n copies of U and U* reduce to sums over permutation
operators: E[(U x U*)^n] = sum_{p,s} Wg_{p,s}(q) |p>><<s| where Wg(q) is
the pseudo-inverse of the Gram matrix G_{p,s}(q) = q^#(p^-1 s) of
permutation-state overlaps (# counts cycles).  For q >= n the Gram matrix
is invertible and Wg is its inverse; for q < n the permutation operators are
linearly dependent, G is singular, and its pseudo-inverse *is* the
Weingarten matrix: the sum above is still the exact Haar average.  A Haar
gate followed by a depolarizing channel of rate gamma on its full
q-dimensional support has the same form with modified coefficients

    Wg~_{p,s}(q, gamma) = sum_{i=0}^{nF(p,s)} C(nF, i) (gamma/q)^i
                          (1-gamma)^(n-i) Wg^(n-i)_{p~(i), s~(i)}(q),

where nF(p,s) counts common fixed points and p~(i) removes i of them
(which ones is irrelevant: Wg depends only on the cycle type of p^-1 s).

Every matrix is a dense n! x n! numpy array over one enumeration of S_n,
``itertools.permutations`` order (lexicographic by image, identity first).
Gram and Weingarten matrices are memoized per (n, q) and shared between
callers; the noisy matrix is built per call.  All are read-only.  The
degree is capped at MAX_DEGREE, checked in ``_tables`` alone.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

#: largest degree n: the pair tables are 720 x 720 at n = 6, i.e. k <= 3
MAX_DEGREE = 6
#: rows of the relative-index table built per step; at n = 6 each int64 code
#: temporary is then 0.7 MB, against 4 MB for all 720 rows at once
_REL_BLOCK = 120


def _cycle_type(image: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of a permutation, descending."""
    seen = [False] * len(image)
    lengths = []
    for start in range(len(image)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = image[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class _GroupTables:
    """Integer tables for S_n: relative index, cycle counts, types, pair codes."""

    def __init__(self, n: int):
        perms = list(itertools.permutations(range(n)))
        cycle_types = [_cycle_type(p) for p in perms]
        size = len(perms)
        self.images = np.array(perms, dtype=np.int64)
        self.cycles = np.array([len(t) for t in cycle_types], dtype=np.int64)
        self.even = np.array([all(c % 2 == 0 for c in t) for t in cycle_types], dtype=bool)
        inv_images = np.empty_like(self.images)
        rows = np.arange(size)[:, None]
        inv_images[rows, self.images] = np.arange(n)[None, :]
        # lookup[code of an image word] = its index, code = sum_j image[j] n^j
        lookup = np.zeros(n**n, dtype=np.int32)
        lookup[self.images @ n ** np.arange(n, dtype=np.int64)] = np.arange(size)
        # rel[a, b] = index of (sigma_a^-1 sigma_b), _REL_BLOCK rows at a time
        rel = np.empty((size, size), dtype=np.int32)
        for lo in range(0, size, _REL_BLOCK):
            inv = inv_images[lo:lo + _REL_BLOCK]
            codes = sum(inv[:, self.images[:, j]] * n**j for j in range(n))
            rel[lo:lo + _REL_BLOCK] = lookup[codes]
        self.rel = rel
        self.types = sorted(set(cycle_types))
        type_index = {t: i for i, t in enumerate(self.types)}
        self.type_of = np.array([type_index[t] for t in cycle_types], dtype=np.int32)
        # reps[t]: the first permutation of type t
        self.reps = np.unique(self.type_of, return_index=True)[1]
        # noisy Weingarten entries depend only on (cycle type of p^-1 s, nF(p, s)),
        # with nF the number of common fixed points: pair_code = type id * (n+1) + nF
        fixed = (self.images == np.arange(n)[None, :]).astype(np.int16)
        self.pair_code = self.type_of[rel] * (n + 1) + fixed @ fixed.T


@lru_cache(maxsize=None)
def _tables(n: int) -> _GroupTables:
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree n={n} outside [1, {MAX_DEGREE}]")
    return _GroupTables(n)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def gram_matrix(n: int, q: float) -> np.ndarray:
    """Overlap matrix G_{p,s}(q) = q^#(p^-1 s); diagonal q^n."""
    if q < 2:
        raise ValueError("q must be >= 2")
    tb = _tables(n)
    return _read_only(float(q) ** tb.cycles[tb.rel])


@lru_cache(maxsize=None)
def weingarten_matrix(n: int, q: float) -> np.ndarray:
    """Weingarten matrix: the pseudo-inverse of the Gram matrix.

    For q >= n the Gram matrix is invertible: solved in double precision
    (scaled by q^-n for conditioning) with one step of iterative refinement.
    For q < n it is singular and an SVD pseudo-inverse with cutoff
    1e-12 * sigma_max is the Weingarten matrix (module docstring).
    """
    g = gram_matrix(n, q)
    scale = float(q) ** n
    gs = g / scale
    if q >= n:
        x = np.linalg.solve(gs, np.eye(len(g)))
        x += np.linalg.solve(gs, np.eye(len(g)) - gs @ x)
        return _read_only(x / scale)
    return _read_only(np.linalg.pinv(gs, rcond=1e-12) / scale)


def noisy_weingarten(n: int, q: float, gamma: float) -> np.ndarray:
    """Weingarten coefficients of a Haar gate followed by depolarizing noise.

    Implements the common-fixed-point expansion quoted in the module
    docstring, one value per pair code; gamma = 0 returns the plain
    Weingarten matrix (identical object).  Valid for every q >= 2: for q < n
    the expansion's Weingarten matrices are the pseudo-inverses of the module
    docstring.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1]")
    if gamma == 0.0:
        return weingarten_matrix(n, q)
    tb = _tables(n)
    # Wg^(m)(q) by cycle type, m <= n (types of different m differ); S_0: Wg = 1
    wg_of = {(): 1.0}
    for m in range(1, n + 1):
        wg_of.update(zip(_tables(m).types, weingarten_matrix(m, q)[0, _tables(m).reps].tolist()))
    values = np.full(len(tb.types) * (n + 1), np.nan)
    for t_id, ctype in enumerate(tb.types):
        for nf in range(ctype.count(1) + 1):
            total = 0.0
            for i in range(nf + 1):
                # a type lists its 1-cycles last: removing i fixed points drops them
                total += (math.comb(nf, i) * (gamma / q) ** i * (1.0 - gamma) ** (n - i)
                          * wg_of[ctype[:len(ctype) - i]])
            values[t_id * (n + 1) + nf] = total
    return _read_only(values[tb.pair_code])


# ---------------------------------------------------------------------------
# replica boundary weights


def pauli_sum_weights(n: int, d: float) -> np.ndarray:
    """Per-site weight of summing all d^2 Paulis against sigma, with the
    D^-2 normalization absorbed: d^(#(sigma) + 2*1_E(sigma) - 2)."""
    tb = _tables(n)
    return d ** (tb.cycles + 2 * tb.even.astype(np.int64) - 2).astype(float)


def traceless_seed_weights(n: int, d: float) -> np.ndarray:
    """Overlap of sigma with 2k copies of a traceless involution (a Pauli):
    d^#(sigma) on even-cycle-only permutations, else 0."""
    tb = _tables(n)
    return np.where(tb.even, d ** tb.cycles.astype(float), 0.0)
