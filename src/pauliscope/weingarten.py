"""Symmetric-group tables and (noisy) Weingarten functions in class coordinates.

Haar averages of n copies of U and U* reduce to sums over permutation
operators: E[(U x U*)^n] = sum_{p,s} Wg(p^-1 s; q) |p>><<s|, Wg the
pseudo-inverse of the Gram matrix G_{p,s}(q) = q^#(p^-1 s) (# counts
cycles).  Both depend on p^-1 s only through its cycle type (Collins &
Sniady, CMP 264 (2006)), so Wg by class solves the p(n) x p(n) system

    A w = delta_e,    A[E, D] = sum_{t: s_E^-1 t in D} q^#(t),

s_E a representative of class E.  For q < n the permutation operators are
linearly dependent and A is singular; its pseudo-inverse in the class inner
product (weights |C|) *is* the Weingarten function: the sum above is still
the exact Haar average.  A Haar gate followed by a depolarizing channel of
rate gamma on its full q-dimensional support has the same form with

    Wg~_{p,s}(q, gamma) = sum_{i=0}^{nF(p,s)} C(nF, i) (gamma/q)^i
                          (1-gamma)^(n-i) Wg^(n-i)(p~(i)^-1 s~(i); q),

where nF(p,s) counts common fixed points and p~(i) removes i of them
(which ones is irrelevant: only the cycle type of p^-1 s matters).

S_n is enumerated in ``itertools.permutations`` order (identity first).  The
only pair tables are row blocks, ``_GroupTables.pairs``: the class of
s_a^-1 t and nF(s_a, t) for chosen rows s_a and every t.  ``_tables`` keeps
those of the p(n) class representatives, so no table has more than p(n) n!
entries.  Tables are built on first use and memoized; the degree is capped
at MAX_DEGREE, checked in ``_tables`` alone.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

#: largest degree n: at n = 8 (k <= 4) the representatives' tables are 22 x 40320
MAX_DEGREE = 8


def _partitions(n: int, largest: int) -> list[tuple[int, ...]]:
    """Partitions of n into parts <= ``largest``, each as a descending tuple."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, first)]


class _GroupTables:
    """S_n: images, classes (cycle types, sorted), and the representatives' pair tables."""

    def __init__(self, n: int):
        self.images = images = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        self.types = sorted(_partitions(n, n))
        # a cycle type's code: each element adds (n+1)^(l-1), l the length of its cycle
        codes = np.array([sum(l * (n + 1) ** (l - 1) for l in t) for t in self.types])
        self._code_order = np.argsort(codes)
        self._sorted_codes = codes[self._code_order]
        self._fixed = (images == np.arange(n)).astype(np.int8)
        self.type_of = self._classes(images)
        self.reps = np.unique(self.type_of, return_index=True)[1]
        self.sizes = np.bincount(self.type_of)
        self.cycles = np.array([len(t) for t in self.types])[self.type_of]
        self.even = np.array([all(c % 2 == 0 for c in t) for t in self.types])[self.type_of]
        self.rep_class, self.rep_fixed = self.pairs(self.reps)

    def _classes(self, images: np.ndarray) -> np.ndarray:
        """Class id of each row of ``images``, by following every element's cycle."""
        m, n = images.shape
        flat, offsets = images.ravel(), np.arange(0, m * n, n)[:, None]
        cur, unclosed = images, np.ones(images.shape, dtype=bool)
        code = np.zeros(m, dtype=np.int64)
        for length in range(1, n + 1):
            closed = unclosed & (cur == np.arange(n))
            code += np.count_nonzero(closed, axis=1) * (n + 1) ** (length - 1)
            unclosed &= ~closed
            cur = flat[cur + offsets]
        return self._code_order[np.searchsorted(self._sorted_codes, code)]

    def pairs(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(cls, nf), int8, for s_a at ``rows`` (indices or a slice) and every t:
        cls[a, t] is the class of s_a^-1 t (t applied first), read off its
        rank, and nf[a, t] the number of fixed points s_a and t share.  Built
        one row at a time."""
        inverses = np.argsort(self.images[rows], axis=1)
        columns = np.ascontiguousarray(self.images.T)
        cls = np.stack([self.type_of[_rank(inv[columns])].astype(np.int8) for inv in inverses])
        return cls, self._fixed[rows] @ self._fixed.T


def _rank(columns: np.ndarray) -> np.ndarray:
    """Index in ``itertools.permutations`` order of each permutation p whose
    images p(i) are ``columns[i]``: its Lehmer code, sum_i (n-1-i)! #{j > i:
    p(j) < p(i)}, by Horner's rule."""
    rank = np.zeros(columns.shape[1], dtype=np.intp)
    for i in range(len(columns) - 1):
        rank *= len(columns) - i
        rank += (columns[i + 1:] < columns[i]).sum(axis=0)
    return rank


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
    """A[E, D] = sum over t with s_E^-1 t in class D of q^#(t): the Gram
    matrix G(q) on class functions, p(n) x p(n), exact for integer q."""
    if q < 2:
        raise ValueError("q must be >= 2")
    tb = _tables(n)
    return _read_only(np.stack([np.bincount(row, float(q) ** tb.cycles, minlength=len(tb.types))
                                for row in tb.rep_class]))


@lru_cache(maxsize=None)
def weingarten_matrix(n: int, q: float) -> np.ndarray:
    """Wg(q) by class from A w = delta_e, A scaled by q^-n: for q >= n a solve
    with one refinement step; for q < n the pseudo-inverse of the
    sqrt|C|-symmetrized A, eigenvalues below 1e-12 of the largest dropped."""
    scale = float(q) ** n
    a = gram_matrix(n, q) / scale
    delta = np.eye(len(a))[0]  # class 0 is the identity's
    if q >= n:
        w = np.linalg.solve(a, delta)
        w += np.linalg.solve(a, delta - a @ w)
    else:
        root = np.sqrt(_tables(n).sizes)
        evals, evecs = np.linalg.eigh(root[:, None] * a / root)
        keep = evals > 1e-12 * evals[-1]
        w = evecs[:, keep] @ (evecs[0, keep] / evals[keep]) / root
    return _read_only(w / scale)


def noisy_weingarten(n: int, q: float, gamma: float, rows=None) -> np.ndarray:
    """Wg~_{s_a, t}(q, gamma) of a Haar gate followed by depolarizing noise
    (module docstring, valid for every q >= 2), for the rows s_a at ``rows``
    (indices or a slice; by default the class representatives) and every t.
    The expansion is taken per class and nF, then read off the rows' pair
    tables; gamma = 0 gives the plain Weingarten function bit for bit."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1]")
    tb = _tables(n)
    # Wg^(m)(q) by cycle type, m <= n (types of different m differ); S_0: Wg = 1
    wg_of = {(): 1.0}
    for m in range(1, n + 1):
        wg_of.update(zip(_tables(m).types, weingarten_matrix(m, q).tolist()))
    values = np.full((len(tb.types), n + 1), np.nan)
    for t_id, ctype in enumerate(tb.types):
        for nf in range(ctype.count(1) + 1):  # a type lists its 1-cycles last
            values[t_id, nf] = sum(math.comb(nf, i) * (gamma / q) ** i * (1.0 - gamma) ** (n - i)
                                   * wg_of[ctype[:len(ctype) - i]] for i in range(nf + 1))
    cls, nf = (tb.rep_class, tb.rep_fixed) if rows is None else tb.pairs(rows)
    return values[cls, nf]


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
