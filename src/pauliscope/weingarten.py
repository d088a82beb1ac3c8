"""Symmetric-group combinatorics and (noisy) Weingarten matrices.

Haar averages of n copies of U and U* reduce to sums over permutation
operators: E[(U x U*)^n] = sum_{p,s} Wg_{p,s}(q) |p>><<s| where Wg(q) is
the (pseudo)inverse of the Gram matrix G_{p,s}(q) = q^#(p^-1 s) of
permutation-state overlaps (# counts cycles).  A Haar gate followed by a
depolarizing channel of rate gamma on its full q-dimensional support has
the same form with modified coefficients

    Wg~_{p,s}(q, gamma) = sum_{i=0}^{nF(p,s)} C(nF, i) (gamma/q)^i
                          (1-gamma)^(n-i) Wg^(n-i)_{p~(i), s~(i)}(q),

where nF(p,s) counts common fixed points and p~(i) removes i of them
(which ones is irrelevant: Wg depends only on the cycle type of p^-1 s).

All matrices are dense over a fixed enumeration of S_n (lexicographic by
image, identity first) and memoized per (n, q[, gamma]).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_DEGREE = 8  # 8! = 40320 hard cap on the enumeration


@dataclass(frozen=True)
class Permutation:
    """Element of S_n with its cycle type (lengths, descending) cached."""

    image: tuple[int, ...]
    cycle_type: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise ValueError(f"{self.image} is not a bijection on 0..{n - 1}")
        seen = [False] * n
        lengths = []
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = self.image[j]
                length += 1
            lengths.append(length)
        object.__setattr__(self, "cycle_type", tuple(sorted(lengths, reverse=True)))

    @property
    def cycles(self) -> int:
        return len(self.cycle_type)

    @property
    def fixed_points(self) -> int:
        return self.cycle_type.count(1)

    @property
    def even_cycles_only(self) -> bool:
        return bool(self.cycle_type) and all(c % 2 == 0 for c in self.cycle_type)

    @property
    def degree(self) -> int:
        return len(self.image)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.image):
            inv[j] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.image[j] for j in other.image))


@lru_cache(maxsize=None)
def enumerate_group(n: int) -> tuple[Permutation, ...]:
    """All n! permutations, lexicographic by image; index 0 is the identity."""
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree n={n} outside [1, {MAX_DEGREE}]")
    return tuple(Permutation(img) for img in itertools.permutations(range(n)))


# ---------------------------------------------------------------------------
# vectorized per-degree tables


class _GroupTables:
    """Integer tables for S_n: relative-element index, cycle counts, types."""

    def __init__(self, n: int):
        perms = enumerate_group(n)
        size = len(perms)
        self.n = n
        self.images = np.array([p.image for p in perms], dtype=np.int64)
        self.cycles = np.array([p.cycles for p in perms], dtype=np.int64)
        self.even = np.array([p.even_cycles_only for p in perms], dtype=bool)
        self.fixed_mask = self.images == np.arange(n)[None, :]
        inv_images = np.empty_like(self.images)
        rows = np.arange(size)[:, None]
        inv_images[rows, self.images] = np.arange(n)[None, :]
        # integer code of an image word, used for index lookup
        weights = n ** np.arange(n, dtype=np.int64)
        codes = self.images @ weights
        order = np.argsort(codes)
        # rel[a, b] = index of (sigma_a^-1 sigma_b)
        rel = np.empty((size, size), dtype=np.int32)
        for a in range(size):
            comp = inv_images[a][self.images]  # (size, n)
            pos = np.searchsorted(codes[order], comp @ weights)
            rel[a] = order[pos]
        self.rel = rel
        types = sorted({p.cycle_type for p in perms})
        self.type_index = {t: i for i, t in enumerate(types)}
        self.types = types
        self.type_of = np.array(
            [self.type_index[p.cycle_type] for p in perms], dtype=np.int32
        )
        # common fixed points for every pair
        self.n_common_fixed = (
            self.fixed_mask.astype(np.int16) @ self.fixed_mask.astype(np.int16).T
        ).astype(np.int32)


@lru_cache(maxsize=None)
def _tables(n: int) -> _GroupTables:
    if n > 6:
        # 720^2 pair tables are the supported analytic range (k <= 3)
        raise ValueError(f"group matrices supported for n <= 6, got n={n}")
    return _GroupTables(n)


@dataclass
class GroupMatrix:
    """Dense n! x n! matrix over the fixed enumeration of S_n."""

    n: int
    entries: np.ndarray
    pseudo_inverse: bool = False


@lru_cache(maxsize=None)
def gram_matrix(n: int, q: float) -> GroupMatrix:
    """Overlap matrix G_{p,s}(q) = q^#(p^-1 s); diagonal q^n."""
    if q < 2:
        raise ValueError("q must be >= 2")
    tb = _tables(n)
    return GroupMatrix(n, float(q) ** tb.cycles[tb.rel])


@lru_cache(maxsize=None)
def weingarten_matrix(n: int, q: float) -> GroupMatrix:
    """(Pseudo)inverse of the Gram matrix.

    For q >= n the Gram matrix is invertible: solved in double precision
    (scaled by q^-n for conditioning) with one step of iterative refinement.
    For q < n an SVD pseudoinverse with cutoff 1e-12 * sigma_max is used and
    the result is flagged ``pseudo_inverse``.
    """
    g = gram_matrix(n, q).entries
    scale = float(q) ** n
    gs = g / scale
    if q >= n:
        x = np.linalg.solve(gs, np.eye(len(g)))
        x += np.linalg.solve(gs, np.eye(len(g)) - gs @ x)
        return GroupMatrix(n, x / scale)
    return GroupMatrix(n, np.linalg.pinv(gs, rcond=1e-12) / scale, pseudo_inverse=True)


@lru_cache(maxsize=None)
def _weingarten_by_type(n: int, q: float) -> dict[tuple[int, ...], float]:
    """Cycle type -> Weingarten entry Wg_{e, sigma}(q) for sigma of that type."""
    if n == 0:
        return {(): 1.0}
    tb = _tables(n)
    wg = weingarten_matrix(n, q).entries
    out = {}
    for idx, t in enumerate(tb.type_of):
        out.setdefault(tb.types[t], float(wg[0, idx]))
    return out


@lru_cache(maxsize=None)
def noisy_weingarten(n: int, q: float, gamma: float) -> GroupMatrix:
    """Weingarten coefficients of a Haar gate followed by depolarizing noise.

    Implements the common-fixed-point expansion quoted in the module
    docstring; gamma = 0 returns the plain Weingarten matrix (identical
    object).  Defined for q >= n (the pseudo-inverse regime is flagged
    through the underlying Weingarten matrices).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma} outside [0, 1]")
    if gamma == 0.0:
        return weingarten_matrix(n, q)
    tb = _tables(n)
    # value depends only on (cycle type of p^-1 s, nF(p, s))
    type_ids = tb.type_of[tb.rel]
    pair_code = type_ids.astype(np.int64) * (n + 1) + tb.n_common_fixed
    uniq, inverse = np.unique(pair_code, return_inverse=True)
    values = np.empty(uniq.shape, dtype=float)
    pseudo = False
    for u_pos, code in enumerate(uniq):
        t_id, nf = divmod(int(code), n + 1)
        ctype = list(tb.types[t_id])
        total = 0.0
        for i in range(nf + 1):
            reduced = list(ctype)
            for _ in range(i):
                reduced.remove(1)
            m = n - i
            wg_t = _weingarten_by_type(m, q)
            if m > 0 and weingarten_matrix(m, q).pseudo_inverse:
                pseudo = True
            total += (
                math.comb(nf, i)
                * (gamma / q) ** i
                * (1.0 - gamma) ** (n - i)
                * wg_t[tuple(sorted(reduced, reverse=True))]
            )
        values[u_pos] = total
    return GroupMatrix(n, values[inverse].reshape(tb.rel.shape), pseudo_inverse=pseudo)


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


def permutation_vectors(n: int, q: int) -> np.ndarray:
    """Vectorized permutation operators for n replicas of a q-dim space.

    Row s is |sigma_s>> with interleaved (row, col) index pairs per replica,
    matching kron(M, M, ..., M) ordering of per-replica superoperators; used
    by the Monte-Carlo channel oracles.
    """
    perms = enumerate_group(n)
    out = np.zeros((len(perms), q ** (2 * n)))
    for s_idx, perm in enumerate(perms):
        inv = perm.inverse().image
        v = np.zeros((q,) * (2 * n))
        for idx in itertools.product(range(q), repeat=n):
            pos = [0] * (2 * n)
            for a in range(n):
                pos[2 * a] = idx[a]
                pos[2 * a + 1] = idx[inv[a]]
            v[tuple(pos)] = 1.0
        out[s_idx] = v.reshape(-1)
    return out
