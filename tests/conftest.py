"""Shared fixtures and the reference oracles tests compare the package against.

The oracles are written independently of the package's own fast paths: Pauli
words are decoded digit by digit and built by Kronecker products, permutation
states are filled entry by entry, top-N_P truncation is a Python sort, the
replica algebra is the dense n! x n! Gram matrix with its LU solve or SVD
pseudo-inverse, and the staircase transfer matrix is the dense
(2k)! x (2k)! product.  The simulator's block-by-block kernels are graded
against their whole-vector forms: one product over the vector read as
(4^lo, 4^w, 4^hi), one squared copy summed whole, one histogram call.  The
Pauli transform, which checks its imaginary residue before it scales, is
graded against the form that divides the whole complex rotation by D first
and checks after; the class Weingarten solve and the whole staircase sweep
against exact rationals.  The staircase's stacked sweep is graded bit for bit
against one pass of a single running vector, and the pair tables, which read
a class off a permutation's rank, against explicit composition.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from pauliscope.circuits import layer_supports, realization_rng, sample_haar_unitary
from pauliscope.opsim import (
    apply_depolarizing_support,
    apply_gate,
    init_local_pauli,
    pauli_transfer_matrix,
)
from pauliscope.pauli import BLOCK, _SITE_FORWARD, _as_matrix, _interleave, _rotate_legs
from pauliscope.rmpu import rescale_pow2, unscale
from pauliscope.rtn import _wire_basis
from pauliscope.spectrum import HIST_EDGES, HIST_U_MAX, HIST_U_MIN

# every run draws the same examples, so tier-1 reruns are identical
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(n_sites: int, rng) -> np.ndarray:
    d = 2**n_sites
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def decode_pauli(index: int, n_sites: int) -> str:
    """The word over IXYZ of a flat Pauli index (site 0 in the lowest 2 bits)."""
    return "".join("IXYZ"[(index >> (2 * s)) & 3] for s in range(n_sites))


def pauli_matrix(word: str) -> np.ndarray:
    """Dense 2^N x 2^N matrix of a Pauli word (site 0 in the low bits)."""
    m = np.ones((1, 1), dtype=complex)
    for c in word:
        m = np.kron(PAULI_MATRICES[c], m)
    return m


def zdiag_indicator(word: str) -> bool:
    """True iff every letter is I or Z, i.e. Tr[P |0..0><0..0|] = 1."""
    return all(c in "IZ" for c in word)


def permutation_vectors(n: int, q: int) -> np.ndarray:
    """Vectorized permutation operators for n replicas of a q-dim space.

    Row s is |sigma_s>> over the package's enumeration of S_n, with
    interleaved (row, col) index pairs per replica, matching
    kron(M, M, ..., M) ordering of per-replica superoperators.
    """
    images = dense_group(n).images
    out = np.zeros((len(images), q ** (2 * n)))
    for s_idx, image in enumerate(images):
        inv = np.argsort(image)
        v = np.zeros((q,) * (2 * n))
        for idx in itertools.product(range(q), repeat=n):
            pos = [0] * (2 * n)
            for a in range(n):
                pos[2 * a] = idx[a]
                pos[2 * a + 1] = idx[inv[a]]
            v[tuple(pos)] = 1.0
        out[s_idx] = v.reshape(-1)
    return out


def cycle_type(image) -> tuple[int, ...]:
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


@lru_cache(maxsize=None)
def _enumerated_group(n: int) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
    """(images, classes, type_of, code_class) of S_n in ``itertools.permutations``
    order: classes are the sorted cycle types, type_of[s] indexes the class of
    s, and code_class maps the image code sum_j p(j) n^j of a permutation p to
    its class (-1 for a code that is no permutation)."""
    perms = list(itertools.permutations(range(n)))
    types = [cycle_type(p) for p in perms]
    classes = sorted(set(types))
    images = np.array(perms, dtype=np.int64).reshape(len(perms), n)
    type_of = np.array([classes.index(t) for t in types])
    code_class = np.full(n**n, -1, dtype=np.int8)
    code_class[images @ n ** np.arange(n)] = type_of
    return images, classes, type_of, code_class


def composed_pair_tables(n: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """(cls, nf) for the permutations s_a at the indices ``rows`` of S_n and
    every t: s_a^-1 t is composed explicitly (t applied first) and classed by
    following its cycles, through a lookup of its image code; nf counts the
    positions that s_a and t both fix."""
    images, _, _, code_class = _enumerated_group(n)
    inverses = np.argsort(images[rows], axis=1)
    fixed = images == np.arange(n)
    code, nf = 0, np.int8(0)
    for j in range(n):  # position j of s_a^-1 t is s_a^-1(t(j))
        code = code + inverses[:, images[:, j]] * n**j
        nf = nf + np.multiply.outer(fixed[rows, j], fixed[:, j]).astype(np.int8)
    return code_class[code], nf


@lru_cache(maxsize=None)
def dense_group(n: int) -> SimpleNamespace:
    """S_n in ``itertools.permutations`` order with its dense pair tables, the
    ``composed_pair_tables`` of every row: rel_type[a, b] is the class of
    s_a^-1 s_b (s_b applied first), and pair_code[a, b] = rel_type * (n+1) +
    the number of fixed points s_a and s_b share.  Classes are cycle types,
    sorted; class_cycles counts each class's cycles."""
    images, classes, type_of, _ = _enumerated_group(n)
    rel_type, nf = composed_pair_tables(n, slice(None))
    class_cycles = np.array([len(t) for t in classes])
    class_even = np.array([all(c % 2 == 0 for c in t) for t in classes])
    return SimpleNamespace(
        images=images, classes=classes, type_of=type_of, rel_type=rel_type,
        reps=np.unique(type_of, return_index=True)[1], class_cycles=class_cycles,
        cycles=class_cycles[type_of], even=class_even[type_of],
        pair_code=rel_type.astype(np.int64) * (n + 1) + nf)


def dense_gram(n: int, q: float) -> np.ndarray:
    """G_{p,s}(q) = q^#(p^-1 s) over all of S_n."""
    group = dense_group(n)
    return float(q) ** group.class_cycles[group.rel_type]


@lru_cache(maxsize=None)
def dense_weingarten(n: int, q: float) -> np.ndarray:
    """The pseudo-inverse of the dense Gram matrix: for q >= n an LU solve of
    G / q^n with one refinement step, for q < n an SVD pseudo-inverse with
    cutoff 1e-12 sigma_max."""
    scale = float(q) ** n
    gs = dense_gram(n, q) / scale
    if q >= n:
        x = np.linalg.solve(gs, np.eye(len(gs)))
        x += np.linalg.solve(gs, np.eye(len(gs)) - gs @ x)
        return x / scale
    return np.linalg.pinv(gs, rcond=1e-12) / scale


@lru_cache(maxsize=None)
def exact_weingarten(n: int, q: int) -> tuple[Fraction, ...]:
    """Wg(q) by class, sorted cycle types, as exact rationals for q >= n.

    S_n is enumerated by ``itertools.permutations`` (n <= 6 keeps it quick),
    and the class system sum_t q^#(t) Wg(t^-1 s_E) = [s_E = e], one row per
    class representative s_E, is solved by Gauss-Jordan elimination over
    ``fractions.Fraction``."""
    if n > 6 or q < n:
        raise ValueError(f"exact Weingarten needs n <= 6 and q >= n, got n={n}, q={q}")
    perms = list(itertools.permutations(range(n)))
    types = [cycle_type(p) for p in perms]
    classes = sorted(set(types))
    size = len(classes)
    rows = []
    for e, ctype in enumerate(classes):
        rep = perms[types.index(ctype)]
        rep_inv = [rep.index(i) for i in range(n)]
        row = [Fraction(0)] * size + [Fraction(int(e == 0))]
        for t, t_type in zip(perms, types):
            # the class of t^-1 s_E is that of its inverse s_E^-1 t
            rel = tuple(rep_inv[t[i]] for i in range(n))
            row[classes.index(cycle_type(rel))] += Fraction(q) ** len(t_type)
        rows.append(row)
    for c in range(size):
        pivot = next(r for r in range(c, size) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(size):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[size] for row in rows)


def dense_noisy_weingarten(n: int, q: float, gamma: float) -> np.ndarray:
    """Wg~_{p,s}(q, gamma) over all of S_n: the common-fixed-point expansion
    of ``pauliscope.weingarten``'s docstring.  Its i = 0 term is the dense
    pseudo-inverse of S_n itself; each i > 0 term reads Wg^(n-i) off the first
    row of the dense pseudo-inverse of S_(n-i) and is gathered by pair code."""
    wg_of = {(): 1.0}
    for m in range(1, n):
        group = dense_group(m)
        wg_of.update(zip(group.classes, dense_weingarten(m, q)[0, group.reps]))
    group = dense_group(n)
    values = np.zeros(len(group.classes) * (n + 1))
    for t_id, ctype in enumerate(group.classes):
        for nf in range(1, ctype.count(1) + 1):
            values[t_id * (n + 1) + nf] = sum(
                math.comb(nf, i) * (gamma / q) ** i * (1.0 - gamma) ** (n - i)
                * wg_of[ctype[:len(ctype) - i]] for i in range(1, nf + 1))
    return (1.0 - gamma) ** n * dense_weingarten(n, q) + values[group.pair_code]


def dense_transfer(r: int, k: int, gamma: float):
    """Dense (T, L, R) over all of S_2k for staircase blocks on r+1 qubits:
    T = Lam1 Wg~(2 chi, gamma) Lam2 G(chi), L_s = chi^#(s) 1_E(s) and
    R = Lam1 Wg~ Lam2^(r+1) 1, chi = 2^r, with [Lam1]_ss = 2^#(s) and
    [Lam2]_ss = 2^(#(s) + 2*1_E(s) - 2) (``pauliscope.rmpu`` docstring)."""
    n, chi = 2 * k, 2.0**r
    group = dense_group(n)
    lam1 = 2.0 ** group.cycles
    lam2 = 2.0 ** (group.cycles + 2 * group.even - 2)
    wg = dense_noisy_weingarten(n, 2.0 * chi, gamma)
    t = (lam1[:, None] * wg * lam2) @ dense_gram(n, chi)
    left = np.where(group.even, chi ** group.cycles, 0.0)
    return t, left, lam1 * (wg @ lam2 ** (r + 1))


def dense_staircase_moments(r: int, k: int, gamma: float, ms) -> dict[int, float]:
    """L^T T^(m-1) R of ``dense_transfer`` at each m in ``ms``: the running
    vector is scaled by exact powers of two, the exponent kept apart."""
    t, v, right = dense_transfer(r, k, gamma)
    out, exp2 = {}, 0
    for m in range(1, max(ms) + 1):
        if m in ms:
            out[m] = math.ldexp(float(v @ right), exp2)
        v = v @ t
        shift = math.frexp(float(np.max(np.abs(v))))[1]
        v, exp2 = np.ldexp(v, -shift), exp2 + shift
    return out


def one_vector_scaled_product(op, ms) -> list[float]:
    """l^T M^(m-1) w for ``op = (M, l, w)`` at each of the ascending ``ms``,
    read off one pass of a single running vector, v @ M per step, with
    power-of-two rescaling; 0.0 once the vector vanishes."""
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


def exact_staircase_moments(r: int, k: int, gamma: float, ms) -> dict[int, Fraction]:
    """L^T T^(m-1) R (``dense_transfer``) at each m in ``ms`` as exact
    rationals, gamma read exactly from its float; needs k <= 3 and a gate
    dimension q = 2^(r+1) >= 2k (``exact_weingarten``).

    T and R are reduced to the conjugacy classes C of S_2k, the class sums of
    Wg~ and of chi^#(s_C^-1 t) summed over every t of ``itertools.permutations``:
    M[C, D] = |C| sum_{t in D} T[s_C, t] / |D|, l_C = L[s_C], w_C = |C| R[s_C].
    The sweep runs on integers: M = A / den, so l^T M^j w = (l A^j) . w / den^j."""
    n, chi, q, g = 2 * k, 2**r, 2 ** (r + 1), Fraction(gamma)
    wg_of = {(): Fraction(1)}
    for m in range(1, n + 1):
        wg_of.update(zip(sorted({cycle_type(p) for p in itertools.permutations(range(m))}),
                         exact_weingarten(m, q)))

    @lru_cache(maxsize=None)
    def noisy(ctype, nf):
        return sum(math.comb(nf, i) * (g / q) ** i * (1 - g) ** (n - i)
                   * wg_of[ctype[:len(ctype) - i]] for i in range(nf + 1))

    perms = list(itertools.permutations(range(n)))
    types = [cycle_type(p) for p in perms]
    classes = sorted(set(types))
    type_ids = [classes.index(t) for t in types]
    size = len(classes)
    wbar = [[Fraction(0)] * size for _ in classes]
    gram = [[0] * size for _ in classes]
    for c, ctype in enumerate(classes):
        rep = perms[types.index(ctype)]
        inv = [rep.index(i) for i in range(n)]
        for p, e in zip(perms, type_ids):
            rel = cycle_type([inv[p[j]] for j in range(n)])
            nf = sum(rep[j] == j == p[j] for j in range(n))
            wbar[c][e] += noisy(rel, nf)
            gram[c][e] += chi ** len(rel)
    sizes = [types.count(t) for t in classes]
    even = [all(x % 2 == 0 for x in t) for t in classes]
    lam1 = [2 ** len(t) for t in classes]
    lam2 = [Fraction(2) ** (len(t) + 2 * e - 2) for t, e in zip(classes, even)]
    mat = [[sizes[c] * lam1[c] * sum(wbar[c][e] * lam2[e] * gram[e][d] for e in range(size))
            / sizes[d] for d in range(size)] for c in range(size)]
    left = [chi ** len(t) if e else 0 for t, e in zip(classes, even)]
    right = [sizes[c] * lam1[c] * sum(wbar[c][e] * lam2[e] ** (r + 1) for e in range(size))
             for c in range(size)]
    den = math.lcm(*(x.denominator for row in mat for x in row))
    a = [[int(x * den) for x in row] for row in mat]
    out, v = {}, left
    for m in range(1, max(ms) + 1):
        if m in ms:
            out[m] = sum(x * y for x, y in zip(v, right)) / Fraction(den) ** (m - 1)
        v = [sum(v[c] * a[c][d] for c in range(size)) for d in range(size)]
    return out


def dense_gate_kernel(k: int, gamma: float) -> np.ndarray:
    """One gate's (rank^2, rank^2) replica kernel in wire coordinates, summed
    densely: K[(s p), (u v)] = sum_{a,d} C[s,a] C[p,a] Wg~_{a,d} C[u,d] C[v,d]."""
    coords = _wire_basis(2 * k)[0]
    rank = coords.shape[0]
    y = np.einsum("sa,pa,ad->spad", coords, coords, dense_noisy_weingarten(2 * k, 4.0, gamma))
    y = np.einsum("spad,ud,vd->spuv", y, coords, coords, optimize=True)
    return y.reshape(rank * rank, rank * rank)


def dense_rtn_series(spec, k: int, depths) -> dict[int, float]:
    """Reference nu_k of the replica network of a brickwork chain at each depth
    in ``depths``, from the full r^N wire-coordinate tensor.

    Every gate, inside the lightcone or not, is applied to its two axes as
    A @ (Wg~ A^T @ state), A[(s p), a] = C[s, a] C[p, a], with no rescaling.
    Until a gate reaches the seed, the seed wire's top contraction is
    q^(2k-2) = 4^(k-1), the raw seed's own value.
    """
    coords, f_top, g_op = _wire_basis(2 * k)
    r, n, seed = coords.shape[0], spec.n_sites, spec.initial_site
    a = np.einsum("sa,pa->spa", coords, coords).reshape(r * r, -1)
    wa = dense_noisy_weingarten(2 * k, 4.0, spec.gamma) @ a.T
    state = np.ones(())
    for s in range(n):
        state = np.multiply.outer(state, g_op if s == seed else coords[:, 0])
    touched, out = False, {}
    for t in range(max(depths) + 1):
        if t in depths:
            top = [f_top] * n
            if not touched:
                top[seed] = g_op * (4.0 ** (k - 1) / (g_op @ g_op))
            value = state
            for w in reversed(top):
                value = value @ w
            out[t] = float(value)
        if t < max(depths):
            for i, j in layer_supports(spec, t):
                touched |= seed in (i, j)
                x = np.moveaxis(state, (i, j), (0, 1))
                y = a @ (wa @ x.reshape(r * r, -1))
                state = np.moveaxis(y.reshape(x.shape), (0, 1), (i, j))
    return out


def embedded_unitary(u, support, n):
    """Reference full-space embedding with support[m] as bit m."""
    w = len(support)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**n):
        gi = sum(((i >> support[m]) & 1) << m for m in range(w))
        base = i
        for m in range(w):
            base &= ~(1 << support[m])
        for gj in range(2**w):
            j = base
            for m in range(w):
                j |= ((gj >> m) & 1) << support[m]
            full[i, j] = u[gi, gj]
    return full


def site_twirl(site: int, n: int) -> np.ndarray:
    """The D^2 x D^2 superoperator O -> Tr_s[O] x 1_s/2 on the row-major
    vec(O): the mean of P_s O P_s over the four Paulis P, where vec(A O A^dag)
    = kron(A, conj(A)) vec(O).  It is real."""
    paulis = [embedded_unitary(p, (site,), n) for p in PAULI_MATRICES.values()]
    return sum(np.kron(p, p.conj()) for p in paulis).real / 4


def dense_circuit_layers(spec, realization):
    """Reference run of a circuit on the dense D x D operator, yielding (t, O)
    after every layer.

    Gates are drawn in the simulator's order and every one is applied by
    conjugation with its embedded unitary (no lightcone).  A depolarizing
    channel on a site set S is the superoperator (1-g) 1 + g prod_{s in S} T_s
    on vec(O), T_s the twirl of site s; per-qubit noise acts on every site
    after each layer, idle ones included.
    """
    n = spec.n_sites
    rng = realization_rng(spec.master_seed, realization)
    twirls = {}

    def depolarize(mat, sites):
        vec = traced = mat.reshape(-1)
        for s in sites:
            if s not in twirls:
                twirls[s] = site_twirl(s, n)
            traced = twirls[s] @ traced
        return ((1.0 - spec.gamma) * vec + spec.gamma * traced).reshape(mat.shape)

    mat = embedded_unitary(PAULI_MATRICES["Z"], (spec.initial_site,), n)
    for t in range(spec.depth):
        for support in layer_supports(spec, t):
            full = embedded_unitary(sample_haar_unitary(2 ** len(support), rng), support, n)
            mat = full @ mat @ full.conj().T
            if spec.noise_placement == "per_gate_support":
                mat = depolarize(mat, support)
        if spec.noise_placement == "per_qubit_per_layer":
            for s in range(n):
                mat = depolarize(mat, (s,))
        yield t + 1, mat


def unfolded_per_gate_layers(spec, realization):
    """Reference run of a per_gate_support circuit on the Pauli coefficients,
    yielding (t, coefficients) after every layer.

    Gates are drawn in the simulator's order; every one is applied with its
    own unscaled transfer matrix (no lightcone), and its joint depolarizing
    channel follows as a separate ``apply_depolarizing_support`` pass.
    """
    supports = [s for t in range(spec.depth) for s in layer_supports(spec, t)]
    rng = realization_rng(spec.master_seed, realization)
    gates = iter(sample_haar_unitary(2 ** len(supports[0]), rng, len(supports)))
    op = init_local_pauli(spec.n_sites, spec.initial_site, "Z")
    for t in range(spec.depth):
        for support in layer_supports(spec, t):
            apply_gate(op, support, pauli_transfer_matrix(next(gates)))
            apply_depolarizing_support(op, spec.gamma, support)
        yield t + 1, op


def truncate_top(values, n_keep: int) -> list[int]:
    """Indices of the n_keep largest |a|, ties to the lower Pauli index."""
    return sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))[:n_keep]


def divide_then_check_transform(op) -> np.ndarray:
    """The Pauli coefficients of an operator or a stack, made by dividing the
    complex rotation by D and then checking its imaginary part against
    1e-10 max(1, max|Re|); raises with that divided residue."""
    mat, n = _as_matrix(op)
    batch = mat.shape[:-2]
    t = _rotate_legs(_interleave(mat, n), n, _SITE_FORWARD).reshape(batch + (4**n,)) / 2**n
    scale = np.maximum(1.0, np.max(np.abs(t.real), axis=-1))
    resid = np.max(np.abs(t.imag), axis=-1)
    over = resid > 1e-10 * scale
    if over.any():
        first = np.unravel_index(np.argmax(over), over.shape)
        which = f" of operator {', '.join(map(str, first))}" if batch else ""
        raise ValueError(
            f"imaginary residue {resid[first]:.3e}{which} exceeds tolerance "
            "(non-Hermitian input?)"
        )
    return np.ascontiguousarray(t.real)


def whole_vector_gate(values, n: int, support, r) -> np.ndarray:
    """The coefficient vector after the gate with transfer matrix ``r`` on
    ``support``, made as one product over the whole vector read as
    (4^lo, 4^w, 4^hi), with the support's axes moved in a full copy."""
    w = len(support)
    src = [n - 1 - s for s in reversed(support)]
    lo = n - w - min(support)
    dst = list(range(lo, lo + w))
    x = np.moveaxis(values.reshape((4,) * n), src, dst).reshape(4**lo, 4**w, -1)
    out = x[:, :, 0] @ r.T if x.shape[2] == 1 else r @ x
    return np.moveaxis(out.reshape((4,) * n), dst, src).reshape(-1)


def whole_vector_moment_nu(values, n: int, ks) -> list[float]:
    """nu_k = D^(2k-2) sum a^(2k) for each k, each one numpy sum over the
    whole vector of a^(2k), made as a running product of copies of a^2."""
    a2 = np.square(values)
    power, nu = a2.copy(), {}
    for k in range(1, max(ks) + 1):
        if k >= 2:
            power *= a2
        nu[k] = 2.0 ** (n * (2 * k - 2)) * float(np.sum(power))
    return [nu[k] for k in ks]


def whole_vector_histogram(values, n: int) -> np.ndarray:
    """The spectrum histogram of one coefficient vector from one histogram
    call over all its clipped u = D^2 pi(P)."""
    u = np.square(values)
    u = u / float(np.sum(u)) * float(4.0**n)
    below = int(np.count_nonzero(u < HIST_U_MIN))
    counts = np.histogram(np.clip(u, HIST_U_MIN, np.nextafter(HIST_U_MAX, 0.0)),
                          bins=HIST_EDGES)[0].astype(float)
    counts[0] -= below
    return np.append(counts / 4.0**n / np.diff(HIST_EDGES), below / 4.0**n)


#: what one call of a blocked simulator kernel may allocate: three blocks
#: (the product's buffer, a moved block's copy, or a^2 and its kept copy, and
#: the next such copy made before the last is freed), plus 16 KiB for
#: Python's own objects
BLOCKED_PEAK_BYTES = 3 * 8 * BLOCK + 2**14


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
