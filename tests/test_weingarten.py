import itertools
import math
from fractions import Fraction
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauliscope.circuits import sample_haar_unitary
from pauliscope.weingarten import (
    _GroupTables,
    _tables,
    gram_matrix,
    noisy_weingarten,
    weingarten_matrix,
)

from conftest import (
    dense_gram,
    dense_group,
    dense_noisy_weingarten,
    dense_weingarten,
    exact_weingarten,
    permutation_vectors,
)


def index_of(image) -> int:
    return _tables(len(image)).images.tolist().index(list(image))


def test_enumeration():
    assert _tables(2).images.tolist() == [[0, 1], [1, 0]]
    for n in range(1, 9):
        assert _tables(n).images.tolist() == [list(p) for p in itertools.permutations(range(n))]
    tb = _tables(4)
    assert np.count_nonzero(tb.even & (tb.cycles == 2)) == 3  # the pairings
    for n in (0, 9):
        with pytest.raises(ValueError):
            _tables(n)


def test_cycle_statistics():
    swap12 = index_of((1, 0, 2))  # (12)(3)
    assert _tables(3).cycles[swap12] == 2
    assert not _tables(3).even[swap12]
    tb = _tables(4)  # index 0 is the identity, with its 4 fixed points
    assert tb.cycles[0] == 4 and not tb.even[0]
    assert tb.reps[0] == 0 and tb.type_of[0] == 0
    assert (tb.rep_class[0, 0], tb.rep_fixed[0, 0]) == (0, 4)
    pairing = index_of((1, 0, 3, 2))
    assert tb.cycles[pairing] == 2 and tb.even[pairing]
    assert [int(tb.sizes[c]) for c in range(5)] == [1, 6, 3, 8, 6]  # 1^4, 2 1^2, 2^2, 3 1, 4


def brute_force_cycle_type(image) -> tuple[int, ...]:
    """Orbit sizes of the permutation, descending."""
    orbits = set()
    for i in range(len(image)):
        orbit, j = {i}, image[i]
        while j != i:
            orbit.add(j)
            j = image[j]
        orbits.add(frozenset(orbit))
    return tuple(sorted((len(o) for o in orbits), reverse=True))


@given(st.integers(1, 6).flatmap(lambda n: st.permutations(range(n))))
def test_cycle_type_statistics_agree(image):
    tb = _tables(len(image))
    row = index_of(image)
    cycle_type = brute_force_cycle_type(image)
    n_fixed = sum(image[i] == i for i in range(len(image)))
    assert tb.cycles[row] == len(cycle_type)
    assert tb.even[row] == all(c % 2 == 0 for c in cycle_type)
    assert tb.types[tb.type_of[row]] == cycle_type
    # e^-1 sigma = sigma, and e shares every fixed point of sigma
    assert (tb.rep_class[0, row], tb.rep_fixed[0, row]) == (tb.type_of[row], n_fixed)


def test_permutation_compose_inverse():
    # pairs(rows)[0][a, b] is the class of sigma_a^-1 sigma_b (sigma_b applied first)
    tb = _tables(3)
    images = [tuple(img) for img in tb.images.tolist()]
    index = {img: i for i, img in enumerate(images)}
    cls, nf = tb.pairs(slice(None))
    for ia, pa in enumerate(images):
        inv = np.argsort(pa)
        assert cls[ia, ia] == 0
        for ib, pb in enumerate(images):
            assert cls[ia, ib] == tb.type_of[index[tuple(int(inv[j]) for j in pb)]]
            assert nf[ia, ib] == sum(pa[j] == j == pb[j] for j in range(3))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_representative_pair_tables_match_brute_force(n):
    """The representatives' class and shared-fixed-point tables against a
    brute-force cycle type of sigma_C^-1 tau over ``itertools.permutations``."""
    tb = _tables(n)
    perms = list(itertools.permutations(range(n)))
    for row, c in enumerate(tb.reps):
        sigma = perms[c]
        inv = [sigma.index(j) for j in range(n)]
        assert tb.types[row] == brute_force_cycle_type(sigma)
        for t, tau in enumerate(perms):
            rel = tuple(inv[tau[j]] for j in range(n))
            assert tb.types[tb.rep_class[row, t]] == brute_force_cycle_type(rel)
            assert tb.rep_fixed[row, t] == sum(sigma[j] == j == tau[j] for j in range(n))


def test_degree_8_tables_are_small_and_quick():
    """Building S_8's tables (k = 4) takes seconds and tens of MB, and no array
    they hold has more than p(n) n! entries: no n! x n! table grows back."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        tb = _GroupTables(8)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 3.0 and peak < 50e6, (elapsed, peak)
    cap = len(tb.types) * math.factorial(8)
    assert len(tb.types) == 22
    for name, value in vars(tb).items():  # arrays, and the list of cycle types
        assert (value.size if isinstance(value, np.ndarray) else len(value)) <= cap, name


def test_gram_examples():
    assert np.array_equal(gram_matrix(2, 4), [[16, 4], [4, 16]])
    assert gram_matrix(1, 7)[0, 0] == 7
    # A[E, D] is the dense Gram row of s_E summed over class D, and |E| A[E, D]
    # is symmetric
    for n, q in ((4, 2), (5, 3), (6, 8)):
        tb, group = _tables(n), dense_group(n)
        a = gram_matrix(n, q)
        dense_rows = dense_gram(n, q)[tb.reps]
        assert np.array_equal(a, [[dense_rows[e, group.type_of == d].sum() for d in range(len(a))]
                                  for e in range(len(a))])
        assert np.array_equal(tb.sizes[:, None] * a, (tb.sizes[:, None] * a).T)
    with pytest.raises(ValueError):
        gram_matrix(2, 1)


def test_weingarten_hand_values():
    w = weingarten_matrix(2, 4)
    assert abs(w[0] - 1 / 15) < 1e-14
    assert abs(w[1] + 1 / 60) < 1e-14
    assert abs(weingarten_matrix(1, 5)[0] - 0.2) < 1e-15


#: largest relative error of a class Weingarten entry against exact rationals,
#: per degree, at q >= n: about twice the worst measured (n=2: 5.6e-17; n=4:
#: 7.1e-16 at q=4; n=6: 1.8e-14 at q=6)
EXACT_WG_BOUND = {2: 1e-16, 4: 1.5e-15, 6: 4e-14}


def test_exact_weingarten_oracle_has_the_closed_form_at_n_2():
    """Wg(e) = 1/(q^2-1) and Wg((12)) = -1/(q(q^2-1)), exactly."""
    for q in (2, 3, 4, 16, 1024):
        assert exact_weingarten(2, q) == (Fraction(1, q * q - 1), Fraction(-1, q * (q * q - 1)))
    with pytest.raises(ValueError):
        exact_weingarten(4, 3)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_weingarten_matches_exact_rationals(n):
    """The class solve at q >= n, each entry within ``EXACT_WG_BOUND[n]`` of
    the exact rational, relative to it; q = n is the worst conditioned."""
    for q in sorted({n, n + 1, 2, 4, 8, 16, 32, 64, 1024}):
        if q < n:
            continue
        got = weingarten_matrix(n, float(q))
        for value, exact in zip(got.tolist(), exact_weingarten(n, q)):
            assert abs(Fraction(value) - exact) <= EXACT_WG_BOUND[n] * abs(exact), (q, exact)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("q", [2, 4, 8])
def test_gram_weingarten_consistency(n, q):
    """Wg by class against the dense oracle's pseudo-inverse, at its class
    representatives' row; and G Wg G = G in class coordinates."""
    a, w = gram_matrix(n, q), weingarten_matrix(n, q)
    dense = dense_weingarten(n, q)[0, dense_group(n).reps]
    assert np.max(np.abs(w - dense)) <= 1e-12 * np.max(np.abs(dense))
    resid = np.max(np.abs(a @ (a @ w) - a[:, 0])) / np.max(a[:, 0])
    assert resid < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_weingarten_sum_identities(n):
    """sum_s Wg(s) = 1 / prod_{i<n} (q + i) for every q, and sum_s sgn(s) Wg(s)
    = 1 / prod_{i<n} (q - i) for q >= n, 0 for q < n, at q on both sides of n.
    Each sum is compared at the scale of its own terms, sum_s |Wg(s)| (measured
    errors up to 7.7e-14 of it, the sign sum at n=8, q=7)."""
    tb = _tables(n)
    signs = np.array([(-1) ** (n - len(t)) for t in tb.types])
    for q in sorted({2, 3, n - 1, n, n + 1, 2 * n, 64} - {1}):
        w = weingarten_matrix(n, q)
        magnitude = tb.sizes @ np.abs(w)
        want = 1.0 / math.prod(q + i for i in range(n))
        assert abs(tb.sizes @ w - want) <= 1e-12 * magnitude, q
        want = 1.0 / math.prod(q - i for i in range(n)) if q >= n else 0.0
        assert abs((tb.sizes * signs) @ w - want) <= 1e-12 * magnitude, q


def test_weingarten_class_function():
    # the full rows (the pair tables of every row) against the dense oracle
    group = dense_group(3)
    full = noisy_weingarten(3, 5, 0.0, rows=slice(None))
    assert np.max(np.abs(full - dense_weingarten(3, 5))) < 1e-15
    rel_types = group.type_of[group.rel]
    for t in np.unique(rel_types):
        assert np.ptp(full[rel_types == t]) == 0.0


def test_weingarten_leading_order():
    tb = _tables(4)
    pairing_class = tb.type_of[index_of((1, 0, 3, 2))]
    for q in (8.0, 16.0, 32.0):
        w = weingarten_matrix(4, q)
        # M(e) = 1 at order q^(# - 2n) = q^-4; M(pairing) = (-1)^(n/2) = +1
        assert abs(w[0] - q**-4) < 30 * q**-6
        assert abs(w[pairing_class] - q**-6) < 30 * q**-8


def test_noisy_weingarten_reductions():
    # gamma = 0 reads the plain Weingarten function off the pair tables, bit for bit
    tb = _tables(4)
    assert np.array_equal(noisy_weingarten(4, 8, 0.0), weingarten_matrix(4, 8)[tb.rep_class])
    assert noisy_weingarten(4, 8, 0.1).shape == (5, 24)
    # memoized: repeat calls, int or float q, return the identical object
    assert gram_matrix(4, 2) is gram_matrix(4, 2.0)
    assert weingarten_matrix(4, 8) is weingarten_matrix(4, 8.0)
    # the noisy rows are built per call, from the same numbers
    assert np.array_equal(noisy_weingarten(4, 8, 0.1), noisy_weingarten(4, 8.0, 0.1))
    nw = noisy_weingarten(1, 6, 0.37)
    assert abs(nw[0, 0] - 1 / 6) < 1e-15
    # the cached arrays are read-only: they are shared between callers
    for shared in (gram_matrix(4, 2), weingarten_matrix(4, 3)):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
    with pytest.raises(ValueError):
        noisy_weingarten(2, 4, 1.5)


@pytest.mark.parametrize("n, q", [(2, 4), (3, 2), (4, 3), (4, 8), (5, 4), (6, 4), (6, 8)])
def test_noisy_weingarten_matches_dense_oracle(n, q):
    """The class expansion read off every row's pair tables against the dense
    oracle's pair-code gather, at q on both sides of n."""
    for gamma in (0.0, 0.1, 0.37, 1.0):
        dense = dense_noisy_weingarten(n, q, gamma)
        got = noisy_weingarten(n, q, gamma, rows=slice(None))
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense)), gamma
        assert np.array_equal(noisy_weingarten(n, q, gamma), got[_tables(n).reps])


def test_permutation_vector_overlaps():
    for n, q in ((2, 2), (2, 4), (4, 2)):
        v = permutation_vectors(n, q)
        assert np.array_equal(v @ v.T, dense_gram(n, q))


def depolarizing_superoperator(q: int, gamma: float) -> np.ndarray:
    """One replica's depolarizing channel of rate gamma on its (row, col) pair."""
    identity = np.eye(q).reshape(-1)
    return (1 - gamma) * np.eye(q * q) + gamma * np.outer(identity, identity) / q


def test_noisy_weingarten_channel_monte_carlo():
    """Formula vs brute-force average of (depol . U x U*)^(x)2 at q=4."""
    q, n, gamma = 4, 2, 0.1
    rng = np.random.default_rng(321)
    v = permutation_vectors(n, q)
    nw = noisy_weingarten(n, q, gamma, rows=slice(None))
    formula = np.einsum("ps,pi,sj->ij", nw, v, v)
    depol = depolarizing_superoperator(q, gamma)
    n_samples = 6000
    dim = q ** (2 * n)
    acc = np.zeros((dim, dim), dtype=complex)
    acc2 = np.zeros((dim, dim))
    for _ in range(n_samples):
        u = sample_haar_unitary(q, rng)
        m = depol @ np.kron(u, u.conj())
        mm = np.kron(m, m)
        acc += mm
        acc2 += np.abs(mm) ** 2
    mean = acc / n_samples
    var = np.maximum(acc2 / n_samples - np.abs(mean) ** 2, 0)
    se = np.sqrt(var / n_samples)
    pulls = np.abs(mean - formula) / (se + 1e-30)
    n_bad = int(np.count_nonzero(pulls > 3))
    # ~0.3% of entries may sit outside 3 sigma by chance
    assert n_bad <= int(0.01 * dim * dim), n_bad


def depolarize_replicas(v: np.ndarray, n: int, q: int, gamma: float) -> np.ndarray:
    """Each row of v with the depolarizing superoperator of rate gamma applied
    to every one of its n replicas, through a reshape per replica."""
    depol = depolarizing_superoperator(q, gamma)
    rows = len(v)
    for a in range(n):
        v = np.einsum("ij,xjy->xiy", depol, v.reshape(rows * (q * q) ** a, q * q, -1))
    return v.reshape(rows, -1)


@pytest.mark.parametrize("n, q", [(2, 2), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (6, 2)])
def test_noisy_weingarten_exact_channel(n, q):
    """G Wg~ G = <<p| D^(x)n |s>> Wg G: the depolarized Haar twirl, seen from
    the permutation states, at every pair code, including q < n."""
    v = permutation_vectors(n, q)
    g, wg = dense_gram(n, q), dense_weingarten(n, q)
    for gamma in (0.1, 0.37, 1.0):
        lhs = g @ noisy_weingarten(n, q, gamma, rows=slice(None)) @ g
        rhs = (v @ depolarize_replicas(v, n, q, gamma).T) @ wg @ g
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs)), gamma
