import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauliscope.circuits import sample_haar_unitary
from pauliscope.weingarten import (
    _tables,
    gram_matrix,
    noisy_weingarten,
    weingarten_matrix,
)

from conftest import permutation_vectors


def index_of(image) -> int:
    return _tables(len(image)).images.tolist().index(list(image))


def test_enumeration():
    assert _tables(2).images.tolist() == [[0, 1], [1, 0]]
    for n in range(1, 7):
        assert _tables(n).images.tolist() == [list(p) for p in itertools.permutations(range(n))]
    tb = _tables(4)
    assert np.count_nonzero(tb.even & (tb.cycles == 2)) == 3  # the pairings
    for n in (0, 7):
        with pytest.raises(ValueError):
            _tables(n)


def test_cycle_statistics():
    swap12 = index_of((1, 0, 2))  # (12)(3)
    assert _tables(3).cycles[swap12] == 2
    assert not _tables(3).even[swap12]
    tb = _tables(4)  # index 0 is the identity, with its 4 fixed points
    assert tb.cycles[0] == 4 and not tb.even[0]
    assert divmod(int(tb.pair_code[0, 0]), 4 + 1) == (tb.type_of[0], 4)
    pairing = index_of((1, 0, 3, 2))
    assert tb.cycles[pairing] == 2 and tb.even[pairing]


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
    assert divmod(int(tb.pair_code[0, row]), len(image) + 1) == (tb.type_of[row], n_fixed)


def test_permutation_compose_inverse():
    # rel[a, b] indexes sigma_a^-1 sigma_b (sigma_b applied first)
    images = [tuple(img) for img in _tables(3).images.tolist()]
    index = {img: i for i, img in enumerate(images)}
    rel = _tables(3).rel
    for ia, pa in enumerate(images):
        inv = np.argsort(pa)
        assert rel[ia, ia] == 0
        for ib, pb in enumerate(images):
            assert rel[ia, ib] == index[tuple(int(inv[j]) for j in pb)]


@pytest.mark.parametrize("n, rel_sha, pair_code_sha", [
    (4, "930e83ddc512940104e640daf46ae42247d3d25942e593a2c144478868fb3ba3",
     "be5f665b02e7cade06b8ee56c5ecb64bc93bee594bbc4fdd63c94b8bf437d505"),
    (6, "85889148c4b3c10838ce8fbe63b6706186ffc8b78a986dec4d1a227b799c2e66",
     "645d543a32f3c5bdcdadbad6f5d45b981ee2924ea1ce317f32ded6de7e5ca76c"),
])
def test_pair_tables_are_pinned(n, rel_sha, pair_code_sha):
    # the int32 bytes of the relative-index and pair-code tables, as built by a
    # per-row sorted search over image codes before the code lookup replaced it
    tb = _tables(n)
    assert tb.rel.dtype == tb.pair_code.dtype == np.int32
    assert hashlib.sha256(tb.rel.tobytes()).hexdigest() == rel_sha
    assert hashlib.sha256(tb.pair_code.tobytes()).hexdigest() == pair_code_sha


def test_gram_examples():
    assert np.array_equal(gram_matrix(2, 4), [[16, 4], [4, 16]])
    assert gram_matrix(1, 7)[0, 0] == 7
    g = gram_matrix(4, 2)
    assert np.array_equal(g, g.T)
    with pytest.raises(ValueError):
        gram_matrix(2, 1)


def test_weingarten_hand_values():
    w = weingarten_matrix(2, 4)
    assert abs(w[0, 0] - 1 / 15) < 1e-14
    assert abs(w[0, 1] + 1 / 60) < 1e-14
    assert abs(weingarten_matrix(1, 5)[0, 0] - 0.2) < 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("q", [2, 4, 8])
def test_gram_weingarten_consistency(n, q):
    g = gram_matrix(n, q)
    w = weingarten_matrix(n, q)
    resid = np.max(np.abs(g @ w @ g - g)) / np.max(np.abs(g))
    assert resid < 1e-10


def test_weingarten_class_function():
    w = weingarten_matrix(3, 5)
    tb = _tables(3)
    rel_types = tb.type_of[tb.rel]
    for t in np.unique(rel_types):
        assert np.ptp(w[rel_types == t]) < 1e-15


def test_weingarten_leading_order():
    i_pairing = index_of((1, 0, 3, 2))
    for q in (8.0, 16.0, 32.0):
        w = weingarten_matrix(4, q)
        # M(e) = 1 at order q^(# - 2n) = q^-4; M(pairing) = (-1)^(n/2) = +1
        assert abs(w[0, 0] - q**-4) < 30 * q**-6
        assert abs(w[0, i_pairing] - q**-6) < 30 * q**-8


def test_noisy_weingarten_reductions():
    assert noisy_weingarten(2, 4, 0.0) is weingarten_matrix(2, 4)
    # memoized: repeat calls, int or float q, return the identical object
    assert gram_matrix(4, 2) is gram_matrix(4, 2.0)
    assert weingarten_matrix(4, 8) is weingarten_matrix(4, 8.0)
    # the noisy matrix is built per call, from the same numbers
    assert np.array_equal(noisy_weingarten(4, 8, 0.1), noisy_weingarten(4, 8.0, 0.1))
    nw = noisy_weingarten(1, 6, 0.37)
    assert abs(nw[0, 0] - 1 / 6) < 1e-15
    # the arrays are read-only: the cached ones are shared between callers
    for shared in (gram_matrix(4, 2), weingarten_matrix(4, 3), nw):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 0.0
    with pytest.raises(ValueError):
        noisy_weingarten(2, 4, 1.5)


def test_permutation_vector_overlaps():
    for n, q in ((2, 2), (2, 4), (4, 2)):
        v = permutation_vectors(n, q)
        assert np.array_equal(v @ v.T, gram_matrix(n, q))


def depolarizing_superoperator(q: int, gamma: float) -> np.ndarray:
    """One replica's depolarizing channel of rate gamma on its (row, col) pair."""
    identity = np.eye(q).reshape(-1)
    return (1 - gamma) * np.eye(q * q) + gamma * np.outer(identity, identity) / q


def test_noisy_weingarten_channel_monte_carlo():
    """Formula vs brute-force average of (depol . U x U*)^(x)2 at q=4."""
    q, n, gamma = 4, 2, 0.1
    rng = np.random.default_rng(321)
    v = permutation_vectors(n, q)
    nw = noisy_weingarten(n, q, gamma)
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
    g, wg = gram_matrix(n, q), weingarten_matrix(n, q)
    for gamma in (0.1, 0.37, 1.0):
        lhs = g @ noisy_weingarten(n, q, gamma) @ g
        rhs = (v @ depolarize_replicas(v, n, q, gamma).T) @ wg @ g
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs)), gamma
