import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauliscope.circuits import sample_haar_unitary
from pauliscope.weingarten import (
    Permutation,
    enumerate_group,
    gram_matrix,
    noisy_weingarten,
    weingarten_matrix,
)
from pauliscope.weingarten import _tables

from conftest import permutation_vectors


def test_enumeration():
    g2 = enumerate_group(2)
    assert [p.image for p in g2] == [(0, 1), (1, 0)]
    assert len(enumerate_group(3)) == 6
    pairings = [p for p in enumerate_group(4) if p.even_cycles_only and p.cycles == 2]
    assert len(pairings) == 3
    with pytest.raises(ValueError):
        enumerate_group(9)


def test_cycle_statistics():
    swap12 = Permutation((1, 0, 2))  # (12)(3)
    assert swap12.cycles == 2
    assert not swap12.even_cycles_only
    identity = Permutation((0, 1, 2, 3))
    assert _tables(4).n_common_fixed[0, 0] == 4  # index 0 is the identity
    assert not identity.even_cycles_only
    pairing = Permutation((1, 0, 3, 2))
    assert pairing.cycles == 2 and pairing.even_cycles_only
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


@given(st.integers(1, 6).flatmap(lambda n: st.permutations(range(n))))
def test_cycle_type_statistics_agree(image):
    p = Permutation(tuple(image))
    assert sum(p.cycle_type) == len(p.image)
    assert p.cycles == len(p.cycle_type)
    assert p.cycle_type.count(1) == sum(p.image[i] == i for i in range(len(p.image)))
    assert p.even_cycles_only == all(c % 2 == 0 for c in p.cycle_type)


def test_permutation_compose_inverse():
    a = Permutation((1, 2, 0))
    assert a.cycle_type == (3,)
    # rel[a, b] indexes sigma_a^-1 sigma_b (sigma_b applied first)
    perms = enumerate_group(3)
    index = {p.image: i for i, p in enumerate(perms)}
    rel = _tables(3).rel
    for ia, pa in enumerate(perms):
        inv = np.argsort(pa.image)
        assert rel[ia, ia] == 0
        for ib, pb in enumerate(perms):
            assert rel[ia, ib] == index[tuple(int(inv[j]) for j in pb.image)]


def test_gram_examples():
    assert np.array_equal(gram_matrix(2, 4).entries, [[16, 4], [4, 16]])
    assert gram_matrix(1, 7).entries[0, 0] == 7
    g = gram_matrix(4, 2).entries
    assert np.array_equal(g, g.T)
    with pytest.raises(ValueError):
        gram_matrix(2, 1)


def test_weingarten_hand_values():
    w = weingarten_matrix(2, 4).entries
    assert abs(w[0, 0] - 1 / 15) < 1e-14
    assert abs(w[0, 1] + 1 / 60) < 1e-14
    assert abs(weingarten_matrix(1, 5).entries[0, 0] - 0.2) < 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("q", [2, 4, 8])
def test_gram_weingarten_consistency(n, q):
    g = gram_matrix(n, q).entries
    w = weingarten_matrix(n, q)
    resid = np.max(np.abs(g @ w.entries @ g - g)) / np.max(np.abs(g))
    assert resid < 1e-10
    assert w.pseudo_inverse == (q < n)


def test_weingarten_class_function():
    w = weingarten_matrix(3, 5).entries
    tb = _tables(3)
    rel_types = tb.type_of[tb.rel]
    for t in np.unique(rel_types):
        assert np.ptp(w[rel_types == t]) < 1e-15


def test_weingarten_leading_order():
    g4 = enumerate_group(4)
    i_pairing = next(i for i, p in enumerate(g4) if p.image == (1, 0, 3, 2))
    for q in (8.0, 16.0, 32.0):
        w = weingarten_matrix(4, q).entries
        # M(e) = 1 at order q^(# - 2n) = q^-4; M(pairing) = (-1)^(n/2) = +1
        assert abs(w[0, 0] - q**-4) < 30 * q**-6
        assert abs(w[0, i_pairing] - q**-6) < 30 * q**-8


def test_noisy_weingarten_reductions():
    assert noisy_weingarten(2, 4, 0.0) is weingarten_matrix(2, 4)
    # memoized: repeat calls, int or float q, return the identical object
    assert gram_matrix(4, 2) is gram_matrix(4, 2.0)
    assert weingarten_matrix(4, 8) is weingarten_matrix(4, 8.0)
    assert noisy_weingarten(4, 8, 0.1) is noisy_weingarten(4, 8.0, 0.1)
    nw = noisy_weingarten(1, 6, 0.37).entries
    assert abs(nw[0, 0] - 1 / 6) < 1e-15
    with pytest.raises(ValueError):
        noisy_weingarten(2, 4, 1.5)


def test_permutation_vector_overlaps():
    for n, q in ((2, 2), (2, 4), (4, 2)):
        v = permutation_vectors(n, q)
        assert np.array_equal(v @ v.T, gram_matrix(n, q).entries)


def test_noisy_weingarten_channel_monte_carlo():
    """Formula vs brute-force average of (depol . U x U*)^(x)2 at q=4."""
    q, n, gamma = 4, 2, 0.1
    rng = np.random.default_rng(321)
    v = permutation_vectors(n, q)
    nw = noisy_weingarten(n, q, gamma).entries
    formula = np.einsum("ps,pi,sj->ij", nw, v, v)
    depol = (1 - gamma) * np.eye(q * q) + gamma * np.outer(
        np.eye(q).reshape(-1), np.eye(q).reshape(-1)
    ) / q
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
