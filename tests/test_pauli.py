import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliscope.pauli import (
    PauliCoefficients,
    inverse_pauli_transform,
    pauli_transform,
    zdiag_mask,
)

from conftest import (
    decode_pauli,
    divide_then_check_transform,
    pauli_matrix,
    random_hermitian,
    zdiag_indicator,
)


def _index_of(word: str) -> int:
    """Where the transform puts a single Pauli string."""
    (idx,) = np.flatnonzero(pauli_transform(pauli_matrix(word)).values)
    return int(idx)


def test_encode_examples():
    assert _index_of("Z") == 3
    assert _index_of("II") == 0
    # site 0 = X, site 1 = Z, little-endian: 1 + 3*4
    assert _index_of("XZ") == 13


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="IXYZ", min_size=1, max_size=5))
def test_encode_decode_round_trip(word):
    assert decode_pauli(_index_of(word), len(word)) == word


def test_zdiag_examples():
    # little-endian indices: IZ = 0 + 3*4, XI = 1, ZZZ = 3 + 3*4 + 3*16
    assert zdiag_mask(2)[12]
    assert not zdiag_mask(2)[1]
    assert zdiag_mask(3)[63]


def test_zdiag_mask_matches_indicator():
    for n in (1, 2, 3):
        mask = zdiag_mask(n)
        for i in range(4**n):
            assert mask[i] == zdiag_indicator(decode_pauli(i, n))


def test_transform_single_strings(rng):
    for n in (1, 2, 3):
        for _ in range(4):
            idx = int(rng.integers(4**n))
            coeffs = pauli_transform(pauli_matrix(decode_pauli(idx, n)))
            expect = np.zeros(4**n)
            expect[idx] = 1.0
            assert np.array_equal(coeffs.values, expect)


def test_transform_known_projector():
    proj = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # |0><0| = (I+Z)/2
    coeffs = pauli_transform(proj)
    assert np.allclose(coeffs.values, [0.5, 0.0, 0.0, 0.5])


def test_parseval(rng):
    for n in (1, 2, 4, 6):
        h = random_hermitian(n, rng)
        coeffs = pauli_transform(h)
        lhs = np.sum(coeffs.values**2)
        rhs = np.trace(h @ h).real / 2**n
        assert abs(lhs - rhs) <= 1e-10 * rhs


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_transform_linearity(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    h1, h2 = random_hermitian(3, rng), random_hermitian(3, rng)
    combined = pauli_transform(alpha * h1 + beta * h2).values
    separate = alpha * pauli_transform(h1).values + beta * pauli_transform(h2).values
    assert np.allclose(combined, separate, atol=1e-10)


def test_transform_round_trip(rng):
    for n in (1, 3, 5):
        h = random_hermitian(n, rng)
        back = inverse_pauli_transform(pauli_transform(h))
        assert np.max(np.abs(back - h)) < 1e-11 * np.max(np.abs(h))


def test_transform_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pauli_transform(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        pauli_transform(np.zeros((3, 3)))


def test_transform_flags_non_hermitian():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="imaginary"):
        pauli_transform(mat)


@pytest.mark.parametrize("n, batch", [(1, (3,)), (3, (4,)), (2, (2, 3))])
def test_stacked_transform_equals_single_transforms_bit_for_bit(n, batch, rng):
    stack = np.stack([random_hermitian(n, rng) for _ in range(int(np.prod(batch)))])
    stack[0] = np.round(4 * stack[0]) / 4  # exact zeros and cancellations
    coeffs = pauli_transform(stack.reshape(batch + stack.shape[1:]))
    assert coeffs.values.shape == batch + (4**n,)
    for i, mat in enumerate(stack):
        got = coeffs.values.reshape(-1, 4**n)[i]
        assert got.tobytes() == pauli_transform(mat).values.tobytes()


def test_stacked_transform_names_its_non_hermitian_operator(rng):
    stack = np.stack([random_hermitian(2, rng) for _ in range(4)])
    stack[2, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="imaginary residue .* of operator 2 exceeds"):
        pauli_transform(stack)
    with pytest.raises(ValueError, match="of operator 1, 0 exceeds"):
        pauli_transform(stack.reshape(2, 2, 4, 4))


@pytest.mark.parametrize("n, word, level", [(1, "Z", 1.0), (1, "Y", 0.25), (3, "XIZ", 3.7),
                                            (3, "YYZ", 1e6), (2, "IX", 1.0 + 2**-40)])
def test_residue_check_decides_as_dividing_first(n, word, level):
    """O = level 1 + i e P has the imaginary residue e exactly, and the check
    on the unscaled rotation, against 1e-10 max(D, max|Re|), raises or passes
    as the divide-then-check form does for e a few ulp either side of
    1e-10 max(1, level), with the same message (the residue divided by D)."""
    at = 1e-10 * max(1.0, level)
    below, above = at, at
    es = [at]
    for _ in range(4):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
        es += [below, above]
    outcomes = set()
    for e in es:
        op = level * np.eye(2**n) + 1j * e * pauli_matrix(word)
        ops = np.stack([np.eye(2**n), op])
        for mat in (op, ops):
            try:
                want = divide_then_check_transform(mat)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    pauli_transform(mat)
                assert str(got.value) == str(err)
                outcomes.add("raises")
            else:
                assert pauli_transform(mat).values.tobytes() == want.tobytes()
                outcomes.add("passes")
    assert outcomes == {"raises", "passes"}
    with pytest.raises(ValueError, match=f"residue {np.nextafter(at, 1.0):.3e} of operator 1 "):
        pauli_transform(np.stack([np.eye(2**n), level * np.eye(2**n)
                                  + 1j * np.nextafter(at, 1.0) * pauli_matrix(word)]))


def test_coefficients_shape_validation():
    with pytest.raises(ValueError):
        PauliCoefficients(2, np.zeros(5))
