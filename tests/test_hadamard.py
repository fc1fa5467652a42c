"""Sign matrices: the tensor construction, the bit-flip row permutation, and
the two antisymmetry properties the dictionary constructions rely on."""

import numpy as np
import pytest

from spark_forge import (
    FieldContext,
    flip_upper_bits_table,
    permuted_hadamard,
    sylvester,
    verify_coset_antisymmetry,
    verify_row_antisymmetry,
)


def test_order_two():
    assert np.array_equal(sylvester(1), [[1, 1], [1, -1]])


def test_order_four_published():
    expected = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    assert np.array_equal(sylvester(2), expected)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_matches_tensor_power_definition(m):
    h2 = np.array([[1, 1], [1, -1]])
    kron = np.array([[1]])
    for _ in range(m):
        kron = np.kron(kron, h2)
    assert np.array_equal(sylvester(m), kron)


def test_row_zero_all_ones():
    for m in (1, 3, 6):
        assert (sylvester(m)[0] == 1).all()


def test_order_bounds():
    with pytest.raises(ValueError):
        sylvester(0)
    with pytest.raises(ValueError):
        sylvester(17)
    # orders are capped at the largest field degree, 2^8
    with pytest.raises(ValueError):
        sylvester(9)
    with pytest.raises(ValueError):
        flip_upper_bits_table(9)


def flip_upper_bits(word: int, m: int) -> int:
    """Scalar oracle for flip_upper_bits_table: flip every bit above the
    lowest set bit, keep the rest; 0 maps to 0."""
    lsb = word & -word
    mask = ((1 << m) - 1) & ~((lsb << 1) - 1)
    return word ^ mask


def test_flip_upper_bits_values():
    assert flip_upper_bits(0, 4) == 0
    assert flip_upper_bits(0b1, 1) == 0b1
    # worked out from the definition: flip everything above the lowest set bit
    assert flip_upper_bits(0b01, 2) == 0b11
    assert flip_upper_bits(0b11, 2) == 0b01
    assert flip_upper_bits(0b10, 2) == 0b10
    assert flip_upper_bits_table(2).tolist() == [0b00, 0b11, 0b10, 0b01]


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_flip_upper_bits_is_a_bijection(m):
    table = flip_upper_bits_table(m)
    assert sorted(table) == list(range(1 << m))
    assert table[0] == 0
    assert table.tolist() == [flip_upper_bits(w, m) for w in range(1 << m)]


def test_permuted_order_two_is_unchanged():
    assert np.array_equal(permuted_hadamard(1), sylvester(1))


def test_permuted_order_four_published():
    expected = [[1, 1, 1, 1], [1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]]
    assert np.array_equal(permuted_hadamard(2), expected)


@pytest.mark.parametrize("m", range(1, 9))
def test_orthogonality(m):
    for sm in (sylvester(m), permuted_hadamard(m)):
        g = sm.astype(np.int64) @ sm.astype(np.int64).T
        assert np.array_equal(g, len(sm) * np.eye(len(sm), dtype=np.int64))


@pytest.mark.parametrize("m", range(1, 9))
def test_row_antisymmetry(m):
    rep = verify_row_antisymmetry(permuted_hadamard(m))
    assert rep.passed, rep.summary()


def test_row_antisymmetry_specific_entries():
    e = permuted_hadamard(2)
    assert e[3, 1] == -1 and e[3, 2] == 1 and (1 ^ 2) == 3
    e2 = permuted_hadamard(1)
    assert e2[1, 0] == 1 and e2[1, 1] == -1


def test_row_antisymmetry_catches_a_flip():
    sm = permuted_hadamard(2)
    sm[1, 1] *= -1
    rep = verify_row_antisymmetry(sm)
    assert not rep.passed


@pytest.mark.parametrize("base_m", [1, 2, 3, 4])
def test_coset_antisymmetry(base_m):
    ext = FieldContext(base_m).extension()
    rep = verify_coset_antisymmetry(ext, permuted_hadamard(ext.m))
    assert rep.passed, rep.summary()


def test_coset_antisymmetry_specific_entries(gf2):
    ext = gf2.extension()
    e = permuted_hadamard(2)
    # subfield rows are +1 on the lifted columns
    lift0, lift1 = 0, 1  # lift(b) = b
    for i in ext.subfield_indices():
        assert e[i, lift0] == 1 and e[i, lift1] == 1
    # a row outside the subfield pairs to zero
    assert e[1, lift0] + e[1, lift1] == 0


def test_coset_antisymmetry_guards(gf2):
    ext = gf2.extension()
    with pytest.raises(ValueError):
        verify_coset_antisymmetry(gf2, permuted_hadamard(1))
    with pytest.raises(ValueError):
        verify_coset_antisymmetry(ext, permuted_hadamard(3))
