"""Dictionary builders: published matrices, kernel vectors, exact coherence."""

from fractions import Fraction

import numpy as np
import pytest

from spark_forge import (
    INFINITY,
    SparseVector,
    apply,
    build_dictionary,
    build_null_vector,
    construct,
    gram_check,
)

# the 4 x 12 scaled dictionary for q=2, as published
Q2_MATRIX = [
    [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0, 0, 1, 1, 1, -1, 0, 0],
    [1, -1, 0, 0, 0, 0, 1, -1, 0, 0, 1, 1],
    [0, 0, 1, -1, 1, -1, 0, 0, 0, 0, 1, -1],
]


def test_q2_dictionary_golden():
    d = build_dictionary("thm1", 2)
    assert np.array_equal(d.matrix, Q2_MATRIX)
    assert d.dimension == 4 and d.n_cols == 12 and d.scale_sq == 2
    assert d.block_labels == (0, 1, INFINITY)


def test_q2_null_vector():
    x = build_null_vector("thm1", 2)
    assert x.support == ((0, 1), (7, 1), (8, -1))
    dense = x.dense()
    assert np.array_equal(dense[:4], [1, 0, 0, 0])
    assert np.array_equal(dense[4:8], [0, 0, 0, 1])
    assert np.array_equal(dense[8:], [-1, 0, 0, 0])


def test_q4_null_vector_uses_field_squares():
    # block 2 puts its entry at (2^2, 2) = (3, 2), block 3 at (2, 3)
    x = build_null_vector("thm1", 4)
    assert x.support == ((0, 1), (21, 1), (46, 1), (59, 1), (64, -1))
    assert all(v in (-1, 1) for _, v in x.support)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_thm1_kernel_and_coherence(m):
    q = 2**m
    built = construct("thm1", q)
    d, x = built.dictionary, built.vector
    assert d.matrix.shape == (q**2, q**2 * (q + 1))
    assert len(x.support) == q + 1
    assert not apply(d, x).any()
    assert gram_check(d).coherence == Fraction(1, q)


def test_thm1_column_support():
    d = build_dictionary("thm1", 4)
    assert ((d.matrix != 0).sum(axis=0) == d.scale_sq).all()


def test_thm2_q2_dictionary():
    d = build_dictionary("thm2", 2)
    assert d.matrix.shape == (16, 48)
    assert d.scale_sq == 4 and d.q == 2
    assert ((d.matrix != 0).sum(axis=0) == 4).all()
    assert gram_check(d).coherence == Fraction(1, 4)


def test_thm2_q2_null_vector():
    built = construct("thm2", 2)
    d, y = built.dictionary, built.vector
    assert y.support == ((0, 1), (8, 1), (21, 1), (29, 1), (32, -1), (40, -1))
    assert not apply(d, y).any()


def test_thm2_q4_dimensions():
    built = construct("thm2", 4)
    d, y = built.dictionary, built.vector
    assert d.matrix.shape == (256, 1280)
    assert len(y.support) == 20  # q^2 + q
    # block b: +1 at words (s | b^2, lift(b) = b); infinity: -1 at (s, 0)
    assert y.support == (
        (0, 1), (64, 1), (128, 1), (192, 1),
        (273, 1), (337, 1), (401, 1), (465, 1),
        (562, 1), (626, 1), (690, 1), (754, 1),
        (803, 1), (867, 1), (931, 1), (995, 1),
        (1024, -1), (1088, -1), (1152, -1), (1216, -1),
    )
    assert not apply(d, y).any()


def test_thm2_blocks_match_kept_extension_bases(gf2):
    from spark_forge import build_basis, build_net, permuted_hadamard

    ext = gf2.extension()
    net, hs = build_net(ext), permuted_hadamard(2)
    built = construct("thm2", 2)
    assert built.field.q == 4 and built.field.mode == "extension"
    assert np.array_equal(built.net, net) and np.array_equal(built.signs, hs)
    d = built.dictionary
    assert d.block_labels == (0, 1, INFINITY)
    n = d.dimension
    for i, label in enumerate(ext.subfield_indices() + [INFINITY]):
        block = d.matrix[:, i * n : (i + 1) * n]
        assert np.array_equal(block, build_basis(net, hs, label))


def test_build_dispatch():
    d = build_dictionary("thm1", 4)
    x = build_null_vector("thm1", 4)
    assert d.matrix.shape == (16, 80) and len(x.support) == 5


def test_parameter_validation():
    with pytest.raises(ValueError, match="power of two"):
        build_dictionary("thm1", 3)
    with pytest.raises(ValueError, match="supports q in"):
        build_dictionary("thm1", 32)
    with pytest.raises(ValueError, match="supports q in"):
        build_dictionary("thm2", 8)
    with pytest.raises(ValueError, match="unknown family"):
        build_dictionary("thm3", 2)
    with pytest.raises(ValueError, match="unknown family"):
        build_null_vector("thm3", 2)


def test_apply_guards():
    d = build_dictionary("thm1", 2)
    x4 = build_null_vector("thm1", 4)
    with pytest.raises(ValueError):
        apply(d, x4)
    # a dense array is not a SparseVector, even at the right length
    with pytest.raises(ValueError, match="SparseVector, got ndarray"):
        apply(d, build_null_vector("thm1", 2).dense())


def test_apply_zero_vector():
    d = build_dictionary("thm1", 2)
    assert not apply(d, SparseVector(12, (), "thm1")).any()


@pytest.mark.parametrize(
    "support",
    [((0.5, 1),), ((0, 1.0),), ((0, True),)],
    ids=["float-index", "float-value", "bool-value"],
)
def test_sparse_vector_refuses_entries_that_are_not_integers(support):
    # each was made before, then failed later: numpy's IndexError from
    # kernel_check, UFuncTypeError from apply, or True taken as the value 1
    with pytest.raises(ValueError, match="^support entries must be integers$"):
        SparseVector(12, support, "thm1")


def test_sparse_vector_takes_numpy_integers():
    d = build_dictionary("thm1", 2)
    x = SparseVector(12, ((np.int64(3), np.int8(-1)),), "thm1")
    assert apply(d, x).tolist() == (-d.matrix[:, 3]).tolist()
