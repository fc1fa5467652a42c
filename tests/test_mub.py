"""Scaled bases: sign columns spread along net vectors, the published
order-4 family, and exact unbiasedness checks."""

from fractions import Fraction

import numpy as np
import pytest

from spark_forge import (
    FieldContext,
    INFINITY,
    ScaledDictionary,
    block_labels,
    build_basis,
    build_dictionary,
    build_net,
    exact_rank,
    gram_check,
    permuted_hadamard,
    spark_bruteforce,
    verify_net,
)
from spark_forge.mub import gram_strips


@pytest.fixture(scope="module")
def q2_parts(gf2):
    return build_net(gf2), permuted_hadamard(1)


def test_embed_published_columns(q2_parts):
    # column u*q + v of basis b is column v of hs spread along net vector (b, u)
    net, hs = q2_parts
    assert np.array_equal(build_basis(net, hs, INFINITY)[:, 1], [1, -1, 0, 0])
    assert np.array_equal(build_basis(net, hs, 1)[:, 2], [0, 1, 1, 0])


def test_embed_all_ones_reproduces_incidence_vector(q2_parts):
    # column 0 of the permuted Hadamard matrix is all ones
    net, hs = q2_parts
    assert (hs[:, 0] == 1).all()
    for i, b in enumerate(block_labels(2)):
        m = build_basis(net, hs, b)
        for j in range(2):
            assert np.array_equal(m[:, j * 2], net[i, j])


def test_published_bases_q2(q2_parts):
    net, hs = q2_parts
    b0 = build_basis(net, hs, 0)
    b1 = build_basis(net, hs, 1)
    binf = build_basis(net, hs, INFINITY)
    assert np.array_equal(
        b0, [[1, 1, 0, 0], [0, 0, 1, 1], [1, -1, 0, 0], [0, 0, 1, -1]]
    )
    assert np.array_equal(
        b1, [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]]
    )
    assert np.array_equal(
        binf, [[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]]
    )
    assert b0.shape == (4, 4)


def test_columns_are_scaled_orthonormal(q2_parts):
    net, hs = q2_parts
    for b in block_labels(2):
        m = build_basis(net, hs, b).astype(np.int64)
        assert np.array_equal(m.T @ m, 2 * np.eye(4, dtype=np.int64))


def test_cross_basis_products_q2(q2_parts):
    net, hs = q2_parts
    m0 = build_basis(net, hs, 0).astype(np.int64)
    m1 = build_basis(net, hs, 1).astype(np.int64)
    assert int(m0[:, 0] @ m1[:, 0]) == 1
    assert int(m0[:, 0] @ m0[:, 1]) == 0


def test_column_support_follows_incidence_vector(gf4):
    net, hs = build_net(gf4), permuted_hadamard(2)
    for i, b in enumerate(block_labels(4)):
        m = build_basis(net, hs, b)
        for u in range(4):
            for v in range(4):
                col = m[:, u * 4 + v]
                assert np.array_equal((col != 0).astype(np.uint8), net[i, u])


def _bases(ctx):
    """Every basis of the family over ctx, side by side."""
    net, hs = build_net(ctx), permuted_hadamard(ctx.m)
    labels = block_labels(ctx.q)
    matrix = np.hstack([build_basis(net, hs, b) for b in labels])
    return ScaledDictionary("thm1", ctx.q, ctx.q**2, ctx.q, matrix, labels)


@pytest.mark.parametrize("m", [1, 2])
def test_family_is_mutually_unbiased(m):
    ctx = FieldContext(m)
    bases = _bases(ctx)
    assert len(bases.block_labels) == ctx.q + 1
    gram = gram_check(bases)
    rep = gram.report
    assert rep.passed, rep.summary()
    assert gram.orthonormal
    # one within-basis block plus one cross block per pair, d*d entries each
    d = ctx.q**2
    pairs = (ctx.q + 1) * ctx.q // 2
    assert rep.checks == d * d * (ctx.q + 1 + pairs)


def test_verify_mub_catches_a_sign_flip(gf2):
    bases = _bases(gf2)
    bases.matrix[0, 0] *= -1
    gram = gram_check(bases)
    assert not gram.report.passed
    assert not gram.orthonormal


def test_verify_mub_dimension_guard(gf2):
    # 11 columns do not split into blocks of the dimension 4
    bases = _bases(gf2)
    odd = ScaledDictionary("thm1", 2, 4, 2, bases.matrix[:, :-1], bases.block_labels)
    with pytest.raises(ValueError):
        gram_check(odd)


def test_orthonormal_reads_only_the_blocks(gf2):
    # block 1 replaced by a copy of block 0: each block is still orthonormal,
    # but the pair is not unbiased and repeats columns, so mu = 1
    bases = _bases(gf2)
    bases.matrix[:, 4:8] = bases.matrix[:, :4]
    gram = gram_check(bases)
    assert gram.orthonormal
    assert gram.report.failures == [
        "bases (0, 1): columns (0, 0) have product 2, want +-1"
    ]
    assert gram.coherence == 1


def test_build_basis_order_guard(gf2, gf4):
    with pytest.raises(ValueError):
        build_basis(build_net(gf2), permuted_hadamard(2), 0)


# Exact outputs of the block-Gram pass on tampered thm1 q=4 dictionaries: one
# failure message per block pair, reporting the first offending (row, column)
# of that pair's product in row-major order.


def _tampered_q4(entries):
    d = build_dictionary("thm1", 4)
    m = d.matrix.copy()
    for (r, c), value in entries.items():
        m[r, c] = value
    return ScaledDictionary(d.family, d.q, d.dimension, d.scale_sq, m, d.block_labels)


def test_verify_mub_and_coherence_on_one_flipped_sign():
    d = _tampered_q4({(0, 0): -1})
    gram = gram_check(d)
    rep = gram.report
    assert rep.checks == 3840
    assert rep.failures == ["basis 0: columns (0, 1) have product -2"]
    assert gram.coherence == Fraction(1, 2)


def test_verify_mub_and_coherence_on_six_tampered_entries():
    # a 1 added to column 0, a -1 added to column 5 of every block
    d = _tampered_q4(
        {(1, 0): 1, (15, 5): -1, (15, 21): -1, (15, 37): -1, (14, 53): -1, (15, 69): -1}
    )
    gram = gram_check(d)
    rep = gram.report
    assert rep.checks == 3840
    assert rep.failures == [
        "basis 0: columns (0, 0) have product 5",
        "bases (0, 1): columns (0, 4) have product 2, want +-1",
        "bases (0, 2): columns (0, 4) have product 2, want +-1",
        "bases (0, 3): columns (0, 4) have product 2, want +-1",
        "bases (0, inf): columns (0, 0) have product 2, want +-1",
        "basis 1: columns (0, 5) have product -1",
        "bases (1, 2): columns (0, 5) have product 0, want +-1",
        "bases (1, 3): columns (4, 5) have product 0, want +-1",
        "bases (1, inf): columns (0, 5) have product -2, want +-1",
        "basis 2: columns (5, 5) have product 5",
        "bases (2, 3): columns (5, 4) have product 0, want +-1",
        "bases (2, inf): columns (5, 5) have product 2, want +-1",
        "basis 3: columns (0, 5) have product -1",
        "bases (3, inf): columns (4, 5) have product 0, want +-1",
        "basis inf: columns (5, 5) have product 5",
    ]
    assert gram.coherence == Fraction(3, 4)


def _int64_strips(matrix, width):
    m = matrix.astype(np.int64)
    return [m[:, i : i + width].T @ m[:, i:] for i in range(0, m.shape[1], width)]


def test_gram_strips_float32_path_at_the_exactness_bound():
    # 1024 * 127^2 = 16516096 < 2^24: every entry of the Gram matrix reaches
    # the bound and float32 must still be exact
    matrix = np.full((1024, 6), 127, dtype=np.int8)
    strips = list(gram_strips(matrix, 2))
    assert all(s.dtype == np.float32 for s in strips)
    for got, want in zip(strips, _int64_strips(matrix, 2), strict=True):
        assert np.array_equal(got, want)
    assert strips[0][0, 0] == 1024 * 127**2


def test_gram_strips_int64_fallback_past_the_bound():
    # 2000 * 3000^2 >= 2^24, so float32 would round; the int64 path is exact
    rng = np.random.default_rng(7)
    matrix = (3000 * rng.choice([-1, 1], size=(2000, 12))).astype(np.int16)
    strips = list(gram_strips(matrix, 4))
    assert all(s.dtype == np.int64 for s in strips)
    for got, want in zip(strips, _int64_strips(matrix, 4), strict=True):
        assert np.array_equal(got, want)
    # a single -128 entry: the bound must not wrap around in int8
    wide = np.full((1100, 2), 1, dtype=np.int8)
    wide[0, 0] = -128
    assert next(gram_strips(wide, 1)).dtype == np.int64


def test_gram_strips_block_guard():
    with pytest.raises(ValueError):
        next(gram_strips(np.zeros((4, 6), dtype=np.int8), 4))


def _dictionary(matrix):
    return ScaledDictionary("thm1", 2, matrix.shape[0], 1, matrix, (0,))


# Every exact kernel, fed one matrix whose column count its block width
# divides.  verify_net reads the entries tiled into a q = 2 net.
GRAM_KERNELS = {
    "gram_strips": lambda m: next(gram_strips(m, m.shape[0])),
    "gram_check": lambda m: gram_check(_dictionary(m)),
    "verify_net": lambda m: verify_net(np.resize(m, (3, 2, 4))),
}
OTHER_KERNELS = {
    **{f"spark_bruteforce-k{k}": (lambda m, k=k: spark_bruteforce(_dictionary(m), k))
       for k in (1, 2, 3)},
    "exact_rank": exact_rank,
}
BAD_INPUTS = {
    # columns 0 and 1 are parallel; truncated to int they are not
    "float-fraction": np.array([[1.5, 3.0], [1.0, 2.0]]),
    "float-whole": np.array([[2.0, 0.0], [0.0, 2.0]]),
    "object-2^70": np.array([[2**70, 0], [0, 1]], dtype=object),
    # one row: exact_rank bounds no minor, so only the int64 rule refuses it
    "uint64-2^63": np.array([[2**63, 1]], dtype=np.uint64),
    # Gram entries reach 2^64; the search's table and exact_rank's Hadamard
    # bound refuse it as well
    "int64-2^32": np.array([[2**32, 0], [0, 2**32]]),
}
# Entries -2^15 that abs() would wrap to themselves in int16: the search's
# table and exact_rank's Hadamard bound on the 2-minors (2 * 2^60 * 2^2 =
# 2^63) refuse it, while its Gram bound 3 * 2^30 fits int64.
INT16_MINIMUM = np.array([[-(2**15), 1, 1], [1, -(2**15), 1], [1, 1, -(2**15)]],
                         dtype=np.int16)
REFUSALS = [
    pytest.param(kernel, matrix, id=f"{name}-{label}")
    for kernels, inputs in (
        (GRAM_KERNELS, BAD_INPUTS),
        (OTHER_KERNELS, {**BAD_INPUTS, "int16-minimum": INT16_MINIMUM}),
    )
    for name, kernel in kernels.items()
    for label, matrix in inputs.items()
]


@pytest.mark.parametrize(("kernel", "matrix"), REFUSALS)
def test_every_exact_kernel_refuses_every_bad_input(kernel, matrix):
    """One rule, `mub.integer_peak`, decides what an exact kernel accepts:
    floats are never truncated, whole ones included, entries past int64 are
    refused, and no bound is computed from a magnitude that wrapped.  Each
    refusal names the integer type it protects, so that no other ValueError,
    such as gram_check's zero coherence, stands in for it."""
    with pytest.raises(ValueError, match="int16|int64"):
        kernel(matrix)
