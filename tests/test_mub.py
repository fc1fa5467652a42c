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
    construct,
    exact_rank,
    gram_check,
    permuted_hadamard,
    spark_bruteforce,
    verify_net,
)
from spark_forge.dictionaries import _dense_gram_check, _incidence_decides
from spark_forge.mub import gram_strips
from spark_forge.report import CheckReport


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


# gram_check's dense pass scans the float32 strips of mub.gram_strips; this
# oracle scans int64 strips for the first bad entry of each block and each
# pair, so the two share no product.


def _scanning_gram_check(dictionary):
    d, labels = dictionary.dimension, dictionary.block_labels
    rep = CheckReport("mub-family")
    want_self = dictionary.scale_sq * np.eye(d, dtype=np.int64)
    orthonormal = True
    largest = 0
    for i, strip in enumerate(_int64_strips(dictionary.matrix, d)):
        bad = strip[:, :d] != want_self
        if bad.any():
            orthonormal = False
            r, c = np.argwhere(bad)[0]
            rep.fail(
                f"basis {labels[i]}: columns ({r}, {c}) have product "
                f"{int(strip[r, c])}"
            )
        rep.count(d * d)
        later = strip.shape[1] // d - 1
        cross = strip[:, d:].reshape(d, later, d)
        bad = (cross != 1) & (cross != -1)
        for t in np.flatnonzero(bad.any(axis=(0, 2))):
            r, c = np.argwhere(bad[:, t])[0]
            rep.fail(
                f"bases ({labels[i]}, {labels[i + 1 + t]}): columns ({r}, {c}) "
                f"have product {int(cross[r, t, c])}, want +-1"
            )
        rep.count(d * d * later)
        np.fill_diagonal(strip[:, :d], 0)
        largest = max(largest, int(np.abs(strip).max()))
    if largest == 0:
        raise ValueError("coherence is zero: no coherence bound applies")
    return rep, orthonormal, Fraction(largest, dictionary.scale_sq)


def _gram_outcome(check, dictionary):
    try:
        result = check(dictionary)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(result, tuple):
        rep, orthonormal, coherence = result
    else:
        rep, orthonormal, coherence = result.report, result.orthonormal, result.coherence
    return (rep.checks, rep.failures, rep.summary(), orthonormal, coherence)


def _with_matrix(d, matrix, scale_sq=None):
    return ScaledDictionary(
        d.family, d.q, d.dimension, scale_sq or d.scale_sq, matrix, d.block_labels
    )


def _tampered_dictionaries(family, q, seed, count=12):
    """Seeded tamperings of one family: entries zeroed, sign flips, entries
    of +-2, columns swapped, and a whole block's rows permuted, at random;
    then a sign flip inside one line, a line of one block swapped with a
    line of another, a block's rows permuted, and the first 2 blocks alone.
    A line is the k = scale_sq columns of a block that share one support."""
    d = build_dictionary(family, q)
    rng = np.random.default_rng(seed)
    rows, cols = d.matrix.shape
    k = d.scale_sq
    yield d
    for _ in range(count):
        m = d.matrix.copy()
        kind = rng.integers(5)
        if kind == 0:  # one entry of a column's support zeroed
            c = int(rng.integers(cols))
            m[rng.choice(np.flatnonzero(m[:, c])), c] = 0
        elif kind == 1:  # a few sign flips
            for _ in range(rng.integers(1, 4)):
                m[rng.integers(rows), rng.integers(cols)] *= -1
        elif kind == 2:  # entries of +-2
            m[rng.integers(rows, size=2), rng.integers(cols, size=2)] = (2, -2)
        elif kind == 3:  # two columns swapped, maybe across blocks
            a, b = rng.choice(cols, 2, replace=False)
            m[:, [a, b]] = m[:, [b, a]]
        else:  # the rows of one block permuted: it stays orthonormal
            blk = int(rng.integers(cols // rows)) * rows
            m[:, blk : blk + rows] = m[rng.permutation(rows), blk : blk + rows]
        yield _with_matrix(d, m)
    m = d.matrix.copy()  # one sign flipped inside a line
    c = int(rng.integers(cols))
    m[rng.choice(np.flatnonzero(m[:, c])), c] *= -1
    yield _with_matrix(d, m)
    m = d.matrix.copy()  # columns u*k .. u*k + k - 1 of a block are line u
    blocks = rng.choice(cols // rows, 2, replace=False)
    a, b = blocks * rows + rng.integers(k, size=2) * k
    m[:, a : a + k], m[:, b : b + k] = d.matrix[:, b : b + k], d.matrix[:, a : a + k]
    yield _with_matrix(d, m)
    m = d.matrix.copy()
    blk = int(rng.integers(cols // rows)) * rows
    m[:, blk : blk + rows] = m[rng.permutation(rows), blk : blk + rows]
    yield _with_matrix(d, m)
    yield _with_matrix(d, d.matrix[:, : 2 * rows])


def _only_zero_fails():
    """Blocks I, P and -P for a permutation matrix P, scale_sq 1: every block
    is orthonormal and every cross entry lies in [-1, 1], but most are 0."""
    eye = np.eye(4, dtype=np.int8)
    perm = eye[:, [1, 2, 3, 0]]
    matrix = np.hstack([eye, perm, -perm])
    return ScaledDictionary("thm1", 2, 4, 1, matrix, (0, 1, INFINITY))


def _int64_path():
    # 4 * 2048^2 = 2^24: the Gram bound leaves float32, products are 2048^2
    d = build_dictionary("thm1", 2)
    return _with_matrix(d, d.matrix.astype(np.int32) * 2048, d.scale_sq * 2048**2)


def _gram_cases():
    for family, q, seed in (("thm1", 2, 1), ("thm1", 4, 2), ("thm2", 2, 3)):
        for i, d in enumerate(_tampered_dictionaries(family, q, seed)):
            yield pytest.param(d, id=f"{family}-q{q}-{i}")
    yield pytest.param(_only_zero_fails(), id="only-zero-fails")
    yield pytest.param(_int64_path(), id="int64-path")
    zeroed = build_dictionary("thm1", 2).matrix * 0
    yield pytest.param(_with_matrix(build_dictionary("thm1", 2), zeroed), id="all-zero")


@pytest.mark.parametrize("dictionary", list(_gram_cases()))
def test_gram_check_matches_the_scanning_oracle(dictionary):
    assert _gram_outcome(gram_check, dictionary) == _gram_outcome(
        _scanning_gram_check, dictionary
    )


def test_int64_path_case_takes_the_int64_strips():
    assert next(gram_strips(_int64_path().matrix, 4)).dtype == np.int64


def test_a_zero_cross_entry_is_caught_only_by_the_zero_test():
    d = _only_zero_fails()
    strips = list(gram_strips(d.matrix, 4))
    cross = strips[0][:, 4:]
    assert cross.max() <= 1 and cross.min() >= -1 and (cross == 0).any()
    gram = gram_check(d)
    assert gram.orthonormal
    assert gram.report.failures == [
        "bases (0, 1): columns (0, 0) have product 0, want +-1",
        "bases (0, inf): columns (0, 0) have product 0, want +-1",
        "bases (1, inf): columns (0, 1) have product 0, want +-1",
    ]
    assert gram.coherence == 1


def test_thm1_q16_zeroed_entry_matches_the_scanning_oracle():
    d = build_dictionary("thm1", 16)
    m = d.matrix.copy()
    col = 3 * 256 + 17  # a column of block 3
    m[np.flatnonzero(m[:, col])[5], col] = 0
    tampered = _with_matrix(d, m)
    got = _gram_outcome(gram_check, tampered)
    assert got == _gram_outcome(_scanning_gram_check, tampered)
    assert not got[3] and any(f.startswith("bases (0, 3)") for f in got[1])


# gram_check decides a matrix from its support incidence when the
# Wocjan-Beth premises hold and leaves every other one to the dense strips.
# A passing incidence decision must be the whole GramCheck the dense pass
# gives, and a matrix that misses any one premise must go to the dense pass.


def _premise_mutants():
    """thm1 q=4 (k = 4, d = 16), and one thm1 q=2, changed so that exactly
    one premise of `_incidence_decides` fails, and the dense check fails or
    raises.  Line j of block b is columns b*16 + 4j .. b*16 + 4j + 3, so
    column c = 21 is the second column of line 1 of block 1."""
    d = build_dictionary("thm1", 4)
    c = 21
    support = np.flatnonzero(d.matrix[:, c])
    outside = next(r for r in range(16) if r not in support)
    m = [d.matrix.copy() for _ in range(7)]
    m[0][support[0], c] *= 2
    m[1][support[0], c] = 0
    # the last support row moved down, so c keeps its first row and the
    # order of its signs, onto a row of another line
    later = next(r for r in range(support[-1] + 1, 16) if r not in support)
    m[2][[support[-1], later], c] = m[2][[later, support[-1]], c]
    m[3][support[1], c] *= -1
    # a row of line 1 and a row of another line of block 1 swapped: the
    # lines still split the rows, but no longer meet every other line once
    m[4][[support[0], outside], 16:32] = m[4][[outside, support[0]], 16:32]
    # one more nonzero in c, off its line: every line's first column and
    # sign block are as built, and only the nonzero count is off
    m[5][outside, c] = 1
    # a row of line 1 also on line 2 at that line's first column 24, and a
    # nonzero of its second column 25 zeroed, so the count is kept
    m[6][support[0], 24] = 1
    m[6][np.flatnonzero(d.matrix[:, 25])[0], 25] = 0
    # thm1 q=2 with the last nonzero of column 3 moved into column 1: the
    # count is kept, but column 3 has a zero on its line's rows
    small = build_dictionary("thm1", 2)
    uneven = small.matrix.copy()
    uneven[3, 1], uneven[3, 3] = -1, 0
    return {
        "columns-with-k+1-and-k-1-nonzeros": _with_matrix(small, uneven),
        "one-block": ScaledDictionary("thm1", 4, 16, 4, d.matrix[:, :16].copy(), (0,)),
        "entry-2": _with_matrix(d, m[0]),
        "column-with-k-1-nonzeros": _with_matrix(d, m[1]),
        "column-off-its-line": _with_matrix(d, m[2]),
        "sign-block-gram": _with_matrix(d, m[3]),
        "lines-meet-twice": _with_matrix(d, m[4]),
        "entry-off-its-line": _with_matrix(d, m[5]),
        "row-on-two-lines-of-one-block": _with_matrix(d, m[6]),
    }


PREMISE_MUTANTS = _premise_mutants()


@pytest.mark.parametrize("dictionary", PREMISE_MUTANTS.values(), ids=PREMISE_MUTANTS)
def test_a_matrix_missing_one_premise_goes_to_the_dense_pass(dictionary):
    assert not _incidence_decides(dictionary)
    dense = _gram_outcome(_dense_gram_check, dictionary)
    assert dense[0] == "error" or dense[1]
    assert _gram_outcome(gram_check, dictionary) == dense


@pytest.mark.parametrize(("family", "q"), [("thm1", 4), ("thm2", 2)])
def test_valid_lines_in_another_column_order_take_the_dense_pass(family, q):
    """Columns 16 and 20 of block 1 swapped between lines 0 and 1: still a
    union of mutually unbiased bases, but not where `build_basis` writes
    its lines, so the dense pass certifies it, with the same outcome."""
    d = build_dictionary(family, q)
    m = d.matrix.copy()
    m[:, [16, 20]] = m[:, [20, 16]]
    swapped = _with_matrix(d, m)
    assert not _incidence_decides(swapped)
    assert gram_check(swapped).decided_by == "dense"
    assert _gram_outcome(gram_check, swapped) == _gram_outcome(gram_check, d)


SHIPPED = [
    ("thm1", 2), ("thm1", 4), ("thm1", 8), ("thm1", 16), ("thm2", 2), ("thm2", 4)
]


def _differential_cases():
    for family, q in SHIPPED:
        count = 4 if q == 16 else 12
        for i, d in enumerate(_tampered_dictionaries(family, q, 100 + q, count)):
            yield pytest.param(d, id=f"{family}-q{q}-{i}")


@pytest.mark.parametrize("dictionary", list(_differential_cases()))
def test_incidence_and_dense_paths_give_one_gram_check(dictionary):
    assert _gram_outcome(gram_check, dictionary) == _gram_outcome(
        _dense_gram_check, dictionary
    )


@pytest.mark.parametrize(("family", "q"), SHIPPED)
def test_shipped_families_are_decided_by_incidence(family, q):
    d = build_dictionary(family, q)
    two_blocks = _with_matrix(d, d.matrix[:, : 2 * d.dimension])
    assert gram_check(d).decided_by == "incidence"
    assert gram_check(two_blocks).decided_by == "incidence"


# build_basis places each block with one fancy-index assignment; the oracle
# places each net vector's q columns with np.ix_, one vector at a time.


def _ix_build_basis(net, hs, b):
    q = net.shape[1]
    family = net[q if b == INFINITY else b]
    m = np.zeros((q * q, q * q), dtype=np.int8)
    for u in range(q):
        rows = np.flatnonzero(family[u])
        m[np.ix_(rows, np.arange(u * q, (u + 1) * q))] = hs
    return m


@pytest.mark.parametrize(
    "family,q", [("thm1", 2), ("thm1", 4), ("thm1", 8), ("thm1", 16), ("thm2", 2), ("thm2", 4)]
)
def test_build_basis_matches_the_ix_oracle(family, q):
    built = construct(family, q)
    for b in block_labels(built.field.q):
        got = build_basis(built.net, built.signs, b)
        assert got.dtype == np.int8
        assert np.array_equal(got, _ix_build_basis(built.net, built.signs, b))


def test_build_basis_refuses_a_net_vector_without_q_ones(gf4):
    net = build_net(gf4)
    net[2, 1, np.flatnonzero(net[2, 1])[0]] = 0
    with pytest.raises(ValueError, match=r"net vector \(2, 1\) has 3 ones, want 4"):
        build_basis(net, permuted_hadamard(2), 2)
    assert build_basis(net, permuted_hadamard(2), 1).shape == (16, 16)
