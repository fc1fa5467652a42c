"""Field arithmetic: published small-field tables, axioms, and the index
conventions of the quadratic extension (embedded subfield, cosets, lifts)."""

import random

import numpy as np
import pytest

from spark_forge import FieldContext
from spark_forge.gf import clmod, clmul

MAX_M = 8


def is_irreducible(p: int) -> bool:
    """Trial division over GF(2); fine for the degrees handled here (<= 8)."""
    deg = p.bit_length() - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for divisor in range(1 << d, 1 << (d + 1)):
            if clmod(p, divisor) == 0:
                return False
    return True


def test_gf2_tables(gf2):
    # addition is XOR, multiplication is AND
    assert 1 ^ 1 == 0
    assert gf2.mul_table()[1, 1] == 1
    assert np.array_equal(gf2.mul_table(), [[0, 0], [0, 1]])


def test_gf4_published_tables(gf4):
    mul_expected = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    add_expected = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    mt = gf4.mul_table()
    assert np.array_equal(mt, mul_expected)
    idx = np.arange(4)
    assert np.array_equal(idx[:, None] ^ idx[None, :], add_expected)
    assert 2 ^ 3 == 1
    assert mt[2, 2] == 3


def test_gf8_product_by_hand(gf8):
    # (x+1)^2 = x^2 + 1 with no reduction needed below degree 3
    assert gf8.mul_table()[3, 3] == 5


def test_zero_and_one_laws():
    for m in range(1, MAX_M + 1):
        ctx = FieldContext(m)
        idx = np.arange(ctx.q)
        mt = ctx.mul_table()
        assert np.array_equal(0 ^ idx, idx)
        assert not mt[0].any()
        assert np.array_equal(mt[1], idx)


def test_fixed_polynomials_are_irreducible():
    for m in range(1, MAX_M + 1):
        assert is_irreducible(FieldContext(m).poly)
    # the oracle itself rejects reducible polynomials
    assert not is_irreducible(0b101)  # x^2 + 1 = (x + 1)^2
    assert not is_irreducible(0b10101)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2


def test_clmul_clmod_agree_with_direct_products():
    # x^2 * x = x^3, and (x^3) mod (x^3+x+1) = x+1
    assert clmul(0b100, 0b10) == 0b1000
    assert clmod(0b1000, 0b1011) == 0b011


def _axiom_failures(ctx, triples):
    mt = ctx.mul_table()
    a, b, c = triples
    bad = 0
    bad += int((mt[mt[a, b], c] != mt[a, mt[b, c]]).sum())
    bad += int((mt[a, b ^ c] != (mt[a, b] ^ mt[a, c])).sum())
    bad += int((mt[a, b] != mt[b, a]).sum())
    return bad


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_exhaustive(m):
    ctx = FieldContext(m)
    q = ctx.q
    idx = np.arange(q)
    a, b, c = np.meshgrid(idx, idx, idx, indexing="ij")
    assert _axiom_failures(ctx, (a.ravel(), b.ravel(), c.ravel())) == 0
    # every nonzero element has an inverse: nonzero rows are permutations
    mt = ctx.mul_table()
    for i in range(1, q):
        assert sorted(mt[i]) == list(range(q))


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_field_axioms_randomized(m):
    ctx = FieldContext(m)
    rng = np.random.default_rng(90 + m)
    triples = rng.integers(0, ctx.q, size=(3, 10_000))
    assert _axiom_failures(ctx, tuple(triples)) == 0


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_squaring_is_a_bijection(m):
    ctx = FieldContext(m)
    assert sorted(ctx.squares()) == list(range(ctx.q))


def test_characteristic_two():
    ctx = FieldContext(4)
    idx = np.arange(ctx.q)
    assert not (idx ^ idx).any()
    # a * (1 + 1) = a * 0 = 0
    assert not ctx.mul_table()[:, 1 ^ 1].any()


def test_equal_contexts_interoperate():
    # indices carry no context: two contexts of one degree share one table
    a, b = FieldContext(2), FieldContext(2)
    assert np.array_equal(a.mul_table(), b.mul_table())
    assert np.array_equal(a.extension().mul_table(), b.extension().mul_table())


# -- quadratic extension ----------------------------------------------------


def test_extension_of_gf2_reproduces_pair_representation(gf2):
    ext = gf2.extension()
    assert ext.q == 4 and ext.c == 1
    # embedded subfield is the words with low bit zero: {00, 10}
    assert ext.subfield_indices() == [0b00, 0b10]
    assert 1 << ext.half == 0b10  # embed(1)
    # y = 01 satisfies y^2 = y + 1 = 11
    assert ext.mul_table()[0b01, 0b01] == 0b11


def test_coset_machinery_small(gf2):
    ext = gf2.extension()
    sub = ext.subfield_indices()
    # lift(b) = b; the coset of lift(b) is lift(b) + each subfield word
    assert {s | 1 for s in sub} == {0b01, 0b11}
    assert {s | 0 for s in sub} == {0b00, 0b10}
    # the coset key of any subfield element is zero
    for s in sub:
        assert s & ext.low_mask == 0
    assert 0b11 & ext.low_mask == 1


@pytest.mark.parametrize("base_m", [1, 2, 3, 4])
def test_extension_structure(base_m):
    base = FieldContext(base_m)
    ext = base.extension()
    assert ext.q == base.q**2
    h, mask = ext.half, ext.low_mask
    bt, et = base.mul_table(), ext.mul_table()
    sub = ext.subfield_indices()
    assert sub == [a << h for a in range(base.q)]

    # the embedded copy multiplies like the base field
    for a in range(base.q):
        for b in range(base.q):
            assert et[a << h, b << h] == bt[a, b] << h

    # lift(b) = b is the product embed(b) * y, with y the word 1
    for b in range(base.q):
        assert et[b << h, 1] == b

    # the cosets of the lifts partition the extension, one key each
    seen = set()
    for b in range(base.q):
        members = {s | b for s in sub}
        assert {i & mask for i in members} == {b}
        assert not members & seen
        seen |= members
    assert seen == set(range(ext.q))

    # multiplying by a subfield element keeps a subfield coset fixed and
    # permutes the others: the key of (a << h) * i depends only on a and key(i)
    for a in range(base.q):
        for i in range(ext.q):
            assert et[a << h, i] & mask == bt[a, i & mask]

    # translating by a subfield element does not move the coset
    for i in (1, ext.q - 1):
        for s in sub:
            assert (i ^ s) & mask == i & mask


def test_extension_limits(gf8, gf16):
    gf8.extension()  # m=3 is fine
    with pytest.raises(ValueError):
        FieldContext(5).extension()
    with pytest.raises(ValueError):
        gf16.extension().extension()


def test_extension_guards(gf2):
    with pytest.raises(ValueError):
        gf2.subfield_indices()


def test_random_base_products_match_per_element_path():
    # table path and direct clmul path agree
    ctx = FieldContext(7)
    rng = random.Random(7)
    direct = [
        (a, b, clmod(clmul(a, b), ctx.poly))
        for a, b in [(rng.randrange(128), rng.randrange(128)) for _ in range(500)]
    ]
    table = ctx.mul_table()
    for a, b, want in direct:
        assert table[a, b] == want


def _extension_product_oracle(base, c, i, j):
    """(a1 + b1 y)(a2 + b2 y) with y^2 = y + c, from clmul/clmod only."""
    h = base.m

    def mul(x, y):
        return clmod(clmul(x, y), base.poly)

    a1, b1 = i >> h, i & ((1 << h) - 1)
    a2, b2 = j >> h, j & ((1 << h) - 1)
    bb = mul(b1, b2)
    hi = mul(a1, a2) ^ mul(c, bb)
    lo = mul(a1, b2) ^ mul(a2, b1) ^ bb
    return (hi << h) | lo


@pytest.mark.parametrize("base_m", [1, 2, 3, 4])
def test_extension_mul_table_matches_clmul_oracle(base_m):
    base = FieldContext(base_m)
    ext = base.extension()
    # c makes y^2 + y + c irreducible: t^2 + t = c has no root in the base
    assert all(clmod(clmul(t, t), base.poly) ^ t != ext.c for t in range(base.q))
    table = ext.mul_table()
    for i in range(ext.q):
        row = [_extension_product_oracle(base, ext.c, i, j) for j in range(ext.q)]
        assert table[i].tolist() == row
