"""Exact arithmetic in GF(2^m) and in quadratic extensions GF(q) inside GF(q^2).

Field elements are m-bit words stored as integers: the word w1 w2 ... wm
(w1 most significant) is the element of index sum_i wi * 2^(m-i).  Addition
is bitwise XOR; multiplication is carry-less polynomial multiplication
reduced modulo a fixed irreducible polynomial, one per degree:

    m=1 : x                     m=5 : x^5 + x^2 + 1
    m=2 : x^2 + x + 1           m=6 : x^6 + x + 1
    m=3 : x^3 + x + 1           m=7 : x^7 + x + 1
    m=4 : x^4 + x + 1           m=8 : x^8 + x^4 + x^3 + x^2 + 1

A quadratic extension of GF(q) is realized as pairs (a, b) = a + b*y with
y^2 = y + c, where c is the smallest element of GF(q) making y^2 + y + c
irreducible.  The pair (a, b) is stored as the concatenated word
bits(a) | bits(b), a-part first.  The API works on these indices only:

    embed(a)  = a << half      the embedded copy of GF(q): low half bits zero
    lift(b)   = b              the pair (0, b) = b*y
    coset key = i & low_mask   i + GF(q) is the coset of lift(i & low_mask)
"""

from __future__ import annotations

import numpy as np

_IRREDUCIBLE = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
}

MAX_DEGREE = 8


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials given as bit words."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def clmod(a: int, p: int) -> int:
    """Remainder of the GF(2) polynomial a modulo p."""
    dp = p.bit_length()
    while a.bit_length() >= dp:
        a ^= p << (a.bit_length() - dp)
    return a


class FieldContext:
    """GF(2^m) for m <= 8, in plain ("base") or quadratic-extension mode.

    Elements are their integer indices; addition is XOR and multiplication
    is a lookup in :meth:`mul_table`.  Base contexts reduce modulo the fixed
    irreducible polynomial for their degree.  An extension context, built
    with :meth:`extension`, stores the pair (a, b) = a + b*y as the word
    (a << half) | b, so for base elements a and b:

    * embed(a) = a << half; these words are :meth:`subfield_indices`;
    * lift(b) = b, the pair (0, b);
    * the coset i + GF(q) of a word i is keyed by its low half bits,
      i & low_mask, which is the base element whose lift it contains.
    """

    def __init__(self, m: int, *, _base: "FieldContext | None" = None, _c: int = 0):
        if _base is None:
            if not 1 <= m <= MAX_DEGREE:
                raise ValueError(f"m must be in 1..{MAX_DEGREE}, got {m}")
            self.m = m
            self.q = 1 << m
            self.mode = "base"
            self.poly = _IRREDUCIBLE[m]
            self.base = None
            self.c = None
        else:
            self.m = 2 * _base.m
            self.q = _base.q ** 2
            self.mode = "extension"
            self.poly = None
            self.base = _base
            self.c = _c
        self._table = None

    def mul_table(self) -> np.ndarray:
        """The full q x q multiplication table, entry (i, j) = i*j."""
        if self._table is None:
            if self.mode == "base":
                t = np.zeros((self.q, self.q), dtype=np.int32)
                for i in range(self.q):
                    for j in range(i, self.q):
                        t[i, j] = t[j, i] = clmod(clmul(i, j), self.poly)
            else:
                bt = self.base.mul_table().astype(np.int64)
                h = self.half
                idx = np.arange(self.q)
                a, b = idx >> h, idx & self.low_mask
                a1, a2 = a[:, None], a[None, :]
                b1, b2 = b[:, None], b[None, :]
                bb = bt[b1, b2]
                hi = bt[a1, a2] ^ bt[self.c, bb]
                lo = bt[a1, b2] ^ bt[a2, b1] ^ bb
                t = ((hi << h) | lo).astype(np.int32)
            self._table = t
        return self._table

    def squares(self) -> np.ndarray:
        """index -> index of the squared element (the table diagonal)."""
        return np.diagonal(self.mul_table()).copy()

    # -- quadratic extension --------------------------------------------

    def extension(self) -> "FieldContext":
        """GF(q^2) realized as pairs over this field; requires m <= 4."""
        if self.mode != "base":
            raise ValueError("nested extensions are not supported")
        if self.m > MAX_DEGREE // 2:
            raise ValueError(f"extension base must have m <= {MAX_DEGREE // 2}")
        t = np.arange(self.q)
        # the least c that is no t^2 + t; t^2 + t is 2-to-1, so half the field is
        c = np.setdiff1d(t, self.squares() ^ t)[0]
        return FieldContext(2 * self.m, _base=self, _c=int(c))

    @property
    def half(self) -> int:
        return self.m // 2

    @property
    def low_mask(self) -> int:
        return (1 << self.half) - 1

    def subfield_indices(self) -> list[int]:
        """Indices of the embedded copy of the base field, in base order."""
        if self.mode != "extension":
            raise ValueError("operation requires an extension context")
        return [a << self.half for a in range(self.base.q)]
