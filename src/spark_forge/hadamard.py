"""Sylvester Hadamard matrices and the row permutation that makes them
antisymmetric under XOR translation.

The order-2^m Sylvester matrix has entry (w, v) = (-1)^popcount(w AND v).
Permuting its rows by flip_upper_bits_table produces a matrix whose 0-row and
0-column are all ones and whose row i negates when the column index is
translated by i (j -> j XOR i), for every i != 0.
"""

from __future__ import annotations

import numpy as np

from .gf import MAX_DEGREE, FieldContext
from .report import CheckReport


def _parity(v: np.ndarray) -> np.ndarray:
    # XOR-fold; words here have at most MAX_DEGREE (8) bits
    v = v ^ (v >> 4)
    v = v ^ (v >> 2)
    v = v ^ (v >> 1)
    return v & 1


def sylvester(m: int) -> np.ndarray:
    """m-fold tensor power of [[1, 1], [1, -1]], as a dense int8 matrix."""
    if not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"m must be in 1..{MAX_DEGREE}, got {m}")
    idx = np.arange(1 << m, dtype=np.int32)
    return (1 - 2 * _parity(idx[:, None] & idx[None, :])).astype(np.int8)


def flip_upper_bits_table(m: int) -> np.ndarray:
    """Bijection on m-bit words, as a table: flip every bit above the lowest
    set bit, keep the rest; 0 maps to 0."""
    if not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"m must be in 1..{MAX_DEGREE}, got {m}")
    w = np.arange(1 << m, dtype=np.int32)
    lsb = w & -w
    mask = ((1 << m) - 1) & ~((lsb << 1) - 1)
    return w ^ mask


def permuted_hadamard(m: int) -> np.ndarray:
    """Sylvester matrix with row w replaced by row flip_upper_bits_table(m)[w]."""
    return sylvester(m)[flip_upper_bits_table(m)]


def verify_row_antisymmetry(e: np.ndarray) -> CheckReport:
    """Row 0 and column 0 all ones; row i negates under column translation
    by i (field addition of bit words is XOR, so this is basis independent)."""
    rep = CheckReport("hadamard-antisymmetry")
    q = len(e)
    rep.require(bool((e[0] == 1).all()), "row 0 is not all ones")
    rep.require(bool((e[:, 0] == 1).all()), "column 0 is not all ones")
    cols = np.arange(q)
    for i in range(1, q):
        ok = bool((e[i] == -e[i, cols ^ i]).all())
        if not ok:
            j = int(np.argwhere(e[i] != -e[i, cols ^ i])[0][0])
            rep.fail(f"row {i}: entry at column {j} does not negate at column {j ^ i}")
        rep.count(q)
    return rep


def verify_coset_antisymmetry(ext: FieldContext, e: np.ndarray) -> CheckReport:
    """For the permuted matrix of extension order q^2: rows indexed by the
    embedded subfield are +1 on every lifted column, and any other row i
    pairs to zero between the lifts of b and of (i & low_mask) ^ b.  The
    lift of a base element b is the word b (see `gf`)."""
    rep = CheckReport("coset-antisymmetry")
    if ext.mode != "extension":
        raise ValueError("verify_coset_antisymmetry needs an extension context")
    if len(e) != ext.q:
        raise ValueError(f"matrix order {len(e)} does not match GF({ext.q})")
    lifts = range(ext.base.q)
    for i in range(ext.q):
        star = i & ext.low_mask
        if star == 0:
            for b in lifts:
                rep.require(
                    int(e[i, b]) == 1,
                    f"subfield row {i}: entry at lifted column {b} is not 1",
                )
        else:
            for b in lifts:
                s = int(e[i, b]) + int(e[i, star ^ b])
                rep.require(
                    s == 0,
                    f"row {i}: lifts of {b} and {star ^ b} sum to {s}, want 0",
                )
    return rep
