"""Mutually unbiased bases for R^(q^2) in exact scaled-integer form.

Each basis is stored as a q^2 x q^2 matrix M with entries in {-1, 0, +1};
the orthonormal basis it represents is M / sqrt(q).  Column (u, v) embeds
the v-th column of the permuted Hadamard matrix into the support of net
vector (b, u), so every column has exactly q nonzero entries and all
verification reduces to integer inner products: q * identity inside one
basis, plus or minus 1 across two bases.  A basis is placed with one
fancy-index assignment of the sign matrix along the support rows of all q
net vectors of its label.

`dictionaries.gram_check` certifies that structure from the support
incidence, reading each line at the columns written here, and any other
matrix from `gram_strips`, the one exact block Gram routine, scanning
each strip for its failing entries; `designs.verify_net` reads the net's
inner products from it, one family at a time.  The strips are float32
BLAS products, exact while every Gram entry and partial sum stays below
2^24 in magnitude; the bound rows * max|entry|^2 is checked on the actual
matrix before each pass, int64 is used when it fails, and a bound past
int64 is refused.  `integer_peak` is the input rule of every exact kernel, here and
in `dictionaries`, and gives the entry magnitude their bounds start from.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .designs import INFINITY, Label, block_labels


def build_basis(net: np.ndarray, hs: np.ndarray, b: Label) -> np.ndarray:
    """The q^2 x q^2 scaled basis (scale_sq q) for label b of the net from
    `designs.build_net`: column u*q + v is column v of the sign matrix hs
    embedded along net vector (b, u).  ValueError unless each net vector of
    the family has q ones."""
    q = net.shape[1]
    if len(hs) != q:
        raise ValueError(f"sign matrix order {len(hs)} does not match net order {q}")
    if b not in block_labels(q):
        raise ValueError(f"unknown block label {b!r}")
    family = net[q if b == INFINITY else b]
    ones = np.count_nonzero(family, axis=1)
    if (ones != q).any():
        u = int(np.flatnonzero(ones != q)[0])
        raise ValueError(f"net vector ({b}, {u}) has {int(ones[u])} ones, want {q}")
    # rows[u, k] is the k-th support row of net vector u, which takes row k
    # of hs into columns u*q .. u*q + q - 1
    rows = np.nonzero(family)[1].reshape(q, q, 1)
    cols = np.arange(q * q).reshape(q, 1, q)
    m = np.zeros((q * q, q * q), dtype=np.int8)
    m[rows, cols] = hs
    return m


# float32 represents every integer of magnitude up to 2^24 exactly.
FLOAT32_EXACT_LIMIT = 2**24


def integer_peak(matrix: np.ndarray) -> int:
    """Largest entry magnitude, 0 if there is none: the input rule of every
    exact kernel.  ValueError unless the dtype is integer or boolean and
    every entry fits int64; floats are refused even when whole."""
    if matrix.dtype.kind not in "biu":
        raise ValueError(f"expected integers that fit int64, got {matrix.dtype}")
    # max(-min, max) and not abs().max(): abs(-128) wraps around in int8
    low, high = int(matrix.min(initial=0)), int(matrix.max(initial=0))
    if high >= 2**63:
        raise ValueError(f"entry {high} does not fit int64")
    return max(-low, high)


def gram_strips(matrix: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """Exact Gram matrix of the column blocks of `matrix`, one block row at a
    time.

    Block i is columns i*width .. (i+1)*width - 1.  The strip yielded for it
    is block_i^T @ [block_i, ..., block_last], of shape width x (n_cols -
    i*width); the full n_cols x n_cols Gram matrix is never formed.

    Entries must pass `integer_peak`.  Products and partial sums are integers
    of magnitude at most rows * max|entry|^2: the strips are exact float32
    BLAS products below 2^24, int64 ones below 2^63, and ValueError beyond.
    """
    rows, cols = matrix.shape
    if width < 1 or cols % width:
        raise ValueError(f"{cols} columns do not split into blocks of {width}")
    bound = rows * integer_peak(matrix) ** 2
    if bound >= 2**63:
        raise ValueError(f"Gram entries up to {bound} do not fit int64")
    exact = np.float32 if bound < FLOAT32_EXACT_LIMIT else np.int64
    m = matrix.astype(exact)
    for start in range(0, cols, width):
        yield m[:, start : start + width].T @ m[:, start:]
