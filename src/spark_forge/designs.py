"""Latin squares from field multiplication, their collision table, and the
incidence nets on q^2 points built from them.

The Latin square with label r has entry (i, j) equal to i*r + j in GF(q).
For r != 0 these squares are mutually orthogonal.  Stacking one standard
basis vector per block according to square r yields q incidence vectors per
label; together with the q "constant block" vectors for the extra label
they form a net: vectors of one family are disjoint, vectors of different
families meet in exactly one position.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import FieldContext
from .report import CheckReport

# Block label sorting after all field elements; kept as a plain string so it
# survives JSON round trips.
INFINITY = "inf"

Label = int | str


def block_labels(q: int) -> tuple[Label, ...]:
    """The q+1 block labels in block order: 0, ..., q-1, then infinity."""
    return tuple(range(q)) + (INFINITY,)


def latin_square(ctx: FieldContext, r: int) -> np.ndarray:
    """The q x q square with entry (i, j) = i*r + j over GF(q)."""
    q = ctx.q
    if not 0 <= r < q:
        raise ValueError(f"label {r} out of range for GF({q})")
    col = ctx.mul_table()[:, r].astype(np.int32)
    return col[:, None] ^ np.arange(q, dtype=np.int32)[None, :]


def verify_mols(squares: Sequence[np.ndarray]) -> CheckReport:
    """Check row injectivity of each square, the unique-meeting-row property
    of every pair, and pairwise orthogonality of the nonzero-label squares.
    The label of squares[r] is r.

    All squares are checked at once: one sort each for the rows and the
    columns, one one-hot product for the meeting counts of every pair of
    columns of every pair of squares, and `orthogonal` on the squares with
    nonzero labels.  The product holds (number of squares * q)^2 counts,
    each at most q, so float32 is exact."""
    rep = CheckReport("latin-squares")
    if not squares:
        return rep
    q = len(squares[0])
    if any(np.shape(sq) != (q, q) for sq in squares):
        raise ValueError("squares have mixed orders")
    s = np.stack(squares)
    n = len(s)
    identity = np.arange(q)
    rows_ok = (np.sort(s, axis=2) == identity).all(axis=(1, 2))
    cols_ok = (np.sort(s, axis=1) == identity[:, None]).all(axis=(1, 2))

    # x[a*q + j, i*k + v] is 1 when entry (i, j) of square a holds the v-th
    # of the k distinct values, so meets[a, j1, b, j2] counts the rows where
    # column j1 of square a and column j2 of square b hold one value
    codes = np.unique(s, return_inverse=True)[1].reshape(n, q, q, 1)
    onehot = codes.transpose(0, 2, 1, 3) == np.arange(codes.max() + 1)
    x = onehot.reshape(n * q, -1).astype(np.float32)
    meets = (x @ x.T).reshape(n, q, n, q)
    meet_bad = (meets != 1).any(axis=(1, 3))

    # orthogonality of squares a < b, both with nonzero labels
    ia, ib = np.triu_indices(n - 1, 1)
    orth_bad = np.zeros((n, n), dtype=bool)
    orth_bad[ia + 1, ib + 1] = ~orthogonal(s[1:].reshape(n - 1, q * q), q)

    # one check per row and column test, per pair, and per orthogonal pair
    rep.count(2 * n - 1 + n * (n - 1) // 2 + (n - 1) * (n - 2) // 2)
    for r in range(n):
        if not rows_ok[r]:
            rep.fail(f"square r={r}: some row is not injective")
        if r != 0 and not cols_ok[r]:
            rep.fail(f"square r={r}: some column is not a permutation")
    for a, b in zip(*np.nonzero(np.triu(meet_bad | orth_bad, 1))):
        if meet_bad[a, b]:
            j1, j2 = np.argwhere(meets[a, :, b] != 1)[0]
            rep.fail(
                f"pair (r={a}, r={b}): columns ({j1}, {j2}) meet "
                f"{int(meets[a, j1, b, j2])} times"
            )
        if orth_bad[a, b]:
            rep.fail(f"squares r={a}, r={b} are not orthogonal")
    return rep


def orthogonal(labels: np.ndarray, k: int) -> np.ndarray:
    """For each pair a < b of rows of `labels`, in `np.triu_indices` order,
    each row a labelling of k^2 points by 0 .. k-1: whether every label pair
    (x, y) labels exactly one point.  One sort of the codes k*x + y."""
    ia, ib = np.triu_indices(len(labels), 1)
    wide = labels.astype(np.int64)
    pairs = np.sort(wide[ia] * k + wide[ib], axis=1)
    return 1 + (pairs[:, 1:] != pairs[:, :-1]).sum(axis=1) == k * k


def collision_table(ctx: FieldContext) -> np.ndarray:
    """q x q table t[i, j] = i*j + j^2 over GF(q).

    Row 0 is a permutation of the field, and within any other row i two
    distinct columns j1, j2 hold equal entries exactly when j1 + j2 = i.
    """
    return (ctx.mul_table() ^ ctx.squares()[None, :]).astype(np.int32)


def verify_collision_table(t: np.ndarray) -> CheckReport:
    rep = CheckReport("collision-table")
    q = len(t)
    rep.require(
        bool((np.sort(t[0]) == np.arange(q)).all()),
        "row 0 is not a permutation of the field",
    )
    for i in range(q):
        eq = t[i][:, None] == t[i][None, :]
        want = (np.arange(q)[:, None] ^ np.arange(q)[None, :]) == i
        np.fill_diagonal(want, True)  # j1 == j2 is always an equality
        if not (eq == want).all():
            j1, j2 = np.argwhere(eq != want)[0]
            rep.fail(
                f"row {i}: columns ({j1}, {j2}) "
                f"{'collide' if eq[j1, j2] else 'differ'} but j1+j2"
                f"{'!=' if eq[j1, j2] else '='}{i}"
            )
        rep.count(q * q)
    return rep


def build_net(ctx: FieldContext) -> np.ndarray:
    """(q+1) families of q incidence vectors on q^2 points, as a (q+1, q,
    q^2) uint8 array: [b, j] is the 0/1 vector of label b, index j, and
    family q is the infinity label.  Family b < q places one 1 per block at
    the position given by Latin square b; the infinity family fills block j."""
    q = ctx.q
    vectors = np.zeros((q + 1, q, q * q), dtype=np.uint8)
    index = np.arange(q)
    for b in range(q):
        # vector (b, j) has its 1 in block i at position lb[i, j]
        vectors[b, index, index[:, None] * q + latin_square(ctx, b)] = 1
    vectors[q].reshape(q, q, q)[index, index] = 1  # vector j fills block j
    return vectors


def verify_net(net: np.ndarray) -> CheckReport:
    """Exhaustive inner-product check of both net conditions, disjointness
    within a family and a single meeting point across families, on the
    exact products of `mub.gram_strips`, one family at a time."""
    from .mub import gram_strips  # mub imports this module

    rep = CheckReport("net-incidence")
    q = net.shape[1]
    flat = net.reshape((q + 1) * q, q * q)
    ones = flat.sum(axis=1)
    rep.count()
    if (ones != q).any():
        first = int(np.flatnonzero(ones != q)[0])
        rep.fail(f"vector {first} has {int(ones[first])} ones, want {q}")
    n = (q + 1) * q
    labels = block_labels(q)
    rep.count(n * (n - 1) // 2)
    for ba, strip in enumerate(gram_strips(flat.T, q)):
        # strip[ja, c] pairs vector (ba, ja) with vector ba * q + c; row by
        # row over the strips, np.nonzero walks the pairs (a, b) in order
        want = np.arange(strip.shape[1]) >= q
        for ja, c in zip(*np.nonzero(np.triu(strip != want, k=1))):
            bb, jb = divmod(ba * q + int(c), q)
            rep.fail(
                f"<m[{labels[ba]},{ja}], m[{labels[bb]},{jb}]> = "
                f"{int(strip[ja, c])}, want {int(want[c])}"
            )
    return rep
