"""Latin squares from field multiplication, their collision table, and the
incidence net on q^2 points built from them.

The Latin square with label r has entry (i, j) equal to i*r + j in GF(q).
For r != 0 these squares are mutually orthogonal.  The net keeps them as
line labels: family r < q puts point i*q + j on line (i, j) of square r,
and the extra infinity family puts block i of q points on line i.  A
labelling makes the lines of one family disjoint; lines of different
families meet in exactly one point when the two labellings are
`orthogonal`, the one test of the squares, the net and the dictionary's
lines.
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
    if len(squares) == 0:
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
    """The net's q+1 families of q lines on q^2 points, as a (q+1, q^2)
    int32 array of line labels: point p is on line net[b, p] of family b.
    Row b < q is Latin square b read row by row; row q, the infinity
    family, puts block j, points j*q .. j*q + q - 1, on line j."""
    q = ctx.q
    squares = [latin_square(ctx, b).ravel() for b in range(q)]
    return np.stack(squares + [np.arange(q * q, dtype=np.int32) // q])


def verify_net(net: np.ndarray) -> CheckReport:
    """Both net conditions on the line labels of `build_net`.  One check
    that each of the q+1 rows labels q^2 points by lines 0 .. q-1, so lines
    of one family are disjoint; then one check per pair of lines of
    different families, that they meet once, decided per family pair by
    `orthogonal`.  A failing pair names its first line pair that does not
    meet once.  ValueError unless the labels are integers."""
    if net.dtype.kind not in "iu":
        raise ValueError(f"expected integer line labels, got {net.dtype}")
    rep = CheckReport("net-incidence")
    q = len(net) - 1 if net.ndim == 2 else 0
    rep.count()
    if q < 1 or net.shape[1] != q * q or net.min() < 0 or net.max() >= q:
        rep.fail("labels are not lines 0..q-1 of q^2 points")
        return rep
    n = (q + 1) * q
    rep.count(n * (n - 1) // 2)
    labels = block_labels(q)
    wide = net.astype(np.int64)  # uint64 + int64 would promote to float64
    ia, ib = np.triu_indices(q + 1, 1)
    bad = ~orthogonal(net, q)
    for a, b in zip(ia[bad], ib[bad]):
        # meets[ja * q + jb] counts the points on line ja of a and jb of b
        meets = np.bincount(wide[a] * q + wide[b], minlength=q * q)
        ja, jb = divmod(int(np.argmax(meets != 1)), q)
        rep.fail(
            f"lines ({labels[a]}, {ja}) and ({labels[b]}, {jb}) meet "
            f"{int(meets[ja * q + jb])} times, want 1"
        )
    return rep
