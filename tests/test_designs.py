"""Latin squares, the collision table, and the incidence net's line labels,
checked against the published small cases and exhaustively for every
supported order."""

import numpy as np
import pytest

from spark_forge import (
    FieldContext,
    INFINITY,
    block_labels,
    build_basis,
    build_net,
    collision_table,
    latin_square,
    permuted_hadamard,
    verify_collision_table,
    verify_mols,
    verify_net,
)
from spark_forge.designs import orthogonal
from spark_forge.report import CheckReport


def test_latin_square_small_published(gf2, gf4):
    assert np.array_equal(latin_square(gf2, 1), [[0, 1], [1, 0]])
    l2 = latin_square(gf4, 2)
    assert np.array_equal(
        l2, [[0, 1, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0], [1, 0, 3, 2]]
    )


def test_latin_square_label_zero_rows(gf16):
    table = latin_square(gf16, 0)
    assert np.array_equal(table, np.tile(np.arange(16), (16, 1)))


def test_latin_square_label_range(gf2):
    with pytest.raises(ValueError):
        latin_square(gf2, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_full_family_is_mols(m):
    ctx = FieldContext(m)
    squares = [latin_square(ctx, r) for r in range(ctx.q)]
    rep = verify_mols(squares)
    assert rep.passed, rep.summary()


def test_mols_pair_and_single(gf2):
    pair = [latin_square(gf2, 0), latin_square(gf2, 1)]
    assert verify_mols(pair).passed
    assert verify_mols([latin_square(gf2, 0)]).passed  # orthogonality vacuous


def test_mols_detects_a_broken_square(gf4):
    squares = [latin_square(gf4, r) for r in range(4)]
    squares[1][0, 0] = squares[1][0, 1]
    rep = verify_mols(squares)
    assert not rep.passed
    assert rep.failures[0] == "square r=1: some row is not injective"


def test_collision_table_published(gf2, gf4):
    assert np.array_equal(collision_table(gf2), [[0, 1], [0, 0]])
    assert np.array_equal(
        collision_table(gf4),
        [[0, 1, 3, 2], [0, 0, 1, 1], [0, 3, 0, 3], [0, 2, 2, 0]],
    )


def test_collision_table_matches_latin_square_columns(gf8):
    # second construction path: entry (i, j) is square j at row i, column j^2
    ct = collision_table(gf8)
    sq = gf8.squares()
    for j in range(8):
        lj = latin_square(gf8, j)
        assert np.array_equal(ct[:, j], lj[:, sq[j]])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_collision_law(m):
    ctx = FieldContext(m)
    ct = collision_table(ctx)
    rep = verify_collision_table(ct)
    assert rep.passed, rep.summary()
    # row 0 entries are pairwise distinct (no i = j1 + j2 with j1 != j2 here)
    assert len(set(ct[0])) == ctx.q


def test_collision_examples(gf2, gf4):
    t2, t4 = collision_table(gf2), collision_table(gf4)
    assert t2[1, 0] == t2[1, 1] and (0 ^ 1) == 1
    assert t4[1, 0] == t4[1, 1] and (0 ^ 1) == 1


def test_net_vectors_published(gf2):
    net = build_net(gf2)  # family 2 is the infinity label
    assert net.tolist() == [[0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]]
    assert block_labels(2) == (0, 1, INFINITY)


def test_net_cross_family_meets_once(gf2):
    net = build_net(gf2)
    assert int(((net[0] == 0) & (net[2] == 0)).sum()) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_net_conditions(m):
    ctx = FieldContext(m)
    q = ctx.q
    net = build_net(ctx)
    # every family puts q points on each of its q lines
    assert (np.sort(net, axis=1) == np.arange(q * q) // q).all()
    rep = verify_net(net)
    assert rep.passed, rep.summary()


def test_net_extension_order(gf2):
    # the machinery also runs over extension fields
    net = build_net(gf2.extension())
    assert net.shape == (5, 16)
    assert verify_net(net).passed


def test_net_bad_label(gf2):
    net = build_net(gf2)
    with pytest.raises(ValueError):
        build_basis(net, permuted_hadamard(1), 5)


def test_verify_net_reports_a_flipped_bit(gf2):
    """The label form of two flipped bits: point 0 moved from line (0, 0)
    to line (0, 1), so line (0, 0) keeps one point and misses line (1, 0)
    and line (inf, 0)."""
    net = build_net(gf2)
    net[0, 0] = 1
    rep = verify_net(net)
    assert rep.failures == [
        "lines (0, 0) and (1, 0) meet 0 times, want 1",
        "lines (0, 0) and (inf, 0) meet 0 times, want 1",
    ]


def test_verify_net_exact_report_on_a_tampered_vector(gf4):
    # point 6, entry (1, 2) of square 1, moved from line (1, 3) to line
    # (1, 2), which then meets column 2, line (0, 2), at points 2 and 6
    net = build_net(gf4)
    assert net[1, 6] == 3
    net[1, 6] = 2
    rep = verify_net(net)
    assert rep.checks == 1 + 20 * 19 // 2
    assert rep.failures == [
        "lines (0, 2) and (1, 2) meet 2 times, want 1",
        "lines (1, 2) and (2, 0) meet 2 times, want 1",
        "lines (1, 2) and (3, 1) meet 2 times, want 1",
        "lines (1, 2) and (inf, 1) meet 2 times, want 1",
    ]


def test_verify_net_keeps_pair_order_past_the_failure_cap(gf8):
    # the eight square families all relabelled as square 1: 28 equal pairs
    net = build_net(gf8)
    net[:8] = net[1]
    rep = verify_net(net)
    assert rep.checks == 1 + 72 * 71 // 2
    assert rep.summary() == (
        "FAIL net-incidence: lines (0, 0) and (1, 0) meet 8 times, want 1 (+8 more)"
    )
    assert rep.failures[18:] == [
        "lines (3, 0) and (4, 0) meet 8 times, want 1",
        "lines (3, 0) and (5, 0) meet 8 times, want 1",
    ]


def test_verify_net_fails_labels_outside_the_lines_once(gf4):
    """A label past the lines, a negative one or a wrong shape fails the
    one range check, and no pair is tested."""
    net = build_net(gf4)
    for bad in (np.where(net == 3, 4, net), net - 1, net[:, :-1], net[:-1],
                np.zeros((0, 0), dtype=np.int32), net.ravel()):
        rep = verify_net(bad)
        assert (rep.checks, rep.failures) == (
            1, ["labels are not lines 0..q-1 of q^2 points"]
        )


def _bincount_verify_net(net):
    """The net check one family pair at a time: a bincount of the pairs of
    line labels of the two families, scanned for the first line pair that
    does not meet once."""
    rep = CheckReport("net-incidence")
    q = len(net) - 1 if net.ndim == 2 else 0
    rep.count()
    lines = set(range(q))
    if q < 1 or net.shape != (q + 1, q * q) or not set(net.ravel().tolist()) <= lines:
        rep.fail("labels are not lines 0..q-1 of q^2 points")
        return rep
    n = (q + 1) * q
    rep.count(n * (n - 1) // 2)
    labels = block_labels(q)
    for a in range(q + 1):
        for b in range(a + 1, q + 1):
            pairs = net[a].astype(np.int64) * q + net[b]
            meets = np.bincount(pairs, minlength=q * q).reshape(q, q)
            if (meets != 1).any():
                ja, jb = np.argwhere(meets != 1)[0]
                rep.fail(
                    f"lines ({labels[a]}, {ja}) and ({labels[b]}, {jb}) meet "
                    f"{int(meets[ja, jb])} times, want 1"
                )
    return rep


def _tampered_nets():
    """(name, net, whether it is a net) for each order, a quadratic
    extension, and tampered copies of each."""
    rng = np.random.default_rng(15)
    for ctx in [FieldContext(m) for m in (1, 2, 3)] + [FieldContext(2).extension()]:
        net = build_net(ctx)
        q = ctx.q
        yield "net", net, True
        b, p = int(rng.integers(q + 1)), int(rng.integers(q * q))
        moved = net.copy()  # a point moved to another line of its family
        moved[b, p] = (moved[b, p] + rng.integers(1, q)) % q
        yield "moved", moved, False
        overwritten = net.copy()  # a family overwritten by another one
        overwritten[b] = net[(b + 1 + rng.integers(q)) % (q + 1)]
        yield "overwritten", overwritten, False
        relabelled = net.copy()  # one family's lines renamed: still a net
        relabelled[b] = rng.permutation(q)[net[b]]
        yield "relabelled", relabelled, True
        beyond = net.copy()  # a point on line q, which no family has
        beyond[b, p] = q
        yield "label-q", beyond, False
        yield "short", net[:, :-1], False
        yield "tensor", _looped_build_net(ctx), False


def test_verify_net_matches_the_bincount_oracle():
    for name, net, is_net in _tampered_nets():
        got, want = verify_net(net), _bincount_verify_net(net)
        assert got.passed == is_net, name
        assert (got.checks, got.failures, got.summary()) == (
            want.checks,
            want.failures,
            want.summary(),
        ), name
        # the label dtype does not change the report, uint64 included
        for dtype in (np.uint8, np.uint64, np.int64):
            assert verify_net(net.astype(dtype)).failures == got.failures, (name, dtype)


# verify_mols checks all pairs of squares in a few array operations; this
# oracle checks them one pair at a time, as the check once did.


def _pairwise_verify_mols(squares):
    rep = CheckReport("latin-squares")
    q = len(squares[0])
    identity = np.arange(q, dtype=np.int32)
    for r, sq in enumerate(squares):
        ok = bool((np.sort(sq, axis=1) == identity[None, :]).all())
        rep.require(ok, f"square r={r}: some row is not injective")
        if r != 0:
            ok_cols = bool((np.sort(sq, axis=0) == identity[:, None]).all())
            rep.require(ok_cols, f"square r={r}: some column is not a permutation")
    for a in range(len(squares)):
        for b in range(a + 1, len(squares)):
            sa, sb = squares[a], squares[b]
            meets = (sa[:, :, None] == sb[:, None, :]).sum(axis=0)
            if not (meets == 1).all():
                j1, j2 = np.argwhere(meets != 1)[0]
                rep.fail(
                    f"pair (r={a}, r={b}): columns ({j1}, {j2}) meet "
                    f"{int(meets[j1, j2])} times"
                )
            rep.count()
            if a != 0:
                pairs = sa.astype(np.int64) * q + sb
                ok = len(np.unique(pairs)) == q * q
                rep.require(ok, f"squares r={a}, r={b} are not orthogonal")
    return rep


def _tampered_square_sets():
    rng = np.random.default_rng(20)
    for m in (1, 2, 3, 4):
        ctx = FieldContext(m)
        q = ctx.q
        squares = [latin_square(ctx, r) for r in range(q)]
        yield f"gf{q}", squares
        swapped = [s.copy() for s in squares]  # two entries of a row swapped
        r, i = int(rng.integers(q)), int(rng.integers(q))
        swapped[r][i, [0, q - 1]] = swapped[r][i, [q - 1, 0]]
        yield f"gf{q}-row-swap", swapped
        broken = [s.copy() for s in squares]  # a column broken
        r, j = int(rng.integers(1, q)), int(rng.integers(q))
        broken[r][:, j] = broken[r][0, j]
        yield f"gf{q}-column-broken", broken
        repeated = [s.copy() for s in squares]  # a square repeated
        repeated[-1] = repeated[1].copy()
        yield f"gf{q}-repeated", repeated
        scrambled = [s.copy() for s in squares]  # random entries, some outside GF(q)
        for _ in range(3):
            r, i, j = (int(v) for v in rng.integers(q, size=3))
            scrambled[r][i, j] = rng.integers(-1, q + 2)
        yield f"gf{q}-scrambled", scrambled
    ctx = FieldContext(4)
    yield "gf16-three", [latin_square(ctx, r) for r in (0, 5, 9)]
    yield "gf16-single", [latin_square(ctx, 3)]
    # every pair fails: more messages than the report keeps
    yield "gf16-constant", [np.zeros((16, 16), dtype=np.int32)] * 8


TAMPERED_SQUARE_SETS = dict(_tampered_square_sets())


@pytest.mark.parametrize("name", list(TAMPERED_SQUARE_SETS))
def test_verify_mols_matches_the_pairwise_oracle(name):
    squares = TAMPERED_SQUARE_SETS[name]
    got, want = verify_mols(squares), _pairwise_verify_mols(squares)
    assert (got.checks, got.failures, got.summary()) == (
        want.checks,
        want.failures,
        want.summary(),
    )


def test_verify_mols_oracle_cases_fail_in_every_way():
    failures = [f for s in TAMPERED_SQUARE_SETS.values() for f in verify_mols(s).failures]
    for phrase in ("row is not injective", "column is not a permutation",
                   "times", "are not orthogonal"):
        assert any(phrase in f for f in failures), phrase


def test_orthogonal_reads_every_pair_in_triu_order(gf4):
    """The squares r = 1, 2, 3, 1 of GF(4) as labellings of 16 points: only
    the pair of equal labellings, (0, 3), is not orthogonal."""
    labels = np.stack([latin_square(gf4, r).ravel() for r in (1, 2, 3, 1)])
    assert orthogonal(labels, 4).tolist() == [True, True, False, True, True, True]


def test_verify_mols_refuses_mixed_orders(gf4):
    with pytest.raises(ValueError, match="mixed orders"):
        verify_mols([latin_square(gf4, 1), latin_square(gf4, 2)[:3]])


def _looped_build_net(ctx):
    """The net placed one incidence vector at a time."""
    q = ctx.q
    vectors = np.zeros((q + 1, q, q * q), dtype=np.uint8)
    blocks = np.arange(q, dtype=np.int32) * q
    for b in range(q):
        lb = latin_square(ctx, b)
        for j in range(q):
            vectors[b, j, blocks + lb[:, j]] = 1
    for j in range(q):
        vectors[q, j, j * q : (j + 1) * q] = 1
    return vectors


@pytest.mark.parametrize("ctx", [FieldContext(m) for m in (1, 2, 3, 4)]
                         + [FieldContext(m).extension() for m in (1, 2)],
                         ids=["gf2", "gf4", "gf8", "gf16", "gf4-ext", "gf16-ext"])
def test_build_net_matches_the_looped_oracle(ctx):
    """build_net's labels are the lines of the 0/1 incidence vectors placed
    one at a time, each point on one line of each family."""
    net, vectors = build_net(ctx), _looped_build_net(ctx)
    assert net.dtype == np.int32
    assert (vectors.sum(axis=1) == 1).all()
    assert np.array_equal(net, vectors.argmax(axis=1))
