"""Spark search and certification, cross-checked against independent
rational-arithmetic oracles."""

import itertools
import multiprocessing
import os
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
import sympy

from spark_forge import (
    BruteForceResult,
    ScaledDictionary,
    SparseVector,
    apply,
    build_dictionary,
    construct,
    exact_rank,
    gram_check,
    spark_bruteforce,
    spark_certify,
    uniqueness_threshold,
)
from spark_forge import dictionaries as dct
from spark_forge.hadamard import sylvester


def _oracle_rank(matrix) -> int:
    return sympy.Matrix(np.asarray(matrix).tolist()).rank()


def _oracle_first_dependent(matrix, k):
    """Lexicographically first size-k column subset with rank < k."""
    matrix = np.asarray(matrix)
    for subset in itertools.combinations(range(matrix.shape[1]), k):
        if _oracle_rank(matrix[:, subset]) < k:
            return subset
    return None


def _oracle_search(matrix, k_max):
    """(size, witness) of the smallest, then lex-least, dependent column
    subset of size <= k_max, by itertools and exact_rank."""
    for k in range(1, min(k_max, matrix.shape[1]) + 1):
        for subset in itertools.combinations(range(matrix.shape[1]), k):
            if exact_rank(matrix[:, subset]) < k:
                return k, subset
    return None, None


def _as_dictionary(matrix):
    return ScaledDictionary("thm1", 2, matrix.shape[0], 1, matrix, (0,))


def _table(matrix):
    """The search's int16 column table of `matrix`: one row per column."""
    return np.ascontiguousarray(np.asarray(matrix).T, dtype=np.int16)


@pytest.fixture(scope="module")
def q2_pair():
    built = construct("thm1", 2)
    return built.dictionary, built.vector


def test_exact_rank_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rows = rng.integers(2, 8)
        cols = rng.integers(2, 9)
        m = rng.integers(-3, 4, size=(rows, cols))
        if rng.random() < 0.5:  # force rank deficiency sometimes
            m[:, -1] = m[:, 0] * int(rng.integers(-2, 3))
        assert exact_rank(m) == _oracle_rank(m)


def test_exact_rank_edge_cases():
    assert exact_rank(np.eye(4, dtype=int)) == 4
    assert exact_rank(np.zeros((3, 5), dtype=int)) == 0
    assert exact_rank([[2, 4], [1, 2]]) == 1


def test_exact_rank_refuses_what_int64_cannot_rank_exactly():
    for bad in (
        [[2**32, 0], [0, 2**32]],  # the update's products pass 2^63
        [[1.5, 1], [3, 2]],  # floats are not truncated
        [[0.5]],
        [[2**70]],  # past int64
        np.array([[2**63]], dtype=np.uint64),
        [[1, "a"]],
    ):
        with pytest.raises(ValueError):
            exact_rank(bad)
    # within the bound: 3 rows with entries +-32767, and booleans
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.choice([-32767, 0, 32767], size=(3, 5))
        assert exact_rank(m) == _oracle_rank(m)
    assert exact_rank(np.array([[True, True], [True, True]])) == 1
    assert exact_rank([[2**62], [3]]) == 1  # one column: no minor bound applies


def test_bruteforce_matches_oracle_scan(q2_pair):
    d, _ = q2_pair
    assert _oracle_first_dependent(d.matrix, 1) is None
    assert _oracle_first_dependent(d.matrix, 2) is None
    oracle = _oracle_first_dependent(d.matrix, 3)
    res = spark_bruteforce(d, 3)
    assert res.found_size == 3
    assert res.witness == oracle == (0, 4, 11)
    assert spark_bruteforce(d, 3, workers=2) == res
    assert _oracle_rank(d.matrix[:, res.witness]) == 2


def test_bruteforce_duplicate_and_zero_columns():
    dup = ScaledDictionary(
        "thm1", 2, 2, 1,
        np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8), (0,),
    )
    res = spark_bruteforce(dup, 2)
    assert res.found_size == 2 and res.witness == (0, 2)
    assert spark_bruteforce(dup, 2, workers=2) == res

    zero = ScaledDictionary(
        "thm1", 2, 2, 1,
        np.array([[1, 0], [0, 0]], dtype=np.int8), (0,),
    )
    res = spark_bruteforce(zero, 2)
    assert res.found_size == 1 and res.witness == (1,)
    assert spark_bruteforce(zero, 2, workers=2) == res


def test_bruteforce_thm2_clears_five_and_finds_six():
    d = build_dictionary("thm2", 2)
    res5 = spark_bruteforce(d, 5)
    assert res5.found_size is None and res5.k_checked == 5

    res6 = spark_bruteforce(d, 6, workers=2)
    assert res6.found_size == 6
    assert _oracle_rank(d.matrix[:, res6.witness]) == 5
    assert spark_bruteforce(d, 6, workers=1) == res6

    # independent scan of the small sizes
    for k in (1, 2):
        assert _oracle_first_dependent(d.matrix, k) is None


def test_bruteforce_worker_invariance(monkeypatch):
    """Searched in process at the default pool count, in the pool at 0."""
    d = build_dictionary("thm1", 4)
    serial = spark_bruteforce(d, 4, workers=1)
    assert spark_bruteforce(d, 4, workers=2) == serial
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)
    parallel = spark_bruteforce(d, 4, workers=2)
    assert serial == parallel
    assert serial.found_size is None and serial.k_checked == 4


def test_bruteforce_budget_degrades_depth(q2_pair):
    d, _ = q2_pair
    res = spark_bruteforce(d, 3, budget=100)
    # 12 singletons + 66 pairs fit, adding C(12,3)=220 does not
    assert res.k_checked == 2 and res.found_size is None
    assert res.planned_subsets == 78
    assert spark_bruteforce(d, 3, budget=100, workers=2) == res
    default = spark_bruteforce(d, 3)
    assert default.budget == dct.DEFAULT_SUBSET_BUDGET and default.k_checked == 3


def test_certify_q2(q2_pair):
    d, x = q2_pair
    brute = spark_bruteforce(d, 3)
    cert = spark_certify(gram_check(d), x, brute_force=brute)
    assert cert.spark == 3
    assert cert.coherence == Fraction(1, 2)
    assert cert.general_bound == 3 and cert.union_bound == 3
    assert cert.eta_mu == Fraction(3, 2)
    assert cert.general_bound_relation == "=="
    assert "brute force" in cert.certified_by
    assert uniqueness_threshold(cert) == 1


def test_certify_q4_closes_without_search():
    built = construct("thm1", 4)
    d, x = built.dictionary, built.vector
    cert = spark_certify(gram_check(d), x)
    assert cert.spark == 5 and cert.brute_force is None
    assert cert.eta_mu == Fraction(5, 4)
    assert cert.certified_by == "coherence bound + kernel vector"
    assert uniqueness_threshold(cert) == 2


def test_certify_thm2_strict_gap():
    built = construct("thm2", 2)
    d, y = built.dictionary, built.vector
    cert = spark_certify(gram_check(d), y)
    assert cert.spark == 6
    assert cert.general_bound == 5
    assert cert.general_bound_relation == ">"
    assert cert.eta_mu == Fraction(3, 2)
    assert uniqueness_threshold(cert) == 2


def test_certify_interval_and_brute_tightening(q2_pair):
    # two disjoint dependent triples summed: a 6-sparse kernel vector whose
    # support is far above the spark
    d, _ = q2_pair
    loose = SparseVector(
        12, ((0, 1), (1, 1), (4, -1), (6, -1), (9, -1), (10, 1)), "thm1"
    )
    assert not apply(d, loose).any()
    cert = spark_certify(gram_check(d), loose)
    assert cert.spark is None
    assert (cert.lower_bound, cert.upper_bound) == (3, 6)
    assert "spark in [3, 6]" in cert.verdict()
    with pytest.raises(ValueError):
        uniqueness_threshold(cert)

    tightened = spark_certify(gram_check(d), loose, brute_force=spark_bruteforce(d, 3))
    assert tightened.spark == 3 and "brute force" in tightened.certified_by


def test_certify_rejects_non_kernel_vectors(q2_pair):
    d, x = q2_pair
    not_kernel = SparseVector(12, ((0, 1), (1, 1)), "thm1")
    with pytest.raises(ValueError, match="kernel"):
        spark_certify(gram_check(d), not_kernel)
    with pytest.raises(ValueError, match="zero"):
        spark_certify(gram_check(d), SparseVector(12, (), "thm1"))


def test_certify_refusal_ends_with_the_kernel_check_failure(q2_pair):
    """`spark_certify` refuses a vector with the first failure of the one
    kernel test, `kernel_check`, which the run reports also show."""
    d, _ = q2_pair
    for vector, failure in (
        (SparseVector(12, (), "thm1"), "vector is zero"),
        (
            SparseVector(12, ((0, 1), (1, 1)), "thm1"),
            "matrix @ vector has nonzero entry at row 0",
        ),
    ):
        with pytest.raises(ValueError) as refused:
            spark_certify(gram_check(d), vector)
        assert str(refused.value).endswith(failure)
        report = dct.kernel_check(d, vector)
        assert (report.name, report.checks, report.failures) == (
            "kernel-vector", 1, [failure],
        )


def test_result_reports_budget_and_plan(q2_pair):
    d, _ = q2_pair
    res = spark_bruteforce(d, 3, budget=10**6)
    assert res == BruteForceResult(3, 3, 3, (0, 4, 11), 298, 10**6)


def _random_planted(rng):
    """Small random {-1, 0, 1} matrix with planted zero, parallel and
    antiparallel columns and columns that are sums of two or three others."""
    rows = int(rng.integers(3, 7))
    cols = int(rng.integers(4, 10))
    m = rng.integers(-1, 2, size=(rows, cols))
    for _ in range(int(rng.integers(0, 3))):
        dst, a, b, c = rng.choice(cols, size=4, replace=False)
        kind = rng.integers(0, 6)
        if kind == 0:
            m[:, dst] = 0
        elif kind <= 2:
            m[:, dst] = m[:, a] * int(rng.choice([-2, -1, 1, 2]))
        elif kind <= 4:
            m[:, dst] = m[:, a] - m[:, b]
        else:
            m[:, dst] = m[:, a] + m[:, b] - m[:, c]
    return m.astype(np.int8)


def test_bruteforce_random_planted_against_oracle(monkeypatch):
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)  # 2 workers use the pool
    rng = np.random.default_rng(2024)
    for trial in range(300):
        m = _random_planted(rng)
        k_max = int(rng.integers(1, 5))
        size, witness = _oracle_search(m, k_max)
        res = spark_bruteforce(_as_dictionary(m), k_max)
        assert (res.found_size, res.witness) == (size, witness), (trial, m)
        if trial % 10 == 0:
            assert spark_bruteforce(_as_dictionary(m), k_max, workers=2) == res


def _chunked_case():
    """33 columns, so a 2-worker search at k = 3 cuts the first columns into
    chunks of 4.  The lex-least witness (7, 30, 32) starts at the last first
    column of the second chunk and ends deep in it; the third chunk has a
    hit (8, 9, 10) at its very first column, found almost at once."""
    rng = np.random.default_rng(0)
    m = rng.integers(-1, 2, size=(8, 33)).astype(np.int8)
    for a, b, c in ((7, 30, 32), (8, 9, 10)):
        mask = rng.random(8) < 0.5
        m[:, a] = np.where(mask, rng.choice([-1, 1], 8), 0)
        m[:, b] = np.where(~mask, rng.choice([-1, 1], 8), 0)
        m[:, c] = m[:, a] + m[:, b]  # disjoint supports: stays in {-1, 0, 1}
    return m


def test_bruteforce_witness_in_later_chunk_than_quick_hit(monkeypatch):
    m = _chunked_case()
    assert _oracle_search(m, 3) == (3, (7, 30, 32))
    assert exact_rank(m[:, [8, 9, 10]]) == 2
    d = _as_dictionary(m)
    serial = spark_bruteforce(d, 3, workers=1)
    assert serial.witness == (7, 30, 32)
    assert spark_bruteforce(d, 3, workers=2) == serial  # in process
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)
    monkeypatch.setattr(dct, "usable_cpus", lambda: 4)  # chunks as on 4 CPUs
    for workers in (2, 4):  # 4 also chunks more finely (2 first columns each)
        assert spark_bruteforce(d, 3, workers=workers) == serial


def test_search_range_stops_past_the_shared_bound(monkeypatch):
    cols = _table(_chunked_case())
    own = np.arange(33)  # every column its own orbit
    bound = multiprocessing.Value("q", 33)

    assert dct._search_reps(cols, 3, range(4, 8), own, bound) == (7, 30, 32)
    assert bound.value == 7  # the hit lowered the shared bound to its root
    # a hit at first column 7 does not cut column 7 short
    assert dct._search_reps(cols, 3, range(4, 8), own, bound) == (7, 30, 32)
    bound.value = 5  # a hit at first column 5 would beat anything here
    assert dct._search_reps(cols, 3, range(4, 8), own, bound) is None
    assert dct._search_reps(cols, 3, range(8, 12), own, bound) is None
    assert bound.value == 5

    # A k = 3 root's batch holds its one child under any cap: the default,
    # 3 * 224 entries (three children of 8 rows x 28 later columns) or 1.
    # The bound is read before each root, so no root past it is settled.
    default = dct._BATCH_ELEMENTS
    for cap in (default, 3 * 224, 1):
        monkeypatch.setattr(dct, "_BATCH_ELEMENTS", cap)
        bound.value = 6
        assert dct._search_reps(cols, 3, range(4, 12), own, bound) is None
        bound.value = 7
        assert dct._search_reps(cols, 3, range(4, 12), own, bound) == (7, 30, 32)

    class Lowered:
        """Reads 33 at the first check, then 6: another chunk found a hit at
        first column 6 while the batch was being settled."""

        reads = 0

        @property
        def value(self):
            self.reads += 1
            return 33 if self.reads == 1 else 6

    monkeypatch.setattr(dct, "_BATCH_ELEMENTS", default)
    assert dct._search_reps(cols, 3, range(4, 12), own, Lowered()) is None
    # at root 7 alone, the check before its batch passes and the one after
    # the hit (7, 30, 32) reads the lowered bound
    lowered = Lowered()
    assert dct._search_reps(cols, 3, [7], own, lowered) is None
    assert lowered.reads == 2


def _pair(reduced):
    """Lex-least (t, u), t < u, of nonzero parallel columns of `reduced`, as
    the size-2 test of `spark_bruteforce` finds it, or None."""
    cols = np.ascontiguousarray(np.asarray(reduced).T)
    n = len(cols)
    hit = dct._first_parallel(np.zeros(n, dtype=np.int64), np.arange(n), cols)
    return None if hit is None else hit[1:]


def test_parallel_pair_helper():
    # (2, -4) is parallel to (-1, 2) after gcd scaling and sign fixing
    r = np.array([[1, 2, 3, -1], [1, -4, 5, 2]])
    assert _pair(r) == (1, 3)
    assert _pair(r)[0] >= 1  # no pair starts at column 0
    assert _pair(np.array([[1, 0, 1], [0, 1, 1]])) is None
    # zero columns are never part of a pair; the lex-least pair wins
    z = np.array([[0, 3, 0, 1, 6, 1], [0, 0, 0, 0, 0, 0], [0, 3, 0, -2, 6, -2]])
    assert _pair(z) == (1, 4)
    assert _pair(z)[0] < 2  # the least pair starts before column 2
    assert _pair(z[:, 2:]) == (1, 3)
    assert _pair(np.zeros((2, 1), dtype=np.int64)) is None


def test_parallel_pair_byte_keys():
    # equal after gcd and sign: gcd 2 with a negative lead, gcd 3 positive
    pair = np.array([[-2, 3], [4, -6], [0, 0], [-6, 9]])
    assert _pair(pair) == (0, 1)
    # one entry differs, in a low byte, a high byte, or only in sign
    for a, b in (([1, 2, 3], [1, 2, 4]), ([1, 0, 2], [1, 1 << 40, 2]),
                 ([1, 5, -7], [1, 5, 7])):
        assert _pair(np.array([a, b]).T) is None
    # a zero column and a nonzero one, and two zero columns, never pair
    assert _pair(np.array([[0, 1], [0, 0]])) is None
    assert _pair(np.zeros((3, 2), dtype=np.int64)) is None


def test_bruteforce_pairs_columns_with_the_int8_minimum():
    # -128 has no int8 negation: (-128, 2) and (64, -1) are still parallel
    m = np.array([[1, -128, 0, 64], [1, 2, 1, -1]], dtype=np.int8)
    res = spark_bruteforce(_as_dictionary(m), 2, workers=2)
    assert (res.found_size, res.witness) == (2, (1, 3))


def test_first_parallel_pairs_only_within_a_child():
    """Rows labelled (child, column), as the depth-(k-3) batch passes them:
    a child's masked columns are rows that are not passed at all."""
    col = np.array([1, -1, 2])
    cols = np.zeros((3, 4, 3), dtype=np.int64)
    cols[0, 1] = col  # child 0: one copy only
    cols[1, 0] = col  # child 1: a copy in a masked column, then one kept
    cols[1, 2] = -3 * col
    cols[2, 1] = 2 * col  # child 2: the first pair of kept columns
    cols[2, 3] = col

    def first(skip):
        b, u = np.nonzero(np.arange(4) >= np.asarray(skip)[:, None])
        return dct._first_parallel(b, u, cols[b, u])

    assert first([0, 1, 0]) == (2, 1, 3)
    assert first([0, 0, 0]) == (1, 0, 2)
    assert first([4, 4, 2]) is None
    # a pair of equal rows under different children never pairs
    b, u = np.array([0, 1]), np.array([1, 1])
    assert dct._first_parallel(b, u, np.array([col, col])) is None


def _pair_by_minors(reduced):
    """Lex-least (t, u) of nonzero columns whose 2 x 2 minors all vanish,
    by a plain double loop."""
    m = reduced.shape[1]
    for t in range(m):
        a = reduced[:, t]
        for u in range(t + 1, m):
            b = reduced[:, u]
            if a.any() and b.any() and (np.outer(a, b) == np.outer(b, a)).all():
                return t, u
    return None


def _closes_stopping_set(supports, prefix, u):
    """Whether column u could close a stopping set with the columns of
    `prefix` and one more column of `supports` (one row set per matrix
    column): that column would have to hold every row the prefix meets once
    and u misses, and every row u meets that the prefix misses."""
    meets = [r for j in prefix for r in supports[j]]
    once = {r for r in meets if meets.count(r) == 1}
    missed = supports[u] - set(meets)
    return len(once - supports[u]) + len(missed) <= max(map(len, supports))


def _per_child_search(reduced, ids, prev_piv, prefix, k, skipped=None, supports=None):
    """The search as one child at a time: fraction-free elimination of each
    nonzero next column, and the last two columns by `_pair_by_minors`.
    Zero columns skipped above depth k-3 are appended to `skipped` as
    (prefix, column).  Given the matrix's `supports`, the last two columns
    are only those that `_closes_stopping_set` keeps."""
    m = reduced.shape[1]
    if len(prefix) == k - 2:
        keep = [i for i in range(m)
                if supports is None or _closes_stopping_set(supports, prefix, ids[i])]
        pair = _pair_by_minors(reduced[:, keep])
        if pair is None:
            return None
        return prefix + (ids[keep[pair[0]]], ids[keep[pair[1]]])
    for t in range(m):
        v = reduced[:, t]
        nz = np.flatnonzero(v)
        if nz.size == 0:
            if skipped is not None and len(prefix) < k - 3:
                skipped.append((prefix, ids[t]))
            continue
        piv = int(v[nz[0]])
        rest = reduced[:, t + 1 :]
        nxt = (piv * rest - np.outer(v, rest[nz[0]])) // prev_piv
        res = _per_child_search(
            nxt, ids[t + 1 :], piv, prefix + (ids[t],), k, skipped, supports
        )
        if res is not None:
            return res
    return None


def test_batched_nodes_match_the_per_child_loop(monkeypatch):
    """Matrices with proper dependent subsets, which the level order never
    hands the search, so that nodes at every depth get children whose pivot
    column is zero, and depth-(k-3) nodes duplicate columns on either side
    of a child's t.  Above depth k-3 a zero-pivot child must be skipped: its
    pivot would be the next depth's divisor.  Sizes up to 7 put up to four
    depths above the batched one.  Such matrices are outside the premise of
    the stopping-set cut, so the per-child loop applies it too, one column
    at a time, from the matrix's own supports."""
    rng = np.random.default_rng(8)
    default = dct._BATCH_ELEMENTS
    inner_zero = 0
    for trial in range(60):
        m = _random_planted(rng).astype(np.int64)
        rows, n = m.shape
        a, t, b = sorted(rng.choice(n, size=3, replace=False))
        m[:, b] = m[:, a] * int(rng.choice([-1, 1]))  # duplicates around t
        if rng.random() < 0.5:
            m[:, int(rng.integers(1, n))] = m[:, 0]  # zero pivot under (0,)
        if rng.random() < 0.5:  # zero pivot under (a, b), at depth 2
            a, b, c = sorted(rng.choice(n, size=3, replace=False))
            m[:, c] = m[:, a] - m[:, b]
        if rng.random() < 0.3:
            m[:, int(rng.integers(0, n))] = 0
        ids = tuple(range(n))
        supports = [set(np.flatnonzero(m[:, j]).tolist()) for j in range(n)]
        for k in range(3, min(n, 7) + 1):
            skipped = []
            want = _per_child_search(m, ids, 1, (), k, skipped, supports)
            inner_zero += bool(skipped)
            for cap in (1, 3, 2 * m.size, default):
                monkeypatch.setattr(dct, "_BATCH_ELEMENTS", cap)
                with np.errstate(all="raise"):  # no division by a zero pivot
                    got = dct._search_reps(_table(m), k, range(n), np.arange(n))
                assert got == want, (trial, k, cap, m)
    assert inner_zero >= 50, inner_zero


def test_batch_cap_does_not_change_the_result(monkeypatch):
    """Caps of 1 and 3 entries settle one child per batch, so batch
    boundaries fall inside every level; three times the matrix's entries
    gives three or more children per batch."""
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)  # 2 workers use the pool
    rng = np.random.default_rng(33)
    default = dct._BATCH_ELEMENTS
    cases = [(_chunked_case(), 3)]
    cases += [(_random_planted(rng), int(rng.integers(3, 6))) for _ in range(100)]
    for i, (m, k_max) in enumerate(cases):
        d = _as_dictionary(m)
        want = spark_bruteforce(d, k_max)
        assert (want.found_size, want.witness) == _oracle_search(m, k_max), i
        for cap in (1, 3, 3 * m.size):
            monkeypatch.setattr(dct, "_BATCH_ELEMENTS", cap)
            assert spark_bruteforce(d, k_max) == want, (i, cap)
            if i % 4 == 0:
                assert spark_bruteforce(d, k_max, workers=2) == want, (i, cap)
        monkeypatch.setattr(dct, "_BATCH_ELEMENTS", default)


def _sparse_planted(rng):
    """Sparse {-1, 0, 1} matrix of 8-12 rows: columns of weight 1 to 3, and
    one or two planted dependencies a + b, a + b - c or a + b - c + d of
    columns with disjoint supports, so that circuits of sizes 3 to 5 exist
    and the stopping-set cut fires often."""
    rows = int(rng.integers(8, 13))
    n = int(rng.integers(9, 14))
    m = np.zeros((rows, n), dtype=np.int8)
    for j in range(n):
        w = int(rng.choice([1, 2, 3], p=[0.1, 0.45, 0.45]))
        m[rng.choice(rows, size=w, replace=False), j] = rng.choice([-1, 1], size=w)
    for _ in range(int(rng.integers(1, 3))):
        size = int(rng.integers(3, 6))
        dst, *parts = rng.choice(n, size=size, replace=False)
        m[:, dst] = 0
        blocks = np.array_split(rng.permutation(rows), size - 1)
        for j, sign, block in zip(parts, (1, 1, -1, 1), blocks):
            m[:, j] = 0
            w = int(rng.integers(1, min(3, len(block)) + 1))
            m[block[:w], j] = rng.choice([-1, 1], size=w)
            m[:, dst] += sign * m[:, j]
    return m


def test_stopping_set_cut_against_oracle(monkeypatch):
    """The search, whose depth-(k-3) pair test sees only columns that can
    close a stopping set, against itertools and exact_rank: sparse planted
    matrices, where the cut fires often, and the denser `_random_planted`
    ones, where it seldom does.  Every case runs at 1 worker under batch
    caps of 1 and 3 entries and the default, and at 2 workers in the pool
    under one of them."""
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)  # 2 workers use the pool
    rng = np.random.default_rng(24)
    caps = (1, 3, dct._BATCH_ELEMENTS)
    sizes = []
    for trial in range(60):
        m = _sparse_planted(rng) if trial % 3 else _random_planted(rng)
        want = _oracle_search(m, 5)
        d = _as_dictionary(m)
        for cap in caps:
            monkeypatch.setattr(dct, "_BATCH_ELEMENTS", cap)
            res = spark_bruteforce(d, 5)
            assert (res.found_size, res.witness) == want, (trial, cap, m)
        monkeypatch.setattr(dct, "_BATCH_ELEMENTS", caps[trial % 3])
        assert spark_bruteforce(d, 5, workers=2) == res, (trial, m)
        sizes.append(want[0])
    assert all(sizes.count(size) >= 5 for size in (3, 4, 5)), sizes


def test_supports_list_each_columns_rows_then_the_sentinel():
    """Rows ascending, padded to the largest column weight with the row
    count; a zero column is all sentinel, and a zero table keeps width 1."""
    m = np.array([[0, 2, 0, -1], [0, 0, 0, 1], [0, -3, 0, 0], [0, 0, 5, 1]])
    assert dct._supports(_table(m)).tolist() == [
        [4, 4, 4], [0, 2, 4], [3, 4, 4], [0, 1, 3]]
    assert dct._supports(_table(np.zeros((3, 2), dtype=np.int8))).tolist() == [[3], [3]]
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = _sparse_planted(rng)
        supp = dct._supports(_table(m))
        for j in range(m.shape[1]):
            rows = np.flatnonzero(m[:, j])
            assert supp[j, : rows.size].tolist() == rows.tolist()
            assert (supp[j, rows.size :] == m.shape[0]).all()


def test_stopping_set_cut_fires(monkeypatch):
    """thm1 q=4 at size 5, each depth-2 node one batch: of the (child,
    column) pairs the position mask keeps, at most 15% reach the pair test
    (11% do; 27% would with the missed-rows term dropped, all of them with
    the once-met rows dropped), and the witness is still found."""
    d = construct("thm1", 4).dictionary
    cols = _table(d.matrix)
    orbit = dct._column_orbits(cols)[1]
    reps = np.flatnonzero(orbit == np.arange(d.n_cols)).tolist()
    descend, first_parallel = dct._descend, dct._first_parallel
    masked = tested = 0

    def recording(cols, ids, supp, count, prev_piv, prefix, k, bound):
        nonlocal masked
        if len(prefix) == k - 3:  # child t keeps the m - 1 - t columns after it
            m = len(cols)
            masked += sum(m - 1 - t for t in range(m - 2))
        return descend(cols, ids, supp, count, prev_piv, prefix, k, bound)

    def counting(b, u, vecs):
        nonlocal tested
        tested += len(b)
        return first_parallel(b, u, vecs)

    monkeypatch.setattr(dct, "_BATCH_ELEMENTS", 2**40)
    monkeypatch.setattr(dct, "_descend", recording)
    monkeypatch.setattr(dct, "_first_parallel", counting)
    assert dct._search_reps(cols, 5, reps, orbit) == (0, 16, 37, 53, 69)
    assert masked > 30000 and tested <= 0.15 * masked, (tested, masked)


def test_bruteforce_refuses_possible_int64_overflow(monkeypatch):
    m = np.random.default_rng(5).choice([-1, 1], size=(64, 30)).astype(np.int8)

    def no_level(*args):
        raise AssertionError("a level ran before the overflow check")

    monkeypatch.setattr(dct, "_run_level", no_level)
    with pytest.raises(ValueError, match="overflow int64"):
        spark_bruteforce(_as_dictionary(m), 30, budget=2**31)


def test_bruteforce_refuses_entries_outside_the_int16_table(monkeypatch):
    """Every size reads the int16 column table, so an entry of magnitude
    2^15 or more is refused at any k_max.  Read as int16, 40000 is -25536
    and 65536 is 0, so the first three matrices would give a wrong clean
    size 2, a false parallel pair and a false zero column; -2^15 fits, but
    its negative does not."""
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)  # 2 workers use the pool
    for m, k_max in (([[40000, 20000, 1], [2, 1, 0], [0, 0, 1]], 2),
                     ([[40000, -25536], [1, 1]], 2),
                     ([[65536, 1], [0, 1]], 1),
                     ([[-32768, 1], [0, 1]], 1)):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="int16"):
                spark_bruteforce(_as_dictionary(np.array(m)), k_max, workers=workers)


def test_bruteforce_searches_entries_at_the_int16_limit(monkeypatch):
    """Entries of magnitude 2^15 - 1 fit the table, negated too; Hadamard's
    bound allows k <= 3 on them and refuses k = 4.  The second matrix
    appends column 0 + column 3, a dependent triple.  In the last, column 2
    is column 0 + 3 * column 1, and the reduced columns it pairs are
    (0, 30000, 60000) and (0, 90000, 180000), parallel only if the search
    widens the table before it eliminates."""
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)  # 2 workers use the pool
    a = 2**15 - 1
    m = np.array([[a, -a, 1, 0], [1, 1, 0, 1], [0, 2, a, -a]])
    planted = np.hstack([m, m[:, [0]] + m[:, [3]]])
    widened = np.array([[30000, 0, 30000], [1, 1, 4], [0, 2, 6]])
    assert _oracle_search(widened, 3) == (3, (0, 1, 2))
    for matrix in (m, planted, -planted, widened):
        for k_max in (2, 3):
            want = _oracle_search(matrix, k_max)
            for workers in (1, 2):
                res = spark_bruteforce(_as_dictionary(matrix), k_max, workers=workers)
                assert (res.found_size, res.witness) == want, (matrix, k_max)
    assert _oracle_search(planted, 3) == (3, (0, 3, 4))
    with pytest.raises(ValueError, match="overflow int64"):
        spark_bruteforce(_as_dictionary(m), 4)


def test_sparse_vector_refuses_out_of_range_or_repeated_indices(q2_pair):
    """A negative index would make `apply` read a column from the end (the
    thm1 q=2 kernel vector with index 0 written as -12 would certify spark
    3), one past the length would be an IndexError, and a repeated one
    would hide the support size."""
    d, x = q2_pair
    assert x.support[0][0] == 0
    for support, message in (
        (
            ((-12, x.support[0][1]),) + x.support[1:],
            r"support index -12 outside \[0, 12\)",
        ),
        (((-1, 1),), r"support index -1 outside \[0, 12\)"),
        (((99, 1),), r"support index 99 outside \[0, 12\)"),
        (((12, 1),), r"support index 12 outside \[0, 12\)"),
        (((3, 1), (3, -1)), "repeated support index"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SparseVector(12, support, "thm1")
    assert spark_certify(gram_check(d), SparseVector(12, x.support, "thm1")).spark == 3


def test_sparse_vector_refuses_values_other_than_plus_or_minus_one(q2_pair):
    """A zero vector written as value-0 entries would pass `apply` and
    certify spark 3, and a value past int64 would make `apply` overflow."""
    d, x = q2_pair
    zeros = tuple((i, 0) for i, _ in x.support)
    for support in (zeros, ((0, 2),), ((0, -2),), ((0, 2**70),)):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            SparseVector(12, support, "thm1")
    assert spark_certify(gram_check(d), SparseVector(12, x.support, "thm1")).spark == 3


def test_bruteforce_rejects_budget_below_single_columns(q2_pair):
    d, _ = q2_pair
    for budget in (-5, 0, 11):
        with pytest.raises(ValueError, match=f"budget {budget} "):
            spark_bruteforce(d, 3, budget=budget)
    assert spark_bruteforce(d, 3, budget=12).k_checked == 1


def test_bruteforce_rechecks_witness_rank(q2_pair, monkeypatch):
    d, _ = q2_pair
    # (0, 1, 2) has rank 3: a kernel reporting it must not be believed
    monkeypatch.setattr(
        dct, "_run_level", lambda cols, k, *rest: (0, 1, 2) if k == 3 else None
    )
    with pytest.raises(RuntimeError, match="rank"):
        spark_bruteforce(d, 3)


# ---------------------------------------------------------------------------
# Orbit-rooted levels
# ---------------------------------------------------------------------------


def _candidates(rows):
    return [(kind, a) for kind in ("xor", "mod") for a in range(1, rows)]


def _oracle_symmetries(matrix):
    """(kept, orbit) as `_column_orbits` defines them, by plain Python: a
    candidate is kept when every transformed column, as a tuple, is in the
    set of columns and their negatives; orbits by union-find over the kept
    column maps."""
    rows, n = matrix.shape
    columns = matrix.T.tolist()
    where = {}
    for j, col in enumerate(columns):
        where[tuple(col)] = j
        where[tuple(-x for x in col)] = j
    parent = list(range(n))

    def find(j):
        while parent[j] != j:
            j = parent[j]
        return j

    kept = []
    for kind, a in _candidates(rows):
        images = []
        for col in columns:
            if kind == "xor":
                img = tuple(col[i ^ a] for i in range(rows))
            else:
                img = tuple(-x if bin(i & a).count("1") % 2 else x
                            for i, x in enumerate(col))
            if img not in where:
                break
            images.append(where[img])
        else:
            kept.append((kind, a))
            for j, image in enumerate(images):
                root_j, root_i = find(j), find(image)
                parent[max(root_j, root_i)] = min(root_j, root_i)
    return kept, np.array([find(j) for j in range(n)])


@pytest.mark.parametrize(
    "family, q, orbits, kept",
    [("thm2", 2, 3, 30), ("thm1", 4, 5, 30), ("thm1", 8, 21, 66)],
)
def test_column_orbits_of_the_shipped_families(family, q, orbits, kept):
    m = build_dictionary(family, q).matrix
    got_kept, orbit = dct._column_orbits(_table(m))
    assert len(got_kept) == kept and np.unique(orbit).size == orbits
    want_kept, want_orbit = _oracle_symmetries(m)
    assert got_kept == want_kept
    assert (orbit == want_orbit).all()


def _trivial_orbits(cols):
    return [], np.arange(len(cols))


def test_tampered_matrix_keeps_only_its_true_symmetries(monkeypatch):
    """One sign flipped in thm1 q=4 leaves 3 of the 30 transforms (those
    that fix the tampered column up to sign) and 32 orbits; the search
    gives the oracle's result and the plain search's, whose witness moves
    off column 0."""
    m = build_dictionary("thm1", 4).matrix.copy()
    m[0, 0] = -m[0, 0]
    kept, orbit = dct._column_orbits(_table(m))
    want_kept, want_orbit = _oracle_symmetries(m)
    assert kept == want_kept and (orbit == want_orbit).all()
    assert len(kept) == 3 and np.unique(orbit).size == 32
    d = _as_dictionary(m)
    clean = spark_bruteforce(d, 3, workers=2)
    assert (clean.found_size, clean.witness) == _oracle_search(m, 3) == (None, None)
    results = [spark_bruteforce(d, 5, workers=w) for w in (1, 2)]
    monkeypatch.setattr(dct, "_column_orbits", _trivial_orbits)
    assert spark_bruteforce(d, 3) == clean
    results += [spark_bruteforce(d, 5, workers=w) for w in (1, 2)]
    assert all(res == results[0] for res in results)
    assert results[0].witness == (1, 16, 36, 53, 71)
    assert exact_rank(m[:, results[0].witness]) == 4


def test_orbit_pass_does_not_change_results(monkeypatch):
    """The searches of this file on matrices with symmetry, with the orbit
    pass and with every orbit one column, for 1 and 2 workers, with the
    pool at its default count and started at size 3."""
    thm2 = build_dictionary("thm2", 2)
    thm1 = build_dictionary("thm1", 4)
    cases = [(build_dictionary("thm1", 2), 3, 10**8), (thm2, 5, 10**8),
             (thm2, 6, 10**8), (thm1, 4, 10**8), (thm1, 5, 10**8),
             (build_dictionary("thm1", 2), 3, 100),
             (_as_dictionary(_chunked_case()), 3, 10**8)]

    def run_all():
        return [spark_bruteforce(d, k, workers=w, budget=b)
                for d, k, b in cases for w in (1, 2)]

    rooted = run_all()
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)
    assert run_all() == rooted
    monkeypatch.setattr(dct, "_column_orbits", _trivial_orbits)
    assert run_all() == rooted


def _symmetric_planted(rng):
    """8-row {-1, 0, 1} matrix whose columns, up to sign, are closed under a
    random group of XOR translations and sign modulations of the row index.
    Most have planted dependent triples: 2 to 4 parts with disjoint supports
    and the sums of the first part with each other one, so the images of
    each triple are dependent too and several triples share a column.
    Columns are shuffled and randomly signed, so an orbit's least index can
    fall anywhere."""
    rows = 8
    idx = np.arange(rows)
    sylv = sylvester(3)
    nonzero = np.arange(1, rows)
    while True:
        shifts = rng.choice(nonzero, int(rng.integers(1, 3)), replace=False)
        gens = [idx ^ int(a) for a in shifts]
        mods = [sylv[int(rng.choice(nonzero))]] if rng.random() < 0.5 else []
        seeds = [rng.integers(-1, 2, rows) for _ in range(int(rng.integers(0, 2)))]
        if rng.random() < 0.8:
            cut = np.sort(rng.choice(nonzero, int(rng.integers(1, 4)), replace=False))
            parts = [np.isin(idx, p) * rng.choice([-1, 1], rows)
                     for p in np.split(rng.permutation(rows), cut)]
            seeds += parts + [parts[0] + p for p in parts[1:]]
        found = {}
        todo = [s for s in seeds if s.any()]
        while todo:
            col = todo.pop()
            key = tuple(col * (1 if col[np.flatnonzero(col)[0]] > 0 else -1))
            if key in found:
                continue
            found[key] = col
            todo += [col[g] for g in gens] + [col * s for s in mods]
        if 6 <= len(found) <= 16:
            break
    cols = [np.array(c) * rng.choice([-1, 1]) for c in found]
    return np.array(cols, dtype=np.int8)[rng.permutation(len(cols))].T


def test_rooted_levels_on_symmetric_matrices(monkeypatch):
    """Against the oracle, for 1 and 2 workers, with subsets from size 3 on
    started only at the orbits' least indices.  The witness always starts
    at one (a symmetry taking its first column lower would give a
    lex-smaller dependent set); the cases that matter are witnesses past
    skipped first columns and witnesses holding non-representatives."""
    rng = np.random.default_rng(9)
    orbits_seen, firsts_seen = [], []
    run_level, search_reps = dct._run_level, dct._search_reps

    def recording(cols, k, orbit, *rest):
        assert k >= 3  # sizes 1 and 2 never reach the levels
        orbits_seen.append(orbit)
        return run_level(cols, k, orbit, *rest)

    def recording_reps(cols, k, reps, orbit, bound=None):
        assert k >= 3  # in this process, so when the search runs here
        firsts_seen.extend(reps)
        return search_reps(cols, k, reps, orbit, bound)

    monkeypatch.setattr(dct, "_run_level", recording)
    monkeypatch.setattr(dct, "_search_reps", recording_reps)
    hits = past_skipped = mixed = 0
    for trial in range(100):
        m = _symmetric_planted(rng)
        k_max = int(rng.integers(3, 6))
        want = _oracle_search(m, k_max)
        orbit = dct._column_orbits(_table(m))[1]
        reps = np.flatnonzero(orbit == np.arange(m.shape[1]))
        assert reps.size < m.shape[1], trial  # the search is rooted
        d = _as_dictionary(m)
        orbits_seen.clear()
        firsts_seen.clear()
        for workers in (1, 2):
            res = spark_bruteforce(d, k_max, workers=workers)
            assert (res.found_size, res.witness) == want, (trial, workers, m)
        assert orbits_seen and all((o == orbit).all() for o in orbits_seen)
        assert firsts_seen and (orbit[firsts_seen] == firsts_seen).all()
        if want[0] is not None:
            first = want[1][0]
            assert orbit[first] == first
            hits += 1
            past_skipped += bool((orbit[:first] != np.arange(first)).any())
            mixed += any(orbit[j] != j for j in want[1])
    assert hits > 50 and past_skipped >= 3 and mixed >= 50, (hits, past_skipped, mixed)


def test_level_range_leaves_out_earlier_orbits():
    """With orbit labels, subsets from column 1 skip column 3, labelled as
    orbit 0's: the dependent set (1, 2, 3) is not searched, (1, 2, 4) is."""
    cols = _table([[1, 0, 0, 0, 0], [0, 1, 0, 1, 2], [0, 0, 1, 1, 1]])
    orbit = np.array([0, 1, 2, 0, 4])
    assert dct._search_reps(cols, 3, [1], np.arange(5)) == (1, 2, 3)
    assert dct._search_reps(cols, 3, [1], orbit) == (1, 2, 4)
    assert dct._search_reps(cols, 3, [1, 2], orbit) == (1, 2, 4)


def test_each_representative_roots_its_own_search(monkeypatch):
    """thm1 q=8 at k = 3, in process: the roots are exactly the 21
    representatives, the five consecutive ones 512-516 included, and the
    root at r searches the columns whose orbit's least index is at least r."""
    d = build_dictionary("thm1", 8)
    orbit = dct._column_orbits(_table(d.matrix))[1]
    reps = np.flatnonzero(orbit == np.arange(d.n_cols))
    assert reps.size == 21 and set(range(512, 517)) <= set(reps.tolist())
    descend, roots = dct._descend, []

    def recording(cols, ids, supp, count, prev_piv, prefix, k, bound):
        if not prefix:
            roots.append(ids)
        return descend(cols, ids, supp, count, prev_piv, prefix, k, bound)

    monkeypatch.setattr(dct, "_descend", recording)
    res = spark_bruteforce(d, 3, workers=1)
    assert res.k_checked == 3 and res.found_size is None
    assert [int(ids[0]) for ids in roots] == reps.tolist()
    for ids in roots:
        assert np.array_equal(ids, np.flatnonzero(orbit >= ids[0]))


def test_row_permuted_thm1_q4_roots_every_column():
    """Permuting the rows of thm1 q=4 keeps every column dependency but no
    candidate transform, so every column is a root: the symmetry-free
    search at a shipped size gives the rooted search's result."""
    d = build_dictionary("thm1", 4)
    m = d.matrix[np.random.default_rng(0).permutation(d.dimension)]
    kept, orbit = dct._column_orbits(_table(m))
    assert kept == [] and np.array_equal(orbit, np.arange(d.n_cols))
    want = spark_bruteforce(d, 5)
    assert want.witness == (0, 16, 37, 53, 69)
    for workers in (1, 2):
        assert spark_bruteforce(_as_dictionary(m), 5, workers=workers) == want


class _InProcessPool:
    """Stands in for the search's ProcessPoolExecutor: records the pool size
    it is asked for and how many levels `levels` holds by then, and runs
    every task here, so that no process starts."""

    made = None  # (max_workers, levels recorded before the pool) per pool
    levels = None

    def __init__(self, max_workers, initializer, initargs):
        self.made.append((max_workers, len(self.levels)))
        initializer(*initargs)

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def in_process_pool(monkeypatch):
    """Installs `_InProcessPool`; yields its list of pools made.  The worker
    state it sets in this process is restored afterwards."""
    for name in ("_WORKER_COLS", "_WORKER_ORBIT", "_WORKER_BOUND", "_WORKER_SUPP"):
        monkeypatch.setattr(dct, name, None)
    run_level = dct._run_level

    def recording(cols, k, *rest):
        _InProcessPool.levels.append(k)
        return run_level(cols, k, *rest)

    monkeypatch.setattr(dct, "_run_level", recording)
    monkeypatch.setattr(_InProcessPool, "made", [])
    monkeypatch.setattr(_InProcessPool, "levels", [])
    monkeypatch.setattr(dct, "ProcessPoolExecutor", _InProcessPool)
    return _InProcessPool.made


def test_pool_starts_at_the_first_size_three_level(monkeypatch, q2_pair, in_process_pool):
    """The four benchmark searches build no pool on 2 workers: no level has
    `_POOL_MIN_SUBSETS` rooted subsets.  With the count at 0 the pool starts
    at size 3, and sizes 1 and 2 never start it; with the count at size 4's,
    it starts after size 3 ran, and serves size 5 too."""
    made = in_process_pool
    monkeypatch.setattr(dct, "usable_cpus", lambda: 64)
    for family, q, k_max in (("thm2", 2, 5), ("thm1", 8, 3), ("thm1", 4, 5),
                             ("thm2", 2, 6)):
        d = build_dictionary(family, q)
        assert spark_bruteforce(d, k_max, workers=2) == spark_bruteforce(d, k_max)
    assert made == []
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)
    d, _ = q2_pair
    assert spark_bruteforce(d, 2, workers=2) == spark_bruteforce(d, 2)
    assert made == []
    _InProcessPool.levels.clear()
    assert spark_bruteforce(d, 3, workers=2).witness == (0, 4, 11)
    assert made == [(2, 0)]

    d = build_dictionary("thm2", 2)
    orbit = dct._column_orbits(_table(d.matrix))[1]
    reps = np.flatnonzero(orbit == np.arange(d.n_cols))
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", dct._rooted_subsets(orbit, reps, 4))
    want = spark_bruteforce(d, 5)
    made.clear()
    _InProcessPool.levels.clear()
    assert spark_bruteforce(d, 5, workers=2) == want
    assert made == [(2, 1)]


def test_a_pool_worker_builds_the_supports_once(monkeypatch, in_process_pool):
    """thm2 q=2 to size 5 in a pool from size 3 on: the supports are built
    once, by the one worker initializer, not once per chunk or level."""
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)
    supports, built = dct._supports, []

    def counting(cols):
        built.append(len(cols))
        return supports(cols)

    monkeypatch.setattr(dct, "_supports", counting)
    d = build_dictionary("thm2", 2)
    res = spark_bruteforce(d, 5, workers=2)
    assert in_process_pool == [(2, 0)] and built == [d.n_cols]
    built.clear()
    assert spark_bruteforce(d, 5) == res
    assert built == [d.n_cols] * 3  # in process, once per level


def test_pool_is_sized_to_the_first_columns_of_size_three(monkeypatch, in_process_pool):
    """With the pool's count at 0, thm2 q=2 has 3 representatives among its
    size-3 first columns, so 64 requested workers on 64 usable CPUs get a
    pool of 3, built before any level ran."""
    made = in_process_pool
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)
    monkeypatch.setattr(dct, "usable_cpus", lambda: 64)
    d = build_dictionary("thm2", 2)
    assert spark_bruteforce(d, 3, workers=64) == spark_bruteforce(d, 3)
    assert made == [(3, 0)]
    # orbits {0, 1} and {2, 3}: column 0 is the only size-3 first column,
    # so two workers search in process
    m = np.array([[1, 0, 1, 1], [0, 1, 1, -1]], dtype=np.int8)
    assert list(dct._column_orbits(_table(m))[1]) == [0, 0, 2, 2]
    res = spark_bruteforce(_as_dictionary(m), 3, workers=2)
    assert (res.found_size, res.witness) == (3, (0, 1, 2))
    assert made == [(3, 0)]


def test_pool_never_exceeds_the_usable_cpus(monkeypatch, in_process_pool):
    """400 requested workers on row-permuted thm1 q=4, whose 80 columns are
    each their own orbit, ask for no more processes than the usable CPUs
    (78 first columns at size 3), here and on a stand-in for 3 CPUs."""
    made = in_process_pool
    monkeypatch.setattr(dct, "_POOL_MIN_SUBSETS", 0)
    d = build_dictionary("thm1", 4)
    m = _as_dictionary(d.matrix[np.random.default_rng(0).permutation(d.dimension)])
    want = spark_bruteforce(m, 4)
    cpus = len(os.sched_getaffinity(0))
    assert dct.usable_cpus() == cpus
    assert spark_bruteforce(m, 4, workers=400) == want
    assert [size for size, _ in made] == ([min(cpus, 78)] if cpus > 1 else [])
    made.clear()
    monkeypatch.setattr(dct, "usable_cpus", lambda: 3)
    assert spark_bruteforce(m, 4, workers=400) == want
    assert [size for size, _ in made] == [3]


def test_rooted_subsets_match_an_itertools_count():
    """The count of each level's searched subsets, from the orbit labels
    alone, against the k-subsets that start at a representative and hold
    no column of an orbit below it, on thm1 q=2 and on symmetric planted
    matrices."""
    rng = np.random.default_rng(4)
    m = construct("thm1", 2).dictionary.matrix
    for matrix in [m] + [_symmetric_planted(rng) for _ in range(5)]:
        orbit = dct._column_orbits(_table(matrix))[1]
        n = len(orbit)
        reps = np.flatnonzero(orbit == np.arange(n))
        assert 1 < reps.size < n
        for k in range(3, min(n, 6) + 1):
            want = sum(
                1 for sub in itertools.combinations(range(n), k)
                if orbit[sub[0]] == sub[0] and (orbit[list(sub)] >= sub[0]).all()
            )
            assert dct._rooted_subsets(orbit, reps, k) == want, (k, matrix)


def test_bruteforce_rejects_fewer_than_one_worker(q2_pair):
    d, _ = q2_pair
    for workers in (0, -1):
        with pytest.raises(ValueError, match=f"at least 1, got {workers}"):
            spark_bruteforce(d, 3, workers=workers)


def test_bruteforce_rejects_k_max_below_one(q2_pair):
    d, _ = q2_pair
    for k_max in (0, -3):
        with pytest.raises(ValueError, match=f"k_max must be at least 1, got {k_max}"):
            spark_bruteforce(d, k_max)


def test_search_range_stops_below_the_root_once_the_bound_falls():
    """At k = 4 and 5 the first column's check passes, then another chunk
    finds a hit at first column 6: the next check, inside column 7's
    subtree, stops the chunk instead of letting it finish the subtree.  At
    k = 5 that check is at depth 1, above the batched depth k-3, and
    expanding further children there would read the bound again."""
    m = _chunked_case()
    cols = _table(m)
    own = np.arange(33)

    class Lowered:
        reads = 0

        @property
        def value(self):
            self.reads += 1
            return 33 if self.reads == 1 else 6

    assert dct._search_reps(cols, 4, [7], own) == (7, 8, 9, 10)
    lowered = Lowered()
    assert dct._search_reps(cols, 4, [7], own, lowered) is None
    assert lowered.reads == 2
    tail = m[:, 7:].astype(np.int64)
    want = _per_child_search(tail, tuple(range(7, 33)), 1, (), 5)
    assert want is not None and want[0] == 7
    assert dct._search_reps(cols, 5, [7], own) == want
    lowered = Lowered()
    assert dct._search_reps(cols, 5, [7], own, lowered) is None
    assert lowered.reads == 2
