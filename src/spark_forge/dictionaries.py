"""Dictionaries assembled from scaled mutually unbiased bases, their sparse
kernel vectors, exact mutual coherence, and spark certification.

Two families are provided, named by the ids used in exports and on the
command line:

* thm1: dimension q^2, q+1 blocks, scaled entries over sqrt(q); mutual
  coherence exactly 1/q and a (q+1)-sparse kernel vector.
* thm2: dimension q^4, q+1 blocks built over the quadratic extension
  GF(q^2), scaled entries over sqrt(q^2); mutual coherence exactly 1/q^2
  and a (q^2+q)-sparse kernel vector.

Everything is exact: the matrix M with entries in {-1, 0, +1} stands for
D = M / sqrt(scale_sq), coherence is a Fraction, and the spark search
finds zero and parallel columns directly and, from size 3 on, expands
every node by one fraction-free (division-exact) integer update, settling
the last two columns of each subset by comparing gcd-normalised integer
columns.  It starts subsets only at one column per orbit of the signed
column permutations that XOR translations and Sylvester sign modulations
of the rows induce, one search task per such representative; each
symmetry is checked exactly on the matrix at run time, and the witness is
still the lex-least dependent subset.  A size runs in process until its
count of such subsets reaches `_POOL_MIN_SUBSETS`; from the first that
does, a pool of worker processes, no larger than the usable CPUs, takes
the tasks.
`gram_check` yields the orthonormality and unbiasedness checks together
with the coherence, from the support incidence alone on the shipped
(Wocjan-Beth) structure, read at the lines `mub.build_basis` writes, and
otherwise from the block Gram strips of
`mub.gram_strips`, exact float32 BLAS products (every entry and partial
sum is an integer below 2^24, checked at run time, with an int64
fallback), each scanned for the first failing entry of each block and of
each pair.  A spark certificate takes that check, so the coherence bounds
are applied only where their hypothesis, orthonormal blocks, was checked,
and a vector only once it passes `kernel_check`.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import INFINITY, Label, block_labels, build_net, orthogonal
from .gf import MAX_DEGREE, FieldContext
from .hadamard import permuted_hadamard, sylvester
from .mub import build_basis, gram_strips, integer_peak
from .report import CheckReport

DEFAULT_SUBSET_BUDGET = 10**8

FAMILY_Q = {"thm1": (2, 4, 8, 16), "thm2": (2, 4)}


@dataclass(frozen=True)
class ScaledDictionary:
    """Integer matrix M plus scale: the dictionary is M / sqrt(scale_sq)."""

    family: str
    q: int
    dimension: int
    scale_sq: int
    matrix: np.ndarray  # dimension x n_cols, int8
    block_labels: tuple[Label, ...]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class SparseVector:
    """Signed support of a vector in the dictionary's coefficient space.  The
    one owner of the support rules: it raises ValueError, one message per
    rule, if an index or value is not an integer (as `operator.index` takes
    it; a bool is not), an index is outside [0, length), repeats or is out
    of ascending order, or a value is not +-1, so no reader restates them.
    The support is stored as Python ints."""

    length: int
    support: tuple[tuple[int, int], ...]  # (index, value), ascending, values +-1
    family: str

    def __post_init__(self):
        try:
            for v in itertools.chain.from_iterable(self.support):
                if isinstance(v, bool):
                    raise TypeError
                operator.index(v)
        except TypeError:
            raise ValueError("support entries must be integers") from None
        ids = [i for i, _ in self.support]
        for i in ids:
            if not 0 <= i < self.length:
                raise ValueError(f"support index {i} outside [0, {self.length})")
        if len(set(ids)) < len(ids):
            raise ValueError("repeated support index")
        if ids != sorted(ids):
            raise ValueError("support indices are not ascending")
        if any(v not in (-1, 1) for _, v in self.support):
            raise ValueError("support values must be +1 or -1")
        # numpy integers pass operator.index, but json cannot write them
        support = tuple((int(i), int(v)) for i, v in self.support)
        object.__setattr__(self, "support", support)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.length, dtype=np.int64)
        for idx, val in self.support:
            out[idx] = val
        return out


def family_scale(family: str, q: int) -> int:
    """scale_sq of a supported family and q: the order of the field its
    machinery runs over, q for thm1 and q^2 for thm2.  The dictionary has
    scale_sq^2 rows.  Raises ValueError for an unsupported family or q."""
    allowed = FAMILY_Q.get(family)
    if allowed is None:
        raise ValueError(f"unknown family {family!r}; expected thm1 or thm2")
    if q & (q - 1) or q < 2:
        raise ValueError("q must be a power of two")
    if q not in allowed:
        raise ValueError(f"family {family} supports q in {set(allowed)}, got {q}")
    return q if family == "thm1" else q * q


@dataclass(frozen=True)
class Construction:
    """One family realised: the field the machinery runs over (GF(q) for
    thm1, its quadratic extension GF(q^2) for thm2), the incidence net and
    permuted sign matrix built over it, the dictionary, and its kernel
    vector."""

    field: FieldContext
    net: np.ndarray
    signs: np.ndarray
    dictionary: ScaledDictionary
    vector: SparseVector


def construct(family: str, q: int) -> Construction:
    """Build a family once.  thm1 runs the machinery over GF(q) and keeps
    every block; thm2 runs it over GF(q^2) and keeps the blocks labeled by
    the embedded subfield.  Both add the infinity block and scale by the
    machinery field's order.  The kernel vector has +1 in block b at columns
    (s | b^2, b) and -1 in the infinity block at columns (s, 0), for every s
    in a subfield: the embedded copy of GF(q) for thm2, so block b covers the
    coset of lift(b^2) (see `gf`), and {0} for thm1.
    """
    scale = family_scale(family, q)
    base = FieldContext(q.bit_length() - 1)
    if family == "thm1":
        field, kept, sub = base, list(range(q)), [0]
    else:
        field = base.extension()
        kept = sub = field.subfield_indices()
    net = build_net(field)
    signs = permuted_hadamard(field.m)
    matrix = np.hstack([build_basis(net, signs, b) for b in kept + [INFINITY]])
    d = scale * scale
    sq = base.squares()
    support = [
        (b * d + (s | int(sq[b])) * scale + b, 1) for b in range(q) for s in sub
    ]
    support += [(q * d + s * scale, -1) for s in sub]
    support.sort()
    dictionary = ScaledDictionary(family, q, d, scale, matrix, block_labels(q))
    vector = SparseVector(d * (q + 1), tuple(support), family)
    return Construction(field, net, signs, dictionary, vector)


def build_dictionary(family: str, q: int) -> ScaledDictionary:
    return construct(family, q).dictionary


def build_null_vector(family: str, q: int) -> SparseVector:
    return construct(family, q).vector


def apply(dictionary: ScaledDictionary, x: SparseVector) -> np.ndarray:
    """Exact integer product of the scaled matrix with x, in int64.  Raises
    ValueError unless x is a SparseVector of the dictionary's length."""
    if not isinstance(x, SparseVector):
        raise ValueError(f"apply expects a SparseVector, got {type(x).__name__}")
    if x.length != dictionary.n_cols:
        raise ValueError(
            f"vector length {x.length} does not match {dictionary.n_cols} columns"
        )
    out = np.zeros(dictionary.dimension, dtype=np.int64)
    for idx, val in x.support:
        out += val * dictionary.matrix[:, idx].astype(np.int64)
    return out


def kernel_check(dictionary: ScaledDictionary, x: SparseVector) -> CheckReport:
    """The one kernel test: x is nonzero and the matrix maps it to zero."""
    rep = CheckReport("kernel-vector")
    bad_rows = np.flatnonzero(apply(dictionary, x))
    rep.require(
        bool(x.support) and not bad_rows.size,
        f"matrix @ vector has nonzero entry at row {int(bad_rows[0])}"
        if bad_rows.size
        else "vector is zero",
    )
    return rep


@dataclass(frozen=True)
class GramCheck:
    """The mub-family report, whether every block is orthonormal (its scaled
    Gram matrix is scale_sq * I), the exact mutual coherence, and the path
    that decided them, "incidence" or "dense"."""

    dictionary: ScaledDictionary
    report: CheckReport
    orthonormal: bool
    coherence: Fraction
    decided_by: str


def _incidence_decides(dictionary: ScaledDictionary) -> bool:
    """Whether the Wocjan-Beth premises hold for k = scale_sq, d = k^2 and
    line j of block b at columns b*d + j*k .. b*d + j*k + k - 1, where
    `mub.build_basis` writes it: 2 or more blocks of d columns on d rows,
    entries in {-1, 0, 1}; every row is on one line of each block and the
    line labels of every two blocks are `designs.orthogonal`, so lines have
    k rows and lines of two blocks meet once; each line's k x k sign block
    has Gram k * I, and no other entry is nonzero, so the k columns of a
    line share its support.  Then a cross product is one term +-1 * +-1 and
    the dense pass would pass."""
    m, k, d = dictionary.matrix, dictionary.scale_sq, dictionary.dimension
    # m.shape[:-1] == (d,): a matrix, not a vector, with d rows
    if m.dtype.kind not in "biu" or k < 1 or d != k * k or m.shape[:-1] != (d,):
        return False
    cols = m.shape[1]
    if cols % d or cols < 2 * d or m.min() < -1 or m.max() > 1:
        return False
    if np.count_nonzero(m) != cols * k:
        return False
    # on[r, b, j]: row r is on line j of block b, read at the line's first column
    on = (m[:, ::k] != 0).reshape(d, cols // d, k)
    if not (on.sum(axis=2) == 1).all() or not orthogonal(on.argmax(axis=2).T, k).all():
        return False
    # as in build_basis: line u's k support rows, at columns u*k .. u*k + k - 1
    rows = np.nonzero(on.reshape(d, -1).T)[1].reshape(-1, k)
    signs = m.reshape(d, -1, k)[rows, np.arange(cols // k)[:, None]].astype(np.float32)
    # exact k-term sums; a diagonal of k leaves no zero on the line's rows
    gram = signs.transpose(0, 2, 1) @ signs
    return bool((gram == k * np.eye(k, dtype=np.float32)).all())


def gram_check(dictionary: ScaledDictionary) -> GramCheck:
    """Exhaustive integer check of the blocks: within a block the scaled
    Gram matrix is scale_sq * I, across two blocks every entry is +1 or -1,
    and the coherence is the largest |<column_i, column_j>| / scale_sq over
    distinct columns; ValueError when it is zero.  A matrix that meets
    `_incidence_decides` gets the GramCheck a passing dense pass gives (d^2
    * (blocks - i) checks for strip i), any other `_dense_gram_check`'s."""
    if not _incidence_decides(dictionary):
        return _dense_gram_check(dictionary)
    d, k = dictionary.dimension, dictionary.scale_sq
    blocks = dictionary.n_cols // d
    rep = CheckReport("mub-family", d * d * blocks * (blocks + 1) // 2)
    return GramCheck(dictionary, rep, True, Fraction(1, k), "incidence")


def _dense_gram_check(dictionary: ScaledDictionary) -> GramCheck:
    """`gram_check` in one pass over the exact block Gram strips, each
    scanned for the first failing entry of each block and of each pair."""
    d, labels = dictionary.dimension, dictionary.block_labels
    rep = CheckReport("mub-family")
    want_self = dictionary.scale_sq * np.eye(d, dtype=np.int64)
    orthonormal = True
    largest = 0
    for i, strip in enumerate(gram_strips(dictionary.matrix, d)):
        later = strip.shape[1] // d - 1
        rep.count(d * d * (1 + later))
        bad = strip[:, :d] != want_self
        if bad.any():
            orthonormal = False
            r, c = np.argwhere(bad)[0]
            rep.fail(
                f"basis {labels[i]}: columns ({r}, {c}) have product "
                f"{int(strip[r, c])}"
            )
        # cross[:, t] is the product of block i with block i + 1 + t
        cross = strip[:, d:].reshape(d, later, d)
        bad = (cross != 1) & (cross != -1)
        for t in np.flatnonzero(bad.any(axis=(0, 2))):
            r, c = np.argwhere(bad[:, t])[0]
            rep.fail(
                f"bases ({labels[i]}, {labels[i + 1 + t]}): columns ({r}, {c}) "
                f"have product {int(cross[r, t, c])}, want +-1"
            )
        np.fill_diagonal(strip[:, :d], 0)
        largest = max(largest, int(np.abs(strip, out=strip).max()))
    if largest == 0:
        # only zero columns can be dependent, and the bounds divide by mu
        raise ValueError("coherence is zero: no coherence bound applies")
    mu = Fraction(largest, dictionary.scale_sq)
    return GramCheck(dictionary, rep, orthonormal, mu, "dense")


# ---------------------------------------------------------------------------
# Brute-force spark search
# ---------------------------------------------------------------------------
#
# Sizes run in increasing order k, so at size k every smaller subset is
# known to be independent.  Size 1 looks for a zero column.  From size 2
# on, the last two columns u < w of a subset, reduced by fraction-free
# elimination of the columns before them, complete a dependent set exactly
# when they are nonzero and parallel.  Each column is divided by the gcd of
# its entries and signed so its first nonzero entry is positive, and its
# entries are read as one byte key: equal keys are equal columns, so the
# test is exact, and one stable argsort finds the lex-least pair.  Every
# step reads one int16 table with one row per column, which holds each
# entry and its negative exactly, as `_check_minor_bound` ensures at every
# k_max: sizes 1 and 2 are one call each on it, the orbit pass keys its
# rows, each search root widens the rows it covers to int64, and the pool's
# workers receive it as it is.
#
# From size 3 on the search walks prefixes in lexicographic order, and one
# routine, `_descend`, expands a node at every depth: one fraction-free
# update reduces the columns after each child t by column t, so every
# reduced entry is an exact integer minor of the matrix.  At depth k-3 it
# covers a batch of siblings: columns at or before a child's own t are
# masked out, and one sort over the batch (keys compared only within a
# child) yields the lex-least (t, u, w).  Above that depth it covers one
# child, whose subtree is searched before the next sibling is reduced, so
# an early hit pays for no later sibling; a child whose reduced column is
# zero closes a smaller dependent set and is skipped, as its pivot would
# divide the next depth.  The first hit at the smallest size is the
# (size-major, lexicographically least) witness.
#
# From size 3 on, subsets start only at symmetry orbit representatives.  A
# signed row permutation T with T M = M P S, for a column permutation P and
# a diagonal sign matrix S, maps every dependent column set onto a dependent
# set of the same size.  The candidates are the XOR translations of the row
# index and the Sylvester sign modulations; one is kept only after checking,
# on the byte keys of every column and its negative, that it maps every
# column to plus or minus a column.  A column is a representative when it
# is the least index of its orbit under the kept maps, and the level search
# runs, in the matrix's own order, only over subsets whose first column is
# a representative.  That loses no witness: if the lex-least dependent set
# started at a column j that is not a representative, a symmetry taking j
# to its orbit's least index would give a dependent set with a smaller
# first column.  So the search still returns the lex-least witness, and
# finding nothing still clears the level.  The same argument trims each
# subtree: the lex-least set of a symmetry class holds no column of an
# orbit whose least index is below its first column, so subsets that start
# at a representative r use only columns whose orbit's least index is at
# least r.
#
# One loop searches representatives in ascending order, in process or in a
# worker: each representative r roots one `_descend` call over the columns
# whose orbit's least index is at least r, with r as its only first column.
# The representatives are found once per search.
# A level whose rooted subsets number fewer than `_POOL_MIN_SUBSETS` is
# searched in process: below that, starting worker processes and sending
# them chunks costs more than they save.  The pool starts at the first level
# that reaches the count, with no more processes than the requested
# workers, that level's representatives or the usable CPUs, and serves
# every deeper level.  It splits a level into chunks of representatives,
# read back in ascending order.  A chunk that finds a hit lowers a shared
# bound to the hit's first column, and every chunk stops, at its next node,
# once its first column passes the bound: the lex-least witness has the
# smallest first column of any hit, so no chunk that could hold it is cut
# short, and the witness does not depend on the worker count or on where
# the pool starts.

# int64 entries in one batched update; caps the search's memory per batch
_BATCH_ELEMENTS = 2**16

# rooted subsets of a level from which it is searched in the worker pool
_POOL_MIN_SUBSETS = 10**7


@dataclass(frozen=True)
class BruteForceResult:
    k_max: int
    k_checked: int
    found_size: int | None
    witness: tuple[int, ...] | None
    planned_subsets: int
    budget: int


def _first_parallel(cols, skip):
    """Lex-least (b, u, w) with skip[b] <= u < w and columns cols[b, u] and
    cols[b, w] nonzero and parallel, or None.

    `cols` has shape (batch, columns, rows): cols[b] holds the columns of
    one reduced matrix as rows."""
    width, rows = cols.shape[1:]
    gcd = np.gcd.reduce(cols, axis=2)
    # masked and zero columns never pair
    keep = (np.arange(width) >= skip[:, None]) & (gcd > 0)
    b, u = np.nonzero(keep)  # ascending in (b, u)
    if b.size < 2:
        return None
    canon = cols[keep]
    gcd = gcd[keep]
    lead = canon[np.arange(b.size), (canon != 0).argmax(axis=1)]
    canon *= np.where(lead < 0, -1, 1)[:, None]
    big = gcd > 1
    if big.any():
        canon[big] //= gcd[big, None]
    keys = canon.view(np.dtype((np.void, rows * canon.itemsize))).ravel()
    order = np.argsort(keys, kind="stable")  # equal keys stay in (b, u) order
    ranked = canon[order]
    first, second = order[:-1], order[1:]
    same = (ranked[1:] == ranked[:-1]).all(axis=1) & (b[first] == b[second])
    hits = np.flatnonzero(same)
    if hits.size == 0:
        return None
    i = hits[np.argmin(first[hits])]
    return int(b[first[i]]), int(u[first[i]]), int(u[second[i]])


def _past(bound, first):
    """Whether a hit elsewhere in the pass has a first column below `first`,
    so that no subset starting at `first` can be the lex-least witness."""
    return bound is not None and first > bound.value


def _descend(cols, ids, prev_piv, prefix, k, bound):
    """Lex-least completion of `prefix` to a dependent k-set (k >= 3) by the
    reduced columns `cols` (one per row, matrix indices `ids`); at the root,
    with `prefix` empty, the first column is ids[0] alone.  Stops once the
    subset's first column passes `bound`."""
    m = len(cols)
    depth = len(prefix)
    first = prefix[0] if prefix else ids[0]
    last = depth == k - 3
    lead = (cols != 0).argmax(axis=1)
    # a zero column t has pivot 0: its update is zero, masked or skipped
    piv = cols[np.arange(m), lead]
    t_end = min(m - (k - depth - 1), m if prefix else 1)
    t0 = 0
    while t0 < t_end:
        if _past(bound, first):
            return None
        if not last and piv[t0] == 0:
            t0 += 1
            continue  # a smaller dependent set; found at an earlier level
        rest = cols[t0 + 1 :]
        t1 = t0 + 1  # one child above depth k-3, a batch at it
        if last:
            t1 = min(t_end, t0 + max(1, _BATCH_ELEMENTS // rest.size))
        ts = np.arange(t0, t1)
        # fraction-free update of every column after t0 by each child t:
        # entries stay (depth+2)-minors of the matrix
        upd = piv[ts, None, None] * rest
        upd -= rest[:, lead[ts]].T[:, :, None] * cols[ts, None, :]
        if prev_piv != 1:
            upd //= prev_piv
        if last:
            hit = _first_parallel(upd, ts - t0)  # child t keeps columns > t
            if hit is not None:
                if _past(bound, first):
                    return None
                t, u, w = t0 + hit[0], t0 + 1 + hit[1], t0 + 1 + hit[2]
                return prefix + (int(ids[t]), int(ids[u]), int(ids[w]))
        else:
            # a copy, not a view of upd: fewer page faults in pool workers
            child = prefix + (int(ids[t0]),)
            res = _descend(upd[0].copy(), ids[t1:], int(piv[t0]), child, k, bound)
            if res is not None:
                return res
        t0 = t1
    return None


def _search_reps(cols, k, reps, orbit, bound=None):
    """Lex-least dependent subset of exact size k >= 3 whose first column is
    one of the ascending representatives `reps` of `orbit`, or None; proper
    subsets are assumed independent.  `cols` is the int16 column table, and
    a subset that starts at r keeps to the columns whose orbit's least index
    is at least r, widened to int64.  A hit lowers the shared `bound`, if
    any, to its first column."""
    for r in reps:
        ids = np.flatnonzero(orbit >= r)
        res = _descend(cols[ids].astype(np.int64), ids, 1, (), k, bound)
        if res is not None:
            if bound is not None:
                with bound.get_lock():
                    bound.value = min(bound.value, r)
            return res
    return None


def _column_orbits(cols):
    """Exact column symmetries of the int16 column table `cols` (one row
    per column) among the candidate row transforms, and the column orbits
    they generate.

    Returns (kept, orbit).  `kept` lists, in the order tried, the transforms
    ("xor", a), row i -> row i ^ a, and ("mod", a), row i times
    (-1)^popcount(i & a), for a = 1..rows-1, that map every column to plus
    or minus a column; `orbit[j]` is the least column index in column j's
    orbit.  Only row counts 2..2^MAX_DEGREE that are powers of two, and
    nonzero columns pairwise distinct up to sign, are tried; any other
    matrix gets no transform and single-column orbits.  Entries must have
    magnitude below 2^15, as `_check_minor_bound` ensures for every search,
    so that negation is exact.
    """
    n, rows = cols.shape
    orbit = np.arange(n)
    if not 2 <= rows <= 1 << MAX_DEGREE or rows & (rows - 1):
        return [], orbit
    ranked = np.concatenate([cols, -cols])  # row n + j is column j negated
    key = np.dtype((np.void, 2 * rows))
    order = np.argsort(ranked.view(key).ravel())
    ranked = ranked[order]
    keys = ranked.view(key).ravel()
    if (ranked[1:] == ranked[:-1]).all(axis=1).any():
        return [], orbit  # a zero or repeated column: dependent at size <= 2
    idx = np.arange(rows)
    sylv = sylvester(rows.bit_length() - 1).astype(np.int16)

    def column_map(kind, a):
        """Columns that the columns, transformed, equal up to sign, or None
        when one of them equals none.  Maps 8, 16, 32, ... columns at a
        time, so that most failures cost a few small steps."""
        perm = []
        start, step = 0, 8
        while start < n:
            part = cols[start : start + step]
            img = part.take(idx ^ a, axis=1) if kind == "xor" else part * sylv[a]
            pos = np.searchsorted(keys, img.view(key).ravel())
            pos = np.minimum(pos, 2 * n - 1)
            if not (ranked[pos] == img).all():
                return None
            perm.append(order[pos] % n)
            start, step = start + step, 2 * step
        return np.concatenate(perm).astype(np.int32)  # kept maps are held

    kept, maps = [], []
    for kind in ("xor", "mod"):
        # The transforms of one kind compose as a ^ b, so the kept ones
        # form a group and the failed ones whole cosets of it: only a
        # candidate outside both is checked, and only generators are mapped.
        status = np.zeros(rows, dtype=np.int8)  # 1 kept, -1 failed
        status[0] = 1
        for a in range(1, rows):
            if status[a] == 0:
                group = np.flatnonzero(status == 1)
                perm = column_map(kind, a)
                if perm is None:
                    status[group ^ a] = -1
                else:
                    status[np.flatnonzero(status == -1) ^ a] = -1
                    status[group ^ a] = 1
                    maps.append(perm)
            if status[a] == 1:
                kept.append((kind, a))
    changed = bool(maps)
    while changed:  # least index over the connected components of the maps
        changed = False
        for perm in maps:
            low = np.minimum(orbit, orbit[perm])
            low[perm] = np.minimum(low[perm], low)
            if (low != orbit).any():
                orbit, changed = low, True
    return kept, orbit


_WORKER_COLS = None
_WORKER_ORBIT = None
_WORKER_BOUND = None


def _init_worker(cols, orbit, bound):
    global _WORKER_COLS, _WORKER_ORBIT, _WORKER_BOUND
    _WORKER_COLS, _WORKER_ORBIT, _WORKER_BOUND = cols, orbit, bound


def _worker_reps(k, reps):
    return _search_reps(_WORKER_COLS, k, reps, _WORKER_ORBIT, _WORKER_BOUND)


def _rooted_subsets(orbit, reps, k):
    """Number of k-subsets (k >= 3) that a level searches, with no search:
    for each representative r <= n - k of `orbit`, the (k-1)-subsets of the
    later columns whose orbit's least index is at least r."""
    n = len(orbit)
    reps = reps[reps <= n - k]
    avail = n - np.searchsorted(np.sort(orbit), reps)  # columns r's subsets use
    return sum(math.comb(int(a) - 1, k - 1) for a in avail)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_level(cols, k, orbit, reps, workers, pool, bound):
    """Lex-least dependent k-subset (k >= 3) of the int16 column table
    `cols`, or None.  Subsets start only at those ascending representatives
    `reps` of `orbit` (from `_column_orbits`) that leave room for k - 1 later
    columns, and keep to their own and later orbits.  Without a pool they
    are searched here; with one, its `workers` processes, holding the same
    table and labels, search chunks of them."""
    n = len(cols)
    reps = reps[reps <= n - k].tolist()  # holds column 0
    if pool is None:
        return _search_reps(cols, k, reps, orbit)
    bound.value = n  # no hit yet at this level
    chunk = max(1, -(-len(reps) // (workers * 4)))
    futures = [
        pool.submit(_worker_reps, k, reps[s : s + chunk])
        for s in range(0, len(reps), chunk)
    ]
    for fut in futures:  # ascending representatives re-establish lex order
        res = fut.result()
        if res is not None:
            return res  # chunks still queued are dropped at pool shutdown
    return None


def _minors_overflow(a, j, caller):
    """Raise ValueError, naming `caller`, when twice the square of Hadamard's
    bound a^j * j^(j/2) on the j-minors of a matrix with entries of
    magnitude at most a reaches 2^63.  A fraction-free update subtracts two
    products of such minors, so below that it cannot overflow int64."""
    if j >= 1 and 2 * a ** (2 * j) * j**j >= 2**63:
        raise ValueError(
            f"{caller} could overflow int64: twice the square of Hadamard's "
            f"bound on the {j}-minors ({a}^{j} * {j}^({j}/2)) is not below 2^63"
        )


def _check_minor_bound(matrix, k):
    """Refuse a search to size k on entries that `integer_peak` refuses, or
    whose int16 column table or int64 elimination could overflow.

    Every search reads the table, which holds an entry and its negative
    exactly only below magnitude 2^15, so that is checked at every k.  The
    deepest minors the elimination (and the witness re-check) forms have
    order j = min(k - 1, rows); Hadamard's bound caps them at a^j * j^(j/2)
    for entries of magnitude at most a, and an update subtracts two products
    of such minors, so 2 * bound^2 must stay below 2^63.  The batched update
    of a depth-(k-3) node also computes the columns at or before each
    child's own first column, which are then masked out; each such entry is
    still the difference of two products of (depth+1)-minors, so the same
    bound covers it.
    """
    a = integer_peak(matrix)
    if a >= 2**15:
        raise ValueError(f"entry of magnitude {a} >= 2^15 does not fit the int16 table")
    _minors_overflow(a, min(k - 1, matrix.shape[0]), f"a search to size {k}")


def spark_bruteforce(
    dictionary: ScaledDictionary,
    k_max: int,
    workers: int = 1,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> BruteForceResult:
    """Smallest dependent column subset of size <= k_max, if any.

    Returns the lexicographically least witness of the smallest size; the
    result does not depend on the worker count.  From size 3 up, subsets
    start only at one column per orbit of the matrix's column symmetries
    (found and checked exactly at run time), which keeps the lex-least
    witness.  `workers` is an upper bound: a size whose count of such
    subsets is below `_POOL_MIN_SUBSETS` is searched in process, and a
    pool starts at the first size that reaches it, with no more processes
    than `workers`, that size's first columns or the usable CPUs.  The
    budget caps the total number of subsets the search is allowed to plan
    for (a priori, by binomial counts), degrading k_max rather than
    aborting mid-run; it must cover at least the single columns.  Raises
    ValueError when k_max or workers is below 1, an entry is not an integer
    (`mub.integer_peak`) or has magnitude 2^15 or more, or the int64
    elimination could overflow at the planned depth, and RuntimeError if a
    witness fails its exact rank re-check.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n = dictionary.n_cols
    if budget < n:
        raise ValueError(
            f"budget {budget} is below the {n} single-column subsets, "
            "so nothing would be searched"
        )
    k_cap = min(k_max, n)
    planned = 0
    k_checked = 0
    for k in range(1, k_cap + 1):
        cost = math.comb(n, k)
        if planned + cost > budget:
            break
        planned += cost
        k_checked = k
    _check_minor_bound(dictionary.matrix, k_checked)

    # the one copy of the matrix that the search reads, exact by the guard
    cols = np.ascontiguousarray(dictionary.matrix.T, dtype=np.int16)
    zero = np.flatnonzero(~cols.any(axis=1))
    pair = None
    if k_checked >= 2 and zero.size == 0:
        pair = _first_parallel(cols[None], np.zeros(1, dtype=np.int64))
    found_size = witness = None
    if zero.size:  # k_checked >= 1 whenever there is a column
        found_size, witness = 1, (int(zero[0]),)
    elif pair is not None:
        found_size, witness = 2, pair[1:]
    elif k_checked >= 3:
        # nonzero columns, pairwise distinct up to sign, as the orbit pass needs
        orbit = _column_orbits(cols)[1]
        reps = np.flatnonzero(orbit == np.arange(n))
        workers = min(workers, usable_cpus())
        pool = bound = None
        try:
            for k in range(3, k_checked + 1):
                if (pool is None and workers > 1
                        and _rooted_subsets(orbit, reps, k) >= _POOL_MIN_SUBSETS):
                    # deeper levels have no more representatives than this one
                    workers = min(workers, int((reps <= n - k).sum()))
                    if workers > 1:
                        bound = multiprocessing.Value("q", n)
                        pool = ProcessPoolExecutor(
                            max_workers=workers,
                            initializer=_init_worker,
                            initargs=(cols, orbit, bound),
                        )
                witness = _run_level(cols, k, orbit, reps, workers, pool, bound)
                if witness is not None:
                    found_size = k
                    break
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
    if witness is not None:
        if exact_rank(dictionary.matrix[:, list(witness)]) != found_size - 1:
            raise RuntimeError(
                f"search kernel fault: witness {list(witness)} does not have "
                f"rank {found_size - 1}"
            )
    return BruteForceResult(k_max, k_checked, found_size, witness, planned, budget)


def exact_rank(matrix: np.typing.ArrayLike) -> int:
    """Rank over the rationals by fraction-free elimination on int64.

    Raises ValueError for entries that `mub.integer_peak` refuses, and when
    an update could overflow int64: when twice the square of Hadamard's
    bound on the j-minors, j = min(rows, cols) - 1, is not below 2^63.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("exact_rank expects a 2-d matrix")
    _minors_overflow(integer_peak(m), min(m.shape) - 1, "exact_rank")
    m = m.astype(np.int64)
    rank = 0
    prev = 1
    rows, cols = m.shape
    for c in range(cols):
        pivots = np.flatnonzero(m[rank:, c])
        if pivots.size == 0:
            continue
        p = rank + int(pivots[0])
        if p != rank:
            m[[rank, p]] = m[[p, rank]]
        piv = int(m[rank, c])
        below = m[rank + 1 :]
        m[rank + 1 :] = (piv * below - np.outer(below[:, c], m[rank])) // prev
        prev = piv
        rank += 1
        if rank == rows:
            break
    return rank


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparkCertificate:
    """Exact spark bounds for a dictionary with a known kernel vector.

    general_bound is 1 + 1/mu (valid for every dictionary); union_bound is
    (1 + 1/q)/mu (valid for unions of q+1 orthonormal bases).  The verdict
    is exact when the bounds meet the kernel-vector upper bound or when an
    exhaustive search has cleared everything below it.
    """

    coherence: Fraction
    general_bound: Fraction
    union_bound: Fraction
    upper_bound: int
    lower_bound: int
    spark: int | None
    certified_by: str | None
    brute_force: BruteForceResult | None
    eta_mu: Fraction | None
    general_bound_relation: str | None

    def verdict(self) -> str:
        if self.spark is not None:
            return f"spark = {self.spark} (certified: {self.certified_by})"
        return (
            f"spark in [{self.lower_bound}, {self.upper_bound}] "
            f"(no dependent subset of size <= {self.lower_bound - 1} found)"
        )


def spark_certify(
    gram: GramCheck,
    x: SparseVector,
    brute_force: BruteForceResult | None = None,
) -> SparkCertificate:
    """Certify the spark of the dictionary `gram` checked, from the
    coherence bounds, the kernel vector x, and optionally a brute-force
    search result.  Raises ValueError with the first failure of
    `kernel_check` unless x passes it, and unless the blocks are
    orthonormal, the hypothesis of the union bound (and, through unit-norm
    columns, of the general one)."""
    dictionary, mu = gram.dictionary, gram.coherence
    kernel = kernel_check(dictionary, x)
    if not kernel.passed:
        raise ValueError(f"not a kernel vector: {kernel.failures[0]}")
    if not gram.orthonormal:
        raise ValueError("the blocks are not orthonormal: no coherence bound applies")
    general = 1 + 1 / mu
    union = (1 + Fraction(1, dictionary.q)) / mu
    upper = len(x.support)
    lower = max(math.ceil(general), math.ceil(union))

    if brute_force is not None:
        if brute_force.found_size is not None:
            # sizes below found_size were searched clean, so this is exact
            upper = min(upper, brute_force.found_size)
            lower = max(lower, brute_force.found_size)
        else:
            lower = max(lower, brute_force.k_checked + 1)
    if lower > upper:
        raise ValueError(
            f"inconsistent certificate: lower bound {lower} exceeds upper {upper}"
        )

    spark = upper if lower == upper else None
    certified_by = None
    eta_mu = None
    relation = None
    if spark is not None:
        reasons = []
        if max(math.ceil(general), math.ceil(union)) == upper:
            reasons.append("coherence bound")
        if brute_force is not None:
            if brute_force.found_size == upper:
                reasons.append("brute force")
            elif brute_force.k_checked >= upper - 1:
                reasons.append("exhaustive search")
        reasons.append("kernel vector")
        certified_by = " + ".join(reasons)
        eta_mu = spark * mu
        relation = "==" if Fraction(spark) == general else ">"
    return SparkCertificate(
        mu, general, union, upper, lower, spark, certified_by, brute_force,
        eta_mu, relation,
    )


def uniqueness_threshold(certificate: SparkCertificate) -> int:
    """Largest t with t < spark/2: representations with at most t nonzeros
    are unique."""
    if certificate.spark is None:
        raise ValueError("certificate does not pin an exact spark")
    return (certificate.spark - 1) // 2
