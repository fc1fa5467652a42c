"""Artifact I/O against per-entry oracles: the CSV and JSON writers, which
fill one row template per matrix row, and the SVG writer must give the same
bytes as one formatted string per entry, on the six families and on random
shapes, and the byte-level dictionary reader must give the same matrix, or
the same error, as the per-token parse it falls back to.  The JSON and SVG
writers stream into a binary file, the SVG in blocks of whole rows under a
byte cap; at thm1 q=16 they must give the golden bytes of the benchmark,
and as many, and stay within a small memory peak, and the reader within a
bound on its own."""

import hashlib
import io
import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from spark_forge import cli, dictionaries
from spark_forge.cli import InputError, read_dictionary
from spark_forge.designs import block_labels

FAMILIES = [
    ("thm1", 2), ("thm1", 4), ("thm1", 8), ("thm1", 16), ("thm2", 2), ("thm2", 4)
]


# ---------------------------------------------------------------------------
# Oracles: one string per entry, and the per-token reader
# ---------------------------------------------------------------------------


def dictionary_csv_oracle(d) -> str:
    lines = [
        f"{cli.DICT_MAGIC}, family={d.family}, q={d.q}, "
        f"scale_sq={d.scale_sq}, layout=block-major"
    ]
    for row in d.matrix:
        lines.append(",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def dictionary_json_oracle(d, x) -> str:
    payload = {
        "schema": "spark-forge dictionary v1",
        "family": d.family,
        "q": d.q,
        "scale_sq": d.scale_sq,
        "layout": "block-major",
        "block_labels": list(d.block_labels),
        "dimensions": {"rows": d.dimension, "cols": d.n_cols},
        "matrix": d.matrix.astype(int).tolist(),
        "null_vector": {
            "length": x.length,
            "support": [[i, v] for i, v in x.support],
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_svg_oracle(matrix, vector=None) -> str:
    cell, colors = cli.CELL, cli.CELL_COLORS
    rows, cols = matrix.shape
    height = rows * cell + (2 * cell if vector is not None else 0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * cell}" '
        f'height="{height}" shape-rendering="crispEdges">'
    ]

    def emit(r, c, value):
        parts.append(
            f'<rect x="{c * cell}" y="{r * cell}" width="{cell}" height="{cell}" '
            f'fill="{colors[int(value)]}"/>'
        )

    for r in range(rows):
        for c in range(cols):
            emit(r, c, matrix[r, c])
    if vector is not None:
        for c in range(len(vector)):
            emit(rows + 1, c, vector[c])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def read_dictionary_oracle(path, text):
    """The per-token parse: every non-blank line of str.splitlines, the
    first as the header, then int() on each comma-separated token."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError(f"{path}: empty dictionary file")
    meta = cli._parse_header(
        lines[0], cli.DICT_MAGIC, ("family", "q", "scale_sq", "layout")
    )
    family = meta["family"]
    q = cli._header_int(path, meta, "q")
    scale_sq = cli._header_int(path, meta, "scale_sq")
    if meta["layout"] != "block-major":
        raise InputError(f"{path}: unsupported layout {meta['layout']!r}")
    try:
        rows = [[int(v) for v in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise InputError(f"{path}: malformed matrix row: {exc}") from exc
    if not all(set(row) <= {-1, 0, 1} for row in rows):
        raise InputError(f"{path}: entries outside {{-1, 0, 1}}")
    try:
        matrix = np.array(rows, dtype=np.int8)
    except ValueError as exc:
        raise InputError(f"{path}: malformed matrix row: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise InputError(f"{path}: no matrix rows")
    try:
        scale = dictionaries.family_scale(family, q)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    shape = (scale * scale, (q + 1) * scale * scale)
    if scale_sq != scale or matrix.shape != shape:
        raise InputError(
            f"{path}: header family={family}, q={q}, scale_sq={scale_sq} does "
            f"not fit a {matrix.shape[0]}x{matrix.shape[1]} matrix; expected "
            f"scale_sq={scale} and {shape[0]}x{shape[1]}"
        )
    return dictionaries.ScaledDictionary(
        family, q, shape[0], scale_sq, matrix, block_labels(q)
    )


@lru_cache(maxsize=None)
def _built(family, q):
    return dictionaries.construct(family, q)


def _text(writer, *args) -> str:
    """What a streaming writer writes into a binary file, as text."""
    out = io.BytesIO()
    writer(*args, out)
    return out.getvalue().decode()


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,q", FAMILIES)
def test_csv_and_json_match_oracles(family, q):
    built = _built(family, q)
    d, x = built.dictionary, built.vector
    assert cli.dictionary_csv(d) == dictionary_csv_oracle(d)
    assert _text(cli.dictionary_json, d, x) == dictionary_json_oracle(d, x)


@pytest.mark.parametrize("family,q", [fq for fq in FAMILIES if fq != ("thm1", 16)])
def test_svg_matches_oracle(family, q):
    built = _built(family, q)
    matrix, dense = built.dictionary.matrix, built.vector.dense()
    assert _text(cli.render_svg, matrix, dense) == render_svg_oracle(matrix, dense)
    assert _text(cli.render_svg, matrix, None) == render_svg_oracle(matrix)


class _Sink:
    """A binary file that keeps only the sha256 and the size of its bytes."""

    def __init__(self):
        self.sha256, self.size = hashlib.sha256(), 0

    def write(self, data):
        self.sha256.update(data)
        self.size += len(data)
        return len(data)


def _q16_writes():
    """The writer and its arguments, by kind, of the two streamed thm1 q=16
    artifacts."""
    built = _built("thm1", 16)
    d, x = built.dictionary, built.vector
    return {
        "svg": (cli.render_svg, (d.matrix, x.dense())),
        "json": (cli.dictionary_json, (d, x)),
    }


# sha256 of figure_thm1_q16.svg (render:thm1:q16) and dictionary_thm1_q16.json
# (export:thm1:q16) in perfbench/golden.json
Q16_SHA256 = {
    "svg": "119dce57a4b58abfdc46a10742cc571351092a61e42845569c2ff635fce983b5",
    "json": "427efee0bed356aab0ae95bb18261eba7dcb3d722003ad2ec24ae8a95b10ca4d",
}


# their sizes in bytes: a write of a 2-D array adds its row count to len()
Q16_SIZE = {"svg": 72_052_681, "json": 10_063_826}


@pytest.mark.parametrize("kind", ["svg", "json"])
def test_thm1_q16_streams_the_golden_bytes(kind):
    writer, args = _q16_writes()[kind]
    sink = _Sink()
    writer(*args, sink)
    assert sink.sha256.hexdigest() == Q16_SHA256[kind]
    assert sink.size == Q16_SIZE[kind]


@pytest.mark.parametrize("kind,limit_mb", [("svg", 16), ("json", 8)])
def test_thm1_q16_writers_never_hold_the_whole_text(kind, limit_mb):
    # the texts are 72 MB and 10 MB, more than the limits, so a writer that
    # builds either text whole fails
    writer, args = _q16_writes()[kind]
    sink = _Sink()
    tracemalloc.start()
    try:
        writer(*args, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > limit_mb * 10**6
    assert peak < limit_mb * 10**6


def _random_dictionary(rng, rows, cols):
    """A rows x cols matrix over {-1, 0, 1}, with entry frequencies drawn per
    matrix, so that some are nearly all -1 and some hold no -1."""
    p = rng.dirichlet(np.ones(3))
    matrix = rng.choice(np.array([-1, 0, 1], np.int8), size=(rows, cols), p=p)
    return dictionaries.ScaledDictionary("thm1", 2, rows, 2, matrix, block_labels(2))


@pytest.mark.parametrize("seed", range(30))
def test_random_shapes_match_oracles(seed):
    rng = np.random.default_rng(seed)
    d = _random_dictionary(rng, *map(int, rng.integers(1, 41, size=2)))
    x = dictionaries.SparseVector(d.n_cols, ((0, 1),), "thm1")
    text = cli.dictionary_csv(d)
    assert text == dictionary_csv_oracle(d)
    assert _text(cli.dictionary_json, d, x) == dictionary_json_oracle(d, x)
    fast = cli._canonical_matrix(text.partition("\n")[0], text)
    assert fast is not None and fast.dtype == np.int8
    assert np.array_equal(fast, d.matrix)


# rows, cols: past one JSON write of _JSON_CHUNK entries, ending inside a
# chunk and on its boundary, and a row longer than a chunk
@pytest.mark.parametrize(
    "rows,cols",
    [
        (2 * (cli._JSON_CHUNK // 700) + 5, 700),
        (2 * (cli._JSON_CHUNK // 700), 700),
        (3, cli._JSON_CHUNK + 1),
    ],
    ids=["partial-last-chunk", "whole-last-chunk", "row-over-chunk"],
)
def test_json_chunks_match_oracle(rows, cols):
    d = _random_dictionary(np.random.default_rng(cols + rows), rows, cols)
    x = dictionaries.SparseVector(cols, (), "thm1")
    assert _text(cli.dictionary_json, d, x) == dictionary_json_oracle(d, x)


def _edge_vector(kind, n):
    if kind == "none":
        return None
    if kind == "zero":
        return np.zeros(n, dtype=np.int64)
    return np.array([(-1, 0, 1)[c % 3] for c in range(n)], dtype=np.int64)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)], ids=["1x1", "1xn", "nx1"])
@pytest.mark.parametrize("vector", ["none", "zero", "mixed"])
def test_edge_shapes_match_oracles(shape, vector):
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    matrix = rng.integers(-1, 2, size=shape).astype(np.int8)
    d = dictionaries.ScaledDictionary("thm1", 2, shape[0], 2, matrix, block_labels(2))
    dense = _edge_vector(vector, shape[1])
    support = () if dense is None else tuple(
        (int(i), int(dense[i])) for i in np.flatnonzero(dense)
    )
    x = dictionaries.SparseVector(shape[1], support, "thm1")
    assert cli.dictionary_csv(d) == dictionary_csv_oracle(d)
    assert _text(cli.dictionary_json, d, x) == dictionary_json_oracle(d, x)
    assert _text(cli.render_svg, matrix, dense) == render_svg_oracle(matrix, dense)


def _svg_row_bytes(r, cols):
    """The bytes of SVG strip r of a matrix with `cols` columns."""
    return sum(
        len(f'\n<rect x="{c * cli.CELL}" y="{r * cli.CELL}" width="{cli.CELL}" '
            f'height="{cli.CELL}" fill="#bbbbbb"/>')
        for c in range(cols)
    )


class _Writes:
    """A binary file that keeps each write's bytes."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(self.writes[-1])


# x and y gain a digit at cells 1, 9, 84 and 834
SVG_SHAPES = [(86, 90), (3, 840), (840, 2)]


@pytest.mark.parametrize("cap", ["default", "below-one-row", "two-to-three-rows"])
@pytest.mark.parametrize("vector", ["none", "zero", "mixed"])
@pytest.mark.parametrize("shape", SVG_SHAPES, ids=[f"{r}x{c}" for r, c in SVG_SHAPES])
def test_svg_blocks_match_oracle(monkeypatch, shape, vector, cap):
    """render_svg writes the oracle's bytes across every digit boundary of x
    and y, with rows all gray and rows with no gray cell, in blocks of whole
    rows that hold no more than the cap, or one row if it is longer."""
    rows, cols = shape
    rng = np.random.default_rng(rows * 1000 + cols)
    matrix = rng.integers(-1, 2, size=shape).astype(np.int8)
    matrix[[0, rows // 2]] = 0
    matrix[-1] = rng.choice(np.array([-1, 1], np.int8), size=cols)
    if cap == "below-one-row":
        monkeypatch.setattr(cli, "_SVG_BYTES", _svg_row_bytes(0, cols) - 1)
    elif cap == "two-to-three-rows":
        monkeypatch.setattr(cli, "_SVG_BYTES", 5 * _svg_row_bytes(rows - 1, cols) // 2)
    dense = _edge_vector(vector, cols)
    sink = _Writes()
    cli.render_svg(matrix, dense, sink)
    assert b"".join(sink.writes).decode() == render_svg_oracle(matrix, dense)
    blocks = sink.writes[1:-1]
    longest = _svg_row_bytes(rows + 1, cols)
    assert all(b.startswith(b'\n<rect x="0" ') for b in blocks)
    assert all(len(b) <= max(cli._SVG_BYTES, longest) for b in blocks)
    strips = sum(b.count(b'<rect x="0" ') for b in blocks)
    assert strips == rows + (dense is not None)
    if cap == "below-one-row":
        assert len(blocks) == strips


@pytest.mark.parametrize("bad", [-2, 2])
def test_writers_reject_entries_outside_the_alphabet(bad):
    # -2 + 1 = -1 would index the last cell of the table, as if it were 1
    d = _built("thm1", 2).dictionary
    matrix = d.matrix.copy()
    matrix[1, 3] = bad
    broken = dictionaries.ScaledDictionary(
        d.family, d.q, d.dimension, d.scale_sq, matrix, d.block_labels
    )
    vector = _built("thm1", 2).vector
    for write in (
        lambda: cli.dictionary_csv(broken),
        lambda: _text(cli.dictionary_json, broken, vector),
        lambda: _text(cli.render_svg, matrix, None),
        lambda: _text(cli.render_svg, d.matrix, np.array([0] * 11 + [bad])),
    ):
        with pytest.raises(ValueError, match="outside"):
            write()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,q", FAMILIES)
def test_written_files_take_the_byte_path(family, q):
    text = cli.dictionary_csv(_built(family, q).dictionary)
    header = text.partition("\n")[0]
    fast = cli._canonical_matrix(header, text)
    assert fast is not None and fast.dtype == np.int8
    expected = read_dictionary_oracle("p", text).matrix
    assert np.array_equal(fast, expected)
    assert np.array_equal(read_dictionary("p", text).matrix, expected)


def test_thm1_q16_reader_peak():
    # the reader once wrote the matrix back as a second copy of the text
    # for its round trip, and peaked at 9.7 MiB
    text = cli.dictionary_csv(_built("thm1", 16).dictionary)
    tracemalloc.start()
    try:
        d = read_dictionary("p", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.matrix.shape == (256, 4352)
    assert peak < 9 * 2**20


def _q4_text():
    return cli.dictionary_csv(_built("thm1", 4).dictionary)


def _replace_entry(text, row, col, token):
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = token
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


@lru_cache(maxsize=None)
def _variants():
    """Non-canonical thm1 q=4 dictionary texts, by name."""
    text = _q4_text()
    header, _, body = text.partition("\n")
    rows = body.split("\n")
    one = next(c for c, v in enumerate(rows[2].split(",")) if v == "1")
    minus = next(c for c, v in enumerate(rows[2].split(",")) if v == "-1")
    return {
        "crlf": text.replace("\n", "\r\n"),
        "plus-one": _replace_entry(text, 2, one, "+1"),
        "space-one": _replace_entry(text, 2, one, " 1"),
        "zero-one": _replace_entry(text, 2, one, "01"),
        "blank-line": text.replace("\n", "\n\n", 3),
        "leading-blank-line": "\n" + text,
        "blank-header": "   \n" + body,
        "blank-line-before-header": "   \n" + text,
        "no-final-newline": text[:-1],
        "ragged-row": "\n".join([header] + [rows[0].rsplit(",", 1)[0]] + rows[1:]),
        "two": _replace_entry(text, 2, one, "2"),
        "three-hundred": _replace_entry(text, 2, one, "300"),
        "header-form-feed-row": header + "\x0c" + rows[0] + "\n" + body,
        "header-carriage-return": header + "\r\n" + body,
        "non-ascii-digit": _replace_entry(text, 2, one, "１"),
        "non-ascii-header": text.replace("family=thm1", "family=thé", 1),
        "extra-row": text + rows[0] + "\n",
        # the writers' slot byte for -1, and other near misses of "-1"
        "stand-in": _replace_entry(text, 2, minus, cli._MINUS.decode()),
        "nul": _replace_entry(text, 2, minus, "\0"),
        "minus-minus-one": _replace_entry(text, 2, minus, "--1"),
        "minus-zero": _replace_entry(text, 2, minus, "-0"),
        "bare-minus": _replace_entry(text, 2, minus, "-"),
    }


VARIANTS = list(_variants())


def _outcome(reader, text):
    try:
        d = reader("p.csv", text)
    except InputError as exc:
        return ("error", str(exc))
    return ("ok", d.family, d.q, d.scale_sq, d.matrix.dtype, d.matrix.tolist())


@pytest.mark.parametrize("name", VARIANTS)
def test_reader_matches_per_token_oracle(name):
    text = _variants()[name]
    header = text.partition("\n")[0]
    # an extra row is still written as dictionary_csv would write a 17x80
    # matrix; the shape check after either parse refuses it
    byte_path = name == "extra-row"
    assert (cli._canonical_matrix(header, text) is not None) == byte_path
    assert _outcome(read_dictionary, text) == _outcome(read_dictionary_oracle, text)


def test_reader_variants_cover_both_outcomes():
    outcomes = {_outcome(read_dictionary_oracle, t)[0] for t in _variants().values()}
    assert outcomes == {"ok", "error"}


# Pieces near the CSV alphabet, for byte edits of small dictionary texts
EDITS = ["\n", ",", "-", "0", "1", "-1", "--", "1,", "0\n", "/", "2", " ", "\r"]


def _written_matrix(header, text):
    """The matrix that dictionary_csv writes as the lines of `text` after
    `header`, or None if there is none: the per-line parse, kept only if
    it renders back to the text."""
    body = text[len(header) + 1 :]
    try:
        lines = body.split("\n")[:-1]
        matrix = np.array([[int(v) for v in ln.split(",")] for ln in lines], np.int8)
    except (ValueError, OverflowError):
        return None
    if matrix.ndim != 2 or not matrix.size or not set(matrix.flat) <= {-1, 0, 1}:
        return None
    return matrix if cli._cell_rows(matrix, cli.CSV_CELLS).decode() == body else None


@pytest.mark.parametrize("seed", range(4))
def test_byte_path_takes_exactly_the_written_texts(seed):
    """Random edits of small dictionary texts: the byte path returns a
    matrix exactly when dictionary_csv writes that matrix as the text, and
    the reader ends as the per-token parse does."""
    rng = np.random.default_rng(seed)
    taken = 0
    for _ in range(300):
        d = _random_dictionary(rng, *map(int, rng.integers(1, 6, size=2)))
        text = cli.dictionary_csv(d)
        header = text.partition("\n")[0]
        for _ in range(int(rng.integers(3))):
            at = int(rng.integers(len(header) + 1, len(text) + 1))
            piece = EDITS[rng.integers(len(EDITS))] * int(rng.integers(2))
            text = text[:at] + piece + text[at + int(rng.integers(2)) :]
        fast = cli._canonical_matrix(header, text)
        want = _written_matrix(header, text)
        assert (fast is None) == (want is None)
        if fast is not None:
            taken += 1
            assert fast.dtype == np.int8 and np.array_equal(fast, want)
        assert _outcome(read_dictionary, text) == _outcome(read_dictionary_oracle, text)
    # both outcomes, many times over
    assert 50 < taken < 250
