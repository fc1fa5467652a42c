"""Command-line front end: construct, verify, spark, render, export.

File formats are exact-integer and byte-deterministic.  A dictionary CSV
starts with

    # spark-forge dictionary v1, family=<f>, q=<n>, scale_sq=<s>, layout=block-major

followed by the rows of the scaled matrix as comma-separated integers in
{-1, 0, 1}.  A sparse-vector CSV starts with

    # spark-forge vector v1, family=<f>, q=<n>, length=<L>, layout=block-major

followed by one `index,value` line per nonzero entry.  Run reports are
key-sorted JSON; two runs with the same inputs differ at most in the
"timing" object.  CSV and JSON matrix text is written from one row
template: the template row is copied once per matrix row, each entry's
byte goes in through one strided write, and one replace expands the byte
standing in for -1.  The SVG is written in blocks of rows from a gray
template row, with y written through strided views and only the nonzero
cells' fills patched.  The SVG figure and the JSON export go straight into
the open output file, a block or a chunk of rows at a time, so neither
text is ever held whole: at thm1 q=16 (72 MB of SVG, 10 MB of JSON) the
writers peak at about 6.4 MiB and 1.7 MiB under tracemalloc.  Every
artifact is written to a temporary file beside it and renamed onto its
path only once closed, so a failed write leaves an earlier artifact as it
was.  A dictionary CSV exactly as written is read from its bytes, without
rewriting them: a few passes check its alphabet and token grammar, and
only the line ends, "-" and "1" bytes are located; other text gets the
tolerant per-token parse, with the same result.  `construct` and `verify`
time their stages (build, read, structural checks, Gram check, write) and
name the Gram check's path in the report's "timing" object.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import dictionaries as dct
from .designs import (
    block_labels,
    collision_table,
    verify_collision_table,
    verify_mols,
    verify_net,
)
from .hadamard import verify_coset_antisymmetry, verify_row_antisymmetry
from .report import CheckReport

DICT_MAGIC = "# spark-forge dictionary v1"
VECTOR_MAGIC = "# spark-forge vector v1"
MATRIX_ENTRIES = frozenset((-1, 0, 1))

CELL = 12
CELL_COLORS = {1: "#d62728", -1: "#1f77b4", 0: "#bbbbbb"}


class InputError(Exception):
    """Bad file, path, or parameter; maps to exit code 2."""


# Stages of construct and verify, timed in their reports' "timing" object.
STAGES = ("build", "read", "structural_checks", "gram", "write")


@contextlib.contextmanager
def _stage(stages: dict | None, name: str):
    """Add the seconds the block takes to stages[name], if stages is given."""
    start = time.perf_counter()
    try:
        yield
    finally:
        if stages is not None:
            stages[name] += time.perf_counter() - start


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


# Row templates (row head, cell with one slot byte, row end): a row is the
# head, one cell per column without the last cell's separator, and the end.
CSV_CELLS = (b"", b"?,", b"\n")
JSON_CELLS = (b"    [\n", b"      ?,\n", b"\n    ],\n")
# Entry v fills its slot with the byte ord("0") + v, so -1 stands in as "/",
# which no template holds; one replace expands it.
_MINUS = b"/"
_JSON_CHUNK = 1 << 16  # entries per dictionary_json write


def _entry_index(values: np.ndarray) -> np.ndarray:
    """values + 1; ValueError on an entry outside {-1, 0, 1}, as it would wrap."""
    if values.size and (values.min() < -1 or values.max() > 1):
        raise ValueError("matrix entries outside {-1, 0, 1}")
    return values + 1


def _row_grid(matrix: np.ndarray, cells: tuple[bytes, bytes, bytes]) -> np.ndarray:
    """The rows of `matrix` as text with -1 written as _MINUS, one row of
    bytes per matrix row: the template row, copied, then one strided write
    of the slot bytes."""
    rows, cols = matrix.shape
    if not matrix.size:
        return np.zeros((0, 0), np.uint8)
    head, cell, end = cells
    slot = cell.index(b"?")
    line = head + cell * (cols - 1) + cell[: slot + 1] + end
    grid = np.empty((rows, len(line)), np.uint8)
    grid[:] = np.frombuffer(line, np.uint8)
    first, step = len(head) + slot, len(cell)
    grid[:, first : first + cols * step : step] = _entry_index(matrix) + ord(_MINUS)
    return grid


def _cell_rows(matrix: np.ndarray, cells: tuple[bytes, bytes, bytes]) -> bytes:
    """The rows of `matrix` as text, built from one row template rather than
    as a string per entry."""
    return _row_grid(matrix, cells).tobytes().replace(_MINUS, b"-1")


def dictionary_csv(d: dct.ScaledDictionary) -> str:
    return (
        f"{DICT_MAGIC}, family={d.family}, q={d.q}, "
        f"scale_sq={d.scale_sq}, layout=block-major\n"
    ) + _cell_rows(d.matrix, CSV_CELLS).decode()


def vector_csv(x: dct.SparseVector, q: int) -> str:
    lines = [
        f"{VECTOR_MAGIC}, family={x.family}, q={q}, "
        f"length={x.length}, layout=block-major"
    ]
    for idx, val in x.support:
        lines.append(f"{idx},{val}")
    return "\n".join(lines) + "\n"


def _parse_header(line: str, magic: str, fields: tuple[str, ...]) -> dict:
    # the comma ends the version: "v1" must not match "v17" or "v1beta"
    if not line.startswith(magic + ","):
        raise InputError(f"missing header {magic + ','!r}")
    meta = {}
    for part in line[len(magic) :].split(","):
        part = part.strip()
        if not part or "=" not in part:
            continue
        key, value = part.split("=", 1)
        key = key.strip()
        if key in meta:
            raise InputError(f"repeated header field {key!r}")
        meta[key] = value.strip()
    for f in fields:
        if f not in meta:
            raise InputError(f"header lacks field {f!r}")
    return meta


def _header_int(path, meta: dict, key: str) -> int:
    try:
        return int(meta[key])
    except ValueError as exc:
        raise InputError(f"{path}: header field {key} is not an integer") from exc


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _canonical_matrix(header: str, text: str) -> np.ndarray | None:
    """The matrix of `text` parsed as bytes, or None unless its first line
    `header` is the one the per-token parse takes as the header and
    `dictionary_csv` writes the parsed matrix as exactly the lines after it;
    so both parses give one matrix on any file they share.  Only the "\\n",
    "-" and "1" bytes are located; every other test is a pass over the text."""
    # splitlines also ends a line at \r, \x0b, \x0c, \x1c-\x1e, \x85, \u2028, ...
    if not header.strip() or header.splitlines() != [header] or not text.isascii():
        return None
    body = np.frombuffer(text.encode(), np.uint8)[len(header) + 1 :]
    # "\n" and "," sort below "-", "0" and "1"
    if not body.size or body[-1] != ord("\n") or body[0] <= ord(","):
        return None
    newlines, minus, ones = (np.flatnonzero(body == ord(c)) for c in "\n-1")
    commas, zeros = (np.count_nonzero(body == ord(c)) for c in ",0")
    if len(newlines) + commas + len(minus) + zeros + len(ones) != body.size:
        return None  # a byte outside "\n,-01"
    # a byte is a digit exactly when the next one is a separator, and each
    # "-" is followed by "1": so each token is "0", "1" or "-1" and ends at
    # one separator, and the first byte is no separator
    digit_next = body[:-1] >= ord("0")
    if not np.equal(digit_next, body[1:] <= ord(","), out=digit_next).all():
        return None
    if (body[minus + 1] != ord("1")).any():
        return None
    rows = len(newlines)
    cols, ragged = divmod(rows + commas, rows)  # one separator per token

    def token(at: np.ndarray) -> np.ndarray:
        # token k's "-", digit and separator sit at 2k, 2k and 2k+1 plus the
        # count of "-" bytes before them
        return (at - np.searchsorted(minus, at)) // 2

    if ragged or not np.array_equal(token(newlines), np.arange(1, rows + 1) * cols - 1):
        return None
    matrix = np.zeros(rows * cols, np.int8)
    matrix[token(ones)] = 1
    matrix[token(minus)] = -1
    return matrix.reshape(rows, cols)


def read_dictionary(path: str | Path, text: str | None = None) -> dct.ScaledDictionary:
    """Parse a dictionary CSV; `text` is the file's contents if the caller
    has already read them."""
    if text is None:
        text = _read_text(path)
    header = text.partition("\n")[0]
    matrix = _canonical_matrix(header, text)
    if matrix is None:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError(f"{path}: empty dictionary file")
        header = lines[0]
    meta = _parse_header(header, DICT_MAGIC, ("family", "q", "scale_sq", "layout"))
    family = meta["family"]
    q, scale_sq = _header_int(path, meta, "q"), _header_int(path, meta, "scale_sq")
    if meta["layout"] != "block-major":
        raise InputError(f"{path}: unsupported layout {meta['layout']!r}")
    if matrix is None:
        try:
            rows = [[int(v) for v in ln.split(",")] for ln in lines[1:]]
        except ValueError as exc:
            raise InputError(f"{path}: malformed matrix row: {exc}") from exc
        # checked on the parsed integers: narrowing to int8 first would overflow
        if not all(MATRIX_ENTRIES.issuperset(row) for row in rows):
            raise InputError(f"{path}: entries outside {{-1, 0, 1}}")
        try:
            matrix = np.array(rows, dtype=np.int8)
        except ValueError as exc:
            raise InputError(f"{path}: malformed matrix row: {exc}") from exc
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise InputError(f"{path}: no matrix rows")
    try:
        scale = dct.family_scale(family, q)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    shape = (scale * scale, (q + 1) * scale * scale)
    if scale_sq != scale or matrix.shape != shape:
        raise InputError(
            f"{path}: header family={family}, q={q}, scale_sq={scale_sq} does "
            f"not fit a {matrix.shape[0]}x{matrix.shape[1]} matrix; expected "
            f"scale_sq={scale} and {shape[0]}x{shape[1]}"
        )
    return dct.ScaledDictionary(family, q, shape[0], scale_sq, matrix, block_labels(q))


def read_vector(
    path: str | Path, text: str | None = None
) -> tuple[dct.SparseVector, int]:
    """Parse a sparse-vector CSV; `text` as in `read_dictionary`.  The support
    lines are sorted, and `SparseVector` applies the support rules."""
    if text is None:
        text = _read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError(f"{path}: empty vector file")
    meta = _parse_header(lines[0], VECTOR_MAGIC, ("family", "q", "length", "layout"))
    if meta["layout"] != "block-major":
        raise InputError(f"{path}: unsupported layout {meta['layout']!r}")
    q, length = _header_int(path, meta, "q"), _header_int(path, meta, "length")
    support = []
    for ln in lines[1:]:
        try:
            idx_s, val_s = ln.split(",")
            support.append((int(idx_s), int(val_s)))
        except ValueError as exc:
            raise InputError(f"{path}: malformed support line {ln!r}") from exc
    try:
        return dct.SparseVector(length, tuple(sorted(support)), meta["family"]), q
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _description(d: dct.ScaledDictionary, x: dct.SparseVector | None) -> dict:
    """The fields describing a dictionary and its vector in every JSON file."""
    return {
        "family": d.family,
        "q": d.q,
        "scale_sq": d.scale_sq,
        "layout": "block-major",
        "block_labels": list(d.block_labels),
        "dimensions": {"rows": d.dimension, "cols": d.n_cols},
        "null_vector": None
        if x is None
        else {"length": x.length, "support": [[i, v] for i, v in x.support]},
    }


def dictionary_json(
    d: dct.ScaledDictionary, x: dct.SparseVector, out: BinaryIO
) -> None:
    """Write the JSON export into the binary file `out`, a chunk of matrix
    rows at a time."""
    payload = {"schema": "spark-forge dictionary v1", **_description(d, x), "matrix": 0}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # JSON_CELLS follows indent=2; json escapes newlines in strings, so only
    # the top-level key can start a line '  "matrix": '
    head, _, tail = text.partition('\n  "matrix": 0,')
    out.write(f'{head}\n  "matrix": [\n'.encode())
    rows, cols = d.matrix.shape
    step = max(1, _JSON_CHUNK // max(cols, 1))
    for r in range(0, rows, step):
        chunk = _cell_rows(d.matrix[r : r + step], JSON_CELLS)
        # the last row ends without ",\n"
        out.write(chunk if r + step < rows else chunk[:-2])
    out.write(f"\n  ],{tail}".encode())


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def collect_reports(
    dictionary: dct.ScaledDictionary,
    vector: dct.SparseVector | None,
    built: dct.Construction,
    stages: dict | None = None,
) -> tuple[list[CheckReport], dct.SparkCertificate | None, str]:
    """The one certification step of `construct` and `verify`: every named
    structural verifier (the machinery checks on `built`, the construction
    of the dictionary's family and q, and the checks of the given artifacts),
    the spark certificate, which is None unless the vector passes
    `kernel_check` and every block is orthonormal, as the bounds assume, and
    the path that decided the Gram check.  The seconds of the Gram check
    and of everything else go to `stages`."""
    field = built.field
    with _stage(stages, "structural_checks"):
        reports = [
            verify_mols(built.net[:-1].reshape(-1, field.q, field.q)),
            verify_collision_table(collision_table(field)),
            verify_net(built.net),
            verify_row_antisymmetry(built.signs),
        ]
        if field.mode == "extension":
            reports.append(verify_coset_antisymmetry(field, built.signs))

        support_rep = CheckReport("column-support")
        counts = np.count_nonzero(dictionary.matrix, axis=0)
        bad = np.flatnonzero(counts != dictionary.scale_sq)
        support_rep.count(dictionary.n_cols)
        if bad.size:
            support_rep.fail(
                f"column {int(bad[0])} has {int(counts[bad[0]])} nonzeros, "
                f"want {dictionary.scale_sq}"
            )
        reports.append(support_rep)

    with _stage(stages, "gram"):
        gram = dct.gram_check(dictionary)
    reports.append(gram.report)

    certificate = None
    if vector is not None:
        with _stage(stages, "structural_checks"):
            kernel = dct.kernel_check(dictionary, vector)
            reports.append(kernel)
            if kernel.passed and gram.orthonormal:
                certificate = dct.spark_certify(gram, vector)
    return reports, certificate, gram.decided_by


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _frac(f: Fraction | None) -> str | None:
    return None if f is None else str(f)


def run_report(
    command: str,
    dictionary: dct.ScaledDictionary,
    vector: dct.SparseVector | None,
    certificate: dct.SparkCertificate | None,
    checks: list[CheckReport],
    elapsed: float,
    stages: dict | None = None,
    gram_path: str | None = None,
) -> dict:
    """The run report; its "timing" object holds the elapsed seconds, those
    of each named stage in `stages`, and the Gram check's `gram_path`."""
    brute = certificate.brute_force if certificate else None
    timing = {"elapsed_seconds": round(elapsed, 6)}
    if stages is not None:
        timing["stage_seconds"] = {k: round(v, 6) for k, v in stages.items()}
    if gram_path is not None:
        timing["gram_path"] = gram_path
    return {
        "schema": "spark-forge run report v1",
        "command": command,
        **_description(dictionary, vector),
        "coherence": _frac(certificate.coherence) if certificate else None,
        "bounds": {
            "general": _frac(certificate.general_bound) if certificate else None,
            "union": _frac(certificate.union_bound) if certificate else None,
        },
        "spark": None
        if certificate is None
        else {
            "value": certificate.spark,
            "lower_bound": certificate.lower_bound,
            "upper_bound": certificate.upper_bound,
            "certified_by": certificate.certified_by,
            "eta_mu": _frac(certificate.eta_mu),
            "general_bound_relation": certificate.general_bound_relation,
        },
        "brute_force": None
        if brute is None
        else {
            "k_max": brute.k_max,
            "k_checked": brute.k_checked,
            "found_size": brute.found_size,
            "witness": list(brute.witness) if brute.witness else None,
            "planned_subsets": brute.planned_subsets,
            "budget": brute.budget,
        },
        "checks": [
            {
                "name": rep.name,
                "passed": rep.passed,
                "checks": rep.checks,
                "failures": list(rep.failures),
            }
            for rep in checks
        ],
        "timing": timing,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


# A rect is _RECT_HEAD, x, _RECT_MID, y, then the tail, whose 7 bytes before
# its closing '"/>' are the fill; _RECT_TAIL is the tail of a gray rect.
_RECT_HEAD, _RECT_MID = b'\n<rect x="', b'" y="'
_RECT_TAIL = f'" width="{CELL}" height="{CELL}" fill="{CELL_COLORS[0]}"/>'.encode()
_FILLS = np.array([CELL_COLORS[v].encode() for v in (-1, 0, 1)], "S7")
_SVG_BYTES = 1 << 22  # render_svg's block buffer: at least one row, at most the figure


def _digit_runs(count: int) -> list[tuple[int, int, int]]:
    """(start, stop, digits) for the runs of i in range(count) over which
    i * CELL, a rect's x or y, has the same number of digits."""
    runs, start = [], 0
    while start < count:
        digits = len(str(start * CELL))
        stop = min(count, -(-(10**digits) // CELL))
        runs.append((start, stop, digits))
        start = stop
    return runs


def render_svg(matrix: np.ndarray, vector: np.ndarray | None, out: BinaryIO) -> None:
    """Write the cell grid of the matrix, with the vector as a strip below,
    into the binary file `out`; red +1, blue -1, gray 0.

    Strips of one length whose y has as many digits go out in blocks of
    whole rows, through one buffer of about _SVG_BYTES.  A block is its
    gray template row copied, then the y digits, one strided write per run
    of rects whose x has as many digits, then the fills of the nonzero
    cells only."""
    idx = _entry_index(matrix)
    rows, cols = matrix.shape
    # (first strip, entry indices): the matrix rows by y digits, then the
    # vector's strip after a gap
    groups = [(r0, idx[r0:r1]) for r0, r1, _ in _digit_runs(rows)]
    if vector is not None:
        groups.append((rows + 1, _entry_index(vector)[None]))
    width = max((entries.shape[1] for _, entries in groups), default=0)
    xs = [b"%s%d%s" % (_RECT_HEAD, c * CELL, _RECT_MID) for c in range(width)]
    x_len = np.fromiter(map(len, xs), np.int64, width)
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * CELL}" '
        f'height="{(rows + 2 * (vector is not None)) * CELL}" '
        'shape-rendering="crispEdges">'.encode()
    )
    # one block buffer: _SVG_BYTES, but no less than the longest row (no y
    # has more digits than the vector's) and no more than the figure, as
    # numpy asks for huge pages from 4 MiB, and a small figure would then
    # take 2 MiB of RSS for its few KiB
    longest = int(x_len.sum()) + width * (len(str((rows + 1) * CELL)) + len(_RECT_TAIL))
    buf = np.empty(max(longest, min(_SVG_BYTES, (rows + 1) * longest)), np.uint8)
    for first, entries in groups:
        strips, length = entries.shape
        if not length:
            continue
        digits = len(str(first * CELL))
        rest = b"0" * digits + _RECT_TAIL  # a gray rect after its x
        line = np.frombuffer(rest.join(xs[:length]) + rest, np.uint8)
        y_at = np.cumsum(x_len[:length] + len(rest)) - len(rest)
        fill_at = y_at + len(rest) - 10  # 7 fill bytes, then '"/>'
        per = len(buf) // len(line)
        for a in range(0, strips, per):
            block = entries[a : a + per]
            n = len(block)
            grid = buf[: n * len(line)].reshape(n, len(line))
            grid[:] = line
            ys = ((first + a + np.arange(n)) * CELL).astype(f"S{digits}")[:, None]
            for c0, c1, _ in _digit_runs(length):
                rect = x_len[c0] + len(rest)
                y = np.ndarray(
                    (n, c1 - c0), ys.dtype, grid, y_at[c0], (len(line), rect)
                )
                y[:] = ys
            at = np.flatnonzero(block != 1)
            r, c = np.divmod(at, length)
            # the 7 bytes from each offset, overlapping
            cells = np.ndarray((grid.size - 6,), "S7", grid, 0, (1,))
            cells[r * len(line) + fill_at[c]] = _FILLS[block.reshape(-1)[at]]
            out.write(grid.reshape(-1).data)
    out.write(b"\n</svg>\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _artifact_paths(out_dir: str, family: str, q: int) -> dict[str, Path]:
    """Output paths for one family and q, creating out_dir if needed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{family}_q{q}"
    return {
        "dictionary": out_dir / f"dictionary_{stem}.csv",
        "vector": out_dir / f"vector_{stem}.csv",
        "report": out_dir / f"report_{stem}.json",
        "figure": out_dir / f"figure_{stem}.svg",
        "json": out_dir / f"dictionary_{stem}.json",
    }


def _write(path: Path, content) -> None:
    """Write the artifact `path` whole or not at all.  `content` is its text,
    or a function that writes it into an open binary file, so that a large
    artifact is written row by row and never held whole.  A temporary
    sibling with the same suffix is filled and closed, then replaces `path`;
    if anything fails it is removed, and an earlier `path` keeps its bytes."""
    tmp = path.with_name(f".{path.stem}.partial{path.suffix}")
    try:
        if isinstance(content, str):
            tmp.write_text(content)
        else:
            with open(tmp, "wb") as f:
                content(f)
        os.replace(tmp, path)
    except BaseException:  # an interrupt too: no temporary file is left
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {path}")


def _load_inputs(args, stages: dict | None = None) -> tuple:
    """Resolve (dictionary, vector, construction) from positional paths or
    --family/--q; the construction is None unless the flags built one.  The
    seconds of reading and of building go to `stages`."""
    paths = [Path(p) for p in getattr(args, "paths", []) or []]
    dictionary, built = None, None
    vector, vector_q = None, None
    for p in paths:
        with _stage(stages, "read"):
            text = _read_text(p)
            head = text.lstrip()
            if head.startswith(DICT_MAGIC):
                if dictionary is not None:
                    raise InputError(f"{p}: more than one dictionary file given")
                dictionary = read_dictionary(p, text)
            elif head.startswith(VECTOR_MAGIC):
                if vector is not None:
                    raise InputError(f"{p}: more than one vector file given")
                vector, vector_q = read_vector(p, text)
            else:
                raise InputError(f"{p}: not a spark-forge dictionary or vector file")
    if dictionary is None:
        if args.family is None or args.q is None:
            raise InputError("provide input paths or both --family and --q")
        with _stage(stages, "build"):
            built = dct.construct(args.family, args.q)
        dictionary = built.dictionary
        if vector is None:
            vector, vector_q = built.vector, dictionary.q
    if args.family is not None and dictionary.family != args.family:
        raise InputError(
            f"--family {args.family} does not match file family {dictionary.family}"
        )
    if args.q is not None and dictionary.q != args.q:
        raise InputError(f"--q {args.q} does not match file q {dictionary.q}")
    if vector is not None:
        if (vector.family, vector_q) != (dictionary.family, dictionary.q):
            raise InputError(
                f"vector header family={vector.family}, q={vector_q} does not "
                f"match dictionary family={dictionary.family}, q={dictionary.q}"
            )
        if vector.length != dictionary.n_cols:
            raise InputError(
                f"vector length {vector.length} does not match dictionary "
                f"columns {dictionary.n_cols}"
            )
    return dictionary, vector, built


def _cmd_construct(args) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(STAGES, 0.0)
    with _stage(stages, "build"):
        built = dct.construct(args.family, args.q)
    dictionary, vector = built.dictionary, built.vector
    paths = _artifact_paths(args.out_dir, args.family, args.q)
    with _stage(stages, "write"):
        _write(paths["dictionary"], dictionary_csv(dictionary))
        _write(paths["vector"], vector_csv(vector, dictionary.q))
    checks, certificate, gram_path = collect_reports(dictionary, vector, built, stages)
    report = run_report(
        "construct", dictionary, vector, certificate, checks,
        time.perf_counter() - started, stages, gram_path,
    )
    _write(paths["report"], report_json(report))
    return 0 if all(rep.passed for rep in checks) else 1


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    stages = dict.fromkeys(STAGES, 0.0)
    dictionary, vector, built = _load_inputs(args, stages)
    if built is None:
        with _stage(stages, "build"):
            built = dct.construct(dictionary.family, dictionary.q)
    checks, certificate, gram_path = collect_reports(dictionary, vector, built, stages)
    recon = CheckReport("matches-construction")
    with _stage(stages, "structural_checks"):
        recon.require(
            np.array_equal(dictionary.matrix, built.dictionary.matrix),
            "matrix differs from the deterministic construction",
        )
    checks.append(recon)
    for rep in checks:
        print(rep.summary())
    if certificate is not None:
        print(f"coherence = {certificate.coherence}")
    report = run_report(
        "verify", dictionary, vector, certificate, checks,
        time.perf_counter() - started, stages, gram_path,
    )
    if args.out_dir is not None:
        path = _artifact_paths(args.out_dir, dictionary.family, dictionary.q)["report"]
        _write(path, report_json(report))
    return 0 if all(rep.passed for rep in checks) else 1


def _cmd_spark(args) -> int:
    started = time.perf_counter()
    if args.k_max < 1:
        raise InputError(f"--k-max must be at least 1, got {args.k_max}")
    if args.workers < 1:
        raise InputError(f"--workers must be at least 1, got {args.workers}")
    dictionary, vector, _ = _load_inputs(args)
    if vector is None:
        raise InputError("spark certification needs the kernel vector")
    gram = dct.gram_check(dictionary)
    # refused here, before any search level, if the blocks are not orthonormal
    certificate = dct.spark_certify(gram, vector)
    brute = None
    if args.brute_force:
        brute = dct.spark_bruteforce(
            dictionary, args.k_max, workers=args.workers, budget=args.budget
        )
        certificate = dct.spark_certify(gram, vector, brute_force=brute)
    print(
        f"family={dictionary.family} q={dictionary.q} "
        f"dims={dictionary.dimension}x{dictionary.n_cols} "
        f"coherence={certificate.coherence}"
    )
    print(certificate.verdict())
    if certificate.spark is not None:
        print(
            f"eta*mu = {certificate.eta_mu}, general bound "
            f"{certificate.general_bound} "
            f"({'met with equality' if certificate.general_bound_relation == '==' else 'strictly exceeded'})"
        )
        print(f"uniqueness threshold = {dct.uniqueness_threshold(certificate)}")
    if brute is not None:
        if brute.found_size is not None:
            print(
                f"brute force: dependent subset of size {brute.found_size} "
                f"at columns {list(brute.witness)}"
            )
        else:
            print(f"brute force: no dependent subset of size <= {brute.k_checked}")
        if brute.k_checked < min(brute.k_max, dictionary.n_cols):
            print(
                f"warning: budget {brute.budget} limited the search to "
                f"size <= {brute.k_checked}",
                file=sys.stderr,
            )
    if args.out_dir is not None:
        report = run_report(
            "spark", dictionary, vector, certificate, [],
            time.perf_counter() - started,
        )
        path = _artifact_paths(args.out_dir, dictionary.family, dictionary.q)["report"]
        _write(path, report_json(report))
    return 0


def _cmd_render(args) -> int:
    dictionary, vector, _ = _load_inputs(args)
    path = _artifact_paths(args.out_dir, dictionary.family, dictionary.q)["figure"]
    dense = vector.dense() if vector is not None else None
    _write(path, functools.partial(render_svg, dictionary.matrix, dense))
    return 0


def _cmd_export(args) -> int:
    built = dct.construct(args.family, args.q)
    path = _artifact_paths(args.out_dir, args.family, args.q)["json"]
    _write(path, functools.partial(dictionary_json, built.dictionary, built.vector))
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def _add_family_q(parser, required=False):
    parser.add_argument("--family", choices=("thm1", "thm2"), required=required)
    parser.add_argument("--q", type=int, required=required)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spark-forge",
        description="Construct, verify, and certify spark-tight dictionaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a dictionary and write artifacts")
    _add_family_q(p, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run all structural verifiers")
    p.add_argument("paths", nargs="*", help="dictionary / vector CSV files")
    _add_family_q(p)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spark", help="certify the spark, optionally brute force")
    p.add_argument("paths", nargs="*", help="dictionary / vector CSV files")
    _add_family_q(p)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument(
        "--workers",
        type=int,
        default=dct.usable_cpus(),
        help="upper bound on the search's worker processes (default: the "
        "usable CPUs); sizes too small to pay for them run in process",
    )
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--budget", type=int, default=dct.DEFAULT_SUBSET_BUDGET)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_spark)

    p = sub.add_parser("render", help="render the cell-grid SVG figure")
    p.add_argument("paths", nargs="*", help="dictionary / vector CSV files")
    _add_family_q(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("export", help="write the dictionary and vector as json")
    _add_family_q(p, required=True)
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
