"""End-to-end command-line checks: golden artifacts, exit codes, round
trips, fault injection, rendering, and determinism."""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spark_forge import cli, designs, dictionaries, hadamard, mub
from spark_forge.cli import InputError, main, read_dictionary, read_vector

GOLDEN_Q2_CSV = """\
# spark-forge dictionary v1, family=thm1, q=2, scale_sq=2, layout=block-major
1,1,0,0,1,1,0,0,1,1,0,0
0,0,1,1,0,0,1,1,1,-1,0,0
1,-1,0,0,0,0,1,-1,0,0,1,1
0,0,1,-1,1,-1,0,0,0,0,1,-1
"""

GOLDEN_Q2_VECTOR = """\
# spark-forge vector v1, family=thm1, q=2, length=12, layout=block-major
0,1
7,1
8,-1
"""


def _strip_timing(report: dict) -> dict:
    report = dict(report)
    report.pop("timing", None)
    return report


def test_construct_golden_artifacts(tmp_path):
    assert main(["construct", "--family", "thm1", "--q", "2",
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "dictionary_thm1_q2.csv").read_text() == GOLDEN_Q2_CSV
    assert (tmp_path / "vector_thm1_q2.csv").read_text() == GOLDEN_Q2_VECTOR
    report = json.loads((tmp_path / "report_thm1_q2.json").read_text())
    assert report["coherence"] == "1/2"
    assert report["spark"]["value"] == 3
    assert report["spark"]["eta_mu"] == "3/2"
    assert all(check["passed"] for check in report["checks"])


def test_construct_rejects_bad_q(tmp_path, capsys):
    assert main(["construct", "--family", "thm1", "--q", "3",
                 "--out-dir", str(tmp_path)]) == 2
    assert "q must be a power of two" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family,q",
    [("thm1", 2), ("thm1", 4), ("thm1", 8), ("thm1", 16), ("thm2", 2), ("thm2", 4)],
)
def test_round_trip_verify(tmp_path, family, q):
    main(["construct", "--family", family, "--q", str(q), "--out-dir", str(tmp_path)])
    report = tmp_path / f"report_{family}_q{q}.json"
    # the shipped matrices are certified from their support incidence
    assert json.loads(report.read_text())["timing"]["gram_path"] == "incidence"
    report.unlink()
    code = main(["verify",
                 str(tmp_path / f"dictionary_{family}_q{q}.csv"),
                 str(tmp_path / f"vector_{family}_q{q}.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(report.read_text())["timing"]["gram_path"] == "incidence"


def test_verify_from_family_flags(capsys):
    assert main(["verify", "--family", "thm1", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert "coherence = 1/4" in out
    assert "PASS mub-family" in out
    assert "PASS coset-antisymmetry" not in out  # extension check is thm2 only


def test_verify_runs_extension_checks_for_thm2(capsys):
    assert main(["verify", "--family", "thm2", "--q", "2"]) == 0
    assert "PASS coset-antisymmetry" in capsys.readouterr().out


def test_verify_flipped_sign_fails_mub_check(tmp_path, capsys):
    main(["construct", "--family", "thm1", "--q", "2", "--out-dir", str(tmp_path)])
    path = tmp_path / "dictionary_thm1_q2.csv"
    lines = path.read_text().splitlines()
    assert lines[1].startswith("1,")
    lines[1] = "-1" + lines[1][1:]
    path.write_text("\n".join(lines) + "\n")
    code = main(["verify", str(path), str(tmp_path / "vector_thm1_q2.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL mub-family" in out or "FAIL column-support" in out
    assert "FAIL matches-construction" in out
    report = json.loads((tmp_path / "report_thm1_q2.json").read_text())
    assert report["timing"]["gram_path"] == "dense"


def test_verify_empty_file_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["verify", str(empty)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_mismatched_flags(tmp_path, capsys):
    main(["construct", "--family", "thm1", "--q", "2", "--out-dir", str(tmp_path)])
    code = main(["verify", str(tmp_path / "dictionary_thm1_q2.csv"),
                 "--family", "thm1", "--q", "4"])
    assert code == 2


def test_spark_command_output(capsys):
    assert main(["spark", "--family", "thm1", "--q", "2",
                 "--brute-force", "--k-max", "3", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "spark = 3" in out
    assert "brute force: dependent subset of size 3 at columns [0, 4, 11]" in out
    assert "eta*mu = 3/2" in out


def test_spark_bound_only_at_scale(capsys):
    assert main(["spark", "--family", "thm2", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert "spark = 20 (certified: coherence bound + kernel vector)" in out
    assert "coherence=1/16" in out


def test_spark_exhaustive_clearance_message(capsys):
    assert main(["spark", "--family", "thm2", "--q", "2", "--brute-force",
                 "--k-max", "5", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "brute force: no dependent subset of size <= 5" in out
    assert "spark = 6" in out


def test_spark_budget_warning(capsys):
    assert main(["spark", "--family", "thm1", "--q", "2", "--brute-force",
                 "--k-max", "3", "--workers", "1", "--budget", "100"]) == 0
    captured = capsys.readouterr()
    assert "no dependent subset of size <= 2" in captured.out
    assert "budget 100 limited the search" in captured.err


def test_spark_warns_only_when_the_budget_stops_the_search(capsys):
    """12 columns cap a k_max of 20 at size 12, and all 4,095 subsets fit
    the default budget: the budget limited nothing."""
    assert main(["spark", "--family", "thm1", "--q", "2", "--brute-force",
                 "--k-max", "20", "--workers", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_spark_needs_vector(tmp_path, capsys):
    main(["construct", "--family", "thm1", "--q", "2", "--out-dir", str(tmp_path)])
    code = main(["spark", str(tmp_path / "dictionary_thm1_q2.csv")])
    assert code == 2
    assert "kernel vector" in capsys.readouterr().err


def test_render_produces_cell_grid(tmp_path):
    assert main(["render", "--family", "thm1", "--q", "2",
                 "--out-dir", str(tmp_path)]) == 0
    svg = (tmp_path / "figure_thm1_q2.svg").read_text()
    # 4x12 grid plus the 12-cell strip
    assert svg.count("<rect") == 4 * 12 + 12
    assert svg.count("#d62728") == 18 + 2   # +1 cells in matrix and vector
    assert svg.count("#1f77b4") == 6 + 1    # -1 cells
    assert svg.count("#bbbbbb") == 24 + 9   # zeros


def test_render_all_zero_vector(tmp_path):
    main(["construct", "--family", "thm1", "--q", "2", "--out-dir", str(tmp_path)])
    vec = tmp_path / "vector_thm1_q2.csv"
    vec.write_text(
        "# spark-forge vector v1, family=thm1, q=2, length=12, layout=block-major\n"
    )
    assert main(["render", str(tmp_path / "dictionary_thm1_q2.csv"), str(vec),
                 "--out-dir", str(tmp_path)]) == 0
    svg = (tmp_path / "figure_thm1_q2.svg").read_text()
    assert svg.count("#bbbbbb") == 24 + 12  # strip is all gray


def test_export_writes_only_the_json(tmp_path):
    """`construct` writes the CSVs; `export` has no CSV form to repeat them."""
    with pytest.raises(SystemExit) as exc:
        main(["export", "--family", "thm1", "--q", "2", "--format", "csv",
              "--out-dir", str(tmp_path / "csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "csv").exists()
    for argv in ([], ["--format", "json"]):
        out = tmp_path / f"json{len(argv)}"
        assert main(["export", "--family", "thm1", "--q", "2", *argv,
                     "--out-dir", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["dictionary_thm1_q2.json"]


def test_export_json_carries_layout(tmp_path):
    assert main(["export", "--family", "thm2", "--q", "2", "--format", "json",
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "dictionary_thm2_q2.json").read_text())
    assert payload["layout"] == "block-major"
    assert payload["block_labels"] == [0, 1, "inf"]
    assert payload["dimensions"] == {"cols": 48, "rows": 16}
    matrix = np.array(payload["matrix"])
    assert matrix.shape == (16, 48)
    support = payload["null_vector"]["support"]
    assert support == [[0, 1], [8, 1], [21, 1], [29, 1], [32, -1], [40, -1]]


STREAMED = pytest.mark.parametrize(
    ("argv", "writer", "artifact"),
    [
        (["render", "--family", "thm1", "--q", "4"], "render_svg",
         "figure_thm1_q4.svg"),
        (["export", "--family", "thm1", "--q", "4", "--format", "json"],
         "dictionary_json", "dictionary_thm1_q4.json"),
    ],
    ids=["render", "export-json"],
)


class _DiskFullAfterFirstRow:
    """A binary file that takes the head and the first row of an artifact,
    then fails as a full disk does."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 2:
            raise OSError(28, "No space left on device")
        return self.f.write(data)


@STREAMED
def test_failed_streamed_write_leaves_no_file(
    tmp_path, monkeypatch, capsys, argv, writer, artifact
):
    streamed = getattr(cli, writer)
    writes = []

    def failing(*args):
        out = _DiskFullAfterFirstRow(args[-1])
        writes.append(out)
        streamed(*args[:-1], out)

    monkeypatch.setattr(cli, writer, failing)
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert writes[0].writes == 3
    assert not (tmp_path / artifact).exists()


@STREAMED
def test_bad_entry_is_refused_before_the_artifact_is_opened(
    tmp_path, monkeypatch, capsys, argv, writer, artifact
):
    built = dictionaries.construct("thm1", 4)
    matrix = built.dictionary.matrix.copy()
    matrix[-1, -1] = 2
    broken = dataclasses.replace(
        built, dictionary=dataclasses.replace(built.dictionary, matrix=matrix)
    )
    monkeypatch.setattr(dictionaries, "construct", lambda family, q: broken)
    old = tmp_path / artifact
    old.write_bytes(b"an earlier artifact")
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "outside" in capsys.readouterr().err
    assert old.read_bytes() == b"an earlier artifact"


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "thm1", "--q", "4"],
        ["render", "--family", "thm1", "--q", "4"],
        ["export", "--family", "thm1", "--q", "4", "--format", "json"],
    ],
    ids=["construct-csv", "render", "export-json"],
)
def test_failed_write_keeps_the_earlier_artifact(tmp_path, monkeypatch, capsys, argv):
    """A write that fails part way, text or streamed, leaves the artifacts of
    an earlier run byte for byte, and no temporary file beside them."""
    argv = argv + ["--out-dir", str(tmp_path)]
    assert main(argv) == 0
    earlier = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write_text = Path.write_text

    def half_then_full(path, text):
        write_text(path, text[: len(text) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_full)
    for name in ("render_svg", "dictionary_json"):

        def failing(*args, streamed=getattr(cli, name)):
            streamed(*args[:-1], _DiskFullAfterFirstRow(args[-1]))

        monkeypatch.setattr(cli, name, failing)
    capsys.readouterr()
    assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier


def test_reader_round_trip(tmp_path):
    main(["construct", "--family", "thm1", "--q", "4", "--out-dir", str(tmp_path)])
    d = read_dictionary(tmp_path / "dictionary_thm1_q4.csv")
    x, q = read_vector(tmp_path / "vector_thm1_q4.csv")
    assert d.matrix.shape == (16, 80) and d.q == q == 4
    assert len(x.support) == 5


def test_reader_rejects_bad_entries(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "# spark-forge dictionary v1, family=thm1, q=2, scale_sq=2, "
        "layout=block-major\n1,2\n0,1\n"
    )
    with pytest.raises(Exception, match="entries outside"):
        read_dictionary(bad)


def test_construct_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["construct", "--family", "thm2", "--q", "2", "--out-dir", str(out)])
    for name in ("dictionary_thm2_q2.csv", "vector_thm2_q2.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ra = json.loads((a / "report_thm2_q2.json").read_text())
    rb = json.loads((b / "report_thm2_q2.json").read_text())
    assert _strip_timing(ra) == _strip_timing(rb)


def test_spark_determinism_across_workers(capsys):
    outputs = []
    for workers in ("1", "2"):
        assert main(["spark", "--family", "thm1", "--q", "2", "--brute-force",
                     "--k-max", "3", "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_reader_rejects_entries_outside_int8(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "# spark-forge dictionary v1, family=thm1, q=2, scale_sq=2, "
        "layout=block-major\n1,300\n0,1\n"
    )
    with pytest.raises(InputError, match="entries outside"):
        read_dictionary(bad)
    assert main(["verify", str(bad)]) == 2
    assert "entries outside" in capsys.readouterr().err


def test_verify_reads_each_input_file_once(tmp_path, monkeypatch):
    main(["construct", "--family", "thm1", "--q", "2", "--out-dir", str(tmp_path)])
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    assert main(["verify", str(tmp_path / "dictionary_thm1_q2.csv"),
                 str(tmp_path / "vector_thm1_q2.csv")]) == 0
    assert sorted(reads) == ["dictionary_thm1_q2.csv", "vector_thm1_q2.csv"]


def test_spark_rejects_k_max_below_one(capsys):
    assert main(["spark", "--family", "thm1", "--q", "2", "--brute-force",
                 "--k-max", "-1", "--workers", "1"]) == 2
    assert "--k-max must be at least 1" in capsys.readouterr().err


def test_spark_rejects_workers_below_one(capsys):
    assert main(["spark", "--family", "thm1", "--q", "2", "--brute-force",
                 "--k-max", "3", "--workers", "0"]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err


def test_spark_workers_default_to_the_usable_cpus(capsys):
    args = cli.build_parser().parse_args(["spark", "--family", "thm1", "--q", "2"])
    assert args.workers == dictionaries.usable_cpus() == len(os.sched_getaffinity(0))
    with pytest.raises(SystemExit):
        main(["spark", "--help"])
    assert "upper bound on the search's worker processes" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "header,rows",
    [
        # the right header on a matrix of the wrong shape
        ("family=thm1, q=2, scale_sq=2", ["1,0", "0,1"]),
        ("family=thm3, q=2, scale_sq=2", None),
        ("family=thm1, q=3, scale_sq=3", None),
        ("family=thm1, q=32, scale_sq=32", None),
        ("family=thm1, q=2, scale_sq=4", None),
        ("family=thm2, q=2, scale_sq=4", None),
        ("family=thm1, q=2, scale_sq=2", [",".join(["1"] * 8)] * 4),
    ],
)
def test_reader_rejects_header_shape_mismatch(tmp_path, capsys, header, rows):
    if rows is None:  # the rows of the real thm1 q=2 dictionary
        rows = GOLDEN_Q2_CSV.splitlines()[1:]
    bad = tmp_path / "bad.csv"
    bad.write_text(
        f"# spark-forge dictionary v1, {header}, layout=block-major\n"
        + "\n".join(rows) + "\n"
    )
    with pytest.raises(InputError):
        read_dictionary(bad)
    assert main(["verify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_zero_kernel_vector(tmp_path, capsys):
    main(["construct", "--family", "thm1", "--q", "2", "--out-dir", str(tmp_path)])
    zero = tmp_path / "zero.csv"
    zero.write_text(
        "# spark-forge vector v1, family=thm1, q=2, length=12, layout=block-major\n"
    )
    code = main(["verify", str(tmp_path / "dictionary_thm1_q2.csv"), str(zero),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL kernel-vector: vector is zero" in out
    assert "coherence =" not in out
    report = json.loads((tmp_path / "report_thm1_q2.json").read_text())
    kernel = [c for c in report["checks"] if c["name"] == "kernel-vector"]
    assert kernel == [{"name": "kernel-vector", "passed": False, "checks": 1,
                       "failures": ["vector is zero"]}]


def test_reader_rejects_repeated_vector_index(tmp_path, capsys):
    main(["construct", "--family", "thm1", "--q", "2", "--out-dir", str(tmp_path)])
    cancelling = tmp_path / "cancelling.csv"
    cancelling.write_text(
        "# spark-forge vector v1, family=thm1, q=2, length=12, layout=block-major\n"
        "5,1\n5,-1\n"
    )
    with pytest.raises(InputError, match="repeated support index"):
        read_vector(cancelling)
    assert main(["verify", str(tmp_path / "dictionary_thm1_q2.csv"),
                 str(cancelling)]) == 2
    assert "repeated support index" in capsys.readouterr().err


def test_vector_reader_refuses_with_the_sparse_vector_message(tmp_path):
    """`SparseVector` owns the support rules; the reader only adds the path."""
    header = GOLDEN_Q2_VECTOR.splitlines()[0]
    vec = tmp_path / "vector.csv"
    for lines, message in (
        ("12,1", "support index 12 outside [0, 12)"),
        ("0,2", "support values must be +1 or -1"),
        ("5,1\n5,-1", "repeated support index"),
    ):
        vec.write_text(f"{header}\n{lines}\n")
        with pytest.raises(InputError) as refused:
            read_vector(vec)
        assert str(refused.value) == f"{vec}: {message}"


def test_vector_support_ascends_and_round_trips():
    """An unsorted support would read back from its CSV, which the reader
    sorts, as a different vector; so `SparseVector` refuses it."""
    with pytest.raises(ValueError, match="^support indices are not ascending$"):
        dictionaries.SparseVector(12, ((8, 1), (0, 1), (7, -1)), "thm1")
    for family, qs in dictionaries.FAMILY_Q.items():
        for q in qs:
            x = dictionaries.build_null_vector(family, q)
            assert read_vector("vector.csv", cli.vector_csv(x, q)) == (x, q)


def test_construct_certifies_as_verify_does(tmp_path, monkeypatch, capsys):
    """A construction whose blocks are not orthonormal gets no certificate
    from `construct`, as from `verify`: exit 1, and a report whose spark and
    coherence are null."""
    built = dictionaries.construct("thm1", 2)
    matrix = built.dictionary.matrix.copy()
    matrix[:, 5] = 0  # block 1 is not orthonormal; the kernel vector still passes
    broken = dataclasses.replace(
        built, dictionary=dataclasses.replace(built.dictionary, matrix=matrix)
    )
    monkeypatch.setattr(dictionaries, "construct", lambda family, q: broken)
    out = ["--out-dir", str(tmp_path)]
    assert main(["construct", "--family", "thm1", "--q", "2"] + out) == 1
    path = tmp_path / "report_thm1_q2.json"
    constructed = json.loads(path.read_text())
    kinds = ("dictionary", "vector")
    inputs = [str(tmp_path / f"{kind}_thm1_q2.csv") for kind in kinds]
    assert main(["verify"] + inputs + out) == 1
    verified = json.loads(path.read_text())
    for report in (constructed, verified):
        assert report["spark"] is None and report["coherence"] is None
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert not checks["mub-family"] and checks["kernel-vector"]
    # verify adds only its comparison with the construction
    assert verified["checks"][:-1] == constructed["checks"]
    assert "FAIL mub-family" in capsys.readouterr().out


def test_spark_rejects_budget_below_columns(capsys):
    argv = ["spark", "--family", "thm1", "--q", "2", "--brute-force",
            "--k-max", "3", "--workers", "1"]
    for budget in ("-5", "11"):
        assert main(argv + ["--budget", budget]) == 2
        assert f"budget {budget} is below the 12" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["file", "flags"])
@pytest.mark.parametrize("family,q", [("thm2", 4), ("thm2", 2), ("thm1", 4)])
def test_vector_header_must_match_dictionary(tmp_path, capsys, source, family, q):
    # the thm1 q=2 kernel vector, relabelled: same length, so only the header
    # tells it apart
    vec = tmp_path / "relabelled.csv"
    relabelled = f"family={family}, q={q}"
    vec.write_text(GOLDEN_Q2_VECTOR.replace("family=thm1, q=2", relabelled))
    if source == "file":
        dictionary = tmp_path / "dictionary.csv"
        dictionary.write_text(GOLDEN_Q2_CSV)
        inputs = [str(dictionary), str(vec)]
    else:
        inputs = [str(vec), "--family", "thm1", "--q", "2"]
    for command in ("verify", "spark"):
        assert main([command] + inputs) == 2
        err = capsys.readouterr().err
        assert f"error: vector header family={family}, q={q} does not match" in err


@pytest.mark.parametrize("layout", [", layout=garbage", ""])
def test_reader_rejects_bad_vector_layout(tmp_path, capsys, layout):
    dictionary = tmp_path / "dictionary.csv"
    dictionary.write_text(GOLDEN_Q2_CSV)
    vec = tmp_path / "vector.csv"
    vec.write_text(GOLDEN_Q2_VECTOR.replace(", layout=block-major", layout))
    with pytest.raises(InputError, match="layout"):
        read_vector(vec)
    for command in ("verify", "spark"):
        assert main([command, str(dictionary), str(vec)]) == 2
        assert "layout" in capsys.readouterr().err


def test_zero_coherence_dictionary_is_input_error(tmp_path, capsys):
    # an all-zero matrix passes the readers; its coherence is 0, and the
    # coherence bounds 1 + 1/mu would divide by it
    zero = tmp_path / "zero.csv"
    header = GOLDEN_Q2_CSV.splitlines()[0]
    zero.write_text(header + "\n" + (",".join(["0"] * 12) + "\n") * 4)
    vec = tmp_path / "vector.csv"
    vec.write_text(GOLDEN_Q2_VECTOR)
    for command in ("verify", "spark"):
        assert main([command, str(zero), str(vec)]) == 2
        assert "error: coherence is zero" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spark", "verify"])
def test_no_certificate_unless_blocks_are_orthonormal(tmp_path, capsys, command):
    # column 5 zeroed: block 1 is not orthonormal, so neither coherence bound
    # applies, yet the kernel vector (columns 0, 7, 8) still passes
    rows = [ln.split(",") for ln in GOLDEN_Q2_CSV.splitlines()[1:]]
    for row in rows:
        row[5] = "0"
    dictionary = tmp_path / "dictionary.csv"
    dictionary.write_text(
        GOLDEN_Q2_CSV.splitlines()[0] + "\n"
        + "".join(",".join(row) + "\n" for row in rows)
    )
    vec = tmp_path / "vector.csv"
    vec.write_text(GOLDEN_Q2_VECTOR)
    argv = [command, str(dictionary), str(vec)]
    if command == "spark":
        assert main(argv) == 2
        assert "not orthonormal" in capsys.readouterr().err
        return
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL mub-family" in out and "PASS kernel-vector" in out
    assert "coherence =" not in out
    report = json.loads((tmp_path / "report_thm1_q2.json").read_text())
    assert report["spark"] is None and report["coherence"] is None


def test_spark_refuses_non_orthonormal_blocks_before_searching(
    tmp_path, capsys, monkeypatch
):
    # one sign flipped: block 0 is no longer orthonormal, so no search level
    # may run before the refusal
    rows = [ln.split(",") for ln in GOLDEN_Q2_CSV.splitlines()[1:]]
    rows[1][1] = "-1"
    dictionary = tmp_path / "dictionary.csv"
    dictionary.write_text(
        GOLDEN_Q2_CSV.splitlines()[0] + "\n"
        + "".join(",".join(row) + "\n" for row in rows)
    )
    vec = tmp_path / "vector.csv"
    vec.write_text(GOLDEN_Q2_VECTOR)
    calls = []
    search = dictionaries.spark_bruteforce

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(dictionaries, "spark_bruteforce", counted)
    argv = ["spark", str(dictionary), str(vec), "--brute-force", "--workers", "1"]
    assert main(argv) == 2
    assert "not orthonormal" in capsys.readouterr().err
    assert calls == []


@st.composite
def _spliced(draw, text):
    """`text` with a short stretch replaced by random text."""
    pos = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 8))
    return (text[:pos] + draw(st.text(max_size=16)) + text[pos + cut :]).encode()


def _fuzzed(text, max_size):
    return st.one_of(
        st.just(text.encode()), st.binary(max_size=max_size), _spliced(text)
    )


@settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["verify", "spark", "render"]),
    dictionary=_fuzzed(GOLDEN_Q2_CSV, 300),
    vector=_fuzzed(GOLDEN_Q2_VECTOR, 100),
)
def test_fuzzed_inputs_end_in_an_exit_code(tmp_path, command, dictionary, vector):
    dict_path, vec_path = tmp_path / "dictionary.csv", tmp_path / "vector.csv"
    dict_path.write_bytes(dictionary)
    vec_path.write_bytes(vector)
    for reader, path in ((read_dictionary, dict_path), (read_vector, vec_path)):
        try:
            reader(path)
        except InputError:
            pass
    argv = [command, str(dict_path), str(vec_path)]
    if command == "render":
        argv += ["--out-dir", str(tmp_path)]
    assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize(
    "dictionary_header,vector_header",
    [
        # a later or pre-release version must not pass for v1
        (("v1,", "v17,"), ("v1,", "v1beta,")),
        # a repeated field would let the second value win unseen
        (("q=2,", "q=4, q=2,"), ("q=2,", "q=2, q=4,")),
    ],
    ids=["version", "repeated-field"],
)
def test_reader_rejects_bad_header(tmp_path, capsys, dictionary_header, vector_header):
    dictionary = tmp_path / "dictionary.csv"
    dictionary.write_text(GOLDEN_Q2_CSV.replace(*dictionary_header, 1))
    vec = tmp_path / "vector.csv"
    vec.write_text(GOLDEN_Q2_VECTOR.replace(*vector_header, 1))
    good_dictionary = tmp_path / "good_dictionary.csv"
    good_dictionary.write_text(GOLDEN_Q2_CSV)
    good_vec = tmp_path / "good_vector.csv"
    good_vec.write_text(GOLDEN_Q2_VECTOR)
    with pytest.raises(InputError):
        read_dictionary(dictionary)
    with pytest.raises(InputError):
        read_vector(vec)
    for inputs in ([dictionary, good_vec], [good_dictionary, vec]):
        for command in ("verify", "spark"):
            assert main([command] + [str(p) for p in inputs]) == 2
            assert "error:" in capsys.readouterr().err


def test_one_input_file_of_each_kind(tmp_path, capsys):
    for q in (2, 4):
        main(["construct", "--family", "thm1", "--q", str(q),
              "--out-dir", str(tmp_path / f"q{q}")])
    capsys.readouterr()
    q2, q4 = tmp_path / "q2", tmp_path / "q4"
    dictionary, vector = "dictionary_thm1_q2.csv", "vector_thm1_q2.csv"
    for extra in (q4 / "dictionary_thm1_q4.csv", q2 / vector):
        for command in ("verify", "spark"):
            argv = [command, str(extra), str(q2 / dictionary), str(q2 / vector)]
            assert main(argv) == 2
            assert "more than one" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "q"),
    [
        # the shipped matrices are decided from their line incidence and
        # never take the dense strips; the net's squares are built once
        (["construct", "--family", "thm1", "--q", "16"], 16),
        (["verify", "FILES"], 4),
        (["verify", "--family", "thm1", "--q", "16"], 16),
        (["spark", "--family", "thm2", "--q", "2"], 4),
        (["export", "--family", "thm2", "--q", "4", "--format", "json"], 16),
    ],
    ids=["construct", "verify-files", "verify-flags", "spark-flags", "export"],
)
def test_each_command_builds_its_family_once(tmp_path, monkeypatch, argv, q):
    """One construction per command, whose field of order q gives the q
    Latin squares of the net, each built once, and no Gram strip."""
    if argv == ["verify", "FILES"]:
        main(["construct", "--family", "thm2", "--q", "2", "--out-dir", str(tmp_path)])
        argv = ["verify", str(tmp_path / "dictionary_thm2_q2.csv"),
                str(tmp_path / "vector_thm2_q2.csv")]
    names = ("construct", "build_net", "latin_square", "permuted_hadamard", "gram_strips")
    calls = dict.fromkeys(names, 0)
    modules = (cli, designs, dictionaries, hadamard, mub)
    for name in names:
        fn = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        # every module binding the function, as `from x import f` copies it
        for m in modules:
            if getattr(m, name, None) is fn:
                monkeypatch.setattr(m, name, counted)
    if argv[0] != "verify":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    assert calls == {"construct": 1, "build_net": 1, "latin_square": q,
                     "permuted_hadamard": 1, "gram_strips": 0}


def test_numpy_integer_support_exports_like_plain_ints(tmp_path):
    """A kernel vector given numpy integers is stored as Python ints, so the
    JSON export and the run report come out byte for byte as for plain ints."""
    built = dictionaries.construct("thm1", 2)
    plain = built.vector
    wide = dictionaries.SparseVector(
        plain.length,
        tuple((np.int64(i), np.int64(v)) for i, v in plain.support),
        plain.family,
    )
    assert wide == plain
    assert all(type(e) is int for pair in wide.support for e in pair)
    d = built.dictionary
    outputs = []
    for x in (plain, wide):
        with open(tmp_path / "d.json", "wb") as f:
            cli.dictionary_json(d, x, f)
        checks, certificate, _ = cli.collect_reports(d, x, built)
        report = cli.run_report("construct", d, x, certificate, checks, 0.0)
        outputs.append(((tmp_path / "d.json").read_bytes(), cli.report_json(report)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_reports_time_each_stage_and_print_nothing_of_it(tmp_path, capsys, command):
    out = ["--out-dir", str(tmp_path)]
    main(["construct", "--family", "thm2", "--q", "2"] + out)
    inputs = [str(tmp_path / f"{kind}_thm2_q2.csv") for kind in ("dictionary", "vector")]
    capsys.readouterr()
    argv = ["construct", "--family", "thm2", "--q", "2"] if command == "construct" else ["verify"] + inputs
    assert main(argv + out) == 0
    captured = capsys.readouterr()
    assert "second" not in captured.out + captured.err
    timing = json.loads((tmp_path / "report_thm2_q2.json").read_text())["timing"]
    stages = timing["stage_seconds"]
    assert list(stages) == ["build", "gram", "read", "structural_checks", "write"]
    assert all(s >= 0 for s in stages.values())
    assert sum(stages.values()) <= timing["elapsed_seconds"] + 1e-5
    # construct reads no file; verify writes only its report, after the timing
    assert (stages["read"] > 0, stages["write"] > 0) == (
        (False, True) if command == "construct" else (True, False)
    )
    assert stages["gram"] > 0 and stages["structural_checks"] > 0 and stages["build"] > 0
