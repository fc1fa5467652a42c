"""Smoke test: demos 01-04, the README's library quickstart and its
command-line block run to completion against the package in src/.  Demo
05 runs as a copy in a temporary directory, so its figures land there and
not in demos/output/; they must equal the per-entry SVG oracle.
"""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_artifact_io import render_svg_oracle

import spark_forge as sf
from spark_forge import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
RENDER_DEMO = ROOT / "demos" / "05_render_figures.py"
README = ROOT / "README.md"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _quickstart() -> str:
    """The first python block of the README."""
    return README.read_text().split("```python\n", 1)[1].split("```", 1)[0]


def _command_lines() -> list[str]:
    """The `spark-forge ...` lines of the README's command-line block."""
    block = README.read_text().split("## Command line\n", 1)[1]
    block = block.split("```\n", 2)[1]
    return [ln for ln in block.splitlines() if ln.startswith("spark-forge ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Each documented command, in order (a later one may read what an
    earlier one wrote), exits 0 when run from an empty directory."""
    lines = _command_lines()
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)


def test_demo_set_is_complete():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]
    assert sorted((ROOT / "demos").glob("*.py")) == [*DEMOS, RENDER_DEMO]


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(demo):
    code = [str(demo)] if demo.suffix == ".py" else ["-c", _quickstart()]
    proc = subprocess.run(
        [sys.executable, *code],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_render_demo_writes_the_oracle_figures(tmp_path):
    demo = Path(shutil.copy(RENDER_DEMO, tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    figures = [("thm1", 2), ("thm1", 4), ("thm2", 2)]
    paths = [tmp_path / "output" / f"figure_{f}_q{q}.svg" for f, q in figures]
    assert sorted((tmp_path / "output").iterdir()) == sorted(paths)
    for (family, q), path in zip(figures, paths):
        built = sf.construct(family, q)
        expected = render_svg_oracle(built.dictionary.matrix, built.vector.dense())
        assert path.read_bytes() == expected.encode()
