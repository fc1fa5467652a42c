"""Smoke test: demos 01-04 and the README's library quickstart run to
completion against the package in src/.

Demo 05 is left out because it writes its figures into demos/output/.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
README = ROOT / "README.md"


def _quickstart() -> str:
    """The first python block of the README."""
    return README.read_text().split("```python\n", 1)[1].split("```", 1)[0]


def test_demo_set_is_complete():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = [str(demo)] if demo.suffix == ".py" else ["-c", _quickstart()]
    proc = subprocess.run(
        [sys.executable, *code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
