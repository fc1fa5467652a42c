"""Smoke test of the benchmark harness on the smallest instances (thm1 q=2,
thm2 q=2): every metric is printed with its unit, and a corrupted golden
digest is counted as a failed operation."""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(tmp_path, trace, golden=HERE / "golden.json"):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--golden", str(golden),
         "--work-dir", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def _units(key):
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_end_to_end_metrics_printed_with_units(tmp_path):
    code, result = _run(tmp_path, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")


def test_corrupted_golden_digest_counts_as_failed(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    artifacts = golden["ops"]["construct:thm1:q2"]["artifacts"]
    artifacts["dictionary_thm1_q2.csv"] = "0" * 64
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))

    code, result = _run(tmp_path, 1, corrupted)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert result["metrics"]["ops_failed_frac"]["value"] > 0
    assert result["metrics"]["report.checks_total"]["value"] == 4044
