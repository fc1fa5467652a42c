#!/usr/bin/env python3
"""Record the golden value of every benchmark operation.

Runs each operation of every workload once, in a fixed order, and writes
``perfbench/golden.json``: per operation its exit code, digests of stdout and
stderr, the sha256 of each artifact (run reports with ``timing`` removed),
the check counts of its reports and, for searches, the witness.  Record only
at a commit whose outputs are known to be right; the benchmark then counts
any later difference as a failed operation.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    work = run.DEFAULT_WORK / "golden"
    ops = {}
    for wl in run.WORKLOADS.values():
        cli, _ = run.setup(wl, work)
        result = run.run_pass(cli, wl, wl.instances, work, None)
        for op in result.ops:
            bad = run.mismatches(op.obs, op.obs)
            if bad:
                print(f"error: {op.id} is not a valid golden value: {bad}", file=sys.stderr)
                return 1
            if ops.setdefault(op.id, op.obs) != op.obs:
                print(f"error: {op.id} differs between workloads", file=sys.stderr)
                return 1
    shutil.rmtree(work, ignore_errors=True)
    env = run.environment()
    golden = {
        "recorded_at": {k: env[k] for k in ("commit", "source_sha256", "python", "numpy")},
        "ops": ops,
    }
    run.DEFAULT_GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.DEFAULT_GOLDEN} ({len(ops)} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
