#!/usr/bin/env python3
"""spark-forge benchmark.

Drives the real command line in-process (``spark_forge.cli.main(argv)``,
stdout captured) as one closed-loop client that sends one command at a
time.  Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-scale --seed 1 --seconds 30 --trace 0

The inputs are fixed by (family, q, k); the seed only shuffles the order of
the instances within each pass.  Every operation's exit code, output and
artifacts are compared with the golden values in ``perfbench/golden.json``
(see ``record_golden.py``), so a fast wrong answer counts as a failure.

``--trace 0`` measures with nothing patched and prints the end-to-end
metrics.  ``--trace 1`` spends half the time on untraced passes, then patches
the public functions of every module with span recorders, runs traced
passes for the other half, sweeps
the brute-force search level by level from outside, and prints the
per-layer metrics.  The last line of stdout is always the result object;
details go to ``<work-dir>/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import pathlib
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"
DEFAULT_WORK = ROOT / ".perfbench_work"

WORKERS = 2  # search worker processes; the reference machine has 2 cores
SETUP_SECONDS = 2.0  # set-up repeats until this much time is spent; at least 3
MAX_LEVEL = 6  # dictionaries.search.level_<k>_s is reported for k = 1..6


class BenchError(Exception):
    """The benchmark cannot run here (missing program or golden file)."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    family: str
    q: int
    k_max: int | None = None  # brute-force depth, for the spark phase


@dataclass(frozen=True)
class Workload:
    phases: tuple[str, ...]  # each phase runs on every instance, in order
    instances: tuple[Instance, ...]


WORKLOADS = {
    # The largest instances.  Almost all of a pass is int64 block Gram
    # products in mub.verify_mub and dictionaries.coherence, each run by both
    # construct and verify; CSV writes and reads ride along.
    "certify-scale": Workload(
        ("construct", "verify"), (Instance("thm1", 16), Instance("thm2", 4))
    ),
    # Every level searched is clean, so the search runs to the end: a deep
    # search on n=48 columns and a shallow one on n=576.
    "search-exhaust": Workload(
        ("spark",), (Instance("thm2", 2, 5), Instance("thm1", 8, 3))
    ),
    # The search stops at the lex-least witness, so early exit and the
    # chunks left running in the other worker dominate.
    "search-hit": Workload(
        ("spark",), (Instance("thm1", 4, 5), Instance("thm2", 2, 6))
    ),
    # CLI formats and SVG rendering only; no Gram work.  Uses the JSON
    # export, not the CSV one, which duplicates construct.
    "artifact-io": Workload(
        ("export", "render"), (Instance("thm1", 16), Instance("thm2", 4))
    ),
    # Every command on the smallest instances; used by the smoke test.
    "smoke": Workload(
        ("construct", "verify", "spark", "export", "render"),
        (Instance("thm1", 2, 3), Instance("thm2", 2, 3)),
    ),
}

# Every command once on a small instance, so lazy imports and first-use
# set-up are done before timing.
WARMUP = Workload(WORKLOADS["smoke"].phases, (Instance("thm1", 4, 3),))


def op_id(phase: str, inst: Instance) -> str:
    base = f"{phase}:{inst.family}:q{inst.q}"
    return f"{base}:k{inst.k_max}" if phase == "spark" else base


def op_dir(base: pathlib.Path, phase: str, inst: Instance) -> pathlib.Path:
    return base / "pass" / f"{phase}-{inst.family}-q{inst.q}"


def op_argv(base: pathlib.Path, phase: str, inst: Instance) -> list[str]:
    stem = f"{inst.family}_q{inst.q}"
    out = ["--out-dir", str(op_dir(base, phase, inst))]
    fq = ["--family", inst.family, "--q", str(inst.q)]
    if phase == "construct":
        return ["construct", *fq, *out]
    if phase == "verify":
        src = op_dir(base, "construct", inst)
        files = [str(src / f"dictionary_{stem}.csv"), str(src / f"vector_{stem}.csv")]
        return ["verify", *files, *out]
    if phase == "spark":
        search = ["--brute-force", "--workers", str(WORKERS), "--k-max", str(inst.k_max)]
        return ["spark", *fq, *search, *out]
    if phase == "export":
        return ["export", *fq, "--format", "json", *out]
    if phase == "render":
        src = base / "inputs"
        files = [str(src / f"dictionary_{stem}.csv"), str(src / f"vector_{stem}.csv")]
        return ["render", *files, *out]
    raise ValueError(f"unknown phase {phase!r}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# name -> unit; printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}

# Span names whose self times add up to each per-layer time.  Every name
# except the io.* ones is "<module>.<public function>" (or Class.method) and
# is patched under every name a module of the package binds it to.
SELF_TIME_GROUPS = {
    "gf.setup_s": (
        "gf.FieldContext.__init__",
        "gf.FieldContext.extension",
        "gf.FieldContext.mul_table",
        "gf.FieldContext.squares",
        "gf.FieldContext.subfield_indices",
        "gf.FieldContext.coset_lift",
        "gf.FieldContext.coset_image",
        "gf.FieldContext.coset_preimage",
    ),
    "designs.build_s": (
        "designs.latin_square",
        "designs.collision_table",
        "designs.build_net",
    ),
    "designs.verify_s": (
        "designs.verify_mols",
        "designs.verify_collision_table",
        "designs.verify_net",
    ),
    "hadamard.build_s": (
        "hadamard.sylvester",
        "hadamard.flip_upper_bits_table",
        "hadamard.permuted_hadamard",
    ),
    "hadamard.verify_s": (
        "hadamard.verify_row_antisymmetry",
        "hadamard.verify_coset_antisymmetry",
    ),
    "mub.build_s": ("mub.build_basis", "mub.build_basis_family"),
    "mub.verify_s": ("mub.verify_mub", "mub.gram"),
    "dictionaries.build_s": (
        "dictionaries.build_dictionary",
        "dictionaries.build_dictionary_thm1",
        "dictionaries.build_dictionary_thm2",
        "dictionaries.build_null_vector",
        "dictionaries.build_null_vector_thm1",
        "dictionaries.build_null_vector_thm2",
    ),
    "dictionaries.apply_s": ("dictionaries.apply",),
    "dictionaries.coherence_s": ("dictionaries.coherence",),
    "dictionaries.certify_self_s": (
        "dictionaries.spark_certify",
        "dictionaries.uniqueness_threshold",
    ),
    "dictionaries.search_s": ("dictionaries.spark_bruteforce",),
    "cli.csv_write_s": ("cli.dictionary_csv", "cli.vector_csv", "io.write.csv"),
    "cli.csv_read_s": ("cli.read_dictionary", "cli.read_vector", "io.read.csv"),
    "cli.json_write_s": (
        "cli.dictionary_json",
        "cli.run_report",
        "cli.report_json",
        "io.write.json",
    ),
    "cli.render_s": ("cli.render_svg", "io.write.svg"),
    "cli.collect_reports_self_s": ("cli.collect_reports",),
}

PHASES = ("construct", "verify", "spark", "export", "render")

# name -> unit; printed with --trace 1
PER_LAYER = {
    **{f"op.{phase}_s": "s" for phase in PHASES},
    **{name: "s" for name in SELF_TIME_GROUPS},
    "cli.bytes_written": "bytes",
    "cli.bytes_read": "bytes",
    "mub.gram_macs": "MAC",
    "mub.gram_bytes": "bytes",
    "mub.gmacs_per_s": "GMAC/s",
    "dictionaries.coherence_macs": "MAC",
    "dictionaries.coherence_bytes": "bytes",
    "dictionaries.coherence_gmacs_per_s": "GMAC/s",
    **{f"dictionaries.search.level_{k}_s": "s" for k in range(1, MAX_LEVEL + 1)},
    "dictionaries.search.planned_subsets": "count",
    "dictionaries.search_1w_s": "s",
    "dictionaries.search.speedup_2w": "x",
    "report.checks_total": "count",
    "report.failures_total": "count",
    "ops_failed_frac": "frac",
    "trace.overhead_s": "s",
    "trace.unattributed_frac": "frac",
}


def gram_counts(n_blocks: int, d: int) -> dict:
    """Computed (not measured) work of one blockwise Gram pass: every block
    pair (i <= j) is one d x d int64 product."""
    pairs = n_blocks * (n_blocks + 1) // 2
    return {"macs": pairs * d**3, "bytes": pairs * 2 * d * d * 8}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

# Span attributes computed from a traced call's arguments.
MEASURES = {
    "mub.verify_mub": lambda args: gram_counts(len(args[0]), args[0][0].dimension),
    "dictionaries.coherence": lambda args: gram_counts(
        args[0].n_blocks, args[0].dimension
    ),
}

# (span, its time metric, MAC count, operand bytes, achieved rate)
GRAM_METRICS = (
    ("mub.verify_mub", "mub.verify_s", "mub.gram_macs", "mub.gram_bytes",
     "mub.gmacs_per_s"),
    ("dictionaries.coherence", "dictionaries.coherence_s",
     "dictionaries.coherence_macs", "dictionaries.coherence_bytes",
     "dictionaries.coherence_gmacs_per_s"),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if measure is not None:
                rec[4] = measure(args)
            return result

        return traced

    def _wrap_io(self, kind: str, fn):
        # Path.read_text returns the text; Path.write_text the characters
        # written.  Every artifact is ASCII, so characters are bytes.
        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            rec = self._open(f"io.{kind}{pathlib.PurePath(path).suffix}")
            try:
                result = fn(path, *args, **kwargs)
            finally:
                self._close(rec)
            rec[4] = {"bytes": result if kind == "write" else len(result)}
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every traced function under each name any module of the
        package binds it to (``from x import f`` makes a second binding)."""
        modules = [
            m
            for name, m in sys.modules.items()
            if name == "spark_forge" or name.startswith("spark_forge.")
        ]
        for group in SELF_TIME_GROUPS.values():
            for name in group:
                if name.startswith("io."):
                    continue
                module_name, _, attr = name.partition(".")
                owner = sys.modules.get(f"spark_forge.{module_name}")
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                    attr = method
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, fn, MEASURES.get(name))
                if cls_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapper)
        self._patch(pathlib.Path, "read_text", self._wrap_io("read", pathlib.Path.read_text))
        self._patch(pathlib.Path, "write_text", self._wrap_io("write", pathlib.Path.write_text))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(spans: list[list], roots: list[int]) -> dict:
    """Per-layer self times and counts over the spans below the given roots."""
    children_time = [0.0] * len(spans)
    under_root = [False] * len(spans)
    root_set = set(roots)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            children_time[parent] += end - start
            under_root[i] = parent in root_set or under_root[parent]
    self_by_name: dict[str, float] = {}
    attrs: dict[str, list[dict]] = {}
    for i, (name, start, end, _, attr) in enumerate(spans):
        if not under_root[i]:
            continue
        self_by_name[name] = self_by_name.get(name, 0.0) + (end - start - children_time[i])
        if attr is not None:
            attrs.setdefault(name, []).append(attr)

    out = {
        group: sum(self_by_name.get(n, 0.0) for n in names)
        for group, names in SELF_TIME_GROUPS.items()
    }
    io_bytes = {
        kind: sum(a["bytes"] for n, lst in attrs.items() if n.startswith(f"io.{kind}") for a in lst)
        for kind in ("read", "write")
    }
    out["cli.bytes_written"] = io_bytes["write"]
    out["cli.bytes_read"] = io_bytes["read"]
    for span_name, seconds, macs_name, bytes_name, rate_name in GRAM_METRICS:
        macs = sum(a["macs"] for a in attrs.get(span_name, []))
        out[macs_name] = macs
        out[bytes_name] = sum(a["bytes"] for a in attrs.get(span_name, []))
        out[rate_name] = macs / out[seconds] / 1e9 if out[seconds] > 0 else 0.0
    wall = sum(spans[r][2] - spans[r][1] for r in roots)
    unattributed = sum(spans[r][2] - spans[r][1] - children_time[r] for r in roots)
    out["trace.unattributed_frac"] = unattributed / wall if wall > 0 else 0.0
    return out


# ---------------------------------------------------------------------------
# Golden outputs
# ---------------------------------------------------------------------------


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256_file(path: pathlib.Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def observe(phase: str, run: "OpRun", out_dir: pathlib.Path, work: pathlib.Path) -> dict:
    """Everything about one operation that must match the golden value:
    exit code, normalised output, and a digest of each artifact (run
    reports with their timing object removed)."""
    obs = {
        "exit": run.code,
        "stdout_sha256": _sha256_text(run.stdout.replace(str(work), "<work>")),
        "stderr_sha256": _sha256_text(run.stderr.replace(str(work), "<work>")),
        "artifacts": {},
        "checks": 0,
        "failures": 0,
    }
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    for path in files:
        if path.name.startswith("report_"):
            with open(path) as f:
                report = json.load(f)
            report.pop("timing", None)
            digest = _sha256_text(json.dumps(report, sort_keys=True))
            for check in report.get("checks") or []:
                obs["checks"] += check["checks"]
                obs["failures"] += not check["passed"]
            brute = report.get("brute_force")
            if brute is not None:
                for key in ("found_size", "k_checked", "witness", "planned_subsets"):
                    obs[key] = brute[key]
        else:
            digest = _sha256_file(path)
        obs["artifacts"][path.name] = digest
    if phase == "verify":
        lines = [ln for ln in run.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
        obs["verify_all_passed"] = bool(lines) and all(ln.startswith("PASS") for ln in lines)
    return obs


def mismatches(obs: dict, want: dict | None) -> list[str]:
    """Fields that differ from the golden value; verify and construct must
    also exit 0 with every check passed, whatever the golden file says."""
    if want is None:
        return ["no golden value"]
    bad = [key for key in sorted(set(obs) | set(want)) if obs.get(key) != want.get(key)]
    if obs["exit"] != 0:
        bad.append("nonzero exit")
    if obs["failures"]:
        bad.append("failed checks")
    if obs.get("verify_all_passed") is False:
        bad.append("verify printed FAIL")
    return bad


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


@dataclass
class OpRun:
    code: int | None
    stdout: str
    stderr: str
    seconds: float


@dataclass
class OpResult:
    id: str
    phase: str
    seconds: float
    bad: list[str]
    obs: dict


@dataclass
class PassResult:
    order: list[str]
    ops: list[OpResult] = field(default_factory=list)
    roots: list[int] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)

    def phase_seconds(self, phase: str) -> float:
        return sum(op.seconds for op in self.ops if op.phase == phase)


def run_cli(cli, argv: list[str], tracer: Tracer | None = None, label: str = "") -> OpRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.span(f"op:{label}") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed operation, not a crash
                traceback.print_exc()
                code = None
            seconds = time.perf_counter() - start
    return OpRun(code, out.getvalue(), err.getvalue(), seconds)


def run_pass(cli, wl: Workload, order, base, golden, tracer=None) -> PassResult:
    shutil.rmtree(base / "pass", ignore_errors=True)
    result = PassResult([f"{i.family}:q{i.q}" for i in order])
    for phase in wl.phases:
        for inst in order:
            oid = op_id(phase, inst)
            if tracer is not None:
                result.roots.append(len(tracer.spans))
            run = run_cli(cli, op_argv(base, phase, inst), tracer, oid)
            obs = observe(phase, run, op_dir(base, phase, inst), base)
            bad = mismatches(obs, golden.get(oid)) if golden is not None else []
            if run.code is None or bad:
                print(f"FAILED {oid}: {', '.join(bad)}\n{run.stderr}", file=sys.stderr)
            result.ops.append(OpResult(oid, phase, run.seconds, bad, obs))
    shutil.rmtree(base / "pass", ignore_errors=True)
    return result


def measure_passes(cli, wl, rng, base, golden, seconds, tracer=None) -> list[PassResult]:
    """Whole passes for as long as one more pass, at the mean pass time so
    far, still ends within `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        order = list(wl.instances)
        rng.shuffle(order)
        passes.append(run_pass(cli, wl, order, base, golden, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def write_inputs(cli, wl: Workload, base: pathlib.Path):
    """CSV inputs of the render phase, written with the CLI's own writers."""
    if "render" not in wl.phases:
        return
    dct = importlib.import_module("spark_forge.dictionaries")
    inputs = base / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for inst in wl.instances:
        d = dct.build_dictionary(inst.family, inst.q)
        x = dct.build_null_vector(inst.family, inst.q)
        stem = f"{inst.family}_q{inst.q}"
        (inputs / f"dictionary_{stem}.csv").write_text(cli.dictionary_csv(d))
        (inputs / f"vector_{stem}.csv").write_text(cli.vector_csv(x, d.q))


def import_cli():
    """Import the package afresh from the checkout's src/ directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "spark_forge" or n.startswith("spark_forge.")]:
        del sys.modules[name]
    return importlib.import_module("spark_forge.cli")


def setup(wl: Workload, work: pathlib.Path):
    """Import, run every command once on the warm-up instance, and write
    the inputs.  Returns the fresh cli module and the seconds it took."""
    start = time.perf_counter()
    cli = import_cli()
    warm = work / "warmup"
    write_inputs(cli, WARMUP, warm)
    for phase in WARMUP.phases:
        run_cli(cli, op_argv(warm, phase, WARMUP.instances[0]))
    write_inputs(cli, wl, work)
    return cli, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Search sweep (traced run only)
# ---------------------------------------------------------------------------


def search_sweep(dct, wl: Workload, golden: dict) -> tuple[dict, int, list[str]]:
    """Per-level search times from outside: cumulative times of
    spark_bruteforce with k_max = 1..K, differenced, plus the 1-worker time
    at K.  Every result is checked against the golden witness."""
    out = {f"dictionaries.search.level_{k}_s": 0.0 for k in range(1, MAX_LEVEL + 1)}
    t1 = t2 = 0.0
    attempted, failed = 0, []
    if "spark" not in wl.phases:
        out["dictionaries.search_1w_s"] = 0.0
        out["dictionaries.search.speedup_2w"] = 0.0
        return out, attempted, failed
    for inst in wl.instances:
        want = golden.get(op_id("spark", inst), {})
        found = want.get("found_size")
        d = dct.build_dictionary(inst.family, inst.q)
        prev = 0.0
        for k in range(1, inst.k_max + 1):
            start = time.perf_counter()
            res = dct.spark_bruteforce(d, k, workers=WORKERS)
            cum = time.perf_counter() - start
            out[f"dictionaries.search.level_{k}_s"] += max(cum - prev, 0.0)
            prev = cum
            hit = found is not None and k >= found
            expect = (found, tuple(want["witness"])) if hit else (None, None)
            attempted += 1
            if (res.found_size, res.witness) != expect:
                failed.append(f"search {inst} k_max={k}")
        t2 += prev
        start = time.perf_counter()
        res1 = dct.spark_bruteforce(d, inst.k_max, workers=1)
        t1 += time.perf_counter() - start
        attempted += 1
        if (res1.found_size, res1.witness) != (res.found_size, res.witness):
            failed.append(f"search {inst} 1 worker")
    out["dictionaries.search_1w_s"] = t1
    out["dictionaries.search.speedup_2w"] = t1 / t2
    return out, attempted, failed


# ---------------------------------------------------------------------------
# Environment and entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "spark_forge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except (TypeError, AttributeError):
        blas = None
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "search_workers": WORKERS,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child
    (the search workers); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def benchmark(args) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload]
    work = pathlib.Path(args.work_dir).resolve()
    golden_path = pathlib.Path(args.golden)
    if not golden_path.is_file():
        raise BenchError(f"golden file not found: {golden_path}")
    if not (SRC / "spark_forge" / "cli.py").is_file():
        raise BenchError(f"program not found: {SRC / 'spark_forge'}")
    golden = json.loads(golden_path.read_text())["ops"]
    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True))

    shutil.rmtree(work / "pass", ignore_errors=True)
    setups = []
    while len(setups) < 3 or sum(setups) < SETUP_SECONDS:
        cli, seconds = setup(wl, work)
        setups.append(seconds)
    rng = random.Random(args.seed)
    # a traced run splits its time between untraced and traced passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = measure_passes(cli, wl, rng, work, golden, seconds)
    passes = list(plain)
    values: dict[str, float] = {}
    extra_attempted, extra_failed = 0, []
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        values["wall_s"] = statistics.median(p.wall for p in plain)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure_passes(cli, wl, rng, work, golden, seconds, tracer)
        finally:
            tracer.uninstall()
        passes += traced
        per_pass = [layer_metrics(tracer.spans, p.roots) for p in traced]
        for name in per_pass[0]:
            values[name] = statistics.median(m[name] for m in per_pass)
        for phase in PHASES:
            values[f"op.{phase}_s"] = statistics.median(p.phase_seconds(phase) for p in plain)
        values["trace.overhead_s"] = statistics.median(
            p.wall for p in traced
        ) - statistics.median(p.wall for p in plain)
        sweep, extra_attempted, extra_failed = search_sweep(
            importlib.import_module("spark_forge.dictionaries"), wl, golden
        )
        values.update(sweep)
        for name in extra_failed:
            print(f"FAILED {name}", file=sys.stderr)
        last = traced[-1].ops
        values["report.checks_total"] = sum(op.obs["checks"] for op in last)
        values["report.failures_total"] = sum(op.obs["failures"] for op in last)
        values["dictionaries.search.planned_subsets"] = sum(
            op.obs.get("planned_subsets", 0) for op in last
        )
        spans_path = work / "results" / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "missing": tracer.missing,
                       "spans": tracer.spans}, f)

    attempted = sum(len(p.ops) for p in passes) + extra_attempted
    failed = sum(1 for p in passes for op in p.ops if op.bad) + len(extra_failed)
    values["peak_rss_mb"] = peak_rss_mb()
    values["ops_ok_frac"] = 1 - failed / attempted
    values["ops_failed_frac"] = failed / attempted
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_seconds": setups,
        "passes": [
            {
                "order": p.order,
                "wall_s": p.wall,
                "ops": [{"id": op.id, "seconds": op.seconds, "mismatches": op.bad} for op in p.ops],
            }
            for p in passes
        ],
        "search_failures": extra_failed,
        "result": result,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=str(DEFAULT_GOLDEN))
    parser.add_argument("--work-dir", default=str(DEFAULT_WORK))
    args = parser.parse_args(argv)
    try:
        result, details = benchmark(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work = pathlib.Path(args.work_dir)
    out = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    for sub in ("pass", "inputs", "warmup"):
        shutil.rmtree(work / sub, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
