"""Acceptance suite: the seven exit criteria, one test each, every value
exact and every runtime bound asserted.  Run with `pytest -v -s
tests/test_acceptance.py` to see one line per criterion.
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np

import spark_forge as sf
from spark_forge.cli import main

WORKERS = os.cpu_count() or 1


def _line(criterion, elapsed, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f} s) {detail}")


Q2_MATRIX = np.array(
    [
        [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 0, 1, 1, 1, -1, 0, 0],
        [1, -1, 0, 0, 0, 0, 1, -1, 0, 0, 1, 1],
        [0, 0, 1, -1, 1, -1, 0, 0, 0, 0, 1, -1],
    ]
)


def test_criterion_1_smallest_family_exact():
    started = time.perf_counter()
    built = sf.construct("thm1", 2)
    d, x = built.dictionary, built.vector

    assert np.array_equal(d.matrix, Q2_MATRIX)
    assert np.array_equal(x.dense(), [1, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0])
    assert not sf.apply(d, x).any()
    gram = sf.gram_check(d)
    assert gram.coherence == Fraction(1, 2)

    brute = sf.spark_bruteforce(d, 3)
    assert brute.found_size == 3
    cert = sf.spark_certify(gram, x, brute_force=brute)
    assert cert.spark == 3
    assert cert.eta_mu == Fraction(3, 2)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _line(1, elapsed, "q=2 family: golden matrix, kernel, mu=1/2, spark=3, eta*mu=3/2")


def test_criterion_2_sixteen_dimensional_family():
    started = time.perf_counter()
    ctx = sf.FieldContext(2)

    assert np.array_equal(
        ctx.mul_table(),
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
    )
    add = np.array([[i ^ j for j in range(4)] for i in range(4)])
    assert np.array_equal(add, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])

    squares = {
        0: [[0, 1, 2, 3]] * 4,
        1: [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        2: [[0, 1, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0], [1, 0, 3, 2]],
        3: [[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1]],
    }
    for r, expected in squares.items():
        assert np.array_equal(sf.latin_square(ctx, r), expected)

    assert np.array_equal(
        sf.collision_table(ctx),
        [[0, 1, 3, 2], [0, 0, 1, 1], [0, 3, 0, 3], [0, 2, 2, 0]],
    )
    assert np.array_equal(
        sf.sylvester(2),
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
    )
    assert np.array_equal(
        sf.permuted_hadamard(2),
        [[1, 1, 1, 1], [1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]],
    )

    built = sf.construct("thm1", 4)
    d, x = built.dictionary, built.vector
    assert np.array_equal(built.signs, sf.permuted_hadamard(2))
    gram = sf.gram_check(d)
    assert gram.coherence == Fraction(1, 4)
    assert len(x.support) == 5
    assert not sf.apply(d, x).any()

    assert math.comb(80, 4) == 1_581_580
    serial_started = time.perf_counter()
    brute = sf.spark_bruteforce(d, 4, workers=1)
    serial_elapsed = time.perf_counter() - serial_started
    assert serial_elapsed < 300.0
    assert brute.found_size is None and brute.k_checked == 4

    parallel_started = time.perf_counter()
    parallel = sf.spark_bruteforce(d, 4, workers=8)
    parallel_elapsed = time.perf_counter() - parallel_started
    assert parallel_elapsed < 60.0
    assert parallel == brute

    cert = sf.spark_certify(gram, x, brute_force=brute)
    assert cert.spark == 5
    assert cert.eta_mu == Fraction(5, 4)

    elapsed = time.perf_counter() - started
    _line(
        2,
        elapsed,
        f"q=4 family: published tables, mu=1/4, no dependent subset of size <= 4 "
        f"({serial_elapsed:.1f} s serial, {parallel_elapsed:.1f} s x8), spark=5",
    )


def test_criterion_3_extension_family_q2():
    started = time.perf_counter()
    base = sf.FieldContext(1)
    ext = base.extension()

    # basis with subfield bits first: 1 -> 10, y -> 01; embed(a) = a << half,
    # lift(b) = b, and the coset of lift(b) is lift(b) + the subfield
    assert 1 << ext.half == 0b10
    assert ext.mul_table()[0b10, 0b01] == 0b01  # lift(1) = embed(1) * y
    sub = ext.subfield_indices()
    assert {s | 0b00 for s in sub} == {0b00, 0b10}
    assert {s | 0b01 for s in sub} == {0b01, 0b11}

    hs = sf.permuted_hadamard(2)
    assert np.array_equal(
        sf.sylvester(2),
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
    )
    assert np.array_equal(
        hs, [[1, 1, 1, 1], [1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]]
    )
    assert sf.verify_coset_antisymmetry(ext, hs).passed

    built = sf.construct("thm2", 2)
    d, y = built.dictionary, built.vector
    assert np.array_equal(built.signs, hs)
    assert d.matrix.shape == (16, 48)
    gram = sf.gram_check(d)
    assert gram.coherence == Fraction(1, 4)
    assert len(y.support) == 6
    assert not sf.apply(d, y).any()

    assert math.comb(48, 5) == 1_712_304
    brute = sf.spark_bruteforce(d, 5, workers=WORKERS)
    assert brute.found_size is None and brute.k_checked == 5

    cert = sf.spark_certify(gram, y, brute_force=brute)
    assert cert.spark == 6
    assert cert.general_bound == 5 and cert.general_bound_relation == ">"
    assert cert.eta_mu == Fraction(3, 2)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _line(3, elapsed, "q=2 extension family: 16x48, mu=1/4, spark=6 > 5, eta*mu=3/2")


def test_criterion_4_base_family_at_scale():
    started = time.perf_counter()
    details = []
    for m, dims in ((3, (64, 576)), (4, (256, 4352))):
        ctx = sf.FieldContext(m)
        built = sf.construct("thm1", ctx.q)
        d, x = built.dictionary, built.vector
        assert d.matrix.shape == dims

        assert sf.verify_net(built.net).passed
        assert sf.verify_row_antisymmetry(built.signs).passed
        gram = sf.gram_check(d)
        assert gram.report.passed
        assert not sf.apply(d, x).any()

        cert = sf.spark_certify(gram, x)
        assert cert.coherence == Fraction(1, ctx.q)
        assert cert.spark == ctx.q + 1
        assert cert.brute_force is None
        assert cert.certified_by == "coherence bound + kernel vector"
        details.append(f"q={ctx.q}: {dims[0]}x{dims[1]} spark={cert.spark}")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _line(4, elapsed, "; ".join(details))


def test_criterion_5_extension_family_q4():
    started = time.perf_counter()
    built = sf.construct("thm2", 4)
    d, y = built.dictionary, built.vector
    assert d.matrix.shape == (256, 1280)
    assert len(y.support) == 20
    assert not sf.apply(d, y).any()

    cert = sf.spark_certify(sf.gram_check(d), y)
    assert cert.coherence == Fraction(1, 16)
    assert cert.spark == 20
    assert cert.union_bound == Fraction(5, 4) * 16
    assert cert.general_bound == 17 and cert.general_bound_relation == ">"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _line(5, elapsed, "q=4 extension family: 256x1280, mu=1/16, spark=20 > 17")


def test_criterion_6_property_suites():
    started = time.perf_counter()

    # field axioms: exhaustive for m <= 4, randomized 10^4 triples for m <= 8
    for m in range(1, 9):
        ctx = sf.FieldContext(m)
        mt = ctx.mul_table()
        if m <= 4:
            idx = np.arange(ctx.q)
            a, b, c = (g.ravel() for g in np.meshgrid(idx, idx, idx, indexing="ij"))
        else:
            rng = np.random.default_rng(m)
            a, b, c = rng.integers(0, ctx.q, size=(3, 10_000))
        assert (mt[mt[a, b], c] == mt[a, mt[b, c]]).all()
        assert (mt[a, b ^ c] == (mt[a, b] ^ mt[a, c])).all()
        assert (mt[a, b] == mt[b, a]).all()
        for i in range(1, ctx.q):
            assert sorted(mt[i]) == list(range(ctx.q))  # inverses exist
        assert sorted(ctx.squares()) == list(range(ctx.q))  # squaring bijection

    # combinatorial structure for q in {2, 4, 8, 16}
    for m in range(1, 5):
        ctx = sf.FieldContext(m)
        squares = [sf.latin_square(ctx, r) for r in range(ctx.q)]
        assert sf.verify_mols(squares).passed
        assert sf.verify_collision_table(sf.collision_table(ctx)).passed
        assert sf.verify_net(sf.build_net(ctx)).passed

    # sign matrices for every supported order
    for m in range(1, 9):
        assert sf.verify_row_antisymmetry(sf.permuted_hadamard(m)).passed
    for base_m in range(1, 5):
        ext = sf.FieldContext(base_m).extension()
        assert sf.verify_coset_antisymmetry(ext, sf.permuted_hadamard(ext.m)).passed

    elapsed = time.perf_counter() - started
    _line(6, elapsed, "field axioms, squaring, MOLS, collisions, nets, antisymmetry")


def test_criterion_7_determinism(tmp_path, capsys):
    started = time.perf_counter()
    for family, q in (("thm1", 2), ("thm2", 2)):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{family}{tag}"
            assert main(["construct", "--family", family, "--q", str(q),
                         "--out-dir", str(out)]) == 0
            report = json.loads((out / f"report_{family}_q{q}.json").read_text())
            report.pop("timing")
            runs.append(
                (
                    (out / f"dictionary_{family}_q{q}.csv").read_bytes(),
                    (out / f"vector_{family}_q{q}.csv").read_bytes(),
                    report,
                )
            )
        assert runs[0] == runs[1]

    capsys.readouterr()
    outputs = []
    for workers in ("1", "2", "4"):
        assert main(["spark", "--family", "thm1", "--q", "2", "--brute-force",
                     "--k-max", "3", "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert "dependent subset of size 3 at columns [0, 4, 11]" in outputs[0]

    elapsed = time.perf_counter() - started
    _line(7, elapsed, "construct and spark artifacts identical across runs and workers")
