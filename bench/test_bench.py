"""Tests of the benchmark itself: the oracles against the paper and against
each other, short clean passes of every workload, and injected wrong
answers that the checks must catch.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import worker
from workloads import _FAULT_COEFFS as _FAULTS
from workloads import OK, LinearCount

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- oracles ----------------------------------------------------------------------


def test_closed_form_reproduces_table2_and_known_counts():
    assert {d: oracles.linear_soca_count(2, d) for d in range(3, 17)} == oracles.PAPER_TABLE2
    assert [oracles.linear_soca_count(3, d) for d in (3, 6, 7, 8)] == [4, 144, 384, 1296]
    assert [oracles.linear_soca_count(4, d) for d in (4, 5, 6)] == [60, 432, 1518]


def test_bitmask_gcd_reproduces_table1_polynomials():
    for d, row in oracles.PAPER_TABLE1.items():
        assert tuple(oracles.table1_polys(d)) == row["polys"]
        assert len(row["polys"]) == row["linear"] == oracles.linear_soca_count(2, d)


@pytest.mark.parametrize("q,d", [(2, 3), (2, 4), (2, 5), (3, 3)])
def test_superposition_census_properties(q, d):
    got = oracles.census(q, d)
    assert got["affine"] == q * got["linear"]
    assert got["linear"] == oracles.linear_soca_count(q, d)
    if q == 2:
        row = dict(oracles.PAPER_TABLE1[d])
        row["polys"] = tuple(tuple(int(i in e) for i in range(d)) for e in row["polys"])
        assert got == row
        assert got["soca"] == got["affine"]


def test_table1_d6_properties():
    row = oracles.PAPER_TABLE1[6]
    assert row["bipermutive"] == 2 ** 16
    assert row["soca"] == row["affine"] == 2 * row["linear"]


@pytest.mark.parametrize("q,d_max", [(2, 7), (3, 5), (4, 4)])
def test_closed_form_matches_superposition_over_all_linear_rules(q, d_max):
    for d in range(2, d_max + 1):
        count = 0
        for coeffs in itertools.product(range(q), repeat=d):
            if coeffs[0] and coeffs[-1]:
                soca = oracles.superposition_soca(q, oracles.linear_table(q, coeffs))
                if q == 2:
                    assert soca == oracles.gf2_linear_soca(coeffs)
                count += soca
        assert count == oracles.linear_soca_count(q, d)


def test_rabin_matches_trial_division_and_implies_soca():
    def trial(f):
        n = f.bit_length() - 1
        return n >= 1 and all(oracles.mask_mod(f, g) for g in range(2, 1 << (n // 2 + 1)))

    for f in range(2, 1 << 11):
        assert oracles.mask_is_irreducible(f) == trial(f)
        if f & 1 and f.bit_length() > 2 and oracles.mask_is_irreducible(f):
            assert oracles.gf2_linear_soca([f >> i & 1 for i in range(f.bit_length())])


# -- workloads --------------------------------------------------------------------


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_pass_runs_clean(workload):
    rc, out = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True
    round_size = len(worker.set_up(workload)[0].make_round(random.Random(7)))
    kept_faults = len(_FAULTS) if workload == "verdicts" else 0
    assert result["attempted"] % round_size == 0
    assert result["failed"] == kept_faults * result["attempted"] // round_size
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_pass_prints_every_layer_metric():
    rc, out = _bench("--workload", "linear-count", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["search.linear_rules_counted"]["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = HERE / "runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        rc, out = _bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert rc != 0
    assert "correct" not in out


# -- injected faults ------------------------------------------------------------------


def test_wrong_count_is_caught():
    workload, _ = worker.set_up("linear-count")
    right = workload.run((3, 5))
    assert workload.check((3, 5), right) == OK
    wrong = dataclasses.replace(right, counts=(right.counts[0] + 1,))
    assert workload.check((3, 5), wrong) != OK

    real = workload.run
    workload.run = lambda op: wrong if op == (3, 5) else real(op)
    rounds = worker.run_rounds(workload, list(LinearCount.CALLS), 0)
    assert rounds.wrong and not rounds.failed


def test_wrong_census_is_caught():
    workload, _ = worker.set_up("census")
    right = workload.run((2, 5))
    assert workload.check((2, 5), right) == OK
    for field, value in (("n_soca", 9), ("n_affine_soca", 4), ("polynomials", right.polynomials[:-1])):
        assert workload.check((2, 5), dataclasses.replace(right, **{field: value})) != OK


def test_wrong_verdicts_are_caught():
    workload, _ = worker.set_up("verdicts")
    ops = workload.make_round(random.Random(3))
    flipped = 0
    for op in ops:
        rc, out, err = workload.run(op)
        assert workload.check(op, (rc, out, err)) in (OK, "failed")
        if rc == 2:
            continue
        if op.method in ("audit", "poly") and "--format" in op.argv:
            body = json.loads(out)
            key = "soca" if op.method == "poly" else "verdict"
            body[key] = not body[key]
            lie = json.dumps(body)
        else:
            lie = out.replace("verdict: ", "verdict: not ").replace("not not ", "")
        assert workload.check(op, (rc, lie, err)) != OK, op.argv
        assert workload.check(op, (1 - rc, out, err)) != OK, op.argv
        flipped += 1
    assert flipped == len(ops) - len(_FAULTS)


def test_wrong_certificate_is_caught():
    workload, _ = worker.set_up("verdicts")
    ops = workload.make_round(random.Random(5))
    cells = [op for op in ops if not op.soca and op.method == "bruteforce"]
    gcds = [op for op in ops if not op.soca and op.method == "gcd-binary" and not op.fault]
    assert cells and gcds
    for op, forged in [(op, "cells (1,1) and (1,1) repeat a pair") for op in cells] + [
        (op, "gcd = 1") for op in gcds
    ]:
        rc, out, err = workload.run(op)
        assert workload.check(op, (rc, out, err)) == OK
        lie = re.sub(r"certificate: .*", "certificate: " + forged, out)
        assert workload.check(op, (rc, lie, err)) != OK
