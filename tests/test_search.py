"""Rule-space scans, linear counts, report determinism and rendering."""

import dataclasses
import json
import os
import random

import numpy as np
import pytest

from soca_kit import search
from soca_kit.checkers import soca_bruteforce, soca_linear_fast
from soca_kit.fields import GF2, GF3, Field
from soca_kit.polynomials import Poly, mask_gcd
from soca_kit.rules import LinearRule
from soca_kit.squares import cayley_table
from soca_kit.search import (
    LinearCountReport,
    ScaleGuardError,
    ScanReport,
    count_linear_soca,
    count_report_to_csv,
    enumerate_bipermutive,
    enumerate_bipermutive_binary,
    find_nonlinear_soca,
    rule_space_size,
    scan_reports_to_csv,
    scan_soca,
)


def test_enumeration_order_d3():
    assert [r.wolfram_code for r in enumerate_bipermutive_binary(3)] == [90, 105, 150, 165]


def test_enumeration_counts_and_distinctness():
    for d in (3, 4, 5):
        rules = list(enumerate_bipermutive_binary(d))
        assert len(rules) == rule_space_size(GF2, d) == 1 << (1 << (d - 2))
        codes = {r.wolfram_code for r in rules}
        assert len(codes) == len(rules)
        assert all(r.is_bipermutive() for r in rules)


def test_enumeration_gf3():
    rules = list(enumerate_bipermutive(GF3, 2))
    assert len(rules) == 12  # the twelve Latin squares of order 3
    assert rule_space_size(GF3, 3) == 12**3
    assert all(r.is_bipermutive() for r in rules)


def test_enumeration_guard():
    with pytest.raises(ScaleGuardError):
        list(enumerate_bipermutive_binary(7))
    with pytest.raises(ScaleGuardError):
        list(enumerate_bipermutive(GF3, 4))
    with pytest.raises(ValueError):
        list(enumerate_bipermutive_binary(1))


def test_scan_d3():
    rep = scan_soca(3)
    assert (rep.n_bipermutive, rep.n_soca, rep.n_linear_soca, rep.n_affine_soca) == (4, 2, 1, 2)
    assert [str(p) for p in rep.polynomials] == ["1+x+x^2"]
    assert rep.field_descriptor == "GF(2)"


def test_scan_d4_d5():
    rep4 = scan_soca(4)
    assert (rep4.n_bipermutive, rep4.n_soca, rep4.n_linear_soca, rep4.n_affine_soca) == (16, 4, 2, 4)
    assert [str(p) for p in rep4.polynomials] == ["1+x+x^3", "1+x^2+x^3"]
    rep5 = scan_soca(5)
    assert (rep5.n_bipermutive, rep5.n_soca, rep5.n_linear_soca, rep5.n_affine_soca) == (256, 8, 4, 8)
    assert [str(p) for p in rep5.polynomials] == [
        "1+x+x^4",
        "1+x^2+x^4",
        "1+x^3+x^4",
        "1+x+x^2+x^3+x^4",
    ]


def test_scan_report_invariants():
    for d in (3, 4, 5):
        rep = scan_soca(d)
        assert rep.n_soca >= rep.n_affine_soca >= rep.n_linear_soca
        assert rep.n_affine_soca == 2 * rep.n_linear_soca
        assert len(rep.polynomials) == rep.n_linear_soca
        assert list(rep.polynomials) == sorted(rep.polynomials, key=Poly.code)


def test_scan_gf3():
    rep = scan_soca(3, q=3)
    assert rep.n_bipermutive == 12**3
    assert rep.n_soca == rep.n_affine_soca  # no nonlinear hits
    assert rep.n_affine_soca == 3 * rep.n_linear_soca
    for p in rep.polynomials:
        assert soca_linear_fast(LinearRule(GF3, p.coeffs)).verdict


def test_scan_polynomials_match_independent_gcd_enumeration():
    # all degree-(d-1) binary polynomials with nonzero constant term that are
    # coprime with x^(d-1) + 1, built straight from bitmasks
    for d in (3, 4, 5):
        expected = []
        modulus = (1 << (d - 1)) | 1
        for central in range(1 << (d - 2)):
            mask = 1 | (central << 1) | (1 << (d - 1))
            if mask_gcd(mask, modulus) == 1:
                expected.append(mask)
        got = [p.to_mask() for p in scan_soca(d).polynomials]
        assert got == sorted(expected)


def test_scan_guards():
    with pytest.raises(ScaleGuardError):
        scan_soca(7)
    with pytest.raises(ScaleGuardError):
        scan_soca(4, q=3)
    with pytest.raises(ValueError, match=r"support q in \{2, 3\}, got q = 5") as exc:
        scan_soca(3, q=5)
    assert not isinstance(exc.value, ScaleGuardError)


def test_alphabet_refusals_are_not_scale_guards():
    # --i-know cannot lift these, so they must not read as desk-scale guards
    for call in (lambda: find_nonlinear_soca(3, q=4), lambda: rule_space_size(Field(5), 3)):
        with pytest.raises(ValueError, match="got q = [45]") as exc:
            call()
        assert not isinstance(exc.value, ScaleGuardError)


def test_scan_worker_determinism():
    base = scan_soca(4)
    assert scan_soca(4, workers=2).key() == base.key()
    assert scan_soca(4, workers=3).key() == base.key()


@pytest.mark.parametrize("field,d", [(GF2, 3), (GF2, 4), (GF2, 5), (GF3, 3)])
def test_kernel_matches_bruteforce_oracle(field, d):
    rules = list(enumerate_bipermutive(field, d))
    oracle = [i for i, rule in enumerate(rules) if soca_bruteforce(rule).verdict]
    total = len(rules)
    tables, _ = search._prefix_codes(field, d, 0, total)
    assert np.array_equal(tables, np.stack([r.table for r in rules]))
    assert search._scan_chunk((field, d, 0, total))[0] == oracle
    # chunks that start and stop off the block grid, as a worker pool cuts them
    lo, hi = total // 3 + 1, total - 5
    assert search._scan_chunk((field, d, lo, hi))[0] == [i for i in oracle if lo <= i < hi]


def test_prefix_filter_rejections_are_proofs_d6():
    rows, cols = search._prefix_plan(GF2, 6)[:2]
    for index in random.Random(6).sample(range(rule_space_size(GF2, 6)), 512):
        _, codes = search._prefix_codes(GF2, 6, index, index + 1)
        _, first, counts = np.unique(codes[0], return_index=True, return_counts=True)
        if counts.max() == 1:
            continue
        rule = search._rule_from_index(GF2, 6, index)
        assert not soca_bruteforce(rule).verdict
        grid = cayley_table(rule).grid
        dup = int(first[np.argmax(counts > 1)])
        other = int(np.flatnonzero(codes[0] == codes[0, dup])[1])
        (r1, c1), (r2, c2) = (rows[dup], cols[dup]), (rows[other], cols[other])
        assert (r1, c1) != (r2, c2)
        assert (grid[r1, c1], grid[c1, r1]) == (grid[r2, c2], grid[c2, r2])


def test_scan_stats():
    for d in (3, 4, 5):
        rep = scan_soca(d)
        st = rep.stats
        assert st["prefix_rejected"] + st["fully_checked"] == st["enumerated"] == rep.n_bipermutive
        assert st["fully_checked"] >= rep.n_soca
        assert st["filter_s"] >= 0 and st["check_s"] >= 0
        bare = dataclasses.replace(rep, stats={})
        assert bare == rep and bare.key() == rep.key()
        assert scan_reports_to_csv([bare]) == scan_reports_to_csv([rep])
        assert json.dumps(bare.as_dict()) == json.dumps(rep.as_dict())
    pooled = scan_soca(4, workers=2).stats
    serial = scan_soca(4).stats
    for name in ("enumerated", "prefix_rejected", "fully_checked"):
        assert pooled[name] == serial[name]


def test_worker_count_validation(monkeypatch):
    with pytest.raises(ValueError, match="workers"):
        scan_soca(3, workers=0)
    with pytest.raises(ValueError, match="workers"):
        find_nonlinear_soca(3, workers=-1)
    with pytest.raises(ValueError, match="workers"):
        count_linear_soca(3, 5, workers=0)
    with pytest.raises(ValueError, match="workers"):
        search._chunks(100, 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    chunks = search._chunks(10**6, 10**9)
    assert len(chunks) == 8
    assert chunks[0][0] == 0 and chunks[-1][1] == 10**6
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert search._worker_count(10**9) == 2


def test_count_linear_small_range():
    rep = count_linear_soca(3, 8)
    assert rep.counts == (1, 2, 4, 8, 12, 24)
    assert rep.method == "gcd-fast"
    assert rep.field_descriptor == "GF(2)"


def test_count_matches_scan_affine_halves():
    scan_affine = {d: scan_soca(d).n_affine_soca for d in (3, 4, 5)}
    counts = count_linear_soca(3, 5).counts
    for d, c in zip((3, 4, 5), counts):
        assert scan_affine[d] == 2 * c


def test_count_linear_matches_direct_fast_check():
    rep = count_linear_soca(3, 9)
    for d, c in zip(range(3, 10), rep.counts):
        direct = 0
        for central in range(1 << (d - 2)):
            coeffs = (1,) + tuple((central >> i) & 1 for i in range(d - 2)) + (1,)
            if soca_linear_fast(LinearRule(GF2, coeffs)).verdict:
                direct += 1
        assert direct == c


def test_count_linear_gf3():
    rep = count_linear_soca(2, 3, q=3)
    oracle = []
    for d in (2, 3):
        n = 0
        for a1 in (1, 2):
            for ad in (1, 2):
                for central in range(3 ** (d - 2)):
                    digits = tuple((central // 3**i) % 3 for i in range(d - 2))
                    lr = LinearRule(GF3, (a1,) + digits + (ad,))
                    if soca_bruteforce(lr.to_rule()).verdict:
                        n += 1
        oracle.append(n)
    assert rep.counts == tuple(oracle)


def test_count_linear_gf4():
    from soca_kit.fields import Field

    f4 = Field(2, 2)
    rep = count_linear_soca(2, 3, q=4)
    oracle = []
    for d in (2, 3):
        n = 0
        for a1 in (1, 2, 3):
            for ad in (1, 2, 3):
                for central in range(4 ** (d - 2)):
                    digits = tuple((central // 4**i) % 4 for i in range(d - 2))
                    lr = LinearRule(f4, (a1,) + digits + (ad,))
                    if soca_bruteforce(lr.to_rule()).verdict:
                        n += 1
        oracle.append(n)
    assert rep.counts == tuple(oracle)
    assert rep.field_descriptor == "GF(2^2)/111"


def test_count_worker_determinism():
    a = count_linear_soca(3, 14, workers=1)
    b = count_linear_soca(3, 14, workers=3)
    assert a.key() == b.key()


def test_count_guard():
    with pytest.raises(ScaleGuardError):
        count_linear_soca(3, 25)
    with pytest.raises(ValueError):
        count_linear_soca(5, 3)


def test_find_nonlinear_soca_empty():
    for d in (3, 4, 5):
        assert find_nonlinear_soca(d) == []
    assert find_nonlinear_soca(3, q=3) == []


def test_scan_csv_and_json():
    rep = scan_soca(3)
    csv = scan_reports_to_csv([rep])
    assert csv == "d,bipermutive,soca,linear_soca,affine_soca,polynomials\n3,4,2,1,2,1+x+x^2\n"
    csv_note = scan_reports_to_csv([rep], comment="note")
    assert csv_note.startswith("# note\n")
    body = rep.as_dict()
    assert body["d"] == 3 and body["polynomials"] == ["1+x+x^2"]
    json.dumps(body)


def test_count_csv():
    rep = count_linear_soca(3, 5)
    assert count_report_to_csv(rep) == "d,linear_soca\n3,1\n4,2\n5,4\n"
    assert json.loads(json.dumps(rep.as_dict()))["counts"]["4"] == 2
