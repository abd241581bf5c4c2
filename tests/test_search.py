"""Rule-space scans, linear counts, report determinism and rendering."""

import dataclasses
import itertools
import json
import os
import random
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soca_kit import checkers, cli, rulespace, search, squares
from soca_kit.checkers import soca_binary_fast, soca_bruteforce, soca_linear_fast
from soca_kit.fields import GF2, GF3, Field
from soca_kit.matrices import x_pow_minus_one
from soca_kit.polynomials import Poly, gcd, mask_gcd
from soca_kit.rules import LinearRule, LocalRule
from soca_kit.squares import cayley_table
from soca_kit.search import (
    LinearCountReport,
    ScaleGuardError,
    ScanReport,
    count_linear_soca,
    count_report_to_csv,
    enumerate_bipermutive,
    find_nonlinear_soca,
    rule_space_size,
    scan_reports_to_csv,
    scan_soca,
)


def test_enumeration_order_d3():
    assert [r.wolfram_code for r in enumerate_bipermutive(GF2, 3)] == [90, 105, 150, 165]


def test_enumeration_counts_and_distinctness():
    for d in (3, 4, 5):
        rules = list(enumerate_bipermutive(GF2, d))
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
        list(enumerate_bipermutive(GF2, 7))
    with pytest.raises(ScaleGuardError):
        list(enumerate_bipermutive(GF3, 4))
    with pytest.raises(ValueError):
        list(enumerate_bipermutive(GF2, 1))


@pytest.mark.parametrize("d", [1, 0, -3])
def test_diameter_below_two_refused(d):
    calls = (
        lambda: rule_space_size(GF2, d),
        lambda: list(enumerate_bipermutive(GF2, d)),
        lambda: scan_soca(d),
        lambda: scan_soca(d, q=3),
        lambda: find_nonlinear_soca(d),
        lambda: count_linear_soca(d, 3),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^bipermutive rules need diameter >= 2$") as exc:
            call()
        assert not isinstance(exc.value, ScaleGuardError)


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
    tables = rulespace._block_tables(field, d, np.arange(total))
    assert np.array_equal(tables, np.stack([r.table for r in rules]))
    assert search._scan_range(field, d, 0, total)[0] == oracle
    # ranges that start and stop off the block grid
    lo, hi = total // 3 + 1, total - 5
    assert search._scan_range(field, d, lo, hi)[0] == [i for i in oracle if lo <= i < hi]


def test_block_tables_decode_gf2_truth_table():
    # over GF(2) rule index i is the truth table of g in f = x_1 + g + x_d:
    # bit c of i is g on the central block c (x_{d-1} least significant)
    t = np.arange(32)
    x1, central, x5 = t >> 4, (t >> 1) & 7, t & 1
    expected = [x1 ^ x5 ^ ((index >> central) & 1) for index in range(256)]
    assert np.array_equal(rulespace._block_tables(GF2, 5, np.arange(256)), np.stack(expected))
    assert np.array_equal(rulespace._rule_from_index(GF2, 5, 77).table, expected[77])


def _seeded_d6_rules():
    for index in random.Random(6).sample(range(rule_space_size(GF2, 6)), 512):
        yield index, rulespace._block_tables(GF2, 6, [index])


def test_diagonal_rejections_are_proofs_d6():
    rejected = 0
    for index, _ in _seeded_d6_rules():
        codes = rulespace._ring_diagonals(GF2, 6, np.array([index]))[0]
        values, counts = np.unique(codes, return_counts=True)
        if counts.max() == 1:
            continue
        rejected += 1
        rule = rulespace._rule_from_index(GF2, 6, index)
        assert not soca_bruteforce(rule).verdict
        grid = cayley_table(rule).grid
        r, s = np.flatnonzero(codes == values[np.argmax(counts > 1)])[:2]
        assert r != s and grid[r, r] == grid[s, s]
    assert rejected > 400  # the diagonal rejects 65,064 of the 65,536 rules


def test_prefix_filter_rejections_are_proofs_d6():
    rows, cols = search._filter_plan(GF2, 6)[3:]
    for index, tables in _seeded_d6_rules():
        codes = search._filter_codes(GF2, 6, tables)[0]
        _, first, counts = np.unique(codes, return_index=True, return_counts=True)
        if counts.max() == 1:
            continue
        rule = rulespace._rule_from_index(GF2, 6, index)
        assert not soca_bruteforce(rule).verdict
        grid = cayley_table(rule).grid
        dup = int(first[np.argmax(counts > 1)])
        other = int(np.flatnonzero(codes == codes[dup])[1])
        (r1, c1), (r2, c2) = (rows[dup], cols[dup]), (rows[other], cols[other])
        assert (r1, c1) != (r2, c2)
        assert (grid[r1, c1], grid[c1, r1]) == (grid[r2, c2], grid[c2, r2])


_SMALL_SPACES = [(GF2, 2), (GF2, 3), (GF2, 4), (GF2, 5), (GF3, 2), (GF3, 3)]


@pytest.mark.parametrize("field,d", _SMALL_SPACES)
def test_ring_diagonals_match_grid(field, d):
    indices = np.arange(rule_space_size(field, d))
    ring = rulespace._ring_diagonals(field, d, indices)
    for index, rule in zip(indices, enumerate_bipermutive(field, d)):
        assert np.array_equal(ring[index] + 1, np.diag(cayley_table(rule).grid))


def test_ring_diagonals_match_grid_d6():
    for index, _ in _seeded_d6_rules():
        ring = rulespace._ring_diagonals(GF2, 6, np.array([index]))[0]
        grid = cayley_table(rulespace._rule_from_index(GF2, 6, index)).grid
        assert np.array_equal(ring + 1, np.diag(grid))


def _oracle_verdicts(field, d, tables):
    return [soca_bruteforce(LocalRule(field, d, table)).verdict for table in tables]


@pytest.mark.parametrize("field,d", _SMALL_SPACES)
def test_full_check_matches_bruteforce_oracle(field, d):
    # every table of the space, the ones the filters reject included
    tables = rulespace._block_tables(field, d, np.arange(rule_space_size(field, d)))
    assert search._full_check(field, d, tables).tolist() == _oracle_verdicts(field, d, tables)


def test_full_check_matches_bruteforce_oracle_d6():
    # the seeded rules hold no hit, so the 32 affine rules are added
    seeded = [index for index, _ in _seeded_d6_rules()]
    affine = [_linear_index(6, central, constant) for central in range(16) for constant in (0, 1)]
    tables = rulespace._block_tables(GF2, 6, np.array(seeded + affine))
    verdicts = search._full_check(GF2, 6, tables).tolist()
    assert verdicts == _oracle_verdicts(GF2, 6, tables) and 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("field,d,rules", [(GF2, 5, 1), (GF2, 5, 3), (GF3, 3, 5), (GF2, 6, 7)])
def test_full_check_groups_give_the_same_verdicts(monkeypatch, field, d, rules):
    indices = np.arange(min(rule_space_size(field, d), 1000))
    tables = rulespace._block_tables(field, d, indices)
    expected = search._full_check(field, d, tables)
    monkeypatch.setattr(search, "_CHUNK_CELLS", rules * field.q ** (2 * (d - 1)))
    assert np.array_equal(search._full_check(field, d, tables), expected)


def test_full_check_alone_rejects_what_the_prefix_would(monkeypatch):
    # with a prefix stage that rejects nothing, the full check must turn the
    # diagonal survivors into exactly the same hits
    expected = {(d, q): scan_soca(d, q=q) for d, q in ((3, 3), (6, 2))}
    monkeypatch.setattr(search, "_filter_codes", lambda field, d, tables: np.zeros((len(tables), 1)))
    for (d, q), report in expected.items():
        unfiltered = scan_soca(d, q=q)
        assert unfiltered.key() == report.key()
        assert unfiltered.stats["prefix_rejected"] == 0
        assert unfiltered.stats["fully_checked"] > report.n_soca
    assert unfiltered.stats["fully_checked"] == 472  # d = 6 over GF(2), as in test_scan_stats


def test_full_check_refuses_as_the_oracle_does(monkeypatch):
    tables = rulespace._block_tables(GF2, 4, np.arange(16))
    last_only, first_only = tables[5].copy(), tables[5].copy()
    last_only[:8] = tables[5, 8:]  # x_1 no longer matters: permutive in x_4 only
    first_only[1::2] = tables[5, ::2]  # x_4 no longer matters: permutive in x_1 only
    for table in (last_only, first_only, np.zeros(16, dtype=tables.dtype)):
        with pytest.raises(ValueError) as oracle:
            soca_bruteforce(LocalRule(GF2, 4, table))
        with pytest.raises(ValueError) as batched:
            search._full_check(GF2, 4, np.vstack([tables[:3], table]))
        assert str(batched.value) == str(oracle.value) == checkers.NOT_BIPERMUTIVE
    # a wrong evaluation plan gives grids that are not Latin: refused, never a
    # verdict, both when only the columns and when only the rows fail
    left, right, weights, windows = squares._cayley_plan(GF2, 4, False)
    row_copied, column_copied = windows.copy(), windows.copy()
    row_copied[8:16] = windows[:8]  # row 1 repeats row 0
    column_copied[1::8] = windows[::8]  # column 1 repeats column 0
    for broken in (row_copied, column_copied):
        monkeypatch.setattr(search, "_cayley_plan", lambda *args: (left, right, weights, broken))
        with pytest.raises(checkers.AuditError, match=checkers.NOT_LATIN):
            search._full_check(GF2, 4, tables)


def test_full_check_matches_bruteforce_oracle_gf3_d6():
    # 2 * 729 + 3 * 243^2 = 178,605 codes per rule need uint32
    coeffs = itertools.product((1, 2), *[range(3)] * 4, (1, 2))
    tables = np.stack([LinearRule(GF3, c).to_rule().table for c in coeffs])
    assert search._check_plan(GF3, 6)[0].dtype == np.uint32
    verdicts = search._full_check(GF3, 6, tables).tolist()
    assert verdicts == _oracle_verdicts(GF3, 6, tables) and 0 < sum(verdicts) < len(verdicts)


def test_full_check_error_precedence(monkeypatch):
    # cell (2, 0) reads output cell 0 from the window of cell (0, 0), which
    # differs from its own in x_2 only: a grid stays whole (and Latin) where
    # the rule gives both windows the same value, and otherwise repeats a
    # symbol in row 2 and in column 0
    tables = rulespace._block_tables(GF2, 4, np.arange(16))
    left, right, weights, windows = squares._cayley_plan(GF2, 4, False)
    broken = windows.copy()
    broken[16, 0] = windows[0, 0]
    grids = (tables[:, broken] @ weights).reshape(16, 8, 8)
    latin = [squares.is_latin(squares.LatinSquare(g + 1)) for g in grids]
    verdicts = _oracle_verdicts(GF2, 4, tables)
    not_latin = tables[latin.index(False)]
    not_orthogonal = tables[[i for i in range(16) if latin[i] and not verdicts[i]][0]]
    not_bipermutive = np.zeros(16, dtype=tables.dtype)
    monkeypatch.setattr(search, "_cayley_plan", lambda *args: (left, right, weights, broken))
    assert search._full_check(GF2, 4, not_orthogonal[None]).tolist() == [False]
    for group in ([not_orthogonal, not_latin], [not_latin, not_orthogonal]):
        with pytest.raises(checkers.AuditError, match=checkers.NOT_LATIN):
            search._full_check(GF2, 4, np.stack(group))
    for group in ([not_latin, not_bipermutive], [not_bipermutive, not_latin]):
        with pytest.raises(ValueError, match=checkers.NOT_BIPERMUTIVE):
            search._full_check(GF2, 4, np.stack(group))


def test_scan_makes_one_full_check(monkeypatch):
    calls = []
    full_check = search._full_check
    monkeypatch.setattr(search, "_full_check", lambda *args: calls.append(len(args[2])) or full_check(*args))
    st = scan_soca(6).stats
    assert calls == [16]  # 16 blocks of 4,096 rules, one full check
    counted = (st["enumerated"], st["diagonal_rejected"], st["prefix_rejected"], st["fully_checked"])
    assert counted == (65536, 65064, 456, 16)


@pytest.mark.parametrize("field,d,index", [(GF2, 2, 0), (GF2, 5, 7), (GF2, 6, 65536), (GF3, 3, 1000)])
def test_empty_range_gives_no_hits(field, d, index):
    hits, stats = search._scan_range(field, d, index, index)
    counts = ("enumerated", "diagonal_rejected", "prefix_rejected", "fully_checked")
    assert hits == [] and [stats[k] for k in counts] == [0, 0, 0, 0]


def test_slice_without_survivors_keeps_its_stats():
    # no rule among the first 4,096 of GF(2) d = 7 has a transversal diagonal
    hits, stats = search._scan_range(GF2, 7, 0, 4096)
    assert hits == [] and stats["diagonal_rejected"] == 4096
    assert stats["fully_checked"] == 0 and stats["filter_s"] > 0 and stats["check_s"] == 0


def test_scan_memory_does_not_grow_with_the_range():
    search._scan_range(GF2, 7, 0, 4096)  # builds the cached plans untraced
    peaks = []
    for stop in (1 << 20, 1 << 22):
        tracemalloc.start()
        try:
            search._scan_range(GF2, 7, 0, stop)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 << 10


@pytest.mark.parametrize("field,d", _SMALL_SPACES + [(GF2, 6)])
def test_diagonal_survivors_are_balanced(field, d):
    # a bijective diagonal takes every value q^(d-2) times in each cell, so
    # the balance count drops no rule the diagonal keeps; over GF(2) balance
    # is the weight 2^(d-3) of g, whose truth table is the index
    indices = np.arange(rule_space_size(field, d))
    ring = rulespace._ring_diagonals(field, d, indices)
    balanced = rulespace._balanced(field, d, indices)
    assert balanced[~search._repeats(ring)].all()
    if field.q == 2:
        weights = np.array([int(i).bit_count() for i in indices])
        assert np.array_equal(balanced, 2 * weights == 2 ** (d - 2))


@pytest.mark.parametrize("field,d", _SMALL_SPACES)
def test_affine_by_index_matches_as_affine(field, d):
    affine = rulespace._affine_by_index(field, d)
    rules = list(enumerate_bipermutive(field, d))
    assert [affine.get(i) for i in range(len(rules))] == [r.as_affine() for r in rules]
    assert len(affine) == (field.q - 1) ** 2 * field.q ** (d - 1)


def test_affine_by_index_d6_hits():
    affine = rulespace._affine_by_index(GF2, 6)
    assert len(affine) == 32 and len(rulespace._affine_by_index(GF3, 3)) == 36
    _, _, hits, _ = search._scan_indices(2, 6, 1, False)
    assert len(hits) == 16
    for index in hits:
        assert affine.get(index) == rulespace._rule_from_index(GF2, 6, index).as_affine()


def _linear_ring_diagonals(d: int) -> np.ndarray:
    # row k: the diagonal of the linear GF(2) rule whose central coefficients
    # a_2..a_{d-1} are the bits of k, from the ring formula A[r, r]_t =
    # g(r_{t+1}, ..., r_{t+d-2}) = sum over s of a_{s+1} r_{t+s}, indices mod d-1
    m = d - 1
    coeffs = (np.arange(1 << (d - 2))[:, None] >> np.arange(d - 2)) & 1
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    return sum((coeffs @ bits[:, (t + np.arange(1, d - 1)) % m].T % 2) << t for t in range(m))


@pytest.mark.parametrize("d", range(3, 13))
def test_linear_ring_diagonal_is_the_halved_gcd_test(d):
    # for a linear GF(2) rule the diagonal stage alone decides: its ring map
    # is a bijection exactly when gcd(p_f, X^(d-1)+1) = 1
    diagonals = _linear_ring_diagonals(d)
    bijective = [np.unique(row).size == row.size for row in diagonals]
    expected = []
    for k in range(1 << (d - 2)):
        coeffs = (1,) + tuple((k >> i) & 1 for i in range(d - 2)) + (1,)
        expected.append(soca_binary_fast(LinearRule(GF2, coeffs)).verdict)
    assert bijective == expected
    if d <= 7:
        # the stage reads the same diagonals off the rule indices
        indices = np.array([_linear_index(d, k) for k in range(1 << (d - 2))])
        assert np.array_equal(rulespace._ring_diagonals(GF2, d, indices), diagonals)
        assert sum(bijective) == {3: 1, 4: 2, 5: 4, 6: 8, 7: 12}[d]


@pytest.mark.parametrize("field,d", [(GF2, 3), (GF2, 4), (GF2, 5), (GF2, 6), (GF3, 3)])
def test_census_hits_have_transversal_diagonal(field, d):
    # a square orthogonal to its transpose has a transversal as its diagonal,
    # and no off-diagonal cell with A[r, c] == A[c, r] (that would repeat a
    # diagonal pair (a, a))
    _, _, hits, _ = search._scan_indices(field.q, d, 1, False)
    assert len(hits) == scan_soca(d, q=field.q).n_soca > 0
    for index in hits:
        grid = cayley_table(rulespace._rule_from_index(field, d, index)).grid
        n = grid.shape[0]
        assert sorted(np.diag(grid)) == list(range(1, n + 1))
        off = ~np.eye(n, dtype=bool)
        assert (grid != grid.T)[off].all()


def _linear_index(d: int, central: int, constant: int = 0) -> int:
    # over GF(2) digit c of a rule index is the table entry at x_1 = x_d = 0
    # with central block c, i.e. the generating function g(c)
    coeffs = (1,) + tuple((central >> i) & 1 for i in range(d - 2)) + (1,)
    table = LinearRule(GF2, coeffs).to_rule().table ^ constant
    return sum(int(table[2 * c]) << c for c in range(1 << (d - 2)))


_D6_INDEX = st.one_of(
    st.integers(0, (1 << 16) - 1),
    st.builds(_linear_index, st.just(6), st.integers(0, 15), st.integers(0, 1)),
)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_D6_INDEX)
def test_kernel_verdict_matches_bruteforce_d6(index):
    rule = rulespace._rule_from_index(GF2, 6, index)
    expected = [index] if soca_bruteforce(rule).verdict else []
    assert search._scan_range(GF2, 6, index, index + 1)[0] == expected


def test_scan_stats():
    for d in (3, 4, 5):
        rep = scan_soca(d)
        st = rep.stats
        assert (
            st["diagonal_rejected"] + st["prefix_rejected"] + st["fully_checked"]
            == st["enumerated"]
            == rep.n_bipermutive
        )
        assert st["fully_checked"] >= rep.n_soca
        assert st["filter_s"] >= 0 and st["check_s"] >= 0
        bare = dataclasses.replace(rep, stats={})
        assert bare == rep and bare.key() == rep.key()
        assert scan_reports_to_csv([bare]) == scan_reports_to_csv([rep])
        assert json.dumps(bare.as_dict()) == json.dumps(rep.as_dict())
    pooled = scan_soca(4, workers=2).stats
    serial = scan_soca(4).stats
    for name in ("enumerated", "diagonal_rejected", "prefix_rejected", "fully_checked"):
        assert pooled[name] == serial[name]
    # at d = 6 the diagonal leaves 472 rules and the prefix exactly the 16 hits
    st = scan_soca(6).stats
    counted = (st["enumerated"], st["diagonal_rejected"], st["prefix_rejected"], st["fully_checked"])
    assert counted == (65536, 65064, 456, 16)


def test_worker_count_validation():
    with pytest.raises(ValueError, match="workers"):
        scan_soca(3, workers=0)
    with pytest.raises(ValueError, match="workers"):
        find_nonlinear_soca(3, workers=-1)
    with pytest.raises(ValueError, match="workers"):
        count_linear_soca(3, 5, workers=0)


def test_scans_check_workers_without_the_cpu_count(monkeypatch, capsys):
    def refuse():
        raise AssertionError("a scan asked for the CPU count")

    monkeypatch.setattr(os, "cpu_count", refuse)
    assert scan_soca(5).n_soca == 8
    assert find_nonlinear_soca(4, workers=3) == []
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        scan_soca(5, workers=0)
    assert cli.main(["scan", "-d", "5", "--workers", "0"]) == 2
    assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"


def test_hit_polynomials_are_not_rebuilt(monkeypatch):
    expected = [scan_soca(d, q=q).key() for d, q in ((3, 2), (4, 2), (5, 2), (6, 2), (3, 3))]

    def refuse(self):
        raise AssertionError("a scan rebuilt a hit's polynomial")

    monkeypatch.setattr(LinearRule, "polynomial", refuse)
    assert [scan_soca(d, q=q).key() for d, q in ((3, 2), (4, 2), (5, 2), (6, 2), (3, 3))] == expected


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


@pytest.mark.parametrize("field", [GF3, Field(2, 2), Field(5), Field(2, 3)], ids=["GF(3)", "GF(4)", "GF(5)", "GF(8)"])
def test_count_linear_matches_bruteforce_oracle(field):
    # p(1) is a sum mod p over GF(3) and GF(5), and an XOR of k-bit elements
    # over GF(4) and GF(8)
    q = field.q
    rep = count_linear_soca(2, 3, q=q, field=field)
    oracle = []
    for d in (2, 3):
        n = 0
        for a1 in range(1, q):
            for ad in range(1, q):
                for central in range(q ** (d - 2)):
                    digits = tuple((central // q**i) % q for i in range(d - 2))
                    lr = LinearRule(field, (a1,) + digits + (ad,))
                    if soca_bruteforce(lr.to_rule()).verdict:
                        n += 1
        oracle.append(n)
    assert rep.counts == tuple(oracle)
    assert rep.field_descriptor == field.descriptor()


def test_count_linear_golden_q_above_2():
    """Counts over GF(3) and GF(4) as the tuple-polynomial gcd computed them
    before it kept remainders only and skipped the coefficient checks."""
    assert count_linear_soca(2, 8, q=3).counts == (0, 4, 16, 36, 144, 384, 1296)
    assert count_linear_soca(2, 6, q=4).counts == (6, 27, 60, 432, 1518)


def _count_linear_gf2_loop(d):
    """Oracle: one bitmask gcd with X^(d-1) + 1 per candidate.  An even-weight
    central part gives p(1) = 0, so X+1 divides p and the modulus."""
    modulus = (1 << (d - 1)) | 1
    centrals = range(1 << (d - 2))
    return sum(mask_gcd(modulus | c << 1, modulus) == 1 for c in centrals if c.bit_count() & 1)


def test_count_linear_gf2_matches_gcd_loop():
    for d in range(2, 21):
        assert search._count_linear_gf2(d) == _count_linear_gf2_loop(d), d


def _count_linear_generic_loop(field, d):
    """Oracle: one gcd with X^(2(d-1)) - 1 per candidate, every nonzero a_1
    and a_d.  Coefficients summing to 0 give p(1) = 0, so X-1 divides p and
    the modulus."""
    modulus = x_pow_minus_one(field, 2 * (d - 1))
    nonzero, digits = range(1, field.q), range(field.q)
    coeffs = itertools.product(nonzero, *[digits] * (d - 2), nonzero)
    return sum(gcd(modulus, Poly(field, c)).degree == 0 for c in coeffs if reduce(field.add, c))


@pytest.mark.parametrize(
    "field, d_max",
    [(GF3, 8), (Field(2, 2), 6), (Field(5), 5), (Field(2, 3), 4)],
    ids=["GF(3)", "GF(4)", "GF(5)", "GF(8)"],
)
def test_count_linear_generic_matches_gcd_loop(field, d_max):
    counts = count_linear_soca(2, d_max, q=field.q, force=True, field=field).counts
    assert counts == tuple(_count_linear_generic_loop(field, d) for d in range(2, d_max + 1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_scalar_multiples_share_the_gcd(data):
    # why one monic candidate per scalar class decides the q > 2 counts
    field = data.draw(st.sampled_from([GF3, Field(2, 2), Field(5), Field(2, 3)]))
    element, nonzero = st.integers(0, field.q - 1), st.integers(1, field.q - 1)
    p = Poly(field, [data.draw(nonzero), *data.draw(st.lists(element, max_size=8)), data.draw(nonzero)])
    modulus = x_pow_minus_one(field, 2 * p.degree)
    assert gcd(p.scale(data.draw(nonzero)), modulus) == gcd(p, modulus)


def _order_of_2(m):
    k, x = 1, 2 % m
    while x != 1:
        k, x = k + 1, 2 * x % m
    return k


def test_count_linear_gf2_closed_form_at_large_d():
    # With m = d - 1, X^m + 1 is (X + 1)^m when m = 2^k, and X + 1 times one
    # irreducible of degree m - 1 when m is a prime with 2 a primitive root
    # mod m.  Either way 2^(m-2) of the 2^(m-1) candidates are coprime to it.
    t0 = time.perf_counter()
    counts = count_linear_soca(2, 200, force=True).counts
    assert time.perf_counter() - t0 < 0.1
    primes = [m for m in range(3, 200) if all(m % p for p in range(2, m)) and _order_of_2(m) == m - 1]
    assert primes[:4] == [3, 5, 11, 13] and primes[-1] == 197
    for m in [1 << k for k in range(1, 8)] + primes:
        assert counts[m - 1] == 1 << (m - 2), m


def test_count_candidate_guard_q_above_2(monkeypatch):
    # the cap is checked before any work: d = 20 over GF(3) is 1.5e9 gcds
    for q, field, d_min, d_max, n in ((3, GF3, 20, 20, 4 * 3**18), (512, Field(2, 9), 3, 3, 511**2 * 512)):
        with pytest.raises(ScaleGuardError, match=f"count of {n} candidate rules exceeds the guard of {1 << 18}"):
            count_linear_soca(d_min, d_max, q=q, field=field)
    assert search.COUNT_CANDIDATE_CAP_Q == 1 << 18
    # the bench's ranges and GF(3) at d = 12 (236,196 candidates) are admitted;
    # d = 11..12 (314,928) is not
    counted = []
    monkeypatch.setattr(search, "_count_linear_generic", lambda field, d: counted.append((field.q, d)) or 0)
    monkeypatch.setattr(search, "_count_linear_gf2", lambda d: counted.append((2, d)) or 0)
    for q, d_min, d_max in ((3, 3, 8), (4, 2, 5), (3, 12, 12), (2, 2, 24)):
        count_linear_soca(d_min, d_max, q=q)
    assert len(counted) == 6 + 4 + 1 + 23
    with pytest.raises(ScaleGuardError, match="count of 314928 candidate rules"):
        count_linear_soca(11, 12, q=3)
    assert count_linear_soca(11, 12, q=3, force=True).counts == (0, 0)


def test_counts_check_workers_without_the_cpu_count(monkeypatch):
    def refuse():
        raise AssertionError("a count asked for the CPU count")

    monkeypatch.setattr(os, "cpu_count", refuse)
    assert count_linear_soca(3, 13).counts[-1] == 768
    assert count_linear_soca(3, 13, workers=4).counts[:3] == (1, 2, 4)
    assert count_linear_soca(14, 16, workers=4).counts == (2048, 3136, 5062)
    assert count_linear_soca(3, 5, q=3, workers=2).counts == (4, 16, 36)
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        count_linear_soca(3, 5, workers=0)


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
