"""Cayley tables, Latin property, transposition, orthogonality."""

import itertools
import json
import random

import numpy as np
import pytest

from soca_kit.fields import Field, GF2, GF3
from soca_kit.rules import LinearRule, LocalRule
from soca_kit.search import enumerate_bipermutive, rule_space_size, _rule_from_index
from soca_kit.squares import (
    EncodingMap,
    LatinSquare,
    are_orthogonal,
    cayley_table,
    check_orthogonal,
    is_latin,
    is_self_orthogonal,
    superposition_text,
)

R150_GRID = [[1, 4, 3, 2], [2, 3, 4, 1], [4, 1, 2, 3], [3, 2, 1, 4]]


def brute_cayley(rule, m):
    """Oracle: per-cell NBCA evaluation and little-endian symbol encoding."""
    q = rule.field.q
    n = q**m

    def psi(i):
        i -= 1
        return tuple((i // q**t) % q for t in range(m))

    def phi(block):
        return 1 + sum(x * q**t for t, x in enumerate(block))

    return [[phi(rule.nbca(psi(i) + psi(j))) for j in range(1, n + 1)] for i in range(1, n + 1)]


def test_encoding_map_matches_stated_example():
    enc = EncodingMap(GF2, 2)
    assert [enc.phi(b) for b in ((0, 0), (1, 0), (0, 1), (1, 1))] == [1, 2, 3, 4]
    for s in range(1, 5):
        assert enc.phi(enc.psi(s)) == s
    with pytest.raises(ValueError):
        enc.phi((0, 0, 0))
    with pytest.raises(ValueError):
        enc.psi(5)


def test_encoding_map_bijective_gf3():
    enc = EncodingMap(GF3, 2)
    symbols = [enc.phi(b) for b in itertools.product(range(3), repeat=2)]
    assert sorted(symbols) == list(range(1, 10))


def test_cayley_table_rule150_figure_grid():
    sq = cayley_table(LocalRule.from_wolfram(150, 3))
    assert sq.grid.tolist() == R150_GRID
    assert sq.grid.tolist() == brute_cayley(LocalRule.from_wolfram(150, 3), 2)


def test_cayley_table_rule90_symmetric():
    sq = cayley_table(LocalRule.from_wolfram(90, 3))
    assert sq.grid.tolist() == brute_cayley(LocalRule.from_wolfram(90, 3), 2)
    assert sq == sq.transpose()


def test_cayley_table_rule0_constant():
    sq = cayley_table(LocalRule.from_wolfram(0, 3))
    assert sq.grid.tolist() == [[1] * 4] * 4
    assert not is_latin(sq)


def test_cayley_matches_oracle_various():
    cases = [
        LinearRule(GF2, (1, 1, 0, 1)).to_rule(),
        LinearRule(GF3, (1, 2, 1)).to_rule(),
        LinearRule(Field(2, 2), (2, 3)).to_rule(),
    ]
    for rule in cases:
        sq = cayley_table(rule)
        assert sq.grid.tolist() == brute_cayley(rule, rule.diameter - 1)


def test_cayley_diameter_guard():
    with pytest.raises(ValueError):
        cayley_table(LocalRule(GF2, 1, (0, 1)))


def test_cayley_size_guard():
    # 2^(2*14) cells exceed the cap; the guard fires before any work
    lr = LinearRule(GF2, (1,) + (0,) * 13 + (1,))
    with pytest.raises(ValueError, match="size cap"):
        cayley_table(lr.to_rule())


def test_cayley_rejects_mismatched_encoding():
    with pytest.raises(ValueError):
        cayley_table(LocalRule.from_wolfram(150, 3), EncodingMap(GF2, 3))
    with pytest.raises(ValueError):
        cayley_table(LocalRule.from_wolfram(150, 3), EncodingMap(GF3, 2))


def test_is_latin_for_bipermutive_rules():
    # exhaustive at desk scale
    for d in (2, 3, 4, 5):
        for rule in enumerate_bipermutive(GF2, d, force=True):
            assert is_latin(cayley_table(rule))
    for d in (2, 3):
        for rule in enumerate_bipermutive(GF3, d, force=True):
            assert is_latin(cayley_table(rule))
    # sampled beyond
    rng = random.Random(42)
    for d in (4, 5):
        total = rule_space_size(GF3, d)
        for _ in range(10):
            rule = _rule_from_index(GF3, d, rng.randrange(total))
            assert is_latin(cayley_table(rule))


def test_is_latin_rejects_repeats():
    assert not is_latin(LatinSquare([[1, 2], [1, 2]]))
    assert is_latin(LatinSquare([[1, 2], [2, 1]]))


def test_malformed_grids():
    with pytest.raises(ValueError):
        LatinSquare([[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ValueError):
        LatinSquare([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        LatinSquare([[1, 3], [3, 1]])


def test_transpose():
    sq150 = cayley_table(LocalRule.from_wolfram(150, 3))
    assert sq150.transpose().transpose() == sq150
    assert sq150.transpose() == LatinSquare(np.array(R150_GRID).T)
    assert hash(sq150.transpose()) == hash(LatinSquare(np.array(R150_GRID).T))
    assert sq150.transpose() != sq150
    assert sq150.grid[0, 1] == sq150.transpose().grid[1, 0]
    # transposing the square equals running the CA on swapped halves
    rule = LocalRule.from_wolfram(150, 3)
    enc = EncodingMap(GF2, 2)
    for i in range(1, 5):
        for j in range(1, 5):
            swapped = enc.phi(rule.nbca(enc.psi(j) + enc.psi(i)))
            assert sq150.transpose().grid[i - 1, j - 1] == swapped


def test_grids_from_outside_are_copied_built_ones_are_read_only():
    grid = np.array(R150_GRID)
    square = LatinSquare(grid)
    grid[0, 0] = 4
    assert square.grid.tolist() == R150_GRID and square.grid.dtype == np.int32
    for built in (cayley_table(LocalRule.from_wolfram(150, 3)), square):
        assert np.shares_memory(built.transpose().grid, built.grid)
        for sq in (built, built.transpose()):
            with pytest.raises(ValueError):
                sq.grid[0, 0] = 2


def test_orthogonality_90_150():
    sq90 = cayley_table(LocalRule.from_wolfram(90, 3))
    sq150 = cayley_table(LocalRule.from_wolfram(150, 3))
    assert are_orthogonal(sq90, sq150)
    assert are_orthogonal(sq150, sq150.transpose())


def test_self_superposition_repeats():
    sq = cayley_table(LocalRule.from_wolfram(150, 3))
    ok, cells = check_orthogonal(sq, sq)
    assert not ok and cells is not None
    (r1, c1), (r2, c2) = cells
    assert (r1, c1) != (r2, c2)
    pair1 = (sq.grid[r1 - 1, c1 - 1], sq.grid[r1 - 1, c1 - 1])
    pair2 = (sq.grid[r2 - 1, c2 - 1], sq.grid[r2 - 1, c2 - 1])
    assert pair1 == pair2


def test_certificate_cells_carry_equal_pairs():
    a = cayley_table(LocalRule.from_wolfram(90, 3))
    b = a.transpose()
    ok, cells = check_orthogonal(a, b)
    assert not ok
    (r1, c1), (r2, c2) = cells
    assert a.grid[r1 - 1, c1 - 1] == a.grid[r2 - 1, c2 - 1]
    assert b.grid[r1 - 1, c1 - 1] == b.grid[r2 - 1, c2 - 1]


def test_order_mismatch():
    with pytest.raises(ValueError):
        are_orthogonal(LatinSquare([[1]]), LatinSquare([[1, 2], [2, 1]]))


def test_self_orthogonality_verdicts():
    assert is_self_orthogonal(cayley_table(LocalRule.from_wolfram(150, 3)))
    assert not is_self_orthogonal(cayley_table(LocalRule.from_wolfram(90, 3)))


def test_symmetric_square_never_self_orthogonal():
    for n in (2, 3, 4, 5):
        cyclic = LatinSquare([[(i + j) % n + 1 for j in range(n)] for i in range(n)])
        assert is_latin(cyclic) and cyclic == cyclic.transpose()
        assert not is_self_orthogonal(cyclic)


def test_self_orthogonality_invariant_under_encoding():
    reversed_enc = {}
    for d in (3, 4):
        reversed_enc[d] = EncodingMap(GF2, d - 1, reversed_digits=True)
        for rule in enumerate_bipermutive(GF2, d):
            std = is_self_orthogonal(cayley_table(rule))
            rev = is_self_orthogonal(cayley_table(rule, reversed_enc[d]))
            assert std == rev
    enc3 = EncodingMap(GF3, 2, reversed_digits=True)
    for rule in enumerate_bipermutive(GF3, 3):
        assert is_self_orthogonal(cayley_table(rule)) == is_self_orthogonal(
            cayley_table(rule, enc3)
        )


def test_chunked_grid_build_matches_gcd_route():
    # d=11 grids (1024x1024) are past the cached-window threshold, so this
    # exercises the chunked builder; the gcd characterization is the oracle
    from soca_kit.checkers import soca_binary_fast, soca_bruteforce
    from soca_kit.squares import _cayley_plan

    assert _cayley_plan(GF2, 11, False)[3] is None
    for central, expected in ((0b000000001, True), (0b000000011, False)):
        coeffs = (1,) + tuple((central >> i) & 1 for i in range(9)) + (1,)
        lr = LinearRule(GF2, coeffs)
        fast = soca_binary_fast(lr).verdict
        assert fast is expected
        assert soca_bruteforce(lr.to_rule()).verdict == fast


# GF(5) d = 6: 625 rows in chunks of 13, the last one short
@pytest.mark.parametrize("field,d", [(GF2, 11), (GF3, 8), (Field(5), 6)])
@pytest.mark.parametrize("reversed_digits", [False, True])
def test_chunked_grid_matches_definition(field, d, reversed_digits):
    # past the cached-window threshold; a random table, so any misplaced
    # window changes some cell.  Entry (i, j) is the CA run on psi(i) || psi(j)
    from soca_kit.squares import _cayley_plan

    assert _cayley_plan(field, d, reversed_digits)[3] is None
    rng = np.random.default_rng(17 * d + reversed_digits)
    rule = LocalRule(field, d, rng.integers(0, field.q, field.q**d))
    enc = EncodingMap(field, d - 1, reversed_digits)
    grid = cayley_table(rule, enc).grid
    for i, j in rng.integers(1, enc.order + 1, size=(200, 2)).tolist() + [[1, 1], [enc.order] * 2]:
        assert grid[i - 1, j - 1] == enc.phi(rule.nbca(enc.psi(i) + enc.psi(j)))


def _traced_peak(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunked_grid_memory_is_bounded():
    # the chunked build at d = 11 holds the grid (4 MB) and one small chunk,
    # not a copy of the grid's inputs: 484 MB traced with per-chunk
    # concatenated blocks, 164 MB with chunks of 2^20 cells and a copied grid
    rule = LinearRule(GF2, (1,) + (0,) * 8 + (1, 1)).to_rule()
    assert _traced_peak(cayley_table, rule) < 32 << 20


def test_bruteforce_memory_is_bounded():
    # GF(2) d = 12: a 16 MB grid, its transpose as a view, and the pair codes
    # and counts of check_orthogonal (32 MB each); 192 MB traced with chunks
    # of 2^20 cells and copied grids
    from soca_kit.checkers import soca_bruteforce

    rule = LinearRule(GF2, (1,) + (0,) * 9 + (1, 1)).to_rule()
    assert _traced_peak(soca_bruteforce, rule) < 100 << 20


def test_serialization():
    sq = cayley_table(LocalRule.from_wolfram(150, 3))
    assert sq.to_csv() == "1,4,3,2\n2,3,4,1\n4,1,2,3\n3,2,1,4\n"
    assert json.loads(sq.to_json()) == R150_GRID
    text = superposition_text(sq, sq.transpose())
    cells = text.split()
    assert len(cells) == 16 and len(set(cells)) == 16
    assert text.splitlines()[0].startswith("1,1")
