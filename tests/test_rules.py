"""Local rules: table conventions, permutivity, ANF, global maps."""

import itertools
import random

import numpy as np
import pytest

from soca_kit import rules
from soca_kit.fields import Field, GF2, GF3
from soca_kit.matrices import transition_matrix
from soca_kit.polynomials import Poly
from soca_kit.rules import LinearRule, LocalRule, mobius_transform


def brute_rule_table(fn, field, d):
    """Oracle: evaluate a python function on every neighborhood, most
    significant digit first."""
    q = field.q
    table = []
    for v in range(q**d):
        digits = [(v // q ** (d - 1 - s)) % q for s in range(d)]
        table.append(fn(*digits))
    return table


def brute_is_permutive(table, q, d, i):
    """Oracle: group neighborhoods that differ only in coordinate i and check
    each group hits every symbol."""
    groups = {}
    for v in range(q**d):
        digits = tuple((v // q ** (d - 1 - s)) % q for s in range(d))
        key = digits[: i - 1] + digits[i:]
        groups.setdefault(key, set()).add(table[v])
    return all(len(outs) == q for outs in groups.values())


def test_wolfram_150_is_xor3():
    r = LocalRule.from_wolfram(150, 3)
    assert list(r.table) == brute_rule_table(lambda a, b, c: a ^ b ^ c, GF2, 3)
    assert r.wolfram_code == 150
    assert r(1, 0, 0) == 1


def test_wolfram_90_is_xor_outer():
    r = LocalRule.from_wolfram(90, 3)
    assert list(r.table) == brute_rule_table(lambda a, b, c: a ^ c, GF2, 3)


def test_wolfram_0_and_range():
    assert not any(LocalRule.from_wolfram(0, 3).table)
    with pytest.raises(ValueError):
        LocalRule.from_wolfram(256, 3)
    with pytest.raises(ValueError):
        LocalRule.from_wolfram(-1, 3)


def test_diameter_and_size_refused_before_any_work():
    for make in (lambda d: LocalRule.from_wolfram(1, d), lambda d: LocalRule(GF2, d, [])):
        with pytest.raises(ValueError, match="diameter must be >= 1"):
            make(-1)
        with pytest.raises(ValueError, match="diameter must be >= 1"):
            make(0)
        with pytest.raises(ValueError, match=r"table of 2\^25 entries exceeds the size cap"):
            make(25)
        with pytest.raises(ValueError, match=r"table of 2\^1000000000 entries exceeds the size cap"):
            make(10**9)
    with pytest.raises(ValueError, match=r"table of 3\^16 entries exceeds the size cap"):
        LinearRule(GF3, (1,) * 16).to_rule()

    class NoPower(int):
        def __pow__(self, e):
            raise AssertionError(f"q**{e} computed for a diameter past the cap")

    with pytest.raises(ValueError, match="exceeds the size cap"):
        rules._check_table_size(NoPower(2), 25)


def test_wolfram_roundtrip():
    for code in (0, 1, 30, 90, 105, 110, 150, 165, 255):
        assert LocalRule.from_wolfram(code, 3).wolfram_code == code
    for code in (0, 57, 3268, 65535):
        assert LocalRule.from_wolfram(code, 4).wolfram_code == code


def test_linear_rule_tables():
    assert LinearRule(GF2, (1, 1, 1)).to_rule().wolfram_code == 150
    assert LinearRule(GF2, (1, 0, 1)).to_rule().wolfram_code == 90
    lr = LinearRule(GF3, (1, 2))
    assert list(lr.to_rule().table) == brute_rule_table(lambda a, b: (a + 2 * b) % 3, GF3, 2)


def test_linear_rule_extension_field():
    f = Field(2, 2)
    lr = LinearRule(f, (2, 3))
    oracle = brute_rule_table(lambda a, b: f.add(f.mul(2, a), f.mul(3, b)), f, 2)
    assert list(lr.to_rule().table) == oracle


def test_large_linear_tables_match_scalar_evaluation():
    # every table is the sum of two partial tables, built a chunk at a time:
    # d = 1 and 2, and sizes either side of 2^20 entries
    rng = random.Random(9)
    small = [(f, d) for f in (GF2, GF3, Field(2, 2)) for d in (1, 2)]
    for f, d in small + [(GF2, 20), (GF2, 21), (GF3, 12), (GF3, 13), (Field(2, 2), 11)]:
        lr = LinearRule(f, tuple(rng.randrange(f.q) for _ in range(d)))
        table = lr.to_rule().table
        for v in [0, 1, table.size - 1] + [rng.randrange(table.size) for _ in range(300)]:
            digits = [(v // f.q ** (d - 1 - s)) % f.q for s in range(d)]
            assert table[v] == lr(digits), (f, v)


def test_linear_table_over_gf512_matches_scalar_evaluation():
    lr = LinearRule(Field(2, 9), (1, 3))
    table = lr.to_rule().table
    for v in range(table.size):
        assert table[v] == lr(divmod(v, 512)), v


def test_permutivity():
    assert LocalRule.from_wolfram(150, 3).is_bipermutive()
    assert not LocalRule.from_wolfram(0, 3).is_bipermutive()
    # rule 30 = x1 xor (x2 or x3): leftmost permutive only
    r30 = LocalRule.from_wolfram(30, 3)
    assert r30.is_permutive(1) and not r30.is_permutive(3)
    with pytest.raises(ValueError):
        r30.is_permutive(4)


def test_permutivity_matches_oracle_all_elementary():
    for code in range(256):
        r = LocalRule.from_wolfram(code, 3)
        table = list(r.table)
        for i in (1, 2, 3):
            assert r.is_permutive(i) == brute_is_permutive(table, 2, 3, i), code


def test_elementary_bipermutive_set():
    found = [c for c in range(256) if LocalRule.from_wolfram(c, 3).is_bipermutive()]
    assert found == [90, 105, 150, 165]


def test_permutivity_general_field():
    lr = LinearRule(GF3, (1, 0, 2)).to_rule()
    assert lr.is_bipermutive() and not lr.is_permutive(2)
    assert LinearRule(GF3, (1, 1, 1)).to_rule().is_permutive(2)


def test_anf_examples():
    a150 = LocalRule.from_wolfram(150, 3).anf()
    assert a150.terms == (1, 2, 4)  # x3, x2, x1
    assert a150.degree == 1 and a150.constant == 0
    assert a150.term_variables(4) == (1,)
    a105 = LocalRule.from_wolfram(105, 3).anf()
    assert a105.terms == (0, 1, 2, 4) and a105.constant == 1
    assert LocalRule.from_wolfram(0, 3).anf().terms == ()


def test_anf_roundtrip():
    for d in (1, 2, 3):
        for code in range(1 << (1 << d)):
            r = LocalRule.from_wolfram(code, d)
            assert np.array_equal(r.anf().to_table(), r.table)
    rng = np.random.default_rng(3)
    for d in (4, 5, 6):
        for _ in range(60):
            table = rng.integers(0, 2, size=1 << d)
            r = LocalRule(GF2, d, table)
            assert np.array_equal(r.anf().to_table(), r.table)


def test_mobius_is_involution():
    rng = np.random.default_rng(4)
    t = rng.integers(0, 2, size=64).astype(np.uint8)
    assert np.array_equal(mobius_transform(mobius_transform(t)), t)


def test_as_linear_and_affine():
    assert LocalRule.from_wolfram(150, 3).as_linear() == LinearRule(GF2, (1, 1, 1))
    r105 = LocalRule.from_wolfram(105, 3)
    assert r105.as_linear() is None
    assert r105.as_affine() == (LinearRule(GF2, (1, 1, 1)), 1)
    # f = x1 + x2*x3 + x4 is bipermutive but quadratic
    table = brute_rule_table(lambda a, b, c, e: a ^ (b & c) ^ e, GF2, 4)
    nonlin = LocalRule(GF2, 4, table)
    assert nonlin.is_bipermutive()
    assert nonlin.as_linear() is None and nonlin.as_affine() is None


def test_as_affine_matches_anf_degree():
    # affine iff the ANF has degree <= 1; then the ANF holds the constant and
    # the coefficients, and the rule is its linear part plus the constant
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        for i in range(24):
            if i % 2:
                lr = LinearRule(GF2, tuple(int(c) for c in rng.integers(0, 2, size=d)))
                table = lr.to_rule().table ^ (i // 2 % 2)  # every other one complemented
            else:
                table = rng.integers(0, 2, size=1 << d)
            rule = LocalRule(GF2, d, table)
            anf = rule.anf()
            got = rule.as_affine()
            if anf.degree > 1:
                assert got is None
            else:
                lr, constant = got
                assert constant == anf.constant
                assert np.array_equal(lr.to_rule().table ^ constant, rule.table)


def test_as_linear_general_field():
    lr = LinearRule(GF3, (1, 2, 1))
    assert lr.to_rule().as_linear() == lr
    # shift every output by 2: affine with constant 2
    shifted = LocalRule(GF3, 3, [(v + 2) % 3 for v in lr.to_rule().table])
    assert shifted.as_linear() is None
    assert shifted.as_affine() == (lr, 2)
    f4 = Field(2, 2)
    lr4 = LinearRule(f4, (3, 1))
    assert lr4.to_rule().as_linear() == lr4
    # in characteristic 2 the constant is added by XOR
    shifted4 = LocalRule(f4, 2, [v ^ 3 for v in lr4.to_rule().table])
    assert shifted4.as_linear() is None
    assert shifted4.as_affine() == (lr4, 3)


def test_complement():
    r150 = LocalRule.from_wolfram(150, 3)
    assert r150.complement().wolfram_code == 255 - 150 == 105
    assert LocalRule.from_wolfram(90, 3).complement().wolfram_code == 165
    assert r150.complement().complement() == r150
    with pytest.raises(ValueError):
        LinearRule(GF3, (1, 1)).to_rule().complement()


def test_nbca_examples():
    r150 = LocalRule.from_wolfram(150, 3)
    assert r150.nbca((1, 0, 0, 0, 0, 1)) == (1, 0, 0, 1)
    assert r150.nbca((0, 0, 0, 0)) == (0, 0)
    assert LocalRule.from_wolfram(90, 3).nbca((1, 0, 0, 1)) == (1, 1)
    with pytest.raises(ValueError):
        r150.nbca((1, 0))


def test_pbca_examples():
    r150 = LocalRule.from_wolfram(150, 3)
    assert r150.pbca((1, 0, 0, 0, 0, 1)) == (1, 0, 0, 1, 0, 0)
    assert r150.pbca((0,) * 6) == (0,) * 6
    # oracle: cell i reads x_i, x_{i+1 mod n}, x_{i+2 mod n}
    r90 = LocalRule.from_wolfram(90, 3)
    x = (1, 0, 0, 0)
    expected = tuple(x[i] ^ x[(i + 2) % 4] for i in range(4))
    assert expected == (1, 0, 1, 0)
    assert r90.pbca(x) == expected
    # wrap shorter than the diameter still works cell-wise
    assert r150.pbca((1, 0)) == (1 ^ 0 ^ 1, 0 ^ 1 ^ 0)


def test_nbca_equals_transition_matrix_product():
    cases = [
        (LinearRule(GF2, (1, 1, 1)), 6),
        (LinearRule(GF2, (1, 0, 1)), 5),
        (LinearRule(GF3, (1, 2)), 4),
        (LinearRule(GF3, (2, 0, 1)), 4),
    ]
    for lr, n in cases:
        f = lr.field
        rule = lr.to_rule()
        m = transition_matrix(lr, n).data
        for x in itertools.product(range(f.q), repeat=n):
            prod = tuple(
                int(sum(int(m[i, j]) * x[j] for j in range(n)) % f.p) for i in range(m.shape[0])
            )
            assert rule.nbca(x) == prod


def _matches_outer_xor(r):
    """Oracle: does the table factor as x1 + g(x2..x_{d-1}) + xd, with g read
    off the neighborhoods having x1 = xd = 0?"""
    d = r.diameter
    table = np.asarray(r.table)
    idx = np.arange(1 << d)
    x1, xd = idx >> (d - 1), idx & 1
    central = (idx >> 1) & ((1 << (d - 2)) - 1)
    g_table = table[np.arange(1 << (d - 2)) << 1]
    rebuilt = (x1 ^ g_table[central] ^ xd).astype(table.dtype)
    return bool(np.array_equal(rebuilt, table))


def test_bipermutive_iff_outer_xor_structure():
    # binary bipermutive rules are exactly x1 + g(middle) + xd
    for code in range(256):
        r = LocalRule.from_wolfram(code, 3)
        assert r.is_bipermutive() == _matches_outer_xor(r), code
    rng = np.random.default_rng(9)
    for d in (4, 5):
        for code in rng.integers(0, 1 << (1 << d), size=500, dtype=np.uint64):
            r = LocalRule.from_wolfram(int(code), d)
            assert r.is_bipermutive() == _matches_outer_xor(r)
        # positive direction: build outer-xor tables from random g and confirm
        idx = np.arange(1 << d)
        x1, xd, central = idx >> (d - 1), idx & 1, (idx >> 1) & ((1 << (d - 2)) - 1)
        for _ in range(50):
            g_bits = rng.integers(0, 2, size=1 << (d - 2))
            r = LocalRule(GF2, d, (x1 ^ g_bits[central] ^ xd))
            assert r.is_bipermutive() and _matches_outer_xor(r)


def test_linear_rule_polynomial():
    assert LinearRule(GF2, (1, 1, 1)).polynomial() == Poly(GF2, (1, 1, 1))
    assert LinearRule(GF2, (1, 0, 1)).polynomial() == Poly(GF2, (1, 0, 1))
    assert LinearRule(GF2, (1, 0, 0, 1)).polynomial() == Poly(GF2, (1, 0, 0, 1))
    assert str(LinearRule(GF3, (1, 2, 1)).polynomial()) == "1+2*x+x^2"


def test_bipermutive_flag():
    assert LinearRule(GF2, (1, 1, 1)).is_bipermutive
    assert not LinearRule(GF2, (0, 1, 1)).is_bipermutive
    assert not LinearRule(GF3, (1, 1, 0)).is_bipermutive


def test_table_validation():
    with pytest.raises(ValueError):
        LocalRule(GF2, 3, [0] * 7)
    with pytest.raises(ValueError):
        LocalRule(GF2, 3, [0] * 7 + [2])
    with pytest.raises(ValueError):
        LocalRule(GF2, 25, [0])  # size cap


def test_trusted_tables_are_not_copied(monkeypatch):
    built = np.array([0, 1, 2, 1, 2, 0, 2, 0, 1], dtype=np.uint8)
    rule = LocalRule._trusted(GF3, 2, built)
    assert rule.table is built and not built.flags.writeable
    given = built.copy()
    public = LocalRule(GF3, 2, given)
    assert public.table is not given and given.flags.writeable and not public.table.flags.writeable
    given[0] = 3
    with pytest.raises(ValueError, match="table entries must be field elements"):
        LocalRule(GF3, 2, given)

    # the package's own tables skip the public constructor
    def refuse(*args):
        raise AssertionError("a package-built table went through the public constructor")

    monkeypatch.setattr(LocalRule, "__init__", refuse)
    assert LinearRule(GF3, (1, 1)).to_rule().table.tobytes() == built.tobytes()
    assert LocalRule.from_wolfram(150, 3).table.tolist() == [0, 1, 1, 0, 1, 0, 0, 1]
    assert not LinearRule(Field(5), (1, 2, 3)).to_rule().table.flags.writeable
