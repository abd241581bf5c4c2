"""Verdict layer: brute force vs the algebraic characterizations."""

import argparse
import itertools

import pytest

from soca_kit import cli
from soca_kit.checkers import (
    CHECK_METHODS,
    METHODS,
    AuditError,
    SocaVerdict,
    audit,
    irreducible_implies_soca,
    oca_pair_check,
    pbca_invertible,
    soca_binary_fast,
    soca_bruteforce,
    soca_linear_fast,
    soca_parity,
    soca_stacked_matrix,
    soca_verdict,
)
from soca_kit.fields import Field, GF2, GF3
from soca_kit.polynomials import Poly
from soca_kit.rules import LinearRule, LocalRule
from soca_kit.search import enumerate_bipermutive
from soca_kit.squares import cayley_table, check_orthogonal


def binary_linear_rules(d):
    for central in range(1 << (d - 2)):
        yield LinearRule(GF2, (1,) + tuple((central >> i) & 1 for i in range(d - 2)) + (1,))


def gf3_linear_bipermutive(d):
    for a1 in (1, 2):
        for ad in (1, 2):
            for central in itertools.product(range(3), repeat=d - 2):
                yield LinearRule(GF3, (a1,) + central + (ad,))


def test_bruteforce_examples():
    assert soca_bruteforce(LocalRule.from_wolfram(150, 3)).verdict
    v90 = soca_bruteforce(LocalRule.from_wolfram(90, 3))
    assert not v90.verdict and v90.method == "bruteforce"
    (r1, c1), (r2, c2) = v90.certificate
    sq = cayley_table(LocalRule.from_wolfram(90, 3))
    t = sq.transpose()
    assert (sq.grid[r1 - 1, c1 - 1], t.grid[r1 - 1, c1 - 1]) == (
        sq.grid[r2 - 1, c2 - 1],
        t.grid[r2 - 1, c2 - 1],
    )
    assert soca_bruteforce(LocalRule.from_wolfram(105, 3)).verdict


def test_bruteforce_rejects_non_bipermutive():
    with pytest.raises(ValueError):
        soca_bruteforce(LocalRule.from_wolfram(0, 3))
    with pytest.raises(ValueError):
        soca_bruteforce(LocalRule.from_wolfram(30, 3))


def test_linear_fast_examples():
    assert soca_linear_fast(LinearRule(GF2, (1, 1, 1))).verdict
    v = soca_linear_fast(LinearRule(GF2, (1, 0, 1)))
    assert not v.verdict
    assert v.certificate == Poly(GF2, (1, 0, 1))  # gcd = 1 + x^2 = (1 + x)^2
    # GF(3): 1 + x + x^2 has the root 1, shared with x^4 - 1
    v3 = soca_linear_fast(LinearRule(GF3, (1, 1, 1)))
    b3 = soca_bruteforce(LinearRule(GF3, (1, 1, 1)).to_rule())
    assert v3.verdict == b3.verdict is False


def test_linear_fast_matches_bruteforce_gf3():
    for d in (2, 3):
        for lr in gf3_linear_bipermutive(d):
            assert soca_linear_fast(lr).verdict == soca_bruteforce(lr.to_rule()).verdict


def test_binary_fast_examples():
    assert soca_binary_fast(LinearRule(GF2, (1, 1, 0, 0, 0, 1))).verdict  # 1 + x + x^5
    v = soca_binary_fast(LinearRule(GF2, (1, 0, 0, 1)))
    assert not v.verdict
    assert v.certificate == Poly(GF2, (1, 0, 0, 1))  # whole modulus; contains 1 + x
    assert (v.certificate % Poly(GF2, (1, 1))).is_zero


def test_binary_fast_agrees_with_general():
    for d in range(2, 13):
        for lr in binary_linear_rules(d):
            assert soca_binary_fast(lr).verdict == soca_linear_fast(lr).verdict


def test_binary_fast_rejects_odd_characteristic():
    with pytest.raises(ValueError):
        soca_binary_fast(LinearRule(GF3, (1, 1, 1)))


def test_parity_examples():
    assert soca_parity(LinearRule(GF2, (1, 1, 0, 0, 1))).verdict  # 1 + x + x^4
    v = soca_parity(LinearRule(GF2, (1, 1, 1, 0, 1)))  # four ones
    assert not v.verdict and v.certificate == Poly(GF2, (1, 1))
    assert soca_parity(LinearRule(GF2, (1, 1, 1))).verdict
    with pytest.raises(ValueError):
        soca_parity(LinearRule(GF2, (1, 1, 0, 1)))  # d - 1 = 3 not a power of two


def test_parity_equals_gcd_at_power_of_two_diameters():
    for d in (3, 5, 9):
        for lr in binary_linear_rules(d):
            assert soca_parity(lr).verdict == soca_binary_fast(lr).verdict


def test_irreducible_sufficient():
    v = irreducible_implies_soca(LinearRule(GF2, (1, 1, 0, 1)))
    assert v is not None and v.verdict and v.method == "irreducible-sufficient"
    # reducible yet self-orthogonal: no verdict, the gcd path still says yes
    lr = LinearRule(GF2, (1, 1, 0, 0, 0, 1))
    assert irreducible_implies_soca(lr) is None
    assert soca_binary_fast(lr).verdict
    assert irreducible_implies_soca(LinearRule(GF2, (1, 0, 1))) is None
    with pytest.raises(ValueError):
        irreducible_implies_soca(LinearRule(GF2, (1, 1)))


def test_irreducible_sufficient_extension_field():
    f4 = Field(2, 2)
    # x^2 + x + 2 over GF(4): no root in GF(4) (1+1+2=2, 3+2... check all)
    p = Poly(f4, (2, 1, 1))
    roots = [x for x in range(4) if p(x) == 0]
    assert not roots
    v = irreducible_implies_soca(LinearRule(f4, (2, 1, 1)))
    assert v is not None and v.verdict
    assert soca_linear_fast(LinearRule(f4, (2, 1, 1))).verdict


def test_stacked_matrix_method():
    assert soca_stacked_matrix(LinearRule(GF2, (1, 1, 1))).verdict
    v = soca_stacked_matrix(LinearRule(GF2, (1, 0, 1)))
    assert not v.verdict and v.method == "stacked-matrix"
    assert v.certificate is not None


def test_pbca_invertible_examples():
    assert pbca_invertible(LinearRule(GF2, (1, 1, 1)), 4)
    assert not pbca_invertible(LinearRule(GF2, (1, 0, 1)), 4)
    with pytest.raises(ValueError):
        pbca_invertible(LinearRule(GF2, (1, 1, 1)), 2)


def test_pbca_equivalence_with_bruteforce():
    for d in range(2, 7):
        for lr in binary_linear_rules(d):
            assert pbca_invertible(lr, 2 * (d - 1)) == soca_bruteforce(lr.to_rule()).verdict


def test_oca_pair_check():
    lr90, lr150 = LinearRule(GF2, (1, 0, 1)), LinearRule(GF2, (1, 1, 1))
    assert oca_pair_check(lr90, lr150, "fast")
    assert oca_pair_check(lr90, lr150, "bruteforce")
    assert not oca_pair_check(lr150, lr150, "fast")
    with pytest.raises(ValueError):
        oca_pair_check(lr150, LinearRule(GF2, (1, 1, 0, 1)))
    with pytest.raises(ValueError):
        oca_pair_check(lr150, LinearRule(GF3, (1, 1, 1)))
    with pytest.raises(ValueError):
        oca_pair_check(lr90, lr150, "sampled")


def test_oca_pairs_fast_equals_bruteforce_d4():
    rules = list(binary_linear_rules(4))
    for lr1 in rules:
        for lr2 in rules:
            assert oca_pair_check(lr1, lr2, "fast") == oca_pair_check(lr1, lr2, "bruteforce")


def test_audit_unanimous_150():
    v = audit(LocalRule.from_wolfram(150, 3))
    assert v.verdict
    methods = {entry.method for entry in v.log}
    assert {"bruteforce", "stacked-matrix", "gcd-general", "gcd-binary", "parity"} <= methods
    assert all(entry.verdict for entry in v.log)


def test_audit_unanimous_90():
    v = audit(LocalRule.from_wolfram(90, 3))
    assert not v.verdict
    assert all(not entry.verdict for entry in v.log)
    assert "irreducible-sufficient" not in {entry.method for entry in v.log}


def test_audit_affine_rule_uses_linear_part():
    v = audit(LocalRule.from_wolfram(105, 3))
    assert v.verdict
    assert {"gcd-binary", "parity"} <= {entry.method for entry in v.log}


def test_audit_nonlinear_rule_bruteforce_only():
    table = [
        (v >> 3) ^ (((v >> 2) & 1) & ((v >> 1) & 1)) ^ (v & 1) for v in range(16)
    ]  # x1 + x2*x3 + x4
    v = audit(LocalRule(GF2, 4, table))
    assert [entry.method for entry in v.log] == ["bruteforce"]


def test_audit_all_bipermutive_small():
    for d in (2, 3, 4):
        for rule in enumerate_bipermutive(GF2, d, force=True):
            audit(rule)  # raises AuditError on any disagreement
    for rule in enumerate_bipermutive(GF3, 2, force=True):
        audit(rule)


def test_complement_symmetry():
    for d in (3, 4, 5):
        for rule in enumerate_bipermutive(GF2, d, force=True):
            assert (
                soca_bruteforce(rule).verdict
                == soca_bruteforce(rule.complement()).verdict
            )


def test_verdict_serialization():
    v = soca_linear_fast(LinearRule(GF2, (1, 0, 1)))
    d = v.as_dict()
    assert d == {"verdict": False, "method": "gcd-general", "certificate": "1+x^2"}
    vb = soca_bruteforce(LocalRule.from_wolfram(90, 3))
    db = vb.as_dict()
    assert db["method"] == "bruteforce" and len(db["certificate"]) == 2


def test_audit_linear_rule_equals_audit_of_its_table():
    rules = [lr for d in range(2, 7) for lr in binary_linear_rules(d)]
    rules += list(gf3_linear_bipermutive(3))
    for lr in rules:
        assert audit(lr) == audit(lr.to_rule())


# -- the method registry ---------------------------------------------------------


def _check_method_choices():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a for a in sub.choices["check"]._actions if a.dest == "method").choices)


def test_check_choices_come_from_the_registry():
    assert _check_method_choices() == ("auto", *CHECK_METHODS)
    assert set(CHECK_METHODS) == set(METHODS) - {"irreducible-sufficient"}


def test_auto_and_audit_dispatch_through_the_registry(monkeypatch, capsys):
    seen = []

    def stub(lr):
        seen.append(lr)
        return SocaVerdict(True, "stub")

    lr = LinearRule(GF2, (1, 1, 1))
    monkeypatch.setitem(METHODS, "gcd-binary", (lambda lr: lr is not None, stub))
    assert cli.main(["check", "--linear", "1,1,1"]) == 0
    assert "method: stub" in capsys.readouterr().out
    assert [e.method for e in audit(lr).log] == [
        "bruteforce", "stacked-matrix", "gcd-general", "stub", "parity", "irreducible-sufficient",
    ]
    assert seen == [lr, lr]
    # auto takes the next preference once the registry says gcd-binary does not apply
    monkeypatch.setitem(METHODS, "gcd-binary", (lambda lr: False, stub))
    assert cli.main(["check", "--linear", "1,1,1"]) == 0
    assert "method: gcd-general" in capsys.readouterr().out
    assert "stub" not in {e.method for e in audit(lr).log}
    assert soca_verdict(LocalRule.from_wolfram(105, 3)).method == "bruteforce"  # affine, not linear


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--linear", "1,1,1,1", "--method", "parity"), "the parity check needs d - 1 a power of two, got d = 4"),
        (("--linear", "1,1,1", "--field", "GF(3)", "--method", "gcd-binary"),
         "the halved-modulus check needs a field of characteristic 2"),
        (("--wolfram", "30", "-d", "3", "--method", "gcd-general"), "method gcd-general applies to linear rules only"),
        (("--wolfram", "105", "-d", "3", "--method", "stacked-matrix"),
         "method stacked-matrix applies to linear rules only"),
    ],
)
def test_inapplicable_method_exits_2(capsys, argv, message):
    assert cli.main(["check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
