"""CLI contract: exit codes, output formats, golden files, guards."""

import itertools
import json
from pathlib import Path

import pytest

from soca_kit import checkers, cli
from soca_kit.cli import main
from soca_kit.fields import GF2, GF3, Field
from soca_kit.rules import LinearRule

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_positive_default_method(capsys):
    code, out, _ = run(capsys, "check", "--wolfram", "150", "-d", "3")
    assert code == 0
    assert "verdict: self-orthogonal" in out
    assert "method: gcd-binary" in out


def test_check_negative_bruteforce(capsys):
    code, out, _ = run(capsys, "check", "--wolfram", "90", "-d", "3", "--method", "bruteforce")
    assert code == 1
    assert "not self-orthogonal" in out
    assert "cells" in out


def test_check_precondition_violation(capsys):
    code, _, err = run(capsys, "check", "--wolfram", "0", "-d", "3")
    assert code == 2
    assert "bipermutive" in err


def test_check_linear_gf3(capsys):
    code, out, _ = run(capsys, "check", "--linear", "1,1,1", "--field", "GF(3)")
    assert code == 1
    assert "method: gcd-general" in out


def test_check_linear_gf3_audit(capsys):
    code, out, _ = run(capsys, "check", "--linear", "2,1,1", "--field", "GF(3)", "--audit")
    assert code == 0
    assert "bruteforce: True" in out and "gcd-general: True" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--wolfram", "150", "-d", "3", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["rule"] == "wolfram:150"
    assert body["diameter"] == 3
    assert body["field"] == "GF(2)"
    assert body["verdict"] is True
    assert body["method"] == "gcd-binary"
    assert body["certificate"] is None


def test_check_show_square(capsys):
    code, out, _ = run(capsys, "check", "--wolfram", "150", "-d", "3", "--show-square")
    assert code == 0
    assert "1,4,3,2" in out
    assert "1,1 4,2 3,4 2,3" in out


def test_audit_subcommand(capsys):
    code, out, _ = run(capsys, "audit", "--wolfram", "150", "-d", "3")
    assert code == 0
    for name in ("bruteforce", "stacked-matrix", "gcd-general", "gcd-binary", "parity"):
        assert f"{name}: True" in out


def test_check_table_hex(capsys):
    # 0x96 = 150
    code, out, _ = run(capsys, "check", "--table", "96", "-d", "3")
    assert code == 0 and "wolfram:150" in out


def test_check_usage_errors(capsys):
    code, _, err = run(capsys, "check", "--wolfram", "150")
    assert code == 2 and "--diameter" in err
    code, _, err = run(capsys, "check", "--wolfram", "150", "--linear", "1,1,1", "-d", "3")
    assert code == 2
    code, _, err = run(capsys, "check", "--linear", "1,1,1", "--field", "GF(3)", "-d", "4")
    assert code == 2


def test_linear_prefix_tolerated(capsys):
    code, out, _ = run(capsys, "check", "--linear", "linear:1,1,1")
    assert code == 0 and "linear:1,1,1" in out


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "-d", "3..4", "--format", "csv")
    assert code == 0
    assert out == (
        "d,bipermutive,soca,linear_soca,affine_soca,polynomials\n"
        "3,4,2,1,2,1+x+x^2\n"
        "4,16,4,2,4,1+x+x^3;1+x^2+x^3\n"
    )


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "-d", "3", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body[0]["soca"] == 2 and body[0]["field"] == "GF(2)"


def test_scan_guard_exit_code(capsys):
    code, _, err = run(capsys, "scan", "-d", "7")
    assert code == 2 and "--i-know" in err


def test_reversed_diameter_range(capsys):
    code, out, err = run(capsys, "scan", "-d", "6..3")
    assert code == 2 and out == "" and "6..3" in err
    code, out, err = run(capsys, "count-linear", "-d", "9..4")
    assert code == 2 and out == "" and "9..4" in err


@pytest.mark.parametrize(
    "argv", [("scan", "-d", "3"), ("count-linear", "-d", "3"), ("table1",), ("table2",)]
)
def test_workers_below_one_rejected(capsys, argv):
    for bad in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", bad])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_count_linear_d17(capsys):
    code, out, _ = run(capsys, "count-linear", "-d", "17", "--format", "csv")
    assert code == 0
    assert out == "d,linear_soca\n17,16384\n"


def test_count_guard(capsys):
    code, _, err = run(capsys, "count-linear", "-d", "3..25")
    assert code == 2 and "--i-know" in err


def test_table1_golden_bytes(capsys, tmp_path):
    out_file = tmp_path / "t1.csv"
    code, _, _ = run(capsys, "table1", "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == (GOLDEN / "table1.csv").read_bytes()


def test_table2_golden_bytes(capsys, tmp_path):
    out_file = tmp_path / "t2.csv"
    code, _, _ = run(capsys, "table2", "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == (GOLDEN / "table2.csv").read_bytes()


def test_out_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOCA_KIT_OUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "count-linear", "-d", "3..5", "--format", "csv", "--out", "counts.csv")
    assert code == 0
    assert (tmp_path / "counts.csv").read_text() == "d,linear_soca\n3,1\n4,2\n5,4\n"


def test_poly_reducible_but_self_orthogonal(capsys):
    code, out, _ = run(capsys, "poly", "1+x+x^5")
    assert code == 0
    assert "irreducible: False" in out
    assert "verdict: self-orthogonal" in out


def test_poly_negative(capsys):
    code, out, _ = run(capsys, "poly", "1+x^2")
    assert code == 1
    assert "p(1) = 0" in out
    assert "not self-orthogonal" in out


def test_poly_irreducible(capsys):
    code, out, _ = run(capsys, "poly", "1+x+x^3")
    assert code == 0
    assert "irreducible: True" in out


def test_poly_compact_and_json(capsys):
    code, out, _ = run(capsys, "poly", "110001", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["polynomial"] == "1+x+x^5"
    assert body["soca"] is True and body["gcd_half"] == "1"


def test_poly_usage_errors(capsys):
    assert run(capsys, "poly", "x^2")[0] == 2  # zero constant term
    assert run(capsys, "poly", "1")[0] == 2
    assert run(capsys, "poly", "garbage!")[0] == 2


def test_poly_degree_cap(capsys):
    code, out, err = run(capsys, "poly", "1+x^100000000")
    assert code == 2 and out == ""
    assert "x^100000000 exceeds the degree cap of 512" in err


def test_poly_gf3(capsys):
    code, out, _ = run(capsys, "poly", "2+x+x^2", "--field", "GF(3)")
    assert code == 0
    assert "gcd with x^4-1: 1" in out


def test_scan_alphabet_refusal_has_no_override_hint(capsys):
    code, out, err = run(capsys, "scan", "-d", "3", "--field", "GF(4)")
    assert code == 2 and out == ""
    assert err == "error: brute-force scans support q in {2, 3}, got q = 4\n"


# -- --linear rules stay linear ------------------------------------------------


def _decision_lines(out):
    """The verdict, method and certificate lines of check's text output."""
    return [line for line in out.splitlines() if line.split(":")[0] in ("verdict", "method", "certificate")]


def _linear_text(coeffs):
    return ",".join(map(str, coeffs))


@pytest.mark.parametrize(
    "coeffs, field, methods",
    [
        ((1, 1) + (0,) * 21 + (1,), "GF(2)", ("gcd-binary", "gcd-general", "stacked-matrix", "auto")),
        ((1,) + (0,) * 9 + (1,) + (0,) * 11 + (1, 1), "GF(2)", ("gcd-binary", "gcd-general", "stacked-matrix", "auto")),
        ((1, 1) + (0,) * 14 + (1,), "GF(2)", ("parity", "gcd-binary")),
        ((2, 1, 0, 2, 1, 1), "GF(3)", ("gcd-general", "stacked-matrix", "auto")),
        ((3, 1, 0, 2, 1), "GF(4)", ("gcd-general", "gcd-binary", "stacked-matrix", "auto")),
    ],
)
def test_coefficient_methods_build_no_table(capsys, monkeypatch, coeffs, field, methods):
    expected = {}
    for method in methods:
        expected[method] = run(capsys, "check", "--linear", _linear_text(coeffs), "--field", field, "--method", method)

    def refuse(self):
        raise AssertionError("a coefficient method built a lookup table")

    monkeypatch.setattr(LinearRule, "to_rule", refuse)
    for method in methods:
        code, out, err = run(capsys, "check", "--linear", _linear_text(coeffs), "--field", field, "--method", method)
        assert code in (0, 1) and err == ""
        assert (code, out, err) == expected[method]


def test_linear_and_table_forms_agree_gf2(capsys):
    """Every bipermutive linear rule of GF(2) d = 3..8, every method that
    applies: the coefficient path and the lookup-table path decide alike."""
    for d in range(3, 9):
        for central in range(1 << (d - 2)):
            lr = LinearRule(GF2, (1, *((central >> i) & 1 for i in range(d - 2)), 1))
            table = format(lr.to_rule().wolfram_code, "x")
            for method in [*_applicable(lr), "auto"]:
                code_l, out_l, _ = run(capsys, "check", "--linear", _linear_text(lr.coeffs), "--method", method)
                code_t, out_t, _ = run(capsys, "check", "--table", table, "-d", str(d), "--method", method)
                assert code_l == code_t
                assert _decision_lines(out_l) == _decision_lines(out_t), (lr.coeffs, method)


def test_linear_path_matches_checkers_on_read_back_rule(capsys):
    """Over GF(3) d <= 4 and GF(4) d <= 3 the CLI's answer is that of the
    checker run on the coefficients read back from the rule's table."""
    for field, d_max in ((GF3, 4), (Field(2, 2), 3)):
        units = range(1, field.q)
        for d in range(2, d_max + 1):
            for a1, ad in itertools.product(units, units):
                for central in itertools.product(range(field.q), repeat=d - 2):
                    lr = LinearRule(field, (a1, *central, ad))
                    read_back = lr.to_rule().as_linear()
                    for method in _applicable(lr):
                        code, out, _ = run(
                            capsys, "check", "--linear", _linear_text(lr.coeffs), "--field", field.descriptor(),
                            "--method", method,
                        )
                        run_method = checkers.METHODS[method][1]
                        v = run_method(read_back.to_rule() if method == "bruteforce" else read_back)
                        expected = _decision_lines(cli._verdict_text("", read_back, v))
                        assert _decision_lines(out) == expected, (lr.coeffs, method)
                        assert code == (0 if v.verdict else 1)


def _applicable(lr):
    return [name for name in checkers.CHECK_METHODS if checkers.METHODS[name][0](lr)]


TABLE_READING_OUTPUTS = {
    ("check", "--linear", "1,1,1", "--method", "bruteforce"): (
        0,
        "rule: linear:1,1,1 (d=3, GF(2))\nverdict: self-orthogonal\nmethod: bruteforce\n",
    ),
    ("check", "--linear", "1,0,1", "--method", "bruteforce"): (
        1,
        "rule: linear:1,0,1 (d=3, GF(2))\nverdict: not self-orthogonal\nmethod: bruteforce\n"
        "certificate: cells (1,1) and (2,2) repeat a pair\n",
    ),
    ("check", "--linear", "1,2,0,1", "--field", "GF(3)", "--method", "bruteforce"): (
        0,
        "rule: linear:1,2,0,1 (d=4, GF(3))\nverdict: self-orthogonal\nmethod: bruteforce\n",
    ),
    ("audit", "--linear", "2,1,1", "--field", "GF(3)"): (
        0,
        "rule: linear:2,1,1 (d=3, GF(3))\nverdict: self-orthogonal\nmethod: bruteforce\n"
        "  bruteforce: True\n  stacked-matrix: True\n  gcd-general: True\n",
    ),
    ("check", "--linear", "1,1,1", "--show-square"): (
        0,
        "rule: linear:1,1,1 (d=3, GF(2))\nverdict: self-orthogonal\nmethod: gcd-binary\n"
        "cayley table:\n1,4,3,2\n2,3,4,1\n4,1,2,3\n3,2,1,4\n"
        "superposition with transpose:\n"
        "1,1 4,2 3,4 2,3\n2,4 3,3 4,1 1,2\n4,3 1,4 2,2 3,1\n3,2 2,1 1,3 4,4\n",
    ),
    ("check", "--linear", "1,0,1", "--audit", "--show-square"): (
        1,
        "rule: linear:1,0,1 (d=3, GF(2))\nverdict: not self-orthogonal\nmethod: bruteforce\n"
        "certificate: cells (1,1) and (2,2) repeat a pair\n"
        "  bruteforce: False\n  stacked-matrix: False\n  gcd-general: False\n"
        "  gcd-binary: False\n  parity: False\n"
        "cayley table:\n1,2,3,4\n2,1,4,3\n3,4,1,2\n4,3,2,1\n"
        "superposition with transpose:\n"
        "1,1 2,2 3,3 4,4\n2,2 1,1 4,4 3,3\n3,3 4,4 1,1 2,2\n4,4 3,3 2,2 1,1\n",
    ),
}


@pytest.mark.parametrize("argv", list(TABLE_READING_OUTPUTS))
def test_table_reading_linear_outputs_unchanged(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == TABLE_READING_OUTPUTS[argv]


def test_audit_json_on_linear_rule(capsys):
    code, out, _ = run(capsys, "audit", "--linear", "1,0,1", "--format", "json")
    assert code == 1
    body = json.loads(out)
    assert body["certificate"] == [[1, 1], [2, 2]]
    assert [(e["method"], e["certificate"]) for e in body["log"]] == [
        ("bruteforce", [[1, 1], [2, 2]]),
        ("stacked-matrix", "1+x^2"),
        ("gcd-general", "1+x^2"),
        ("gcd-binary", "1+x^2"),
        ("parity", "1+x"),
    ]


def test_linear_table_size_refusal_kept(capsys):
    code, out, err = run(capsys, "check", "--linear", _linear_text((1,) + (0,) * 23 + (1,)))
    assert code == 2 and out == ""
    assert err == "error: table of 2^25 entries exceeds the size cap\n"
