"""CLI contract: exit codes, output formats, golden files, guards."""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import soca_kit
from soca_kit import checkers, cli
from soca_kit.cli import main
from soca_kit.fields import GF2, GF3, Field
from soca_kit.rules import LinearRule, LocalRule

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


@pytest.mark.parametrize("spec", ["1", "0", "0..3", "-3"])
def test_scan_diameter_below_two(capsys, spec):
    code, out, err = run(capsys, "scan", "-d", spec)
    assert (code, out, err) == (2, "", "error: bipermutive rules need diameter >= 2\n")


@pytest.mark.parametrize("spec", ["1", "0", "0..3", "-3"])
def test_count_diameter_below_two(capsys, spec):
    code, out, err = run(capsys, "count-linear", "-d", spec)
    assert (code, out, err) == (2, "", "error: bipermutive rules need diameter >= 2\n")


@pytest.mark.parametrize("command", ["scan", "count-linear"])
@pytest.mark.parametrize("spec", ["3..", "x", "3...5", "..4", "3..4..5"])
def test_malformed_diameter_spec(capsys, command, spec):
    code, out, err = run(capsys, command, "-d", spec)
    assert (code, out, err) == (2, "", f"error: bad diameter '{spec}': expected N or N..M\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_stats_go_to_stderr(capsys, fmt):
    code, plain, err = run(capsys, "scan", "-d", "3..5", "--format", fmt)
    assert code == 0 and err == ""
    code, out, err = run(capsys, "scan", "-d", "3..5", "--format", fmt, "--stats")
    assert code == 0 and out == plain
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"stats d={d} (GF(2))" for d in (3, 4, 5)]
    assert "enumerated=256 diagonal_rejected=248 prefix_rejected=0 fully_checked=8 filter_s=" in lines[2]
    assert " check_s=" in lines[2]


@pytest.mark.parametrize(
    "argv", [("scan", "-d", "3"), ("count-linear", "-d", "3"), ("table1",), ("table2",)]
)
def test_workers_below_one_rejected(capsys, argv):
    for bad in ("0", "-2"):
        assert run(capsys, *argv, "--workers", bad) == (2, "", f"error: workers must be >= 1, got {bad}\n")


@pytest.mark.parametrize(
    "argv", [("check", "--wolfram", "150", "-d", "3"), ("audit", "--wolfram", "150", "-d", "3"), ("poly", "1+x")]
)
def test_csv_is_refused_where_it_is_not_rendered(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --format: invalid choice: 'csv'" in captured.err


def test_count_linear_d17(capsys):
    code, out, _ = run(capsys, "count-linear", "-d", "17", "--format", "csv")
    assert code == 0
    assert out == "d,linear_soca\n17,16384\n"


def test_count_guard(capsys):
    code, _, err = run(capsys, "count-linear", "-d", "3..25")
    assert code == 2 and "--i-know" in err


def test_count_candidate_guard_q_above_2(capsys, monkeypatch):
    for argv, n in ((("-d", "20", "--field", "GF(3)"), 1549681956), (("-d", "3", "--field", "GF(2^9)"), 133693952)):
        code, out, err = run(capsys, "count-linear", *argv)
        assert code == 2 and out == ""
        assert err == f"error: count of {n} candidate rules exceeds the guard of 262144 for q > 2 (pass --i-know to override)\n"
    monkeypatch.setattr(cli.search, "COUNT_CANDIDATE_CAP_Q", 100)
    code, out, err = run(capsys, "count-linear", "-d", "6", "--field", "GF(3)", "--format", "csv")
    assert code == 2 and "count of 324 candidate rules" in err
    code, out, _ = run(capsys, "count-linear", "-d", "6", "--field", "GF(3)", "--format", "csv", "--i-know")
    assert code == 0 and out == "d,linear_soca\n6,144\n"


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


@pytest.mark.parametrize("argv", [("table1",), ("scan", "-d", "3"), ("poly", "1+x"), ("check", "--wolfram", "150", "-d", "3")])
@pytest.mark.parametrize("tail", ["x.csv", "sub/x.csv"])
def test_unwritable_out_exits_2(capsys, tmp_path, argv, tail):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_file = blocker / tail
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, out, err) == (2, "", f"error: cannot write {out_file}: Not a directory\n")


def test_out_creates_missing_directories(capsys, tmp_path):
    out_file = tmp_path / "a" / "b" / "r.txt"
    code, out, _ = run(capsys, "poly", "1+x+x^2", "--out", str(out_file))
    assert (code, out) == (0, "") and "verdict: self-orthogonal" in out_file.read_text()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--linear", ""), "bad --linear '': expected comma-separated integers a_1,...,a_d"),
        (("--linear", "1,,1"), "bad --linear '1,,1': expected comma-separated integers a_1,...,a_d"),
        (("--linear", "1,x"), "bad --linear '1,x': expected comma-separated integers a_1,...,a_d"),
        (("--linear", "linear:1;1"), "bad --linear 'linear:1;1': expected comma-separated integers a_1,...,a_d"),
        (("--table", "zz", "-d", "3"), "bad --table 'zz': expected a hex number"),
        (("--table", "", "-d", "3"), "bad --table '': expected a hex number"),
    ],
)
def test_malformed_rule_text(capsys, argv, message):
    code, out, err = run(capsys, "check", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def test_poly_degree_cap_for_q_above_2(capsys):
    code, out, err = run(capsys, "poly", "1+x+2*x^54", "--field", "GF(3)")
    assert code == 2 and out == ""
    assert err == "error: term x^54 exceeds the degree cap of 53 for q > 2\n"
    code, out, _ = run(capsys, "poly", "1+x+x^53", "--field", "GF(4)")
    assert code in (0, 1) and "degree: 53 (diameter 54)" in out


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


def test_grid_cap_refused_before_any_table(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a lookup table was built for a grid over the size cap")

    monkeypatch.setattr(LinearRule, "to_rule", refuse)
    coeffs = _linear_text((1,) + (0,) * 22 + (1,))
    for argv in (
        ("check", "--linear", coeffs, "--method", "bruteforce"),
        ("audit", "--linear", coeffs),
        ("check", "--linear", coeffs, "--audit"),
        ("check", "--linear", coeffs, "--show-square"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: grid of 2^46 cells exceeds the size cap\n", argv


def test_wolfram_rule_over_the_grid_cap_exits_fast(capsys):
    # the d = 24 table is read for affinity without a loop over its ANF terms
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", "--wolfram", "1", "-d", "24")
    assert time.perf_counter() - t0 < 1
    assert (code, out, err) == (2, "", "error: grid of 2^46 cells exceeds the size cap\n")


def test_explicit_bruteforce_reads_no_linear_part(capsys, monkeypatch):
    # brute force never reads the linear part, so the d = 24 table is refused
    # without its Moebius transform; auto still classifies to pick a method
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", "--wolfram", "1", "-d", "24", "--method", "bruteforce")
    assert time.perf_counter() - t0 < 0.05
    assert (code, out, err) == (2, "", "error: grid of 2^46 cells exceeds the size cap\n")
    classified = []
    as_linear = LocalRule.as_linear
    monkeypatch.setattr(LocalRule, "as_linear", lambda self: classified.append(self) or as_linear(self))
    assert run(capsys, "check", "--wolfram", "150", "-d", "3", "--method", "bruteforce")[0] == 0
    assert classified == []
    assert run(capsys, "check", "--wolfram", "150", "-d", "3")[0] == 0
    assert len(classified) == 1


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


def test_wolfram_diameter_refused_before_any_table(capsys):
    code, out, err = run(capsys, "check", "--wolfram", "150", "-d", "40")
    assert (code, out, err) == (2, "", "error: table of 2^40 entries exceeds the size cap\n")


def test_prime_field_modulus_refused(capsys):
    code, out, err = run(capsys, "check", "--linear", "1,1", "--field", "GF(3)/101")
    assert (code, out, err) == (2, "", "error: a prime field takes no modulus\n")


def test_methods_over_gf512(capsys):
    field = ("--field", "GF(2^9)")
    code, out, _ = run(capsys, "audit", "--linear", "1,3", *field)
    assert code == 0
    for name in ("bruteforce", "stacked-matrix", "gcd-general", "gcd-binary", "parity"):
        assert f"{name}: True" in out
    code, out, _ = run(capsys, "audit", "--linear", "1,1", *field)
    assert code == 1
    for name in ("bruteforce", "stacked-matrix", "gcd-general", "gcd-binary", "parity"):
        assert f"{name}: False" in out
    for method in ("stacked-matrix", "gcd-general", "gcd-binary"):
        code, out, _ = run(capsys, "check", "--linear", "1,1", *field, "--method", method)
        assert code == 1 and "certificate: gcd = 1+x" in out, method
    code, out, _ = run(capsys, "check", "--linear", "1,1", *field, "--method", "bruteforce")
    assert code == 1 and "not self-orthogonal" in out


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this package."""
    src = str(Path(soca_kit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_import_leaves_the_process_pool_out():
    # every command runs in one process: importing the package and the CLI,
    # and counting with workers > 1, load no process pool
    code = (
        "import sys, soca_kit, soca_kit.cli\n"
        "soca_kit.count_linear_soca(14, 16, workers=4)\n"
        "soca_kit.cli.main(['table2', '--workers', '2'])\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    assert _fresh_python(code) == (GOLDEN / "table2.csv").read_text() + "[]\n"


def test_import_fills_no_cache():
    # plans, log tables and default moduli are built on first use: an import
    # builds none of them (the bench's setup time includes the import)
    caches = {
        "fields": ("_default_modulus", "_log_tables"),
        "squares": ("_cayley_plan",),
        "rulespace": ("_rule_plan", "_ring_plan", "_affine_by_index"),
        "search": ("_filter_plan", "_check_plan"),
    }
    code = (
        "import importlib, soca_kit, soca_kit.cli\n"
        f"for module, names in {caches!r}.items():\n"
        "    m = importlib.import_module('soca_kit.' + module)\n"
        "    for name in names:\n"
        "        print(name, getattr(m, name).cache_info().currsize)"
    )
    names = [name for group in caches.values() for name in group]
    assert _fresh_python(code) == "".join(f"{name} 0\n" for name in names)
