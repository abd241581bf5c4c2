"""CLI contract: exit codes, output formats, golden files, guards."""

import json
from pathlib import Path

import pytest

from soca_kit.cli import main

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
