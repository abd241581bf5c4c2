"""The three workloads: their seeded inputs, the calls into soca_kit, the
checks of every output against ``oracles``, and the per-layer replays of the
traced run.

Each workload builds one round of operations from the seed; a run repeats
that round whole, so every run attempts the same operations in the same
proportions.  ``run`` makes one call into the program; ``check`` returns
"ok", "failed" (the program refused the operation) or a reason the output is
wrong; ``replay`` times the program's public pieces on the round's inputs
under ``tracer`` spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import statistics
from dataclasses import dataclass
from time import perf_counter

import oracles

OK, FAILED = "ok", "failed"


def _median(values) -> float:
    """Median, or 0 where the workload makes no such call."""
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- census ---------------------------------------------------------------------


class Census:
    """``scan_soca`` over GF(2) for d = 3..6 and over GF(3) for d = 3: the
    paper's Table 1 plus the one GF(3) space the scan admits.  The d = 5 scan
    runs 70 times per pass, 85,204 rules in all: it is the median call of a
    pass, and the d = 6 scan is one call of about 9 s, so the short scans of a
    pass run back to back on either side of it.  With seven d = 5 scans they
    took 2% of a run, in a few bunches, and their mean followed the host's
    pace at those few moments (20% to 26% spread over runs); with 70 they
    take a fifth of the run and follow its pace as the d = 6 scans do.  The
    seed orders the scans of a pass and picks the traced replay's sample of
    rules."""

    name = "census"
    call = "search.scan_soca"
    SCANS = ((2, 3), (2, 4), (2, 6), (3, 3)) + ((2, 5),) * 70

    def __init__(self, sk):
        self.sk = sk
        self._gf3 = None

    def warm_up(self):
        for q, d in set(self.SCANS):
            field = self.sk.GF2 if q == 2 else self.sk.GF3
            rule = next(self.sk.enumerate_bipermutive(field, d))
            self.sk.soca_bruteforce(rule)
            rule.as_affine()

    def make_round(self, rng):
        ops = list(self.SCANS)
        rng.shuffle(ops)
        return ops

    def run(self, op):
        q, d = op
        return self.sk.scan_soca(d, q=q)

    def expected(self, op):
        q, d = op
        if q == 2:
            row = dict(oracles.PAPER_TABLE1[d])
            row["polys"] = tuple(
                tuple(int(i in exps) for i in range(d)) for exps in row["polys"]
            )
            return row
        if self._gf3 is None:
            self._gf3 = oracles.census(3, 3)
        return self._gf3

    def check(self, op, report):
        want = self.expected(op)
        got = {
            "bipermutive": report.n_bipermutive,
            "soca": report.n_soca,
            "linear": report.n_linear_soca,
            "affine": report.n_affine_soca,
            "polys": tuple(tuple(p.coeffs) for p in report.polynomials),
        }
        if (report.q, report.d) != op:
            return f"scan {op} reported q={report.q}, d={report.d}"
        for key, value in want.items():
            if got[key] != value:
                return f"scan q={op[0]} d={op[1]}: {key} = {got[key]}, expected {value}"
        return OK

    def units(self, op):
        return self.expected(op)["bipermutive"]

    def replay(self, ops, tracer, rng):
        """Time the public pieces of one pass: rule construction over every
        rule the enumeration yields, then the bipermutivity, Cayley, Latin and
        orthogonality steps of the brute force on a seeded sample of 256 of the
        d = 6 rules (77% of a pass), and ``as_affine`` on the hits."""
        sk = self.sk
        picks = set(rng.sample(range(sk.rule_space_size(sk.GF2, 6)), 256))
        sample = []
        for q, d in sorted(set(ops)):
            field = sk.GF2 if q == 2 else sk.GF3
            total = sk.rule_space_size(field, d)
            with tracer.span("rules.enumerate_bipermutive", count=total, q=q, d=d):
                for index, rule in enumerate(sk.enumerate_bipermutive(field, d)):
                    if d == 6 and index in picks:
                        sample.append(rule)
        for rule in sample:
            with tracer.span("rules.is_bipermutive"):
                rule.is_bipermutive()
            with tracer.span("squares.cayley_table"):
                square = sk.cayley_table(rule)
            with tracer.span("squares.is_latin"):
                sk.is_latin(square)
            with tracer.span("squares.check_orthogonal"):
                sk.check_orthogonal(square, square.transpose())
            with tracer.span("checkers.bruteforce"):
                sk.soca_bruteforce(rule)
        for q, d in sorted(set(ops)):
            field = sk.GF2 if q == 2 else sk.GF3
            for coeffs in self.expected((q, d))["polys"]:
                rule = sk.LinearRule(field, coeffs).to_rule()
                for shifted in (rule, sk.LocalRule(field, d, (rule.table + 1) % q)):
                    with tracer.span("rules.as_affine"):
                        shifted.as_affine()


# -- linear counts --------------------------------------------------------------


class LinearCount:
    """``count_linear_soca``, one (field, diameter) count per call: GF(2) for
    d = 2..11 and 14..18 (the bitmask gcd loop), GF(3) for d = 3..8 and GF(4)
    for d = 2, 4, 5 (the tuple-polynomial gcd and field arithmetic).  A round
    takes about 1.3 s, so a run repeats each count some 25 times; GF(2) at
    d = 19 and 20 and GF(4) at d = 6 are left out because together they took
    3 s, two thirds of a round, and with them a run repeated each count only
    eight times and its figures spread past their bounds.  The median call is
    GF(3) at d = 4 or GF(2) at d = 11 (1.5 to 2 ms); GF(2) at d = 12 and 13
    and GF(4) at d = 3 (3 to 6 ms) are left out because they would move the
    median into the gap between those two and the slower calls, where it
    would jump from run to run.  The seed orders the calls."""

    name = "linear-count"
    call = "search.count_linear_soca"
    CALLS = (
        tuple((2, d) for d in (*range(2, 12), *range(14, 19)))
        + tuple((3, d) for d in range(3, 9))
        + tuple((4, d) for d in (2, 4, 5))
    )

    def __init__(self, sk):
        self.sk = sk

    def warm_up(self):
        for q in (2, 3, 4):
            self.sk.count_linear_soca(3, 3, q=q)

    def make_round(self, rng):
        ops = list(self.CALLS)
        rng.shuffle(ops)
        return ops

    def run(self, op):
        q, d = op
        return self.sk.count_linear_soca(d, d, q=q)

    def check(self, op, report):
        q, d = op
        want = oracles.linear_soca_count(q, d)
        if q == 2 and d in oracles.PAPER_TABLE2 and want != oracles.PAPER_TABLE2[d]:
            return f"closed form disagrees with Table 2 at d={d}"
        if (report.q, report.d_min, report.d_max) != (q, d, d):
            return f"count {op} reported q={report.q}, d={report.d_min}..{report.d_max}"
        if tuple(report.counts) != (want,):
            return f"count q={q} d={d}: {tuple(report.counts)}, expected ({want},)"
        return OK

    def units(self, op):
        return 1

    def replay(self, ops, tracer, rng):
        """Time the gcds the counts are made of on seeded samples of each
        call's polynomials, and ``Field.mul`` over GF(3) and GF(2^2)."""
        sk = self.sk
        for q, d in ops:
            m = d - 1
            if q == 2:
                modulus = (1 << m) | 1
                for _ in range(64):
                    p = 1 | rng.getrandbits(m - 1) << 1 | 1 << m if m > 1 else 3
                    with tracer.span("polynomials.mask_gcd"):
                        sk.mask_gcd(p, modulus)
                continue
            field = sk.Field(3) if q == 3 else sk.Field(2, 2)
            modulus = sk.x_pow_minus_one(field, 2 * m)
            for _ in range(16):
                coeffs = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(d - 2)]
                poly = sk.Poly(field, coeffs + [rng.randrange(1, q)])
                with tracer.span("polynomials.gcd"):
                    sk.gcd(poly, modulus)
        time_field_mul(sk, tracer)


def time_field_mul(sk, tracer, repeats=20):
    for field in (sk.Field(3), sk.Field(2, 2)):
        pairs = [(a, b) for a in range(field.q) for b in range(field.q)] * 50
        for _ in range(repeats):
            with tracer.span("fields.mul", count=len(pairs)):
                for a, b in pairs:
                    field.mul(a, b)


# -- verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One CLI query and what the oracles say it must answer."""

    argv: tuple
    stratum: str
    q: int
    soca: bool
    method: str  # the --method asked for, "audit" or "poly"
    table: tuple = ()  # lookup table, for checking grid certificates
    coeffs: tuple = ()  # linear part of the rule, or the polynomial
    irreducible: bool | None = None
    fault: bool = False


_BINARY_METHODS = ("bruteforce", "gcd-general", "gcd-binary", "stacked-matrix", "auto")
_FIELD_TEXT = {2: "GF(2)", 3: "GF(3)", 4: "GF(4)"}
# d = 25, 32 and 40 over GF(2): check --linear builds the 2^d lookup table
# before its gcd test and is refused by the table size cap.
_FAULT_COEFFS = (
    (1, 1) + (0,) * 22 + (1,),
    (1,) + (0,) * 15 + (1,) + (0,) * 14 + (1,),
    (1,) + (0,) * 37 + (1, 1),
)


def _power_of_two(m: int) -> bool:
    return m >= 1 and not m & (m - 1)


def _code_args(d: int, table) -> tuple:
    code = sum(int(v) << i for i, v in enumerate(table))
    if d == 6:
        return ("--table", format(code, "x"), "-d", "6")
    return ("--wolfram", str(code), "-d", str(d))


def _linear_args(q: int, coeffs) -> tuple:
    args = ("--linear", ",".join(map(str, coeffs)))
    return args if q == 2 else args + ("--field", _FIELD_TEXT[q])


def _random_linear(rng, q: int, d: int, weight: int | None = None) -> tuple:
    if weight is None:
        central = [rng.randrange(q) for _ in range(d - 2)]
    else:
        central = [0] * (d - 2)
        for i in rng.sample(range(d - 2), weight - 2):
            central[i] = rng.randrange(1, q)
    return (rng.randrange(1, q), *central, rng.randrange(1, q))


def _binary_rules(rng, d: int, kind: str):
    """A table rule x_1 + g(x_2..x_{d-1}) + x_d of the given kind, with its
    linear part (or () when it is not affine)."""
    while True:
        if kind == "nonlinear":
            n = d - 2
            g = [rng.getrandbits(1) for _ in range(1 << n)]
            table = [
                (idx >> (d - 1)) ^ g[(idx >> 1) & ((1 << n) - 1)] ^ (idx & 1)
                for idx in range(1 << d)
            ]
            if oracles.affine_parts(2, table) is None:
                return tuple(table), ()
            continue
        coeffs = _random_linear(rng, 2, d)
        table = oracles.linear_table(2, coeffs) ^ (kind.startswith("affine"))
        if oracles.gf2_linear_soca(coeffs) == kind.endswith("+"):
            return tuple(int(v) for v in table), coeffs


def _random_irreducible(rng, m: int) -> int:
    while True:
        f = 1 | rng.getrandbits(m - 1) << 1 | 1 << m
        if oracles.mask_is_irreducible(f):
            return f


class Verdicts:
    """A seeded mix of ``check``, ``audit`` and ``poly`` queries through
    ``cli.main``; see the README for the make-up of one round."""

    name = "verdicts"
    call = "cli.main"
    GF2_LINEAR = (
        (8, "gcd-binary"), (9, "parity"), (10, "gcd-general"), (12, "stacked-matrix"),
        (14, "auto"), (16, "gcd-binary"), (17, "parity"), (18, "gcd-general"),
        (20, "stacked-matrix"), (22, "auto"), (24, "gcd-binary"),
    )
    SMALL_FIELDS = ((3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5))
    POLY_DEGREES = (16, 24, 32, 48, 64)

    def __init__(self, sk):
        self.sk = sk

    def warm_up(self):
        for argv in (
            ("check", "--wolfram", "150", "-d", "3", "--method", "bruteforce"),
            ("audit", "--linear", "1,1,1", "--field", "GF(3)", "--format", "json"),
            ("check", "--linear", "1,1,0,1", "--field", "GF(4)", "--method", "stacked-matrix"),
            ("poly", "1+x+x^5"),
        ):
            self.run(Query(argv, "warm-up", 2, True, "auto"))
        for d in (4, 5, 6):
            self.sk.soca_bruteforce(self.sk.LinearRule(self.sk.GF2, (1,) * d).to_rule())

    def make_round(self, rng):
        out = []
        for d in range(3, 7):
            kinds = ["linear+", "linear-", "affine+", "affine-"] + (["nonlinear"] if d > 3 else [])
            for kind in kinds:
                if kind.startswith("linear"):
                    methods = list(_BINARY_METHODS) + (["parity"] if _power_of_two(d - 1) else [])
                else:
                    methods = ["bruteforce", "auto"]
                for method in methods + ["audit"]:
                    table, coeffs = _binary_rules(rng, d, kind)
                    soca = oracles.superposition_soca(2, table)
                    out.append(self._rule_query("table", 2, _code_args(d, table), method, soca, table, coeffs))
        for d, method in self.GF2_LINEAR:
            coeffs = _random_linear(rng, 2, d, weight=5)
            soca = oracles.gf2_linear_soca(coeffs)
            out.append(self._rule_query("gf2-linear", 2, _linear_args(2, coeffs), method, soca, (), coeffs))
        for q, d in self.SMALL_FIELDS:
            methods = ["gcd-general", "stacked-matrix", "auto"]
            if q ** (2 * d - 2) <= 4096:
                methods += ["bruteforce", "audit"]
            for method in methods:
                coeffs = _random_linear(rng, q, d)
                table = tuple(int(v) for v in oracles.linear_table(q, coeffs))
                soca = oracles.superposition_soca(q, table)
                out.append(self._rule_query("gfq-linear", q, _linear_args(q, coeffs), method, soca, table, coeffs))
        for i, m in enumerate(self.POLY_DEGREES):
            for irreducible in (True, False):
                f = _random_irreducible(rng, m if irreducible else m - 1)
                if not irreducible:
                    f ^= f << 1  # times (1 + x): reducible, and shares a root with X^m + 1
                coeffs = tuple(f >> k & 1 for k in range(m + 1))
                if (i + irreducible) % 2:
                    text = "".join(map(str, coeffs))
                else:
                    text = "+".join("1" if k == 0 else "x" if k == 1 else f"x^{k}" for k, c in enumerate(coeffs) if c)
                fmt = ("--format", "json") if i % 2 else ()
                soca = oracles.gf2_linear_soca(coeffs)
                out.append(Query(("poly", text) + fmt, "poly", 2, soca, "poly", coeffs=coeffs, irreducible=irreducible))
        for coeffs in _FAULT_COEFFS:
            soca = oracles.gf2_linear_soca(coeffs)
            out.append(self._rule_query("fault", 2, _linear_args(2, coeffs), "gcd-binary", soca, (), coeffs, fault=True))
        rng.shuffle(out)
        return out

    @staticmethod
    def _rule_query(stratum, q, rule_args, method, soca, table, coeffs, fault=False):
        if method == "audit":
            argv = ("audit",) + rule_args + ("--format", "json")
        else:
            argv = ("check",) + rule_args + ("--method", method)
        return Query(argv, stratum, q, soca, method, tuple(table), tuple(coeffs), fault=fault)

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.sk.cli.main(list(op.argv))
        return rc, out.getvalue(), err.getvalue()

    def check(self, op, result):
        rc, out, err = result
        if rc == 2:
            if op.fault and "exceeds the size cap" not in err:
                return f"{' '.join(op.argv)}: unexpected error {err.strip()!r}"
            return FAILED
        if rc != (0 if op.soca else 1):
            return f"{' '.join(op.argv)}: exit {rc}, expected {0 if op.soca else 1}"
        if op.method == "poly":
            return self._check_poly(op, out)
        if op.method == "audit":
            return self._check_audit(op, out)
        return self._check_text(op, out)

    def _check_poly(self, op, out):
        if "--format" in op.argv:
            body = json.loads(out)
            irreducible, soca = body["irreducible"], body["soca"]
        else:
            irreducible = "irreducible: True" in out
            soca = "verdict: self-orthogonal" in out
        if irreducible != op.irreducible or soca != op.soca:
            return f"poly {op.argv[1]}: irreducible={irreducible} soca={soca}"
        return OK

    def _check_audit(self, op, out):
        body = json.loads(out)
        verdicts = [body["verdict"]] + [entry["verdict"] for entry in body.get("log", ())]
        if any(v != op.soca for v in verdicts) or len(verdicts) < 2:
            return f"{' '.join(op.argv)}: audit verdicts {verdicts}"
        cert = body["certificate"]
        if not op.soca and not oracles.repeats_pair(op.q, op.table, *cert):
            return f"{' '.join(op.argv)}: certificate {cert} repeats no pair"
        return OK

    def _check_text(self, op, out):
        lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line and not line.startswith(" "))
        verdict = lines.get("verdict") == "self-orthogonal"
        if verdict != op.soca:
            return f"{' '.join(op.argv)}: printed {lines.get('verdict')!r}"
        if op.method != "auto" and lines.get("method") != op.method:
            return f"{' '.join(op.argv)}: method {lines.get('method')!r}"
        if op.soca:
            return OK
        cert = lines.get("certificate", "")
        cells = re.fullmatch(r"cells \((\d+),(\d+)\) and \((\d+),(\d+)\) repeat a pair", cert)
        if cells:
            r1, c1, r2, c2 = map(int, cells.groups())
            ok = bool(op.table) and oracles.repeats_pair(op.q, op.table, (r1, c1), (r2, c2))
        elif cert.startswith("gcd = "):
            ok = self._gcd_certificate_ok(op, oracles.poly_from_text(op.q, cert[6:]))
        else:
            ok = False
        return OK if ok else f"{' '.join(op.argv)}: bad certificate {cert!r}"

    @staticmethod
    def _gcd_certificate_ok(op, g):
        """A negative gcd-style verdict names a common factor of p_f and the
        method's modulus; over GF(2) the monic gcd is unique and must match."""
        m = len(op.coeffs) - 1
        if op.q == 2:
            n = m if op.method in ("gcd-binary", "auto") else 2 * m
            if op.method == "parity":
                return g == [1, 1]
            return oracles.mask_of(g) == oracles.mask_gcd(oracles.mask_of(op.coeffs), (1 << n) | 1)
        modulus = oracles.x_pow_minus_one(op.q, 2 * m)
        return (
            len(g) > 1
            and not oracles.poly_mod(op.q, op.coeffs, g)
            and not oracles.poly_mod(op.q, modulus, g)
        )

    def units(self, op):
        return 1

    def replay(self, ops, tracer, rng):
        """Run each query through ``cli.main`` and then through the public
        functions its command calls (stage "pipeline", subtracted from the
        ``cli.main`` span for the CLI's self time), then time the pieces those
        functions are built from (stage "piece")."""
        for i, op in enumerate(ops):
            with tracer.span("cli.main", trace=i, stage="query"):
                result = self.run(op)
            if self.check(op, result) != OK:
                continue
            self._replay_pipeline(op, tracer, i)
        time_field_mul(self.sk, tracer)

    def _replay_pipeline(self, op, tracer, trace):
        sk = self.sk

        def stage(name):
            return tracer.span(name, trace=trace, stage="pipeline")

        def piece(name):
            return tracer.span(name, trace=trace, stage="piece")

        argv = op.argv
        field_text = argv[argv.index("--field") + 1] if "--field" in argv else "GF(2)"
        with stage("fields.parse_field"):
            field = sk.parse_field(field_text)
        if op.method == "poly":
            with stage("polynomials.parse_poly"):
                p = sk.parse_poly(field, argv[1])
            m = p.degree
            with stage("polynomials.gcd"):
                sk.gcd(p, sk.x_pow_minus_one(field, 2 * m))
            with stage("polynomials.gcd"):
                sk.gcd(p, sk.x_pow_minus_one(field, m))
            with stage("polynomials.is_irreducible"):
                sk.is_irreducible(p)
            return
        if op.stratum == "table":
            code = int(argv[2], 16) if argv[1] == "--table" else int(argv[2])
            with stage("rules.from_wolfram"):
                rule = sk.LocalRule.from_wolfram(code, int(argv[4]))
        else:
            with stage("rules.to_rule"):
                rule = sk.LinearRule(field, op.coeffs).to_rule()
        if op.method == "audit":
            with stage("checkers.audit"):
                sk.audit(rule)
            lin = sk.LinearRule(field, op.coeffs) if op.coeffs else None
        else:
            with stage("rules.as_affine"):
                lin = rule.as_linear()
            method = op.method
            if method == "auto":
                method = "bruteforce" if lin is None else "gcd-binary" if field.p == 2 else "gcd-general"
            checker = {
                "bruteforce": sk.soca_bruteforce,
                "gcd-general": sk.soca_linear_fast,
                "gcd-binary": sk.soca_binary_fast,
                "parity": sk.soca_parity,
                "stacked-matrix": sk.soca_stacked_matrix,
            }[method]
            with stage("checkers." + method):
                checker(rule if method == "bruteforce" else lin)
        if op.table:
            with piece("squares.cayley_table"):
                square = sk.cayley_table(rule)
            with piece("squares.is_latin"):
                sk.is_latin(square)
            with piece("squares.check_orthogonal"):
                sk.check_orthogonal(square, square.transpose())
        if lin is None:
            return
        kind = "gf2" if field.q == 2 else "gfp" if field.k == 1 else "gf4"
        with piece(f"matrices.stacked_invertible_{kind}"):
            sk.stacked_matrix(lin).is_invertible()
        if not op.soca:
            with piece("matrices.circulant_of_stacked"):
                sk.circulant_of_stacked(lin)
        with piece("polynomials.gcd"):
            sk.gcd(lin.polynomial(), sk.x_pow_minus_one(field, 2 * (lin.diameter - 1)))
        if field.p == 2 and lin.diameter > 2:
            with piece("checkers.irreducible"):
                sk.irreducible_implies_soca(lin)


WORKLOADS = {w.name: w for w in (Census, LinearCount, Verdicts)}


class Tracer:
    """Spans kept in memory: name, trace id, parent span, start and end, and a
    count of the units of work the span covers."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name, trace=None, count=1, **attrs):
        rec = {"id": len(self.spans), "name": name, "trace": trace, "count": count, **attrs}
        rec["parent"] = self._open[-1] if self._open else None
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def per_unit(self, name):
        """Duration per unit of work of each span with this name."""
        return [(s["end"] - s["start"]) / s["count"] for s in self.spans if s["name"] == name]

    def dump(self, path):
        t0 = min((s["start"] for s in self.spans), default=0.0)
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        path.write_text(json.dumps(rows, default=repr))


# Per-layer metrics read off the replay spans: name, unit, span name, scale.
# Most are the median time of one call, which is what moves the median
# latency.  The ones in MEAN_LAYERS are busy time over calls made: their cost
# sits in a few heavy calls (long tables, high degrees) or in batches.
LAYER_SPANS = (
    ("fields.mul_ns", "ns", "fields.mul", 1e9),
    ("polynomials.mask_gcd_us", "us", "polynomials.mask_gcd", 1e6),
    ("polynomials.gcd_us", "us", "polynomials.gcd", 1e6),
    ("polynomials.is_irreducible_ms", "ms", "polynomials.is_irreducible", 1e3),
    ("polynomials.parse_poly_us", "us", "polynomials.parse_poly", 1e6),
    ("rules.rule_build_us", "us", "rules.enumerate_bipermutive", 1e6),
    ("rules.is_bipermutive_us", "us", "rules.is_bipermutive", 1e6),
    ("rules.to_rule_ms", "ms", "rules.to_rule", 1e3),
    ("rules.as_affine_us", "us", "rules.as_affine", 1e6),
    ("squares.cayley_table_us", "us", "squares.cayley_table", 1e6),
    ("squares.is_latin_us", "us", "squares.is_latin", 1e6),
    ("squares.check_orthogonal_us", "us", "squares.check_orthogonal", 1e6),
    ("matrices.stacked_invertible_gf2_us", "us", "matrices.stacked_invertible_gf2", 1e6),
    ("matrices.stacked_invertible_gfp_us", "us", "matrices.stacked_invertible_gfp", 1e6),
    ("matrices.stacked_invertible_gf4_us", "us", "matrices.stacked_invertible_gf4", 1e6),
    ("matrices.circulant_of_stacked_us", "us", "matrices.circulant_of_stacked", 1e6),
    ("checkers.bruteforce_us", "us", "checkers.bruteforce", 1e6),
    ("checkers.gcd_general_us", "us", "checkers.gcd-general", 1e6),
    ("checkers.gcd_binary_us", "us", "checkers.gcd-binary", 1e6),
    ("checkers.parity_us", "us", "checkers.parity", 1e6),
    ("checkers.irreducible_ms", "ms", "checkers.irreducible", 1e3),
    ("checkers.stacked_matrix_us", "us", "checkers.stacked-matrix", 1e6),
    ("checkers.audit_ms", "ms", "checkers.audit", 1e3),
)


MEAN_LAYERS = {
    "fields.mul", "rules.enumerate_bipermutive", "rules.to_rule",
    "polynomials.is_irreducible", "checkers.irreducible",
}


def _per_round(tracer, call, keep):
    """Median over rounds of the summed spans of the calls ``keep`` selects."""
    totals: dict[int, float] = {}
    for s in tracer.spans:
        if s["name"] == call and keep(s["op"]):
            totals[s["round"]] = totals.get(s["round"], 0.0) + s["end"] - s["start"]
    return _median(totals.values())


def per_layer_metrics(workload, tracer, spanned) -> dict:
    """Every per-layer metric; 0 for a layer the workload does not call."""
    out = {}
    for name, unit, span, scale in LAYER_SPANS:
        if span in MEAN_LAYERS:
            hits = [s for s in tracer.spans if s["name"] == span]
            total = sum(s["count"] for s in hits)
            value = sum(s["end"] - s["start"] for s in hits) / total if total else 0.0
        else:
            value = _median(tracer.per_unit(span))
        out[name] = (value * scale, unit)
    census = workload.name == "census"
    counts = workload.name == "linear-count"
    call = workload.call
    out["search.scan_d6_s"] = (
        _per_round(tracer, call, lambda op: op == (2, 6)) if census else 0.0, "s")
    out["search.scan_small_s"] = (
        _per_round(tracer, call, lambda op: op != (2, 6)) if census else 0.0, "s")
    out["search.count_gf2_s"] = (
        _per_round(tracer, call, lambda op: op[0] == 2) if counts else 0.0, "s")
    out["search.count_generic_s"] = (
        _per_round(tracer, call, lambda op: op[0] != 2) if counts else 0.0, "s")
    first_pass = spanned.outputs[: len(Census.SCANS)]
    out["search.rules_classified"] = (
        sum(report.n_bipermutive for _, report in first_pass) if census else 0, "count")
    out["search.linear_rules_counted"] = (
        sum(oracles.linear_rule_space(q, d) for q, d in LinearCount.CALLS) if counts else 0, "count")
    queries = {s["trace"]: s["end"] - s["start"] for s in tracer.spans if s.get("stage") == "query"}
    layers: dict = {}
    for s in tracer.spans:
        if s.get("stage") == "pipeline":
            layers[s["trace"]] = layers.get(s["trace"], 0.0) + s["end"] - s["start"]
    out["cli.self_ms"] = (
        _median(dur - layers[t] for t, dur in queries.items() if t in layers) * 1e3, "ms")
    return out
