"""Exhaustive rule-space scans: enumerate bipermutive rules, brute-force the
self-orthogonal ones, classify them, and count linear self-orthogonal rules
by the fast gcd test.

A bipermutive rule is one two-argument bijective-in-both-slots map (a Latin
square of order q on the alphabet) per value of the central d-2 cells, so the
rule space is indexed by tuples of such maps.  Over GF(2) the two maps are
XOR and XNOR and the index is exactly the truth table of the generating
function g in f = x_1 + g(x_2..x_{d-1}) + x_d, enumerated in increasing
order.  Scans stream rules in small blocks; the rule space is never
materialized.

A scan decides rules in two stages.  A batched prefix filter evaluates, for
a block of rule indices at once, only the grid cells in the first few rows
and columns and rejects every rule whose superposition with the transpose
repeats a pair there: a repeated pair in any cells already proves the square
is not orthogonal to its transpose.  Each survivor then goes through the
full brute-force check, so every hit is proven on the whole grid.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .checkers import soca_bruteforce
from .fields import Field, GF2
from .polynomials import Poly, gcd, mask_gcd
from .matrices import x_pow_minus_one
from .rules import LocalRule, _table_dtype
from .squares import _cayley_plan, _window_indices

SCAN_DIAMETER_CAP = {2: 6, 3: 3}
COUNT_DIAMETER_CAP = 24
# Prefix filter: grid rows (and as many columns) it evaluates, and rules per
# block.  Four rows and columns leave 28 of the 65,536 binary d=6 rules to the
# full check; a block of 128 rules keeps the filter's arrays near 150 kB.
_FILTER_ROWS = 4
_BLOCK_RULES = 128


class ScaleGuardError(ValueError):
    """The request exceeds the desk-scale guard; pass force=True to override."""


@lru_cache(maxsize=8)
def _latin_maps(field: Field) -> tuple[tuple[int, ...], ...]:
    """Every map h: (x, y) -> h[x*q + y] that permutes the alphabet in each
    argument, i.e. every Latin square of order q, in lexicographic order."""
    q = field.q
    if q > 4:
        raise ValueError(f"bipermutive enumeration is capped at q <= 4, got q = {q}")
    out = []

    def extend(rows):
        if len(rows) == q:
            out.append(tuple(itertools.chain.from_iterable(rows)))
            return
        for perm in itertools.permutations(range(q)):
            if all(perm[c] not in {r[c] for r in rows} for c in range(q)):
                extend(rows + [perm])

    extend([])
    return tuple(out)


@lru_cache(maxsize=32)
def _rule_plan(field: Field, d: int):
    """Neighborhood decomposition shared by every rule of one diameter:
    central-block index and (x_1, x_d) pair index per table position."""
    q = field.q
    idx = np.arange(q**d, dtype=np.int64)
    central = (idx // q) % q ** (d - 2) if d >= 2 else np.zeros(q**d, dtype=np.int64)
    pair = (idx // q ** (d - 1)) * q + idx % q
    maps = np.array(_latin_maps(field), dtype=_table_dtype(q))
    return central, pair, maps


def rule_space_size(field: Field, d: int) -> int:
    """Number of bipermutive rules of diameter d over the field."""
    return len(_latin_maps(field)) ** (field.q ** (d - 2))


def _rule_from_index(field: Field, d: int, index: int) -> LocalRule:
    central, pair, maps = _rule_plan(field, d)
    base = maps.shape[0]
    digits = np.empty(field.q ** (d - 2), dtype=np.int64)
    for c in range(digits.size):
        index, digits[c] = divmod(index, base)
    table = maps[digits[central], pair]
    return LocalRule(field, d, table)


def enumerate_bipermutive(field: Field, d: int, force: bool = False):
    """Yield every bipermutive rule of diameter d exactly once, by index."""
    if d < 2:
        raise ValueError("bipermutive rules need diameter >= 2")
    cap = SCAN_DIAMETER_CAP.get(field.q)
    if not force and (cap is None or d > cap):
        raise ScaleGuardError(
            f"enumeration of q={field.q}, d={d} exceeds the desk-scale guard"
        )
    for index in range(rule_space_size(field, d)):
        yield _rule_from_index(field, d, index)


def enumerate_bipermutive_binary(d: int, force: bool = False):
    """Binary rules x_1 + g(x_2..x_{d-1}) + x_d in increasing g-table order."""
    return enumerate_bipermutive(GF2, d, force=force)


@dataclass(frozen=True)
class ScanReport:
    """Census of one diameter's rule space.

    ``n_linear_soca`` counts strictly linear rules (zero constant term);
    ``n_affine_soca`` also admits a constant, so over GF(2) it is exactly
    twice the strict count (complementing a rule preserves the property).
    ``polynomials`` lists the associated polynomials of the strict-linear
    self-orthogonal rules, ascending by coefficient code.
    ``stats`` counts what the scan did: rules ``enumerated``, rejected by
    the prefix filter (``prefix_rejected``) and ``fully_checked``, and the
    seconds spent in each stage (``filter_s``, ``check_s``), summed over
    worker chunks.  It takes no part in equality, ``key()``, ``as_dict()`` or
    the CSV.
    """

    d: int
    q: int
    field_descriptor: str
    n_bipermutive: int
    n_soca: int
    n_linear_soca: int
    n_affine_soca: int
    polynomials: tuple[Poly, ...]
    elapsed: float
    stats: dict = dataclasses.field(default_factory=dict, compare=False)

    def key(self) -> tuple:
        """Everything except the timing; equal keys mean equal results."""
        return (
            self.d,
            self.q,
            self.field_descriptor,
            self.n_bipermutive,
            self.n_soca,
            self.n_linear_soca,
            self.n_affine_soca,
            tuple(str(p) for p in self.polynomials),
        )

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "q": self.q,
            "field": self.field_descriptor,
            "bipermutive": self.n_bipermutive,
            "soca": self.n_soca,
            "linear_soca": self.n_linear_soca,
            "affine_soca": self.n_affine_soca,
            "polynomials": [str(p) for p in self.polynomials],
        }


SCAN_CSV_HEADER = "d,bipermutive,soca,linear_soca,affine_soca,polynomials"


def scan_reports_to_csv(reports, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(SCAN_CSV_HEADER)
    for r in reports:
        polys = ";".join(str(p) for p in r.polynomials)
        lines.append(
            f"{r.d},{r.n_bipermutive},{r.n_soca},{r.n_linear_soca},{r.n_affine_soca},{polys}"
        )
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=32)
def _prefix_plan(field: Field, d: int):
    """Grid cells the prefix filter evaluates: every cell of the first k rows,
    then the first k columns of the remaining rows.  The set is closed under
    transposition; ``mirror[s]`` is the position of cell s's mirror.
    Returns the cells, their neighborhood windows and output weights (as in
    ``squares.cayley_table``), and ``mirror``."""
    q = field.q
    blocks, out_weights, _ = _cayley_plan(field, d, False)
    n = blocks.shape[0]
    k = min(_FILTER_ROWS, n)
    rows = np.concatenate([np.repeat(np.arange(k), n), np.repeat(np.arange(k, n), k)])
    cols = np.concatenate([np.tile(np.arange(n), k), np.tile(np.arange(k), n - k)])
    mirror = np.where(cols < k, cols * n + rows, k * n + (cols - k) * k + rows)
    windows = _window_indices(np.hstack([blocks[rows], blocks[cols]]), q, d)
    return rows, cols, windows, out_weights.astype(np.min_scalar_type(n - 1)), mirror


def _prefix_codes(field: Field, d: int, lo: int, hi: int):
    """Lookup tables of the rules lo..hi-1, one per row, and the codes
    A[r, c] * n + A[c, r] of their superposition pairs on the prefix plan's
    cells (0-based symbols).  Two equal codes in a row prove that rule's
    square is not orthogonal to its transpose.

    Symbols and codes use the narrowest unsigned type that holds n - 1 and
    n^2 - 1 (uint8 and uint16 at d = 6): einsum casts the gathered windows,
    the largest array here, to its accumulator type."""
    central, pair, maps = _rule_plan(field, d)
    _, _, windows, weights, mirror = _prefix_plan(field, d)
    n = field.q ** (d - 1)
    base = maps.shape[0]
    idx = np.arange(lo, hi, dtype=np.int64)
    powers = base ** np.arange(field.q ** (d - 2), dtype=np.int64)
    digits = (idx[:, None] // powers % base).astype(np.min_scalar_type(base - 1))
    tables = maps[digits[:, central], pair]
    symbols = np.einsum("bst,t->bs", tables[:, windows], weights, dtype=weights.dtype)
    code = np.min_scalar_type(n * n - 1).type
    return tables, symbols.astype(code) * code(n) + symbols[:, mirror]


def _scan_chunk(args) -> tuple[list[int], dict]:
    """Self-orthogonal rule indices in start..stop-1, and the chunk's stats."""
    field, d, start, stop = args
    hits = []
    stats = dict(enumerated=stop - start, prefix_rejected=0, fully_checked=0, filter_s=0.0, check_s=0.0)
    for lo in range(start, stop, _BLOCK_RULES):
        t0 = time.perf_counter()
        tables, codes = _prefix_codes(field, d, lo, min(lo + _BLOCK_RULES, stop))
        codes.sort(axis=1)
        survivors = np.flatnonzero(~(codes[:, 1:] == codes[:, :-1]).any(axis=1))
        t1 = time.perf_counter()
        for b in survivors.tolist():
            if soca_bruteforce(LocalRule(field, d, tables[b])).verdict:
                hits.append(lo + b)
        t2 = time.perf_counter()
        stats["prefix_rejected"] += len(tables) - len(survivors)
        stats["fully_checked"] += len(survivors)
        stats["filter_s"] += t1 - t0
        stats["check_s"] += t2 - t1
    return hits, stats


def _worker_count(workers: int) -> int:
    """Processes to use for ``workers`` requested: at least one, clamped to
    the CPU count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def _chunks(total: int, workers: int):
    n_chunks = max(min(_worker_count(workers) * 4, total), 1)
    step = -(-total // n_chunks)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _scan_indices(field: Field, d: int, workers: int, force: bool) -> tuple[int, list[int], dict]:
    workers = _worker_count(workers)
    cap = SCAN_DIAMETER_CAP.get(field.q)
    if not force and (cap is None or d > cap):
        raise ScaleGuardError(f"scan of q={field.q}, d={d} exceeds the desk-scale guard")
    total = rule_space_size(field, d)
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"a rule space of {total} rules exceeds the 64-bit rule index")
    if workers == 1:
        return (total, *_scan_chunk((field, d, 0, total)))
    jobs = [(field, d, lo, hi) for lo, hi in _chunks(total, workers)]
    hits: list[int] = []
    stats: dict = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part, part_stats in pool.map(_scan_chunk, jobs):
            hits.extend(part)  # jobs are contiguous and mapped in order
            for name, value in part_stats.items():
                stats[name] = stats.get(name, 0) + value
    return total, hits, stats


def _field_for_order(q: int) -> Field:
    if q == 2:
        return GF2
    if q == 3:
        return Field(3)
    if q == 4:
        return Field(2, 2)
    raise ValueError(f"supported alphabet orders are 2, 3 and 4, got q = {q}")


def scan_soca(d: int, q: int = 2, workers: int = 1, force: bool = False) -> ScanReport:
    """Brute-force every bipermutive rule of diameter d for self-orthogonality."""
    t0 = time.perf_counter()
    if q not in (2, 3):
        raise ValueError(f"brute-force scans support q in {{2, 3}}, got q = {q}")
    field = _field_for_order(q)
    total, hits, stats = _scan_indices(field, d, workers, force)
    n_linear = n_affine = 0
    polys = []
    for index in hits:
        res = _rule_from_index(field, d, index).as_affine()
        if res is None:
            continue
        n_affine += 1
        if res[1] == 0:
            n_linear += 1
            polys.append(res[0].polynomial())
    polys.sort(key=Poly.code)
    return ScanReport(
        d=d,
        q=q,
        field_descriptor=field.descriptor(),
        n_bipermutive=total,
        n_soca=len(hits),
        n_linear_soca=n_linear,
        n_affine_soca=n_affine,
        polynomials=tuple(polys),
        elapsed=time.perf_counter() - t0,
        stats=stats,
    )


def find_nonlinear_soca(d: int, q: int = 2, workers: int = 1, force: bool = False) -> list[LocalRule]:
    """Self-orthogonal rules that are not even affine; expected empty for d <= 6."""
    if q not in (2, 3):
        raise ValueError(f"brute-force scans support q in {{2, 3}}, got q = {q}")
    field = _field_for_order(q)
    _, hits, _ = _scan_indices(field, d, workers, force)
    rules = (_rule_from_index(field, d, index) for index in hits)
    return [r for r in rules if r.as_affine() is None]


@dataclass(frozen=True)
class LinearCountReport:
    """Per-diameter counts of strictly linear self-orthogonal rules."""

    q: int
    field_descriptor: str
    d_min: int
    d_max: int
    counts: tuple[int, ...]
    method: str
    elapsed: float

    def key(self) -> tuple:
        return (self.q, self.field_descriptor, self.d_min, self.d_max, self.counts, self.method)

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "field": self.field_descriptor,
            "method": self.method,
            "counts": {str(d): c for d, c in zip(range(self.d_min, self.d_max + 1), self.counts)},
        }


COUNT_CSV_HEADER = "d,linear_soca"


def count_report_to_csv(report: LinearCountReport) -> str:
    lines = [COUNT_CSV_HEADER]
    for d, c in zip(range(report.d_min, report.d_max + 1), report.counts):
        lines.append(f"{d},{c}")
    return "\n".join(lines) + "\n"


def _count_chunk_gf2(args) -> int:
    d, start, stop = args
    modulus = (1 << (d - 1)) | 1
    hi = 1 << (d - 1)
    count = 0
    for central in range(start, stop):
        if mask_gcd(1 | (central << 1) | hi, modulus) == 1:
            count += 1
    return count


def _count_linear_gf2(d: int, workers: int) -> int:
    total = 1 << (d - 2)
    if workers == 1 or total < 1 << 12:
        return _count_chunk_gf2((d, 0, total))
    jobs = [(d, lo, hi) for lo, hi in _chunks(total, workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_count_chunk_gf2, jobs))


def _count_linear_generic(field: Field, d: int) -> int:
    modulus = x_pow_minus_one(field, 2 * (d - 1))
    q = field.q
    count = 0
    nonzero = range(1, q)
    for a1 in nonzero:
        for ad in nonzero:
            for central in itertools.product(range(q), repeat=d - 2):
                p = Poly(field, (a1,) + central + (ad,))
                if gcd(p, modulus).degree == 0:
                    count += 1
    return count


def count_linear_soca(
    d_min: int,
    d_max: int,
    q: int = 2,
    workers: int = 1,
    force: bool = False,
    field: Field | None = None,
) -> LinearCountReport:
    """Count bipermutive linear rules passing the fast gcd test per diameter.

    Over GF(2) the rules have a_1 = a_d = 1 and free central coefficients and
    the test is gcd(p_f, X^(d-1) + 1) = 1 on bitmask polynomials; other fields
    run the generic gcd with X^(2(d-1)) - 1 over all nonzero a_1, a_d.
    """
    workers = _worker_count(workers)
    if d_min < 2 or d_min > d_max:
        raise ValueError(f"bad diameter range {d_min}..{d_max}")
    if d_max > COUNT_DIAMETER_CAP and not force:
        raise ScaleGuardError(f"count up to d={d_max} exceeds the guard d <= {COUNT_DIAMETER_CAP}")
    t0 = time.perf_counter()
    if field is None:
        field = _field_for_order(q)
    if field.q != q:
        raise ValueError("field does not match q")
    counts = []
    for d in range(d_min, d_max + 1):
        if field.q == 2:
            counts.append(_count_linear_gf2(d, workers))
        else:
            counts.append(_count_linear_generic(field, d))
    return LinearCountReport(
        q=q,
        field_descriptor=field.descriptor(),
        d_min=d_min,
        d_max=d_max,
        counts=tuple(counts),
        method="gcd-fast",
        elapsed=time.perf_counter() - t0,
    )
