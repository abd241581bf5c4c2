"""Exhaustive rule-space scans: enumerate bipermutive rules, brute-force the
self-orthogonal ones, classify them, and count linear self-orthogonal rules
that pass the fast gcd test, over GF(2) in closed form from the 2-cyclotomic
cosets and over other fields by one gcd per candidate.  Everything runs in one
process.  Scans stream rules in blocks of indices (see ``rulespace``); the
rule space is never materialized.

A scan decides rules in three stages, each batched over a block of rule
indices at once.  A repeated pair in the superposition of a square with its
transpose, in any cells, already proves the two are not orthogonal.  The
diagonal stage reads the n cells (r, r) from the rule index alone: their
pairs are (a, a), so a rule whose diagonal repeats a symbol is rejected (an
orthogonal pair of a square and its transpose has a transversal as its main
diagonal).  A bijective diagonal takes each value equally often in every
cell, so that count goes first.  Only the rules left get their lookup tables
decoded; the prefix stage evaluates the cells in their first few rows and
columns and rejects a repeated pair there.  The survivors of all blocks
then go through one full check, whose oracle is ``soca_bruteforce``, so
every hit is proven on the whole grid: per rule, one sort of codes placed in
disjoint ranges, one range per check (permutive in x_1, permutive in x_d,
Latin rows, Latin columns, the full superposition), where a repeated code
fails the check of its range.  Hits are classified from their index.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .checkers import NOT_BIPERMUTIVE, NOT_LATIN, SHORT_DIAMETER, AuditError
from .fields import Field, parse_field
from .polynomials import Poly, gcd
from .matrices import x_pow_minus_one
from .rules import LocalRule
from .rulespace import (
    _affine_by_index,
    _balanced,
    _block_tables,
    _linear_polynomials,
    _ring_diagonals,
    _rule_from_index,
    rule_space_size,
)
from .squares import _cayley_plan

SCAN_DIAMETER_CAP = {2: 6, 3: 3}
COUNT_DIAMETER_CAP = 24
# Grid cells per group of tables in _full_check.
_CHUNK_CELLS = 1 << 20
# Candidate rules a count over q > 2 may test without force: (q-1)^2 q^(d-2)
# summed over its diameters.  The slowest count admitted, GF(3) at d = 12
# (236,196 candidates, 118,098 monic ones, 78,732 of those with p(1) != 0 and
# so a gcd on coefficient lists), took 3.8-4.4 s against 7.9-9.0 s with a gcd
# per multiple, and 13.8-14.3 s and 18.5-23.0 s before that (2-core host, its
# pace varying between runs).  GF(2) counts take no gcd, so the cap does not
# apply to them.
COUNT_CANDIDATE_CAP_Q = 1 << 18
# Filter: grid rows (and as many columns) the prefix stage evaluates, and
# rules per block.  Of the 65,536 binary d=6 rules the diagonal leaves 472 and
# four rows and columns then leave the 16 hits.
_FILTER_ROWS = 4
_BLOCK_RULES = 4096
_INDEX_MAX = int(np.iinfo(np.int64).max)


class ScaleGuardError(ValueError):
    """The request exceeds the desk-scale guard; pass force=True to override."""


def _desk_scale_guard(job: str, field: Field, d: int, force: bool) -> None:
    cap = SCAN_DIAMETER_CAP.get(field.q)
    if not force and (cap is None or d > cap):
        raise ScaleGuardError(f"{job} of q={field.q}, d={d} exceeds the desk-scale guard")


def enumerate_bipermutive(field: Field, d: int, force: bool = False):
    """Yield every bipermutive rule of diameter d exactly once, by index."""
    total = rule_space_size(field, d)
    _desk_scale_guard("enumeration", field, d, force)
    for index in range(total):
        yield _rule_from_index(field, d, index)


@dataclass(frozen=True)
class ScanReport:
    """Census of one diameter's rule space.

    ``n_linear_soca`` counts strictly linear rules (zero constant term);
    ``n_affine_soca`` also admits a constant, so over GF(2) it is exactly
    twice the strict count (complementing a rule preserves the property).
    ``polynomials`` lists the associated polynomials of the strict-linear
    self-orthogonal rules, ascending by coefficient code.
    ``stats`` counts what the scan did: rules ``enumerated``, rejected by
    the diagonal (``diagonal_rejected``) and the prefix (``prefix_rejected``)
    and ``fully_checked``, and the seconds spent filtering and checking
    (``filter_s``, ``check_s``).  It takes no part in equality, ``key()``,
    ``as_dict()`` or the CSV.
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
    lines = [f"# {comment}", SCAN_CSV_HEADER] if comment else [SCAN_CSV_HEADER]
    for r in reports:
        polys = ";".join(str(p) for p in r.polynomials)
        lines.append(f"{r.d},{r.n_bipermutive},{r.n_soca},{r.n_linear_soca},{r.n_affine_soca},{polys}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=32)
def _filter_plan(field: Field, d: int):
    """Grid cells the prefix stage evaluates, as neighborhood windows
    ``left[rows] + right[cols]`` (see ``squares._cayley_plan``): every cell
    of the first k rows and then the first k columns of the other rows.
    The set is closed under transposition; ``mirror[s]`` is the position of
    cell s's mirror.  Returns the output weights, the windows, ``mirror``,
    ``rows`` and ``cols``."""
    left, right, out_weights, _ = _cayley_plan(field, d, False)
    n = left.shape[0]
    k = min(_FILTER_ROWS, n)
    rows = np.concatenate([np.repeat(np.arange(k), n), np.repeat(np.arange(k, n), k)])
    cols = np.concatenate([np.tile(np.arange(n), k), np.tile(np.arange(k), n - k)])
    mirror = np.where(cols < k, cols * n + rows, k * n + (cols - k) * k + rows)
    return out_weights.astype(np.min_scalar_type(n - 1)), left[rows] + right[cols], mirror, rows, cols


def _filter_codes(field: Field, d: int, tables: np.ndarray) -> np.ndarray:
    """One row per table: the codes A[r, c] * n + A[c, r] of the superposition
    pairs on the prefix cells.  Two equal codes in a row prove that rule's
    square is not orthogonal to its transpose.  Symbols are 0-based and keep
    the narrowest unsigned type through einsum, which casts the gathered
    windows, the largest array here, to its accumulator type.  Codes are at
    least uint16, which numpy sorts many times faster than uint8."""
    weights, cells, mirror = _filter_plan(field, d)[:3]
    n = field.q ** (d - 1)
    code = np.promote_types(np.uint16, np.min_scalar_type(n * n - 1)).type
    symbols = np.einsum("bst,t->bs", tables[:, cells], weights, dtype=weights.dtype).astype(code)
    return symbols * code(n) + symbols[:, mirror]


def _repeats(codes: np.ndarray) -> np.ndarray:
    """Whether each row repeats a code; sorts the rows in place."""
    codes.sort(axis=1)
    return (codes[:, 1:] == codes[:, :-1]).any(axis=1)


@lru_cache(maxsize=32)
def _check_plan(field: Field, d: int):
    """The code ranges of ``_full_check`` for N = q^d table entries and n^2
    grid cells.  Returns the offsets that place the codes [table, table,
    grid, grid, pairs] in their ranges, the mirror of every grid cell, the
    sorted codes of a rule that passes, 0 .. 2N + 3n^2 - 1, in the narrowest
    type from uint16 up that holds 2N + 3n^2, and the bounds 2N and
    2N + 2n^2."""
    q, size, n = field.q, field.q**d, field.q ** (d - 1)
    entry, cell = np.arange(size), np.arange(n * n)
    latin, pairs, stop = 2 * size, 2 * size + 2 * n * n, 2 * size + 3 * n * n
    offsets = np.concatenate([entry % n * q, size + entry - entry % q, latin + cell // n * n,
                              latin + n * n + cell % n * n, np.full(n * n, pairs)])
    code = np.promote_types(np.uint16, np.min_scalar_type(stop))
    return offsets.astype(code), cell % n * n + cell // n, np.arange(stop, dtype=code), (latin, pairs)


def _full_check(field: Field, d: int, tables: np.ndarray) -> np.ndarray:
    """Whether each table's square A is orthogonal to its transpose, proven
    on the whole grid: the checks of ``checkers.soca_bruteforce``, its
    oracle, as one sort per table over codes in disjoint ranges (N = q^d):
    - [0, N): (x_2..x_d, f), repeated iff f is not permutive in x_1;
    - [N, 2N): (x_1..x_{d-1}, f), repeated iff f is not permutive in x_d;
    - [2N, 2N + n^2): (r, A[r, c]), repeated iff a row is not Latin;
    - [2N + n^2, 2N + 2n^2): (c, A[r, c]), repeated iff a column is not;
    - [2N + 2n^2, 2N + 3n^2): (A[r, c], A[c, r]), repeated iff A is not
      orthogonal to its transpose.
    Each range holds as many codes as it has values, so a table passes iff
    its sorted codes read 0, 1, 2, ...; the first place they do not lies in
    the range of the first check it fails.  In each group of at most
    _CHUNK_CELLS grid cells the earliest such place decides, so it raises as
    the oracle does: ``ValueError`` (not bipermutive) before ``AuditError``
    (not Latin).  Grids are one gather through ``squares._cayley_plan``'s
    windows, cached for every d within the scan's 64-bit index guard.
    Symbols are 0-based, as in the filter."""
    n = field.q ** (d - 1)
    weights, windows = _filter_plan(field, d)[0], _cayley_plan(field, d, False)[3]
    offsets, mirror, passing, (latin, pairs) = _check_plan(field, d)
    verdicts = np.empty(len(tables), dtype=bool)
    step = max(_CHUNK_CELLS // (n * n), 1)
    for lo in range(0, len(tables), step):
        group = tables[lo : lo + step]
        grid = np.einsum("bst,t->bs", group[:, windows], weights, dtype=weights.dtype).astype(passing.dtype)
        codes = np.concatenate([group, group, grid, grid, grid * n + grid[:, mirror]], axis=1)
        codes += offsets
        codes.sort(axis=1)
        proven = codes == passing
        passed = proven.all(axis=1)
        first = proven[~passed].argmin(axis=1).min(initial=len(passing))
        if first < latin:
            raise ValueError(NOT_BIPERMUTIVE)
        if first < pairs:
            raise AuditError(NOT_LATIN)
        verdicts[lo : lo + len(group)] = passed
    return verdicts


def _scan_range(field: Field, d: int, start: int, stop: int) -> tuple[list[int], dict]:
    """Self-orthogonal rule indices in start..stop-1, and the scan's stats.
    The diagonal and prefix stages run block by block; the survivors of all
    blocks then go through one full check.  Only blocks with survivors are
    kept, so memory does not grow with the length of the range."""
    stats = dict(enumerated=stop - start, diagonal_rejected=0, prefix_rejected=0, fully_checked=0,
                 filter_s=0.0, check_s=0.0)
    survivors, tables, t0 = [], [], time.perf_counter()
    for lo in range(start, stop, _BLOCK_RULES):
        block = np.arange(lo, min(lo + _BLOCK_RULES, stop), dtype=np.int64)
        kept = block[_balanced(field, d, block)]
        kept = kept[~_repeats(_ring_diagonals(field, d, kept))]
        stats["diagonal_rejected"] += len(block) - len(kept)
        kept_tables = _block_tables(field, d, kept)
        passed = ~_repeats(_filter_codes(field, d, kept_tables))
        kept, kept_tables = kept[passed], kept_tables[passed]
        stats["prefix_rejected"] += len(passed) - len(kept)
        if len(kept):
            survivors.append(kept)
            tables.append(kept_tables)
    t1 = time.perf_counter()
    stats["filter_s"] = t1 - t0
    if not survivors:
        return [], stats
    survivors = np.concatenate(survivors)
    hits = survivors[_full_check(field, d, np.concatenate(tables))].tolist()
    stats.update(fully_checked=len(survivors), check_s=time.perf_counter() - t1)
    return hits, stats


def _scan_space(q: int, d: int, force: bool) -> tuple[Field, int]:
    """The field and rule count of a scan, after its refusals: the alphabet,
    the desk-scale guard and the 64-bit rule index."""
    if q not in (2, 3):
        raise ValueError(f"brute-force scans support q in {{2, 3}}, got q = {q}")
    field = _field_for_order(q)
    _desk_scale_guard("scan", field, d, force)
    total = rule_space_size(field, d)
    if total > _INDEX_MAX:
        raise ValueError(f"a rule space of {total} rules exceeds the 64-bit rule index")
    return field, total


def _scan_indices(q: int, d: int, force: bool) -> tuple[Field, int, list[int], dict]:
    field, total = _scan_space(q, d, force)
    return (field, total, *_scan_range(field, d, 0, total))


@lru_cache(maxsize=8)
def _field_for_order(q: int) -> Field:
    """GF(q) as ``--field "GF(q)"`` reads it."""
    return parse_field(f"GF({q})")


def scan_soca(d: int, q: int = 2, force: bool = False) -> ScanReport:
    """Brute-force every bipermutive rule of diameter d for self-orthogonality,
    over GF(2) or GF(3)."""
    t0 = time.perf_counter()
    field, total, hits, stats = _scan_indices(q, d, force)
    affine, linear = _affine_by_index(field, d), _linear_polynomials(field, d)
    polys = sorted((linear[index] for index in hits if index in linear), key=Poly.code)
    return ScanReport(
        d=d,
        q=q,
        field_descriptor=field.descriptor(),
        n_bipermutive=total,
        n_soca=len(hits),
        n_linear_soca=len(polys),
        n_affine_soca=sum(index in affine for index in hits),
        polynomials=tuple(polys),
        elapsed=time.perf_counter() - t0,
        stats=stats,
    )


def find_nonlinear_soca(d: int, q: int = 2, force: bool = False) -> list[LocalRule]:
    """Self-orthogonal rules that are not even affine; expected empty for d <= 6."""
    field, _, hits, _ = _scan_indices(q, d, force)
    affine = _affine_by_index(field, d)
    return [_rule_from_index(field, d, index) for index in hits if index not in affine]


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
    rows = (f"{d},{c}" for d, c in zip(range(report.d_min, report.d_max + 1), report.counts))
    return "\n".join([COUNT_CSV_HEADER, *rows]) + "\n"


def _count_linear_gf2(d: int) -> int:
    """The number of degree-m polynomials p over GF(2) with p(0) = 1 that are
    coprime to X^m + 1, m = d - 1, by inclusion-exclusion over the irreducible factors of X^m + 1.  Those of
    X^m + 1 = (X^m' + 1)^(2^e), m' odd, have the sizes of the 2-cyclotomic
    cosets of Z/m' as degrees (Lidl & Niederreiter, Finite Fields, ch. 2), and
    a product H of some of them, of degree j, divides N(m - j) candidates:
    N(0) = 1 and N(n) = 2^(n-1).  So count = sum_j c_j N(m - j), with
    sum_j c_j t^j the product of (1 - t^s) over the coset sizes s."""
    m = d - 1
    odd = m // (m & -m)
    coeffs, seen = [1] + [0] * m, set()
    for r in range(odd):
        size = 0
        while r not in seen:
            seen.add(r)
            r, size = 2 * r % odd, size + 1
        if size:  # multiply by 1 - t^size
            for j in range(m, size - 1, -1):
                coeffs[j] -= coeffs[j - size]
    return coeffs[m] + sum(c << (m - 1 - j) for j, c in enumerate(coeffs[:m]))


def _count_linear_generic(field: Field, d: int) -> int:
    """The number of candidates p = a_1 + ... + a_d X^(d-1), a_1 and a_d
    nonzero, coprime to X^(2(d-1)) - 1.  A nonzero scalar changes neither the
    monic gcd nor whether p(1) = 0, so the q - 1 multiples of each monic p
    (a_d = 1) share its verdict and only the monic ones run a gcd: GF(3) at
    d = 12, 78,732 gcds, took 3.8-4.4 s (2-core host).  Coefficients
    summing to 0 give p(1) = 0, so X-1 divides p and the modulus."""
    modulus = x_pow_minus_one(field, 2 * (d - 1))
    nonzero, digits = range(1, field.q), range(field.q)
    coeffs = itertools.product(nonzero, *[digits] * (d - 2), (1,))
    coprime = sum(gcd(modulus, Poly._trusted(field, list(c))).degree == 0 for c in coeffs if reduce(field.add, c))
    return (field.q - 1) * coprime


def count_linear_soca(
    d_min: int,
    d_max: int,
    q: int = 2,
    force: bool = False,
    field: Field | None = None,
) -> LinearCountReport:
    """Count bipermutive linear rules passing the fast gcd test per diameter.

    Over GF(2) the rules have a_1 = a_d = 1 and free central coefficients and
    the test is gcd(p_f, X^(d-1) + 1) = 1; the count is the closed form of
    ``_count_linear_gf2``, at most O(d^2) integer steps per diameter and no
    gcd.  Other fields run the generic gcd with X^(2(d-1)) - 1 over nonzero
    a_1 and a_d = 1, one candidate per class of nonzero scalar multiples, and
    count each class q - 1 times (GF(3) at d = 12 took 3.8-4.4 s); that
    modulus vanishes at X = 1, so a candidate whose coefficients sum to 0
    fails without a gcd.  ``field`` defaults to GF(q) as ``--field "GF(q)"``
    reads it.
    Without ``force`` a count stops at d = 24, and over q > 2 at
    ``COUNT_CANDIDATE_CAP_Q`` candidate rules, before any work starts.
    """
    if d_min < 2:
        raise ValueError(SHORT_DIAMETER)
    if d_min > d_max:
        raise ValueError(f"bad diameter range {d_min}..{d_max}")
    if d_max > COUNT_DIAMETER_CAP and not force:
        raise ScaleGuardError(f"count up to d={d_max} exceeds the guard d <= {COUNT_DIAMETER_CAP}")
    t0 = time.perf_counter()
    if field is None:
        field = _field_for_order(q)
    if field.q != q:
        raise ValueError("field does not match q")
    candidates = (q - 1) * (q ** (d_max - 1) - q ** (d_min - 2))  # sum of (q-1)^2 q^(d-2)
    if q > 2 and candidates > COUNT_CANDIDATE_CAP_Q and not force:
        raise ScaleGuardError(
            f"count of {candidates} candidate rules exceeds the guard of {COUNT_CANDIDATE_CAP_Q} for q > 2"
        )
    counts = [
        _count_linear_gf2(d) if q == 2 else _count_linear_generic(field, d)
        for d in range(d_min, d_max + 1)
    ]
    return LinearCountReport(
        q=q,
        field_descriptor=field.descriptor(),
        d_min=d_min,
        d_max=d_max,
        counts=tuple(counts),
        method="gcd-fast",
        elapsed=time.perf_counter() - t0,
    )
