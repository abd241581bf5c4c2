"""The bipermutive rule space of one field and diameter, addressed by index.

A bipermutive rule is one two-argument bijective-in-both-slots map (a Latin
square of order q on the alphabet) per value of the central d-2 cells, so a
rule index is read as base-L digits, L the number of Latin maps, digit c
naming the map of central block c.  Over GF(2) the two maps are XOR and XNOR
and the index is exactly the truth table of the generating function g in
f = x_1 + g(x_2..x_{d-1}) + x_d.

From an index this module decodes lookup tables, reads the diagonal of the
rule's Cayley table without a table, and names the affine rules.  In cell
(r, r) the input is r||r, so the window of output cell t is r_t, c_t(r), r_t,
where c_t(r) is the cyclic central window of r that starts at t+1.  The
diagonal is therefore one step of a ring map on d-1 cells:
A[r, r] = sum over t of D_k(r_t) q^t, k the digit at c_t(r) and D_k the
diagonal of Latin map k.  Over GF(2) it is the periodic CA of g, and for a
linear rule it is a bijection exactly when gcd(p_f, X^(d-1)+1) = 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .fields import Field
from .polynomials import Poly
from .rules import LinearRule, LocalRule, _table_dtype
from .squares import EncodingMap, _cayley_plan

# The most values one chunk of index digits may take in the diagonal tables:
# a byte of g's truth table over GF(2), two digits over GF(3).
_CHUNK_VALUES = 256


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
    """Decoding shared by every rule of one diameter.  A rule index is read
    as base-L digits, one Latin map per central block (L maps); table
    position t takes digit ``central[t]``, and its entry is
    ``options.ravel()[offsets[t] + digit]``.  Digit c of index i is
    i // powers[c] % L, exact wherever the rule space fits an int64."""
    q = field.q
    idx = np.arange(q**d, dtype=np.int64)
    central = (idx // q) % q ** (d - 2)
    pair = (idx // q ** (d - 1)) * q + idx % q
    maps = np.array(_latin_maps(field), dtype=_table_dtype(q))
    options = maps.T[pair]
    powers = len(maps) ** np.arange(q ** (d - 2), dtype=np.int64)
    return central, idx * options.shape[1], options, powers


def rule_space_size(field: Field, d: int) -> int:
    """Number of bipermutive rules of diameter d over the field."""
    if d < 2:
        raise ValueError("bipermutive rules need diameter >= 2")
    return len(_latin_maps(field)) ** (field.q ** (d - 2))


def _rule_from_index(field: Field, d: int, index: int) -> LocalRule:
    central, offsets, options, _ = _rule_plan(field, d)
    base = options.shape[1]
    digits = np.empty(field.q ** (d - 2), dtype=np.int64)
    for c in range(digits.size):
        index, digits[c] = divmod(index, base)
    return LocalRule(field, d, options.ravel()[digits[central] + offsets])


@lru_cache(maxsize=32)
def _ring_plan(field: Field, d: int):
    """Chunk tables of the diagonal.  The index digits are read in chunks of
    up to _CHUNK_VALUES values; ``symbols[j][v]`` is the part of every
    diagonal symbol A[r, r] that chunk j adds when its digits read v, and
    ``counts[j][v]`` codes how often the diagonals of those digits' maps hold
    each value a, as the sum of count_a (n+1)^a.  Returns the chunk base, the
    symbol tables, the count tables and the count code of a diagonal that
    holds each value q^(d-2) times per cell."""
    q, positions = field.q, field.q ** (d - 2)
    left, right, out_weights, _ = _cayley_plan(field, d, False)
    digit_at = (left + right) // q % positions
    blocks = EncodingMap(field, d - 1).blocks()
    maps = np.array(_latin_maps(field))
    diagonals = maps[:, np.arange(q) * (q + 1)]
    radix = (q ** (d - 1) + 1) ** np.arange(q)
    tallies = (diagonals[:, :, None] == np.arange(q)).sum(axis=1) @ radix
    n_maps, span = len(maps), 1
    while n_maps ** (span + 1) <= _CHUNK_VALUES:
        span += 1
    code = np.promote_types(np.uint16, np.min_scalar_type(blocks.shape[0] - 1))
    symbols, counts = [], []
    for first in range(0, positions, span):
        width = min(span, positions - first)
        values = np.arange(n_maps**width)
        place = np.clip(digit_at - first, 0, width - 1)
        digits = values[:, None, None] // n_maps**place % n_maps
        inside = (digit_at >= first) & (digit_at < first + width)
        symbols.append((diagonals[digits, blocks] * out_weights * inside).sum(axis=2).astype(code))
        own = values[:, None] // n_maps ** np.arange(width) % n_maps
        counts.append(tallies[own].sum(axis=1))
    return n_maps**span, symbols, counts, positions * int(radix.sum())


def _chunk_sum(base: int, tables, indices: np.ndarray) -> np.ndarray:
    """Sum over chunks j of ``tables[j]`` at the j-th base-``base`` digit of
    each index: one gather per chunk."""
    total = tables[0][indices % base]
    for t in tables[1:]:
        indices = indices // base
        total += t[indices % base]
    return total


def _balanced(field: Field, d: int, indices: np.ndarray) -> np.ndarray:
    """Whether each rule's diagonal takes every value q^(d-2) times per cell,
    which it must to be a bijection (over GF(2): g has weight 2^(d-3))."""
    base, _, counts, balanced = _ring_plan(field, d)
    return _chunk_sum(base, counts, indices) == balanced


def _ring_diagonals(field: Field, d: int, indices: np.ndarray) -> np.ndarray:
    """One row per rule index: the 0-based diagonal symbols A[r, r]."""
    base, symbols = _ring_plan(field, d)[:2]
    return _chunk_sum(base, symbols, indices)


def _block_tables(field: Field, d: int, indices: np.ndarray) -> np.ndarray:
    """Lookup tables of the rules at ``indices``, one per row, in one gather."""
    central, offsets, options, powers = _rule_plan(field, d)
    base = options.shape[1]
    indices = np.asarray(indices, dtype=np.int64)
    digits = (indices[:, None] // powers % base).astype(np.min_scalar_type(base - 1))
    return options.ravel()[digits[:, central] + offsets]


@lru_cache(maxsize=32)
def _affine_by_index(field: Field, d: int) -> dict[int, tuple[LinearRule, int]]:
    """Every affine bipermutive rule of diameter d, as ``LocalRule.as_affine``
    gives it, keyed by rule index.  Digit c of the index names the Latin map
    that the rule's table holds at central block c, over (x_1, x_d)."""
    q = field.q
    maps = {m: k for k, m in enumerate(_latin_maps(field))}
    weights = [len(maps) ** c for c in range(q ** (d - 2))]
    nonzero = range(1, q)
    out = {}
    for coeffs in itertools.product(nonzero, *[range(q)] * (d - 2), nonzero):
        linear = LinearRule(field, coeffs)
        table = linear.to_rule().table.astype(np.int64)
        for constant in range(q):
            cube = field.add_array(table, constant).reshape(q, -1, q)
            index = sum(maps[tuple(cube[:, c].ravel())] * w for c, w in enumerate(weights))
            out[index] = (linear, constant)
    return out


@lru_cache(maxsize=32)
def _linear_polynomials(field: Field, d: int) -> dict[int, Poly]:
    """The associated polynomial of every strictly linear rule (constant 0)
    of ``_affine_by_index``, keyed by the same rule index."""
    affine = _affine_by_index(field, d).items()
    return {index: lr.polynomial() for index, (lr, constant) in affine if constant == 0}
