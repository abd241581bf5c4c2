"""Cayley tables of no-boundary CA, Latin-property and orthogonality checks.

A rule of diameter d over GF(q) maps pairs of (d-1)-cell blocks to one block;
encoding blocks as the symbols 1..N with N = q^(d-1) turns that map into an
N-by-N grid.  For bipermutive rules the grid is a Latin square.

Blocks are encoded little-endian: the first cell is the least significant
radix-q digit, so phi(0,0) = 1, phi(1,0) = 2, phi(0,1) = 3 over GF(2).

Output cell t of grid cell (r, c) reads cells t..d-2 of block r and cells
0..t of block c, so its lookup-table index is left[r, t] + right[c, t] (see
``_cayley_plan``).  Small grids gather from cached per-cell indices, faster
there than the sum; larger ones gather from the sum a chunk at a time.
Grids built here, and their transposes, become squares without the copy and
range scan that a grid from outside gets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import Field
from .rules import LocalRule

MAX_GRID_CELLS = 1 << 26
# Cells per chunk of a large grid build.  Its int64 window sums and gathered
# cells take 16(d-1) bytes per cell, 1.4 MB at GF(2) d = 12, in two buffers
# that every chunk reuses: fresh per-chunk arrays cost a page fault per
# page, and a grid at GF(2) d = 13 took 1.5-2.9 s that way against 0.6-1.2 s
# (2-core host).
_GRID_CHUNK_CELLS = 1 << 13


@dataclass(frozen=True)
class EncodingMap:
    """Bijection between GF(q)^m blocks and the symbols 1..q^m.

    ``reversed_digits`` flips the digit significance; the alternative map is
    only used to show that self-orthogonality does not depend on the choice.
    """

    field: Field
    m: int
    reversed_digits: bool = False

    @property
    def order(self) -> int:
        return self.field.q**self.m

    def _weights(self) -> tuple[int, ...]:
        w = tuple(self.field.q**i for i in range(self.m))
        return w[::-1] if self.reversed_digits else w

    def phi(self, block) -> int:
        """Symbol in 1..N for a block of m cells."""
        block = tuple(self.field.check(x) for x in block)
        if len(block) != self.m:
            raise ValueError(f"block must have {self.m} cells")
        return 1 + sum(x * w for x, w in zip(block, self._weights()))

    def psi(self, symbol: int) -> tuple[int, ...]:
        """Block of m cells for a symbol in 1..N."""
        if not 1 <= symbol <= self.order:
            raise ValueError(f"symbol {symbol} outside 1..{self.order}")
        return tuple((symbol - 1) // w % self.field.q for w in self._weights())

    def blocks(self) -> np.ndarray:
        """All blocks by symbol: row s-1 is psi(s)."""
        return np.arange(self.order, dtype=np.int64)[:, None] // np.array(self._weights()) % self.field.q


@lru_cache(maxsize=32)
def _cayley_plan(field: Field, d: int, reversed_digits: bool):
    """Per-(field, d) evaluation plan, the one map from blocks to windows:
    ``left[r, t]`` weighs cells t..d-2 of block r and ``right[c, t]`` cells
    0..t of block c, x_1 most significant.  Returns them, the output weights
    and ``windows[r * n + c] = left[r] + right[c]``, cached up to 2^22
    entries only: there a gather from them beats forming the sum (25 against
    45 us at GF(2) d = 6, 2-core host); beyond, the cache would cost
    8(d-1) bytes per cell for the life of the process."""
    q, m = field.q, d - 1
    encoding = EncodingMap(field, m, reversed_digits)
    blocks = encoding.blocks()
    # place[x, t]: the place of input cell x in the window of output cell t
    place = np.arange(2 * m)[:, None] - np.arange(m)
    weights = np.where((place >= 0) & (place <= m), q ** np.clip(m - place, 0, m), 0)
    left, right = blocks @ weights[:m], blocks @ weights[m:]
    out_weights = np.array(encoding._weights(), dtype=np.int64)
    windows = (left[:, None] + right).reshape(-1, m) if q ** (2 * m) * m <= 1 << 22 else None
    return left, right, out_weights, windows


class LatinSquare:
    """An N-by-N grid of symbols 1..N; Latinness is checked, not enforced."""

    __slots__ = ("grid",)

    def __init__(self, grid):
        arr = np.array(grid, dtype=np.int32, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("grid must be square")
        n = arr.shape[0]
        if n == 0 or arr.min() < 1 or arr.max() > n:
            raise ValueError(f"entries must lie in 1..{n}")
        arr.flags.writeable = False
        self.grid = arr

    @classmethod
    def _trusted(cls, grid: np.ndarray) -> "LatinSquare":
        """Square over an int32 grid of symbols 1..N that this module built:
        the public constructor's copy and range scan are skipped."""
        square = object.__new__(cls)
        grid.flags.writeable = False
        square.grid = grid
        return square

    @property
    def order(self) -> int:
        return self.grid.shape[0]

    def transpose(self) -> "LatinSquare":
        """The transposed square, a read-only view of the same grid."""
        return LatinSquare._trusted(self.grid.T)

    def __eq__(self, other):
        return isinstance(other, LatinSquare) and np.array_equal(self.grid, other.grid)

    def __hash__(self):
        return hash(self.grid.tobytes())

    def __repr__(self):
        return f"LatinSquare(order={self.order})"

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.grid.tolist()) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.grid.tolist())


def require_grid_fits(field: Field, d: int) -> None:
    """Refuse, before any table is built, a grid over MAX_GRID_CELLS cells."""
    if field.q ** (2 * (d - 1)) > MAX_GRID_CELLS:
        raise ValueError(f"grid of {field.q}^{2 * (d - 1)} cells exceeds the size cap")


def cayley_table(rule: LocalRule, encoding: EncodingMap | None = None) -> LatinSquare:
    """Grid of the rule's no-boundary map on split inputs.

    Entry (i, j) encodes the output block of the CA run on psi(i) || psi(j);
    input length 2(d-1), output length d-1.
    """
    d = rule.diameter
    if d < 2:
        raise ValueError("Cayley tables need diameter >= 2")
    field = rule.field
    if encoding is None:
        encoding = EncodingMap(field, d - 1)
    elif encoding.field != field or encoding.m != d - 1:
        raise ValueError("encoding does not match the rule")
    require_grid_fits(field, d)
    n = field.q ** (d - 1)
    left, right, out_weights, windows = _cayley_plan(field, d, encoding.reversed_digits)
    table = rule.table.astype(np.int64, copy=False)
    if windows is not None:
        return LatinSquare._trusted((1 + table[windows] @ out_weights).astype(np.int32).reshape(n, n))
    grid = np.empty((n, n), dtype=np.int32)
    step = max(_GRID_CHUNK_CELLS // n, 1)
    sums = np.empty((step, n, d - 1), dtype=np.int64)
    cells = np.empty_like(sums)
    for lo in range(0, n, step):
        k = min(step, n - lo)
        np.add(left[lo : lo + k, None], right, out=sums[:k])
        # every index is in range; "clip" lets take write to out unbuffered
        np.take(table, sums[:k], out=cells[:k], mode="clip")
        grid[lo : lo + k] = 1 + cells[:k] @ out_weights
    return LatinSquare._trusted(grid)


def is_latin(square: LatinSquare) -> bool:
    """True iff every row and every column is a permutation of 1..N."""
    g = square.grid
    n = g.shape[0]
    expected = np.arange(1, n + 1, dtype=g.dtype)
    return bool(
        np.all(np.sort(g, axis=1) == expected[None, :])
        and np.all(np.sort(g, axis=0) == expected[:, None])
    )


def check_orthogonal(a: LatinSquare, b: LatinSquare):
    """(True, None) if superposition hits every ordered pair exactly once,
    else (False, ((r, c), (r', c'))) naming two cells with the same pair."""
    if a.order != b.order:
        raise ValueError(f"orders differ: {a.order} vs {b.order}")
    n = a.order
    codes = (a.grid.astype(np.int64) - 1) * n + (b.grid.astype(np.int64) - 1)
    counts = np.bincount(codes.ravel(), minlength=n * n)
    if counts.max() <= 1:
        return True, None
    dup = int(np.flatnonzero(counts > 1)[0])
    (r1, c1), (r2, c2) = np.argwhere(codes == dup)[:2]
    return False, ((int(r1) + 1, int(c1) + 1), (int(r2) + 1, int(c2) + 1))


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    return check_orthogonal(a, b)[0]


def is_self_orthogonal(square: LatinSquare) -> bool:
    """Orthogonal to its own transpose."""
    return are_orthogonal(square, square.transpose())


def superposition_text(a: LatinSquare, b: LatinSquare) -> str:
    """Grid of "x,y" cells showing the superposition of two squares."""
    if a.order != b.order:
        raise ValueError(f"orders differ: {a.order} vs {b.order}")
    rows = []
    for ra, rb in zip(a.grid.tolist(), b.grid.tolist()):
        rows.append(" ".join(f"{x},{y}" for x, y in zip(ra, rb)))
    return "\n".join(rows) + "\n"
