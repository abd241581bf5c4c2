"""Local rules of one-dimensional cellular automata over a finite field.

A local rule f: GF(q)^d -> GF(q) of diameter d is stored as its full lookup
table, indexed by the neighborhood (x_1, ..., x_d) read as a radix-q integer
with x_1 as the most significant digit.  For q = 2 this makes the table the
bit string of the rule's Wolfram code, lowest bit = all-zero neighborhood.

The no-boundary global map drops the d-1 cells that lack right neighbors;
the periodic one wraps the lattice into a ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fields import GF2, Field
from .polynomials import Poly

MAX_TABLE_CELLS = 1 << 24
_CHUNK = 1 << 20


def _table_dtype(q: int):
    return np.uint8 if q <= 256 else np.uint16


def _check_table_size(q: int, diameter: int) -> None:
    """Refuse a diameter below 1 or a table past MAX_TABLE_CELLS before any
    work; past diameter 24 the refusal computes no power of q."""
    if diameter < 1:
        raise ValueError("diameter must be >= 1")
    if diameter >= MAX_TABLE_CELLS.bit_length() or q**diameter > MAX_TABLE_CELLS:
        raise ValueError(f"table of {q}^{diameter} entries exceeds the size cap")


class LocalRule:
    """Lookup-table rule f: GF(q)^d -> GF(q)."""

    __slots__ = ("field", "diameter", "table")

    def __init__(self, field: Field, diameter: int, table):
        q = field.q
        _check_table_size(q, diameter)
        arr = np.array(table, dtype=_table_dtype(q), order="C")
        if arr.shape != (q**diameter,):
            raise ValueError(f"table must have q^d = {q**diameter} entries")
        if arr.size and int(arr.max()) >= q:
            raise ValueError("table entries must be field elements")
        self._set(field, diameter, arr)

    @classmethod
    def _trusted(cls, field: Field, diameter: int, table: np.ndarray) -> "LocalRule":
        """Rule over a table of q^d field elements, of the table dtype, that
        this package built: the public constructor's copy and range scan are
        skipped and the array itself becomes read-only."""
        rule = object.__new__(cls)
        rule._set(field, diameter, table)
        return rule

    def _set(self, field: Field, diameter: int, table: np.ndarray) -> None:
        table.flags.writeable = False
        self.field = field
        self.diameter = diameter
        self.table = table

    @classmethod
    def from_wolfram(cls, code: int, diameter: int) -> "LocalRule":
        """Binary rule from its Wolfram code; table bit v of the code is the
        output for the neighborhood whose big-endian value is v."""
        _check_table_size(2, diameter)
        size = 1 << diameter
        if not 0 <= code < (1 << size):
            raise ValueError(f"Wolfram code {code} out of range for diameter {diameter}")
        raw = code.to_bytes((size + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size]
        return cls._trusted(GF2, diameter, bits)

    @property
    def wolfram_code(self) -> int:
        if self.field.q != 2:
            raise ValueError("Wolfram codes are defined for binary rules only")
        packed = np.packbits(self.table, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def _index(self, neighborhood) -> int:
        q, d = self.field.q, self.diameter
        if len(neighborhood) != d:
            raise ValueError(f"neighborhood must have {d} cells")
        return reduce(lambda acc, x: acc * q + self.field.check(x), neighborhood, 0)

    def __call__(self, *neighborhood) -> int:
        if len(neighborhood) == 1 and not isinstance(neighborhood[0], (int, np.integer)):
            neighborhood = tuple(neighborhood[0])
        return int(self.table[self._index(neighborhood)])

    def __eq__(self, other):
        return (
            isinstance(other, LocalRule)
            and self.field == other.field
            and self.diameter == other.diameter
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.field, self.diameter, self.table.tobytes()))

    def __repr__(self):
        if self.field.q == 2 and self.diameter <= 6:
            return f"LocalRule(wolfram={self.wolfram_code}, d={self.diameter})"
        return f"LocalRule(q={self.field.q}, d={self.diameter})"

    # -- global maps ----------------------------------------------------------

    def nbca(self, x) -> tuple[int, ...]:
        """No-boundary evaluation: n cells in, n-d+1 cells out."""
        x = tuple(x)
        n, d = len(x), self.diameter
        if n < d:
            raise ValueError(f"input length {n} is shorter than the diameter {d}")
        return tuple(self(x[i : i + d]) for i in range(n - d + 1))

    def pbca(self, x) -> tuple[int, ...]:
        """Periodic evaluation on a ring of n cells: cell i reads i..i+d-1 mod n."""
        x = tuple(x)
        n, d = len(x), self.diameter
        if n < 1:
            raise ValueError("the ring needs at least one cell")
        return tuple(self(tuple(x[(i + s) % n] for s in range(d))) for i in range(n))

    # -- structure ------------------------------------------------------------

    def is_permutive(self, i: int) -> bool:
        """Permutivity in the i-th coordinate (1-based): every restriction of f
        obtained by fixing the other d-1 coordinates permutes the alphabet."""
        q, d = self.field.q, self.diameter
        if not 1 <= i <= d:
            raise ValueError(f"coordinate {i} outside 1..{d}")
        cube = self.table.reshape(q ** (i - 1), q, q ** (d - i))
        expected = np.arange(q, dtype=cube.dtype)[None, :, None]
        return bool(np.all(np.sort(cube, axis=1) == expected))

    def is_bipermutive(self) -> bool:
        return self.is_permutive(1) and self.is_permutive(self.diameter)

    def complement(self) -> "LocalRule":
        """Binary rule with every output flipped."""
        if self.field.q != 2:
            raise ValueError("complement is defined for binary rules only")
        return LocalRule(self.field, self.diameter, self.table ^ 1)

    def anf(self) -> "Anf":
        if self.field.q != 2:
            raise ValueError("the algebraic normal form is defined for binary rules only")
        return Anf(self.diameter, mobius_transform(self.table))

    def to_rule(self) -> "LocalRule":
        """The rule itself: a LocalRule already is its lookup table (see
        LinearRule.to_rule)."""
        return self

    def as_linear(self):
        """The LinearRule computing the same table, or None.

        Binary rules go through the ANF; over a general field, additivity and
        homogeneity are checked exhaustively and the coefficients read off the
        unit vectors.
        """
        res = self.as_affine()
        if res is None:
            return None
        lr, constant = res
        return lr if constant == 0 else None

    def as_affine(self):
        """(LinearRule, constant) such that f = linear + constant, or None."""
        f, q, d = self.field, self.field.q, self.diameter
        constant = int(self.table[0])
        if q == 2:
            # affine iff the ANF has no monomial beyond the constant and the
            # d single variables: zero those d + 1 places and test the rest
            anf = mobius_transform(self.table)
            coeffs = tuple(int(anf[1 << (d - i)]) for i in range(1, d + 1))
            anf[[0, *(1 << j for j in range(d))]] = 0
            if anf.any():
                return None
            return LinearRule(f, coeffs), constant
        # strip the constant, then check f0(x + y) = f0(x) + f0(y) exhaustively
        shift = f.sub_array(self.table.astype(np.int64), constant)
        coeffs = tuple(int(shift[q ** (d - i)]) for i in range(1, d + 1))
        if LinearRule(f, coeffs).to_rule().table.tobytes() != shift.astype(self.table.dtype).tobytes():
            return None
        return LinearRule(f, coeffs), constant


@dataclass(frozen=True)
class LinearRule:
    """Rule f(x_1, ..., x_d) = a_1 x_1 + ... + a_d x_d over GF(q)."""

    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.field.check(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a linear rule needs at least one coefficient")

    @property
    def diameter(self) -> int:
        return len(self.coeffs)

    @property
    def is_bipermutive(self) -> bool:
        return self.coeffs[0] != 0 and self.coeffs[-1] != 0

    def polynomial(self) -> Poly:
        """Associated polynomial a_1 + a_2 X + ... + a_d X^(d-1)."""
        return Poly(self.field, self.coeffs)

    def as_linear(self) -> "LinearRule":
        """The rule itself, as LocalRule.as_linear reads it off a table."""
        return self

    def as_affine(self) -> tuple["LinearRule", int]:
        """(self, 0), as LocalRule.as_affine reads it off a table."""
        return self, 0

    def __call__(self, *neighborhood) -> int:
        if len(neighborhood) == 1 and not isinstance(neighborhood[0], (int, np.integer)):
            neighborhood = tuple(neighborhood[0])
        f = self.field
        acc = 0
        for a, x in zip(self.coeffs, neighborhood, strict=True):
            acc = f.add(acc, f.mul(a, f.check(x)))
        return acc

    def to_rule(self) -> LocalRule:
        """Materialize the lookup table (cap MAX_TABLE_CELLS entries) as the
        sum of two partial tables, over the leading and over the trailing
        half of the neighborhood, _CHUNK entries at a time.  One path for
        every size: against one partial table over all d cells it took half
        the time or less over GF(2) and GF(3) from 2^10 to 2^20 entries, and
        at most 4 us more at 2^8 entries or fewer (2-core host)."""
        f, q, d = self.field, self.field.q, self.diameter
        _check_table_size(q, d)
        products = f.mul_array(np.array(self.coeffs, dtype=np.int64)[:, None], np.arange(q))
        high, low = _partial_sums(f, products[: d // 2]), _partial_sums(f, products[d // 2 :])
        table = np.empty((high.size, low.size), dtype=_table_dtype(q))
        rows = max(_CHUNK // low.size, 1)
        for lo in range(0, high.size, rows):
            table[lo : lo + rows] = f.add_array(high[lo : lo + rows, None], low[None, :])
        return LocalRule._trusted(f, d, table.ravel())


def _partial_sums(f: Field, products: np.ndarray) -> np.ndarray:
    """a_1 x_1 + ... + a_k x_k for every (x_1, ..., x_k), x_1 most significant,
    from the rows ``products[i, x] = a_(i+1) x``."""
    acc = products[0] if len(products) else np.zeros(1, dtype=np.int64)
    for row in products[1:]:
        acc = f.add_array(acc[:, None], row).ravel()
    return acc


def mobius_transform(table: np.ndarray) -> np.ndarray:
    """XOR Moebius transform over the subset lattice of the index bits.

    Involutive: applying it to a truth table yields the ANF coefficient
    vector, applying it again restores the table.
    """
    a = np.array(table, dtype=np.uint8)
    size = a.size
    if size & (size - 1):
        raise ValueError("table length must be a power of two")
    step = 1
    while step < size:
        a = a.reshape(-1, 2 * step)
        a[:, step:] ^= a[:, :step]
        a = a.ravel()
        step *= 2
    return a


@dataclass(frozen=True)
class Anf:
    """Algebraic normal form of a binary rule: coefficient a_u per monomial x^u.

    Monomial masks use the table convention: bit d-i of u marks variable x_i,
    so u = 0 is the constant term.
    """

    d: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.uint8)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def constant(self) -> int:
        return int(self.coeffs[0])

    @property
    def terms(self) -> tuple[int, ...]:
        """Monomial masks with nonzero coefficient, ascending."""
        return tuple(int(u) for u in np.flatnonzero(self.coeffs))

    @property
    def degree(self) -> int:
        """Largest monomial size (0 for constant functions)."""
        return max((int(u).bit_count() for u in self.terms), default=0)

    def term_variables(self, u: int) -> tuple[int, ...]:
        """1-based variable indices of monomial mask u."""
        return tuple(i for i in range(1, self.d + 1) if u >> (self.d - i) & 1)

    def to_table(self) -> np.ndarray:
        return mobius_transform(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Anf)
            and self.d == other.d
            and np.array_equal(self.coeffs, other.coeffs)
        )
