"""Linear algebra over GF(q): dense matrices, circulants, and the square
matrix obtained by stacking a linear CA's transition matrix on the one of its
transpose CA.

Invertibility is decided two ways on purpose: Gaussian elimination is the
ground-truth oracle, while circulants go through their associated polynomial
(the first row read as coefficients of c(X) in GF(q)[X]/(X^n - 1), a ring
isomorphism), where invertibility means gcd(c(X), X^n - 1) = 1.  Both paths
are kept so they can be audited against each other.

Entries are combined by the ``Field`` array methods, so one elimination
serves every field with q > 2.  GF(2) keeps its own, on rows packed into
Python ints (one XOR per row operation), which is 3-4x faster.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import Field
from .polynomials import Poly, gcd
from .rules import LinearRule


class Matrix:
    """Immutable dense matrix over a finite field."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data):
        arr = np.array(data, dtype=np.int64, order="C")
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise ValueError("entries must be field elements")
        arr.flags.writeable = False
        self.field = field
        self.data = arr

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.field, self.data.tobytes()))

    def __repr__(self):
        return f"Matrix({self.field.descriptor()}, {self.rows}x{self.cols})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.data[i])

    def is_invertible(self) -> bool:
        """Full rank by Gaussian elimination (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("invertibility requires a square matrix")
        if self.field.q == 2:
            return _invertible_gf2(self.data)
        return _invertible(self.data, self.field)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.data.tolist()) + "\n"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product over the common field."""
    if a.field != b.field:
        raise ValueError("operands live in different fields")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return Matrix(a.field, a.field.matmul_array(a.data, b.data))


def _invertible_gf2(data: np.ndarray) -> bool:
    # Rows as bitmasks: _invertible over GF(2) took 2.9-4.0x as long on the
    # stacked matrices of d = 8..40 (n = 14..78).
    n = data.shape[0]
    rows = [int.from_bytes(np.packbits(r.astype(np.uint8), bitorder="little").tobytes(), "little") for r in data]
    for c in range(n):
        bit = 1 << c
        piv = next((i for i in range(c, n) if rows[i] & bit), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        for i in range(n):
            if i != c and rows[i] & bit:
                rows[i] ^= rows[c]
    return True


def _invertible(data: np.ndarray, f: Field) -> bool:
    """Gauss-Jordan elimination over any GF(q), entries through Field arrays."""
    a = data.copy()
    n = a.shape[0]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i, c]), None)
        if piv is None:
            return False
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
        if a[c, c] != 1:
            a[c] = f.mul_array(f.inv(int(a[c, c])), a[c])
        rest = np.flatnonzero(a[:, c])
        rest = rest[rest != c]
        a[rest] = f.sub_array(a[rest], f.mul_array(a[rest, c][:, None], a[c][None, :]))
    return True


def swap_permutation_matrix(field: Field, n: int) -> Matrix:
    """Permutation exchanging the first and second halves of a length-n vector."""
    if n % 2:
        raise ValueError(f"half-swap needs an even size, got {n}")
    return Matrix(field, np.roll(np.eye(n, dtype=np.int64), n // 2, axis=1))


def transition_matrix(lr: LinearRule, n: int) -> Matrix:
    """(n-d+1)-by-n band matrix: row i carries a_1..a_d at columns i..i+d-1."""
    d = lr.diameter
    if n < d:
        raise ValueError(f"input length {n} is shorter than the diameter {d}")
    m = np.zeros((n - d + 1, n), dtype=np.int64)
    for i in range(n - d + 1):
        m[i, i : i + d] = lr.coeffs
    return Matrix(lr.field, m)


def transpose_ca_matrix(lr: LinearRule) -> Matrix:
    """Transition matrix of the transpose CA: the one of the CA itself with
    the left and right column halves swapped (closed form of the product
    with the half-swap permutation)."""
    if not lr.is_bipermutive:
        warnings.warn("rule is not bipermutive; the transpose-CA matrix is still defined", stacklevel=2)
    m = lr.diameter - 1
    base = transition_matrix(lr, 2 * m)
    return Matrix(lr.field, np.roll(base.data, m, axis=1))


def stacked_matrix(lr: LinearRule) -> Matrix:
    """2(d-1) square matrix: the CA transition matrix stacked on the
    transpose-CA one.  Invertibility decides self-orthogonality."""
    top = transition_matrix(lr, 2 * (lr.diameter - 1))
    bottom = transpose_ca_matrix(lr)
    return Matrix(lr.field, np.vstack([top.data, bottom.data]))


@dataclass(frozen=True)
class Circulant:
    """Circulant matrix over GF(q), held as its first row; each row is the
    cyclic right shift of the one above."""

    field: Field
    first_row: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "first_row", tuple(self.field.check(c) for c in self.first_row))
        if not self.first_row:
            raise ValueError("a circulant needs a nonempty first row")

    @property
    def n(self) -> int:
        return len(self.first_row)

    def __str__(self):
        return "circulant:" + ",".join(str(c) for c in self.first_row)

    def poly(self) -> Poly:
        """Associated polynomial c_1 + c_2 X + ... + c_n X^(n-1)."""
        return Poly(self.field, self.first_row)

    def to_matrix(self) -> Matrix:
        return Matrix(self.field, np.array(self.first_row, dtype=np.int64)[_circulant_index(self.n)])

    def __mul__(self, other: "Circulant") -> "Circulant":
        """Product via the associated polynomials mod X^n - 1."""
        if self.field != other.field or self.n != other.n:
            raise ValueError("circulant sizes or fields differ")
        p = (self.poly() * other.poly()) % x_pow_minus_one(self.field, self.n)
        return Circulant(self.field, p.coeffs + (0,) * (self.n - len(p.coeffs)))

    def is_invertible(self) -> bool:
        """Unit test in GF(q)[X]/(X^n - 1): gcd with X^n - 1 must be 1."""
        c = self.poly()
        if c.is_zero:
            return False
        return gcd(c, x_pow_minus_one(self.field, self.n)).degree == 0


def _circulant_index(n: int) -> np.ndarray:
    """Entry (i, j) of an n-circulant is first_row[(j - i) % n]."""
    i = np.arange(n)
    return (i[None, :] - i[:, None]) % n


def x_pow_minus_one(field: Field, n: int) -> Poly:
    """X^n - 1 over the given field."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Poly(field, (field.neg(1),) + (0,) * (n - 1) + (1,))


def circulant_of_stacked(lr: LinearRule) -> Circulant:
    """First row of the stacked matrix after verifying its circulant shape.

    The associated polynomial equals the rule's, embedded in degree < 2(d-1).
    A structural violation would mean an implementation bug, not bad input.
    """
    s = stacked_matrix(lr).data
    bad = np.argwhere(s != s[0][_circulant_index(s.shape[0])])
    if bad.size:
        i, j = bad[0]
        raise RuntimeError(f"stacked matrix is not circulant at ({i}, {j})")
    return Circulant(lr.field, tuple(int(v) for v in s[0]))


def pbca_transition_matrix(lr: LinearRule, n: int) -> Circulant:
    """n-by-n transition matrix of the rule run with periodic boundaries:
    the circulant with first row (a_1, ..., a_d, 0, ..., 0)."""
    d = lr.diameter
    if n < d:
        raise ValueError(f"ring length {n} is shorter than the diameter {d}")
    return Circulant(lr.field, lr.coeffs + (0,) * (n - d))


def sylvester_resultant(p: Poly, g: Poly) -> tuple[Matrix, bool]:
    """Stacked transition matrices of two equal-degree polynomials and their
    coprimality, decided by elimination rank and cross-checked against the gcd.

    Models a pair of diameter-d rules (d = deg + 1): each block is the
    (d-1)-by-2(d-1) band of shifted coefficients; the square stack is
    invertible exactly when the polynomials share no factor.
    """
    if p.field != g.field:
        raise ValueError("operands live in different fields")
    dp, dg = p.degree, g.degree
    if dp != dg or not isinstance(dp, int) or dp < 1:
        raise ValueError(f"need two polynomials of equal degree >= 1, got {dp} and {dg}")
    field = p.field
    top = transition_matrix(LinearRule(field, p.coeffs), 2 * dp)
    bottom = transition_matrix(LinearRule(field, g.coeffs), 2 * dp)
    stack = Matrix(field, np.vstack([top.data, bottom.data]))
    coprime = stack.is_invertible()
    if coprime != (gcd(p, g).degree == 0):
        raise RuntimeError("elimination rank disagrees with the polynomial gcd")
    return stack, coprime
