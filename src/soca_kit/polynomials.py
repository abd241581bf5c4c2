"""Univariate polynomial arithmetic over a finite field.

Coefficients are stored in ascending degree order (``coeffs[i]`` multiplies
X^i) and normalized so the last coefficient is nonzero; the zero polynomial
has an empty coefficient tuple and degree -inf.

GF(2)[X] arithmetic lives in one place: the bitmask routines below
(``mask_mul``, ``mask_mod``, ``mask_gcd``, ``mask_is_irreducible``).  GF(2)
``gcd`` and ``is_irreducible`` and the GF(2^k) log tables run on them; the
coefficient-tuple code is the path for q > 2.

Both gcds keep remainders only (``mask_gcd``; ``_reduce`` on coefficient
lists).  The public constructor checks every coefficient; ring operations
build their results, elements already, through ``Poly._trusted``, and their
inner loop is ``Field._addmul``.
"""

from __future__ import annotations

import itertools
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # fields imports the mask routines from here
    from .fields import Field

NEG_INF = float("-inf")

ENUMERATION_CAP = 1 << 20  # largest q^m the exhaustive irreducibility oracle will scan
# Highest degree parse_poly accepts; it bounds the work of one `poly` query.
# Rabin's test is cubic in the degree: at degree 509 it took 0.1 s over GF(2)
# on bitmasks (2-core host).  For q > 2 the worst cases are the largest
# fields, GF(2^16) and GF(65521): a dense polynomial of degree 53 with no root
# runs the whole chain in 1.8-2.2 s over either (GF(3): about 0.1 s).
MAX_PARSE_DEGREE = 512
MAX_PARSE_DEGREE_Q = 53


class Poly:
    """Immutable univariate polynomial over a :class:`~soca_kit.fields.Field`."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        self._set(field, [field.check(c) for c in coeffs])

    def _set(self, field: Field, cs: list) -> None:
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, field: Field, cs: list) -> "Poly":
        """Poly of coefficients that field operations produced, so already
        elements: the public constructor's check of each one is skipped."""
        p = object.__new__(cls)
        p._set(field, cs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def x_pow(cls, field: Field, n: int) -> "Poly":
        return cls(field, (0,) * n + (1,))

    @classmethod
    def from_mask(cls, field: Field, mask: int) -> "Poly":
        """GF(2) polynomial from its ascending-coefficient bitmask."""
        if field.q != 2:
            raise ValueError("bitmask form is defined over GF(2) only")
        return cls._trusted(field, [(mask >> i) & 1 for i in range(mask.bit_length())])

    # -- basic structure -----------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (of the zero polynomial: 0)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def to_mask(self) -> int:
        if self.field.q != 2:
            raise ValueError("bitmask form is defined over GF(2) only")
        return sum(c << i for i, c in enumerate(self.coeffs))

    def code(self) -> int:
        """Coefficients read as a radix-q integer; a total order on polynomials."""
        q = self.field.q
        n = 0
        for c in reversed(self.coeffs):
            n = n * q + c
        return n

    # -- ring operations -----------------------------------------------------

    def _same_field(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or other.field != self.field:
            raise ValueError("operands live in different fields")

    def _combine(self, other: "Poly", c: int) -> "Poly":
        """self + c * other."""
        self._same_field(other)
        a, b = list(self.coeffs), list(other.coeffs)
        a += [0] * (len(b) - len(a))
        b += [0] * (len(a) - len(b))
        return Poly._trusted(self.field, self.field._addmul(c, a, b))

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, self.field.neg(1))

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.field, [self.field.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f, b = self.field, other.coeffs
        out = [0] * max(len(self.coeffs) + len(b) - 1, 0)
        for i, a in enumerate(self.coeffs):
            if a:
                out[i : i + len(b)] = f._addmul(a, out[i : i + len(b)], b)
        return Poly._trusted(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        c = f.check(c)
        return Poly._trusted(f, [f.mul(c, a) for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        quo = [0] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = self._rem(other, quo)
        return Poly._trusted(self.field, quo), rem

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self._rem(other, None)

    def _rem(self, other: "Poly", quo: list | None) -> "Poly":
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        return Poly._trusted(self.field, _reduce(self.field, list(self.coeffs), other.coeffs, quo))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        r, b = Poly.one(self.field), self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __call__(self, x: int) -> int:
        """Horner evaluation at a field element."""
        f = self.field
        f.check(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def monic(self) -> "Poly":
        if self.is_zero or self.lc == 1:
            return self
        return self.scale(self.field.inv(self.lc))

    # -- text form ------------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "x" if i == 1 else f"x^{i}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return "+".join(terms)

    def __repr__(self):
        return f"Poly({self.field.descriptor()}, {self})"


def _reduce(field: Field, rem: list, b: tuple, quo: list | None = None) -> list:
    """rem mod b, computed in place on the coefficient list rem (b normalized,
    nonzero).  Each step cancels the leading term with one pass over b; the
    quotient's coefficients are written to quo only when it is given."""
    db, head = len(b) - 1, b[:-1]
    ninv, mul, addmul = field.neg(field.inv(b[-1])), field.mul, field._addmul
    for s in range(len(rem) - len(b), -1, -1):
        if c := rem[s + db]:
            c = mul(c, ninv)
            rem[s : s + db] = addmul(c, rem[s : s + db], head)
            if quo is not None:
                quo[s] = field.neg(c)
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(a, 0) = monic(a).  Euclid keeps
    remainders only: on bitmasks over GF(2), on coefficient lists otherwise."""
    if a.field != b.field:
        raise ValueError("operands live in different fields")
    f = a.field
    if f.q == 2:
        return Poly.from_mask(f, mask_gcd(a.to_mask(), b.to_mask()))
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        a, b = b, _reduce(f, a, b)
    return Poly._trusted(f, a).monic()


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base**e reduced modulo mod."""
    r = Poly.one(base.field)
    b = base % mod
    while e:
        if e & 1:
            r = (r * b) % mod
        b = (b * b) % mod
        e >>= 1
    return r


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(a: Poly) -> bool:
    """Deterministic Rabin criterion for irreducibility over GF(q)."""
    if a.field.q == 2:
        return mask_is_irreducible(a.to_mask())
    m = a.degree
    if m is NEG_INF or m < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    # the chain and checkpoints of mask_is_irreducible, on coefficient tuples
    x = Poly.x(a.field) % a
    checkpoints = {m // r for r in _prime_factors(m)}
    h = x
    for k in range(1, m + 1):
        h = pow_mod(h, a.field.q, a)
        if k in checkpoints and gcd(h - x, a).degree != 0:
            return False
    return h == x


def _all_polys_of_degree(field: Field, m: int, monic: bool):
    """Yield every (monic) polynomial of exact degree m, ascending by code."""
    q = field.q
    leads = (1,) if monic else tuple(range(1, q))
    for lead in leads:
        for lower in itertools.product(range(q), repeat=m):
            # itertools.product varies the last position fastest; we want the
            # low-degree coefficients to vary fastest for ascending codes.
            yield Poly(field, lower[::-1] + (lead,))


def irreducibles_of_degree(field: Field, m: int) -> list[Poly]:
    """All monic irreducible polynomials of degree m, by exhaustive trial division.

    This is deliberately independent of :func:`is_irreducible` and serves as
    its oracle in the test suite.
    """
    if not 1 <= m <= 10:
        raise ValueError(f"degree {m} outside the supported range 1..10")
    if field.q**m > ENUMERATION_CAP:
        raise ValueError(f"{field.q}^{m} candidates exceed the enumeration cap")
    divisors = []
    for k in range(1, m // 2 + 1):
        divisors.extend(_all_polys_of_degree(field, k, monic=True))
    out = []
    for cand in _all_polys_of_degree(field, m, monic=True):
        if not any((cand % d).is_zero for d in divisors):
            out.append(cand)
    # product order above is not the code order; sort canonically
    out.sort(key=Poly.code)
    return out


# -- GF(2)[X] on bitmasks -------------------------------------------------------
# Polynomials over GF(2) as plain ints, bit i = coefficient of X^i.  The only
# GF(2)[X] arithmetic in the package; cross-validated against tuple oracles in
# the tests.


def mask_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def mask_mod(a: int, b: int) -> int:
    """a mod b, remainder only."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    while (s := a.bit_length() - db) >= 0:
        a ^= b << s
    return a


def mask_gcd(a: int, b: int) -> int:
    """Euclid on remainders only: no quotient bits, no call per step."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        db = b.bit_length()
        while (s := a.bit_length() - db) >= 0:
            a ^= b << s
        a, b = b, a
    return a


def mask_is_irreducible(f: int) -> bool:
    """Rabin's test over GF(2): one chain of X^(2^k) mod f, coprime to f with
    X^(2^k) - X at k = m/r for each prime r | m, and X^(2^m) = X mod f."""
    m = f.bit_length() - 1
    if m < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    x = mask_mod(0b10, f)
    checkpoints = {m // r for r in _prime_factors(m)}
    h = x
    for k in range(1, m + 1):
        h = mask_mod(mask_mul(h, h), f)
        if k in checkpoints and mask_gcd(f, h ^ x) != 1:
            return False
    return h == x


# -- parsing and formatting ----------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)\*?)?x(?:\^(\d+))?$|^(\d+)$")


def parse_poly(field: Field, text: str) -> Poly:
    """Parse "1+x^2+x^3" style text, or a GF(2) compact bit string like "1101".

    Monomials are '+'-separated, case-insensitive, in any order; coefficients
    are written "c*x^i" (the '*' may be omitted).  The compact form lists
    ascending-degree coefficients.  A term above degree MAX_PARSE_DEGREE
    (MAX_PARSE_DEGREE_Q for q > 2) is rejected before any coefficient list is
    built.
    """
    s = text.strip().lower().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if field.q == 2 and re.fullmatch(r"[01]+", s):
        coeffs = {i: 1 for i, c in enumerate(s) if c == "1"}
    else:
        coeffs = {}
        for term in s.split("+"):
            m = _TERM_RE.match(term)
            if not m:
                raise ValueError(f"cannot parse polynomial term {term!r}")
            if m.group(3) is not None:
                c, e = int(m.group(3)), 0
            else:
                c = int(m.group(1)) if m.group(1) else 1
                e = int(m.group(2)) if m.group(2) else 1
            field.check(c)
            coeffs[e] = field.add(coeffs.get(e, 0), c)
    n = max(coeffs, default=-1) + 1
    cap = MAX_PARSE_DEGREE if field.q == 2 else MAX_PARSE_DEGREE_Q
    if n > cap + 1:
        over = "" if field.q == 2 else " for q > 2"
        raise ValueError(f"term x^{n - 1} exceeds the degree cap of {cap}{over}")
    return Poly(field, (coeffs.get(i, 0) for i in range(n)))
