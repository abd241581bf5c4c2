"""Exact arithmetic for finite-field alphabets GF(q) with q = p^k a prime power.

Elements are plain integers in ``0..q-1``.  For a prime field the integer is
the residue mod p.  For a binary extension field (p = 2, k > 1) it is the bit
vector of a polynomial residue modulo a fixed irreducible polynomial of
degree k, least-significant bit = constant term, multiplied and reduced with
the GF(2)[X] mask routines of :mod:`soca_kit.polynomials`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import re

import numpy as np

from .polynomials import mask_divmod, mask_is_irreducible, mask_mul

MAX_ORDER = 1 << 16

# Ascending-coefficient bitmask (bit i = coefficient of x^i) of the smallest
# irreducible polynomial of each degree over GF(2).
DEFAULT_MODULI = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
    13: 0b10000000011011,
    14: 0b100000000100001,
    15: 0b1000000000000011,
    16: 0b10000000000101011,
}

_TABLE_LIMIT = 256  # largest q for which dense q-by-q op tables are built


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A finite field GF(p^k); prime fields for any prime p, extensions for p = 2.

    ``modulus`` holds the ascending coefficients of the degree-k reduction
    polynomial over GF(p); it is empty for prime fields and filled with a
    built-in default when omitted for an extension field.
    """

    p: int
    k: int = 1
    modulus: tuple[int, ...] = ()

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.k < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.k}")
        if self.p**self.k > MAX_ORDER:
            raise ValueError(f"field order {self.p}^{self.k} exceeds {MAX_ORDER}")
        if self.k == 1:
            object.__setattr__(self, "modulus", ())
            return
        if self.p != 2:
            raise ValueError("extension fields are supported only in characteristic 2")
        if not self.modulus:
            if self.k not in DEFAULT_MODULI:
                raise ValueError(f"no built-in modulus for degree {self.k}; pass one explicitly")
            mask = DEFAULT_MODULI[self.k]
            object.__setattr__(self, "modulus", tuple((mask >> i) & 1 for i in range(self.k + 1)))
            return
        mod = tuple(int(c) for c in self.modulus)
        if len(mod) != self.k + 1 or mod[-1] != 1 or any(c not in (0, 1) for c in mod):
            raise ValueError("modulus must list ascending GF(2) coefficients of degree k")
        if mod[0] == 0:
            raise ValueError("modulus must have a nonzero constant term")
        object.__setattr__(self, "modulus", mod)
        if not mask_is_irreducible(self._modulus_mask):
            raise ValueError(f"modulus {self.descriptor_modulus()} is reducible over GF(2)")

    @property
    def q(self) -> int:
        """Field order p^k."""
        return self.p**self.k

    @property
    def char(self) -> int:
        return self.p

    def elements(self) -> range:
        return range(self.q)

    def check(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or isinstance(a, bool) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of {self.descriptor()}")
        return int(a)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return a ^ b

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return a

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return mask_divmod(mask_mul(a, b), self._modulus_mask)[1]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.descriptor()}")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    @cached_property
    def _modulus_mask(self) -> int:
        return sum(c << i for i, c in enumerate(self.modulus))

    @cached_property
    def mul_table(self) -> np.ndarray:
        """Dense q-by-q multiplication table, available for q <= 256."""
        if self.q > _TABLE_LIMIT:
            raise ValueError(f"no dense table for order {self.q} > {_TABLE_LIMIT}")
        t = np.zeros((self.q, self.q), dtype=np.int64)
        for a in range(self.q):
            for b in range(a, self.q):
                t[a, b] = t[b, a] = self.mul(a, b)
        t.flags.writeable = False
        return t

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Inverse of every nonzero element (index 0 unused), for q <= 256."""
        if self.q > _TABLE_LIMIT:
            raise ValueError(f"no dense table for order {self.q} > {_TABLE_LIMIT}")
        t = np.zeros(self.q, dtype=np.int64)
        for a in range(1, self.q):
            t[a] = self.inv(a)
        t.flags.writeable = False
        return t

    # -- text form ----------------------------------------------------------

    def descriptor_modulus(self) -> str:
        return "".join(str(c) for c in self.modulus)

    def descriptor(self) -> str:
        """Canonical descriptor: "GF(q)" or "GF(2^k)/<ascending modulus bits>"."""
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF(2^{self.k})/{self.descriptor_modulus()}"

    def __repr__(self):
        return f"Field({self.descriptor()!r})"


_FIELD_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)(?:/([01]+))?$", re.IGNORECASE)


def parse_field(text: str) -> Field:
    """Parse a field descriptor such as "GF(2)", "GF(4)" or "GF(2^3)/1101"."""
    m = _FIELD_RE.match(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse field descriptor {text!r}")
    base, exp, mod = int(m.group(1)), m.group(2), m.group(3)
    if exp is not None:
        p, k = base, int(exp)
    elif is_prime(base):
        p, k = base, 1
    else:
        # prime-power order written as a plain integer, e.g. GF(4)
        p = next((d for d in range(2, base + 1) if base % d == 0), base)
        k = 0
        n = base
        while n > 1:
            if n % p:
                raise ValueError(f"{base} is not a prime power")
            n //= p
            k += 1
    modulus = tuple(int(c) for c in mod) if mod else ()
    return Field(p, k, modulus)


GF2 = Field(2)
GF3 = Field(3)
