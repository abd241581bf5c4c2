"""Exact arithmetic for finite-field alphabets GF(q) with q = p^k a prime power.

Elements are plain integers in ``0..q-1``.  For a prime field the integer is
the residue mod p.  For a binary extension field (p = 2, k > 1) it is the bit
vector of a polynomial residue modulo an irreducible polynomial of degree k,
least-significant bit = constant term.  The modulus defaults to the smallest
irreducible polynomial of degree k, which ``_default_modulus`` derives on
first use rather than reading from a table.  Elements are multiplied through
one pair of log/antilog tables per field, which the GF(2)[X] mask routines of
:mod:`soca_kit.polynomials` build.  The tables are zero-safe, so one lookup
multiplies every pair of elements, zeros included.

Arithmetic on integer arrays of elements lives here too (the ``*_array``
methods): mod p in a prime field; XOR and numpy copies of the same log
tables in characteristic 2.  No other module tells the two kinds of field
apart to combine elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import re

import numpy as np

from .polynomials import _prime_factors, mask_is_irreducible, mask_mod, mask_mul

MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


@dataclass(frozen=True)
class Field:
    """A finite field GF(p^k); prime fields for any prime p, extensions for p = 2.

    ``modulus`` holds the ascending coefficients of the degree-k reduction
    polynomial over GF(p); it is empty for prime fields and, when omitted for
    an extension field, filled with ``_default_modulus(k)``.
    """

    p: int
    k: int = 1
    modulus: tuple[int, ...] = ()

    def __post_init__(self):
        # the order first, since is_prime factors p by trial division; for
        # p >= 2 an exponent of 17 already exceeds the cap, so p^k is not
        # computed for larger k
        if self.k < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.k}")
        if self.p ** min(self.k, MAX_ORDER.bit_length()) > MAX_ORDER:
            raise ValueError(f"field order {self.p}^{self.k} exceeds {MAX_ORDER}")
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.k == 1:
            if self.modulus:
                raise ValueError("a prime field takes no modulus")
            object.__setattr__(self, "modulus", ())
            return
        if self.p != 2:
            raise ValueError("extension fields are supported only in characteristic 2")
        if not self.modulus:
            mask = _default_modulus(self.k)
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

    @cached_property
    def q(self) -> int:
        """Field order p^k."""
        return self.p**self.k

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
        exp, log = self._logs
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.descriptor()}")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        exp, log = self._logs
        return exp[self.q - 1 - log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        exp, log = self._logs
        return exp[log[a] * e % (self.q - 1)] if a else 0**e

    def _addmul(self, c: int, xs, ys) -> list[int]:
        """The list [x + c*y for x, y in zip(xs, ys)]: the inner loop of
        polynomial arithmetic, mod p or through the log tables.
        Dense q-by-q tables measured no faster for GF(3) and GF(4) counts,
        and building them for GF(2^8) took 25 ms of a one-rule `check`."""
        if self.k == 1:
            p = self.p
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        exp, log = self._logs
        lc = log[c]
        return [x ^ exp[lc + log[y]] for x, y in zip(xs, ys)]

    @cached_property
    def _modulus_mask(self) -> int:
        return sum(c << i for i, c in enumerate(self.modulus))

    @cached_property
    def _logs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _log_tables(self.k, self._modulus_mask)

    @cached_property
    def _log_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.array(t, dtype=np.int64) for t in self._logs)

    # -- integer arrays of elements (int64, or Python ints) -------------------

    def add_array(self, a, b) -> np.ndarray:
        return (a + b) % self.p if self.k == 1 else np.bitwise_xor(a, b)

    def sub_array(self, a, b) -> np.ndarray:
        return (a - b) % self.p if self.k == 1 else np.bitwise_xor(a, b)

    def mul_array(self, a, b) -> np.ndarray:
        if self.k == 1:
            return a * b % self.p
        exp, log = self._log_arrays
        return exp[log[a] + log[b]]

    def matmul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product.  A prime field takes numpy's @ and reduces once: a
        broadcast product and sum took 2.3-2.6x as long at n = 16 and 78."""
        if self.k == 1:
            return a @ b % self.p
        exp, log = self._log_arrays
        return np.bitwise_xor.reduce(exp[log[a][:, :, None] + log[b][None, :, :]], axis=1)

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


@lru_cache(maxsize=None)
def _default_modulus(k: int) -> int:
    """The smallest irreducible polynomial of degree k over GF(2), the usual
    default modulus (Lidl & Niederreiter, *Finite Fields*, ch. 3), as an
    ascending-coefficient mask: the first odd mask from X^k + 1 up that
    Rabin's test accepts.  Found on first use, never at import; all of
    k = 2..16 take under 2 ms together (2-core host)."""
    return next(f for f in range((1 << k) | 1, 2 << k, 2) if mask_is_irreducible(f))


@lru_cache(maxsize=None)
def _log_tables(k: int, modulus: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Zero-safe antilog and log tables of GF(2^k) to the first generator g of
    its multiplicative group: exp[i] = g^i and log[exp[i]] = i for i < q - 1.
    exp runs twice round the group, then 2(q - 1) + 1 zeros, and log[0] is
    2(q - 1), so exp[log a + log b] = a*b for every pair, zeros included,
    with no reduction and no branch.  g is found by testing g^((q-1)/r) != 1
    for the primes r | q - 1, and each power is two lookups in tables of g
    times a byte, so GF(2^16) takes about 25 ms, once per field (orbit by
    orbit: 0.1 s)."""
    q = 1 << k

    def mulmod(a: int, b: int) -> int:
        return mask_mod(mask_mul(a, b), modulus)

    def power(a: int, e: int) -> int:
        r = 1
        while e:
            r, a, e = mulmod(r, a) if e & 1 else r, mulmod(a, a), e >> 1
        return r

    g = next(g for g in range(2, q) if all(power(g, (q - 1) // r) != 1 for r in _prime_factors(q - 1)))
    low, high = [mulmod(b, g) for b in range(min(q, 256))], [mulmod(b << 8, g) for b in range(max(q >> 8, 1))]
    exp = [1]
    for _ in range(q - 2):
        exp.append(low[exp[-1] & 255] ^ high[exp[-1] >> 8])
    log = [2 * (q - 1)] * q
    for i, x in enumerate(exp):
        log[x] = i
    return tuple(exp * 2 + [0] * (2 * (q - 1) + 1)), tuple(log)


_FIELD_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)(?:/([01]+))?$", re.IGNORECASE)


def parse_field(text: str) -> Field:
    """Parse a field descriptor such as "GF(2)", "GF(4)" or "GF(2^3)/1101"."""
    m = _FIELD_RE.match(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse field descriptor {text!r}")
    base, exp, mod = int(m.group(1)), m.group(2), m.group(3)
    if exp is not None:
        p, k = base, int(exp)
    else:
        # the order written as a plain integer, e.g. GF(3) or GF(4); refused
        # before it is factored by trial division
        if base > MAX_ORDER:
            raise ValueError(f"field order {base} exceeds {MAX_ORDER}")
        primes = _prime_factors(base)
        if len(primes) != 1:
            raise ValueError(f"{base} is not a prime power")
        p, k = primes[0], 1
        while p**k < base:
            k += 1
    modulus = tuple(int(c) for c in mod) if mod else ()
    return Field(p, k, modulus)


GF2 = Field(2)
GF3 = Field(3)
