"""Reference answers for the benchmark's correctness checks.

Everything here is written apart from ``soca_kit`` and imports nothing from
it: the paper's published tables, a GF(2) bitmask gcd and Rabin test, a
closed-form count of self-orthogonal linear rules, and a superposition check
that builds the Cayley grid from the definition.  The benchmark compares the
program's outputs with these, never with a saved copy of an earlier output.

Conventions shared with the paper (not with any code of the program): a local
rule of diameter d over GF(q) is its lookup table indexed by the neighbourhood
(x_1, ..., x_d) read as a radix-q number with x_1 most significant; the
associated polynomial of a_1 x_1 + ... + a_d x_d is a_1 + a_2 X + ... +
a_d X^(d-1); GF(4) is GF(2)[X]/(X^2 + X + 1) with element b_0 + 2 b_1 for
b_0 + b_1 X.
"""

from __future__ import annotations

import itertools

import numpy as np

# Table 1 of the paper: GF(2) census per diameter.  Polynomials are given by
# their exponent sets, in ascending order of the coefficient code.
PAPER_TABLE1 = {
    3: {"bipermutive": 4, "soca": 2, "linear": 1, "affine": 2, "polys": ((0, 1, 2),)},
    4: {"bipermutive": 16, "soca": 4, "linear": 2, "affine": 4, "polys": ((0, 1, 3), (0, 2, 3))},
    5: {
        "bipermutive": 256,
        "soca": 8,
        "linear": 4,
        "affine": 8,
        "polys": ((0, 1, 4), (0, 2, 4), (0, 3, 4), (0, 1, 2, 3, 4)),
    },
    6: {
        "bipermutive": 65536,
        "soca": 16,
        "linear": 8,
        "affine": 16,
        "polys": (
            (0, 1, 5),
            (0, 2, 5),
            (0, 3, 5),
            (0, 1, 2, 3, 5),
            (0, 4, 5),
            (0, 1, 2, 4, 5),
            (0, 1, 3, 4, 5),
            (0, 2, 3, 4, 5),
        ),
    },
}

# Table 2 of the paper: self-orthogonal linear rules over GF(2) per diameter.
PAPER_TABLE2 = {
    3: 1, 4: 2, 5: 4, 6: 8, 7: 12, 8: 24, 9: 64, 10: 94,
    11: 240, 12: 512, 13: 768, 14: 2048, 15: 3136, 16: 5062,
}

_GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def characteristic(q: int) -> int:
    if q not in (2, 3, 4):
        raise ValueError(f"the oracles cover q in 2, 3, 4, got {q}")
    return 3 if q == 3 else 2


def field_add(q: int, a: int, b: int) -> int:
    return (a + b) % 3 if q == 3 else a ^ b


def field_mul(q: int, a: int, b: int) -> int:
    if q == 4:
        return _GF4_MUL[a][b]
    return a * b % q


# -- GF(2) polynomials as ints, bit i = coefficient of X^i ---------------------


def mask_mod(a: int, b: int) -> int:
    nb = b.bit_length()
    while a.bit_length() >= nb:
        a ^= b << (a.bit_length() - nb)
    return a


def mask_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mask_mod(a, b)
    return a


def _mask_mulmod(a: int, b: int, f: int) -> int:
    top = f.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> top & 1:
            a ^= f
    return r


def _prime_divisors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]


def mask_is_irreducible(f: int) -> bool:
    """Rabin's test over GF(2): X^(2^n) = X mod f, and X^(2^(n/r)) - X is
    coprime to f for every prime r dividing n = deg f."""
    n = f.bit_length() - 1
    if n < 1:
        return False
    if n == 1:
        return True
    frob = [2]  # frob[k] = X^(2^k) mod f
    for _ in range(n):
        frob.append(_mask_mulmod(frob[-1], frob[-1], f))
    if frob[n] != 2:
        return False
    return all(mask_gcd(f, frob[n // r] ^ 2) == 1 for r in _prime_divisors(n))


def mask_of(coeffs) -> int:
    return sum(int(c) << i for i, c in enumerate(coeffs))


def gf2_linear_soca(coeffs) -> bool:
    """Over GF(2) the rule is self-orthogonal iff gcd(p_f, X^(d-1) + 1) = 1."""
    m = len(coeffs) - 1
    return mask_gcd(mask_of(coeffs), (1 << m) | 1) == 1


def table1_polys(d: int) -> list[tuple[int, ...]]:
    """Exponent sets of the strict-linear self-orthogonal rules of diameter d
    over GF(2), ascending by coefficient code, from the bitmask gcd."""
    m = d - 1
    out = []
    for central in range(1 << (m - 1)):
        p = 1 | central << 1 | 1 << m
        if mask_gcd(p, (1 << m) | 1) == 1:
            out.append(tuple(i for i in range(m + 1) if p >> i & 1))
    return out


# -- closed-form counts ---------------------------------------------------------


def _coset_sizes(q: int, n: int) -> list[int]:
    """Sizes of the q-cyclotomic cosets modulo n, i.e. the degrees of the
    irreducible factors of X^n - 1 over GF(q) when gcd(n, q) = 1."""
    seen = [False] * n
    sizes = []
    for a in range(n):
        size, b = 0, a
        while not seen[b]:
            seen[b] = True
            b = b * q % n
            size += 1
        if size:
            sizes.append(size)
    return sizes


def linear_soca_count(q: int, d: int) -> int:
    """Number of linear bipermutive rules of diameter d over GF(q) whose
    polynomial is coprime to X^(2(d-1)) - 1.

    Inclusion-exclusion over the squarefree divisors h of the radical of
    X^(2m) - 1, m = d - 1: count = sum over h of mu(h) N(m - deg h), where
    N(k) counts polynomials of exact degree k with a nonzero constant term.
    Only the factor degrees matter, so the sum is read off the product of
    (1 - t^deg) over the factors.
    """
    p = characteristic(q)
    m = d - 1
    if m < 1:
        raise ValueError("linear bipermutive rules need diameter >= 2")
    n = 2 * m
    while n % p == 0:
        n //= p
    series = [1]
    for s in _coset_sizes(q, n):
        nxt = series + [0] * s
        for j, c in enumerate(series):
            nxt[j + s] -= c
        series = nxt

    def exact(k: int) -> int:
        if k < 0:
            return 0
        return q - 1 if k == 0 else (q - 1) ** 2 * q ** (k - 1)

    return sum(c * exact(m - j) for j, c in enumerate(series))


def linear_rule_space(q: int, d: int) -> int:
    """Linear bipermutive rules of diameter d: a_1 and a_d nonzero."""
    return (q - 1) ** 2 * q ** (d - 2)


# -- superposition from the definition ------------------------------------------


def linear_table(q: int, coeffs) -> np.ndarray:
    """Lookup table of a_1 x_1 + ... + a_d x_d."""
    d = len(coeffs)
    idx = np.arange(q**d)
    out = np.zeros(q**d, dtype=np.int64)
    for s, a in enumerate(coeffs):
        digit = idx // q ** (d - 1 - s) % q
        prod = np.array([field_mul(q, a, x) for x in range(q)])[digit]
        out = (out + prod) % 3 if q == 3 else out ^ prod
    return out


def cayley_grid(q: int, table) -> np.ndarray:
    """The rule's Cayley grid from the definition: cell (i, j) holds the
    no-boundary image of block i followed by block j.  Blocks and symbols are
    numbered from 0 with the first cell as the least significant digit."""
    table = np.asarray(table, dtype=np.int64)
    d = round(np.log(table.size) / np.log(q))
    m = d - 1
    n = q**m
    word = np.arange(n * n)
    left, right = word // n, word % n
    cells = [left // q**k % q for k in range(m)] + [right // q**k % q for k in range(m)]
    out = np.zeros(n * n, dtype=np.int64)
    for t in range(m):
        nbhd = np.zeros(n * n, dtype=np.int64)
        for s in range(d):
            nbhd = nbhd * q + cells[t + s]
        out += table[nbhd] * q**t
    return out.reshape(n, n)


def superposition_soca(q: int, table) -> bool:
    """Superpose the grid on its transpose: every ordered pair exactly once?"""
    grid = cayley_grid(q, table)
    n = grid.shape[0]
    return np.unique(grid * n + grid.T).size == n * n


def repeats_pair(q: int, table, cell1, cell2) -> bool:
    """Do two 1-based grid cells carry the same pair of the grid and its
    transpose?  That certifies a negative verdict."""
    grid = cayley_grid(q, table)
    (r1, c1), (r2, c2) = (tuple(x - 1 for x in c) for c in (cell1, cell2))
    return (r1, c1) != (r2, c2) and grid[r1, c1] == grid[r2, c2] and grid[c1, r1] == grid[c2, r2]


def affine_parts(q: int, table):
    """(coefficients, constant) if the table is an affine map, else None."""
    table = [int(v) for v in table]
    d = round(np.log(len(table)) / np.log(q))
    const = table[0]
    neg = const if q != 3 else (3 - const) % 3
    coeffs = tuple(field_add(q, table[q ** (d - 1 - s)], neg) for s in range(d))
    lin = linear_table(q, coeffs)
    if all(field_add(q, int(lin[i]), const) == v for i, v in enumerate(table)):
        return coeffs, const
    return None


def latin_squares(q: int) -> list[tuple[int, ...]]:
    """Every Latin square of order q, row-major."""
    rows = list(itertools.permutations(range(q)))
    return [
        tuple(itertools.chain.from_iterable(sq))
        for sq in itertools.product(rows, repeat=q)
        if all(len({r[c] for r in sq}) == q for c in range(q))
    ]


def census(q: int, d: int) -> dict:
    """Census of every bipermutive rule f = L_c(x_1, x_d) with one Latin
    square L_c per value c of the central cells, by superposition."""
    squares = latin_squares(q)
    n_central = q ** (d - 2)
    soca = linear = affine = 0
    polys = []
    for choice in itertools.product(squares, repeat=n_central):
        table = [0] * q**d
        for idx in range(q**d):
            x1, c, xd = idx // q ** (d - 1), idx // q % n_central, idx % q
            table[idx] = choice[c][x1 * q + xd]
        if not superposition_soca(q, table):
            continue
        soca += 1
        parts = affine_parts(q, table)
        if parts is None:
            continue
        affine += 1
        if parts[1] == 0:
            linear += 1
            polys.append(parts[0])
    polys.sort(key=lambda cs: sum(c * q**i for i, c in enumerate(cs)))
    return {
        "bipermutive": len(squares) ** n_central,
        "soca": soca,
        "linear": linear,
        "affine": affine,
        "polys": tuple(polys),
    }


def poly_from_text(q: int, text: str) -> list[int]:
    """Ascending coefficients of a polynomial written like "1+x+2*x^3"."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" ", "").split("+"):
        c, _, mono = term.rpartition("*") if "*" in term else ("1", "", term)
        if "x" not in mono:
            c, e = mono, 0
        else:
            e = int(mono[2:]) if mono.startswith("x^") else 1
        coeffs[e] = field_add(q, coeffs.get(e, 0), int(c))
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mod(q: int, a, b) -> list[int]:
    """Remainder of a by b over GF(q), ascending coefficient lists."""
    a, b = _trim(list(a)), _trim(list(b))
    inv = next(x for x in range(1, q) if field_mul(q, b[-1], x) == 1)
    while len(a) >= len(b):
        c = field_mul(q, a[-1], inv)
        shift = len(a) - len(b)
        for i, v in enumerate(b):
            neg = field_mul(q, c, v)
            a[shift + i] = field_add(q, a[shift + i], (3 - neg) % 3 if q == 3 else neg)
        _trim(a)
    return a


def x_pow_minus_one(q: int, n: int) -> list[int]:
    return [q - 1 if q == 3 else 1] + [0] * (n - 1) + [1]
