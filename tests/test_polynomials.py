"""Polynomial arithmetic, gcd, irreducibility, and the GF(2) mask fast path."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from soca_kit.fields import Field, GF2, GF3
from soca_kit.polynomials import (
    MAX_PARSE_DEGREE,
    MAX_PARSE_DEGREE_Q,
    Poly,
    gcd,
    irreducibles_of_degree,
    is_irreducible,
    mask_mod,
    mask_gcd,
    mask_mul,
    parse_poly,
)

GF4 = Field(2, 2)


def P(field, *coeffs):
    return Poly(field, coeffs)


def random_poly(rng, field, max_deg):
    return Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, max_deg + 1))])


def test_normalization_and_degree():
    assert P(GF2, 1, 1, 0, 0).coeffs == (1, 1)
    z = Poly.zero(GF2)
    assert z.coeffs == () and z.degree == float("-inf") and z.is_zero
    assert P(GF3, 0, 0, 2).degree == 2


def test_divmod_hand_oracles():
    # long division by hand: x^4 + 1 = (x + 1)(x^3 + x^2 + x + 1) + 0 over GF(2)
    q, r = divmod(P(GF2, 1, 0, 0, 0, 1), P(GF2, 1, 1))
    assert (q, r) == (P(GF2, 1, 1, 1, 1), Poly.zero(GF2))
    # 1 + x + x^2 = (x + 1) * x + 1
    q, r = divmod(P(GF2, 1, 1, 1), P(GF2, 1, 1))
    assert (q, r) == (P(GF2, 0, 1), Poly.one(GF2))
    for a in (P(GF2, 1, 1, 1), P(GF3, 2, 1), P(GF4, 3, 0, 2)):
        assert divmod(a, a) == (Poly.one(a.field), Poly.zero(a.field))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P(GF2, 1, 1), Poly.zero(GF2))


def test_divmod_property_randomized():
    rng = random.Random(7)
    for field in (GF2, GF3, GF4):
        for _ in range(200):
            a = random_poly(rng, field, 8)
            b = random_poly(rng, field, 5)
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


def test_gcd_examples():
    assert gcd(P(GF2, 1, 1, 1), P(GF2, 1, 0, 0, 0, 1)) == Poly.one(GF2)
    # x^4 + 1 = (x + 1)^4 in characteristic 2, so the gcd with (x + 1)^2 is (x + 1)^2
    assert gcd(P(GF2, 1, 0, 1), P(GF2, 1, 0, 0, 0, 1)) == P(GF2, 1, 0, 1)
    assert gcd(P(GF2, 1, 0, 1), P(GF2, 1, 1, 1)) == Poly.one(GF2)


def test_gcd_properties_randomized():
    rng = random.Random(11)
    for field in (GF2, GF3, GF4):
        for _ in range(150):
            a = random_poly(rng, field, 7)
            b = random_poly(rng, field, 7)
            if a.is_zero and b.is_zero:
                continue
            g = gcd(a, b)
            assert g == gcd(b, a)
            assert g.lc == 1
            assert (a % g).is_zero and (b % g).is_zero
        a = random_poly(rng, field, 7)
        if not a.is_zero:
            assert gcd(a, Poly.zero(field)) == a.monic()
    with pytest.raises(ValueError):
        gcd(Poly.zero(GF2), Poly.zero(GF2))


def test_eval():
    assert P(GF2, 1, 1, 1)(1) == 1
    assert P(GF2, 1, 0, 1)(1) == 0  # XOR of the coefficients
    assert Poly.zero(GF3)(2) == 0
    assert P(GF3, 1, 2, 1)(2) == (1 + 4 + 4) % 3


def test_irreducibility_examples():
    assert is_irreducible(P(GF2, 1, 1, 0, 1))  # 1 + x + x^3
    assert not is_irreducible(P(GF2, 1, 1, 0, 0, 0, 1))  # 1 + x + x^5
    assert is_irreducible(P(GF2, 1, 1))  # degree 1
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(GF2))


def test_factorization_of_1_x_x5():
    # (1 + x + x^2)(1 + x^2 + x^3) = 1 + x + x^5
    assert P(GF2, 1, 1, 1) * P(GF2, 1, 0, 1, 1) == P(GF2, 1, 1, 0, 0, 0, 1)


def test_irreducibles_of_degree_examples():
    assert irreducibles_of_degree(GF2, 1) == [P(GF2, 0, 1), P(GF2, 1, 1)]
    assert irreducibles_of_degree(GF2, 2) == [P(GF2, 1, 1, 1)]
    deg4 = irreducibles_of_degree(GF2, 4)
    assert len(deg4) == 3
    assert deg4 == [P(GF2, 1, 1, 0, 0, 1), P(GF2, 1, 0, 0, 1, 1), P(GF2, 1, 1, 1, 1, 1)]
    # 1 + x^2 + x^4 = (1 + x + x^2)^2 is excluded
    assert P(GF2, 1, 0, 1, 0, 1) not in deg4
    assert P(GF2, 1, 1, 1) * P(GF2, 1, 1, 1) == P(GF2, 1, 0, 1, 0, 1)


def test_rabin_agrees_with_trial_division_oracle():
    # over GF(2) this is the mask Rabin test against the tuple trial division
    for field, max_deg in ((GF2, 10), (GF3, 6), (GF4, 4)):
        for m in range(1, max_deg + 1):
            table = set(p.coeffs for p in irreducibles_of_degree(field, m))
            for lower in itertools.product(range(field.q), repeat=m):
                p = Poly(field, lower + (1,))
                assert is_irreducible(p) == (p.coeffs in table), str(p)


def test_char2_square_identity():
    for m in range(1, 17):
        xm1 = Poly(GF2, (1,) + (0,) * (m - 1) + (1,))
        x2m1 = Poly(GF2, (1,) + (0,) * (2 * m - 1) + (1,))
        assert xm1 * xm1 == x2m1


def test_pow():
    assert P(GF2, 1, 1) ** 4 == P(GF2, 1, 0, 0, 0, 1)
    assert P(GF3, 1, 1) ** 3 == P(GF3, 1, 0, 0, 1)  # Frobenius in char 3
    assert P(GF2, 1, 1) ** 0 == Poly.one(GF2)


def tuple_euclid_gf2(a: Poly, b: Poly) -> Poly:
    """Reference gcd over GF(2) by Euclid on coefficient tuples (every nonzero
    GF(2) polynomial is monic)."""
    while not b.is_zero:
        a, b = b, a % b
    return a


def test_mask_ops_agree_with_poly():
    rng = random.Random(5)
    for _ in range(300):
        a = rng.randrange(1 << 10)
        b = rng.randrange(1 << 10)
        pa, pb = Poly.from_mask(GF2, a), Poly.from_mask(GF2, b)
        assert mask_mul(a, b) == (pa * pb).to_mask()
        if b:
            assert mask_mod(a, b) == (pa % pb).to_mask()
        if a or b:
            ref = tuple_euclid_gf2(pa, pb)
            assert mask_gcd(a, b) == ref.to_mask()
            assert gcd(pa, pb) == ref


_GF2_UP_TO_64 = st.integers(0, (1 << 65) - 1)  # masks of GF(2) polynomials of degree <= 64
_GF2_FACTOR = st.integers(2, (1 << 33) - 1)  # degree 1..32, so a product has degree <= 64


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_GF2_UP_TO_64, _GF2_UP_TO_64, _GF2_FACTOR, _GF2_FACTOR)
def test_gf2_gcd_and_irreducibility_properties(a, b, f, g):
    pa, pb = Poly.from_mask(GF2, a), Poly.from_mask(GF2, b)
    if a or b:
        d = gcd(pa, pb)
        assert d.lc == 1
        assert (pa % d).is_zero and (pb % d).is_zero
    assert not is_irreducible(Poly.from_mask(GF2, f) * Poly.from_mask(GF2, g))


def bits_gcd_gf2(a: list, b: list) -> list:
    """Oracle: Euclid over GF(2) on ascending bit lists, with no masks and no
    Poly, returning the gcd's bit list (every nonzero GF(2) polynomial is
    monic)."""
    a, b = a[:], b[:]
    while any(b):
        while b and not b[-1]:
            b.pop()
        while len(a) >= len(b):
            if a[-1]:
                for i, bit in enumerate(b):
                    a[len(a) - len(b) + i] ^= bit
            a.pop()
        a, b = b, a
    while a and not a[-1]:
        a.pop()
    return a


def bits(mask: int) -> list:
    return [(mask >> i) & 1 for i in range(mask.bit_length())]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_GF2_UP_TO_64, _GF2_UP_TO_64)
def test_mask_gcd_matches_bit_list_oracle(a, b):
    if a or b:
        assert bits(mask_gcd(a, b)) == bits_gcd_gf2(bits(a), bits(b))


# q > 2 fields on both paths of Field._addmul (mod p, and the GF(2^k) log
# tables), below and above q = 256
_FIELDS_Q = (GF3, GF4, Field(5), Field(2, 8), Field(257), Field(2, 9))


def _field_polys(max_deg):
    def polys(field):
        return st.lists(st.integers(0, field.q - 1), max_size=max_deg + 1).map(lambda cs: Poly(field, cs))

    return st.sampled_from(_FIELDS_Q).flatmap(lambda f: st.tuples(polys(f), polys(f), polys(f)))


def scalar_mul(f, a, b):
    """Oracle: schoolbook product with one scalar Field call per term."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


def scalar_divmod(f, a, b):
    """Oracle: long division with one scalar Field call per term."""
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for s in range(len(a) - len(b), -1, -1):
        c = f.div(rem[s + len(b) - 1], b[-1])
        quo[s] = c
        for i, y in enumerate(b):
            rem[s + i] = f.sub(rem[s + i], f.mul(c, y))
    return quo, rem


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_field_polys(9))
def test_table_path_equals_checked_constructor(polys):
    """Every ring operation's trusted result equals the checked constructor
    applied to the scalar oracle's coefficients, with no trailing zeros."""
    a, b, c = polys
    f = a.field
    pad = max(len(a.coeffs), len(b.coeffs))
    results = {
        "+": (a + b, [f.add(a[i], b[i]) for i in range(pad)]),
        "-": (a - b, [f.sub(a[i], b[i]) for i in range(pad)]),
        "neg": (-a, [f.neg(x) for x in a.coeffs]),
        "*": (a * b, scalar_mul(f, a.coeffs, b.coeffs)),
    }
    if c:
        quo, rem = scalar_divmod(f, a.coeffs, c.coeffs)
        results["//"] = (a // c, quo)
        results["%"] = (a % c, rem)
        assert divmod(a, c) == (a // c, a % c)
        results["scale"] = (a.scale(c.lc), [f.mul(c.lc, x) for x in a.coeffs])
    for name, (got, want) in results.items():
        assert got == Poly(f, want), name
        assert not got.coeffs or got.coeffs[-1] != 0, name
        assert all(type(x) is int for x in got.coeffs), name


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_field_polys(9))
def test_gcd_is_monic_and_divides_both_inputs(polys):
    a, b, c = polys
    f = a.field
    # a common factor c makes the gcd nontrivial more often
    a, b = (a * c, b * c) if c else (a, b)
    if a.is_zero and b.is_zero:
        return
    g = gcd(a, b)
    assert g.lc == 1 and g == gcd(b, a)
    for x in (a, b):
        assert not any(scalar_divmod(f, x.coeffs, g.coeffs)[1])
    if c and (a or b):
        assert not any(scalar_divmod(f, g.coeffs, c.monic().coeffs)[1])  # c divides the gcd


def test_text_roundtrip():
    assert str(P(GF2, 1, 1, 1)) == "1+x+x^2"
    assert str(Poly.zero(GF2)) == "0"
    assert str(P(GF3, 2, 1, 2)) == "2+x+2*x^2"
    assert parse_poly(GF2, "1+x+x^2") == P(GF2, 1, 1, 1)
    assert parse_poly(GF2, "X^2 + 1 + X") == P(GF2, 1, 1, 1)
    assert parse_poly(GF2, "1101") == P(GF2, 1, 1, 0, 1)
    assert parse_poly(GF2, "0") == Poly.zero(GF2)
    assert parse_poly(GF3, "2+x+2*x^2") == P(GF3, 2, 1, 2)
    assert parse_poly(GF3, "2*x^2+2+x") == P(GF3, 2, 1, 2)
    assert parse_poly(GF4, "3*x+2") == P(GF4, 2, 3)
    for field in (GF2, GF3, GF4):
        rng = random.Random(field.q)
        for _ in range(50):
            p = random_poly(rng, field, 6)
            assert parse_poly(field, str(p)) == p


def test_parse_errors():
    for bad in ("", "x^", "1+*x", "y+1", "4*x"):
        with pytest.raises(ValueError):
            parse_poly(GF3, bad)


def test_parse_degree_cap():
    assert parse_poly(GF2, f"1+x^{MAX_PARSE_DEGREE}").degree == MAX_PARSE_DEGREE
    assert parse_poly(GF2, "1" * (MAX_PARSE_DEGREE + 1)).degree == MAX_PARSE_DEGREE
    assert parse_poly(GF2, "1" + "0" * 2 * MAX_PARSE_DEGREE) == Poly.one(GF2)  # the cap is on degree, not length
    for field, text in ((GF2, "1+x^100000000"), (GF2, "1" * (MAX_PARSE_DEGREE + 2))):
        with pytest.raises(ValueError, match=f"degree cap of {MAX_PARSE_DEGREE}$"):
            parse_poly(field, text)
    # q > 2: the tuple-polynomial Rabin test gets a lower cap, measured on the
    # largest fields
    assert MAX_PARSE_DEGREE_Q == 53
    assert parse_poly(GF3, f"1+x^{MAX_PARSE_DEGREE_Q}").degree == MAX_PARSE_DEGREE_Q
    assert parse_poly(Field(2, 16), "1+x^53").degree == 53
    for field, text in ((GF3, f"x^{MAX_PARSE_DEGREE_Q + 1}+1"), (GF3, f"x^{MAX_PARSE_DEGREE + 1}+1"), (Field(2, 16), "1+x^100")):
        with pytest.raises(ValueError, match=f"degree cap of {MAX_PARSE_DEGREE_Q} for q > 2$"):
            parse_poly(field, text)


def test_code_order():
    polys = [P(GF2, 1, 1, 0, 0, 1), P(GF2, 1, 0, 0, 1, 1), P(GF2, 1, 1, 1, 1, 1)]
    assert sorted(polys, key=Poly.code) == polys
