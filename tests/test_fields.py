"""Field construction, arithmetic axioms, and descriptor parsing."""

import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soca_kit.fields import Field, GF2, GF3, is_prime, parse_field
from soca_kit.polynomials import irreducibles_of_degree

GF4 = Field(2, 2, (1, 1, 1))  # modulus 1 + x + x^2


def naive_mod2_polymul(a_bits, b_bits, modulus_bits):
    """Oracle: schoolbook product of GF(2) coefficient vectors, then long
    division by the modulus.  Everything works on little-endian bit lists."""
    prod = [0] * (len(a_bits) + len(b_bits))
    for i, a in enumerate(a_bits):
        for j, b in enumerate(b_bits):
            prod[i + j] ^= a & b
    deg_m = len(modulus_bits) - 1
    while len(prod) >= len(modulus_bits):
        if prod[-1]:
            for k in range(len(modulus_bits)):
                prod[len(prod) - len(modulus_bits) + k] ^= modulus_bits[k]
        prod.pop()
    return prod


def test_prime_fields_construct():
    assert GF2.q == 2 and GF2.descriptor() == "GF(2)"
    assert GF3.q == 3 and GF3.descriptor() == "GF(3)"
    assert Field(13).q == 13


def test_gf4_constructs_with_irreducible_modulus():
    # oracle for the example: 1 + x + x^2 has no root in GF(2) and no
    # degree-1 divisor, so it is irreducible
    for x in (0, 1):
        assert (1 ^ x ^ (x & x)) == 1
    assert GF4.q == 4
    assert GF4.descriptor() == "GF(2^2)/111"


def test_construction_errors():
    with pytest.raises(ValueError):
        Field(4)  # not prime
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(3, 2)  # odd-characteristic extension
    with pytest.raises(ValueError):
        Field(2, 2, (1, 0, 1))  # 1 + x^2 = (1 + x)^2 is reducible
    with pytest.raises(ValueError):
        Field(2, 3, (0, 1, 0, 1))  # zero constant term
    with pytest.raises(ValueError):
        Field(2, 17)  # order 2^17 exceeds MAX_ORDER
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1))  # degree too low


def _divides(cand, bits):
    """Oracle: long division of GF(2) bit lists (little-endian) leaves no
    remainder."""
    rem = list(bits)
    while len(rem) >= len(cand):
        if rem[-1]:
            for j in range(len(cand)):
                rem[len(rem) - len(cand) + j] ^= cand[j]
        rem.pop()
    return not any(rem)


def _reducible(mask):
    """Oracle: trial division by every GF(2) polynomial of degree 1..k/2."""
    k = mask.bit_length() - 1
    bits = [(mask >> i) & 1 for i in range(k + 1)]
    return any(
        _divides([(c >> i) & 1 for i in range(c.bit_length())], bits) for c in range(2, 1 << (k // 2 + 1))
    )


def test_default_moduli_are_irreducible_degree_k():
    for k in range(2, 17):
        f = Field(2, k)
        assert len(f.modulus) == k + 1 and f.modulus[-1] == 1 and f.modulus[0] == 1
        mask = sum(c << i for i, c in enumerate(f.modulus))
        assert not _reducible(mask), k
        # and the smallest: an even mask has the factor x, every odd one below
        # is reducible
        for smaller in range((1 << k) | 1, mask, 2):
            assert _reducible(smaller), (k, bin(smaller))


def test_explicit_modulus_accepted_iff_irreducible():
    for k in range(2, 9):
        irreducible = {p.coeffs for p in irreducibles_of_degree(GF2, k)}
        for lower in itertools.product((0, 1), repeat=k):
            mod = lower + (1,)
            if mod in irreducible:
                assert Field(2, k, mod).modulus == mod
            else:
                with pytest.raises(ValueError):
                    Field(2, k, mod)


def test_gf2_and_gf3_tables():
    assert GF2.add(1, 1) == 0
    assert GF3.mul(2, 2) == 1
    assert GF3.neg(1) == 2
    assert GF3.inv(2) == 2


def test_gf4_multiplication_against_oracle():
    # element index = bit vector; 2 encodes x, 3 encodes x + 1
    modulus_bits = [1, 1, 1]
    for a, b in itertools.product(range(4), repeat=2):
        a_bits = [(a >> i) & 1 for i in range(2)]
        b_bits = [(b >> i) & 1 for i in range(2)]
        expect_bits = naive_mod2_polymul(a_bits, b_bits, modulus_bits)
        expect = sum(c << i for i, c in enumerate(expect_bits[:2]))
        assert GF4.mul(a, b) == expect
    assert GF4.mul(2, 2) == 3  # x * x = x + 1


def test_field_axioms_exhaustive_small_orders():
    for f in (GF2, GF3, GF4, Field(5), Field(7), Field(11), Field(13), Field(2, 3), Field(2, 4)):
        assert f.q <= 16
        els = list(f.elements())
        for a, b, c in itertools.product(els, repeat=3):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in els:
            assert f.add(a, f.neg(a)) == 0
            assert f.mul(a, 1) == a
            if a:
                assert f.mul(a, f.inv(a)) == 1


_DEFAULT_FIELDS = {k: Field(2, k) for k in range(2, 17)}


@st.composite
def _default_field_elements(draw):
    f = _DEFAULT_FIELDS[draw(st.sampled_from(sorted(_DEFAULT_FIELDS)))]
    return (f, *(draw(st.integers(0, f.q - 1)) for _ in range(3)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_default_field_elements())
def test_field_axioms_every_default_modulus(sample):
    """The log-table arithmetic of every built-in GF(2^k) against the field
    axioms and the bit-list product oracle."""
    f, a, b, c = sample
    k = f.k
    expect = naive_mod2_polymul([(a >> i) & 1 for i in range(k)], [(b >> i) & 1 for i in range(k)], list(f.modulus))
    assert f.mul(a, b) == sum(bit << i for i, bit in enumerate(expect[:k]))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, 1) == a and f.mul(a, 0) == 0
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q - 1) == 1


def test_inverse_of_zero_is_domain_error():
    for f in (GF2, GF3, GF4):
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_char2_frobenius():
    for f in (GF2, GF4, Field(2, 3), Field(2, 4)):
        for a, b in itertools.product(f.elements(), repeat=2):
            s = f.add(a, b)
            assert f.mul(s, s) == f.add(f.mul(a, a), f.mul(b, b))


def test_pow_and_div():
    assert GF3.pow(2, 4) == 1
    assert GF3.div(1, 2) == 2
    assert GF4.pow(2, 3) == 1  # x^3 = 1 in GF(4)*
    assert GF4.pow(2, -1) == GF4.inv(2)


_GF256_PRIMITIVE = Field(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))


@pytest.mark.parametrize(
    "f",
    [GF2, GF3, Field(5), GF4, Field(2, 3), Field(2, 4), Field(2, 8), _GF256_PRIMITIVE, Field(251), Field(257)],
    ids=lambda f: f.descriptor(),
)
def test_array_methods_match_scalar_ops(f):
    """Every array method against the scalar ops, on all q^2 pairs.  The
    default GF(2^8) modulus is not primitive (x has order 51), the second
    one is."""
    a, b = (x.ravel() for x in np.meshgrid(np.arange(f.q), np.arange(f.q)))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.add_array(a, b).tolist() == [f.add(x, y) for x, y in pairs]
    assert f.sub_array(a, b).tolist() == [f.sub(x, y) for x, y in pairs]
    assert f.mul_array(a, b).tolist() == [f.mul(x, y) for x, y in pairs]
    elems = np.arange(f.q)
    # inner dimension 1: the product table; inner dimension s: sums of products
    assert f.matmul_array(elems[:, None], elems[None, :]).tolist() == [
        [f.mul(x, y) for y in range(f.q)] for x in range(f.q)
    ]
    s = min(f.q, 16)
    m, n = np.random.default_rng(f.q).integers(0, f.q, (2, s, s))
    m[0], n[:, 0] = 0, 0
    expected = [[0] * s for _ in range(s)]
    for i, j, k in itertools.product(range(s), repeat=3):
        expected[i][j] = f.add(expected[i][j], f.mul(int(m[i, k]), int(n[k, j])))
    assert f.matmul_array(m, n).tolist() == expected


def _mul_by_shift_and_add(f, a, b):
    """Oracle: GF(2^k) product by shift-and-add, reducing by the modulus bits."""
    modulus = sum(c << i for i, c in enumerate(f.modulus))
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> f.k:
            a ^= modulus
    return r


@pytest.mark.parametrize("f", [Field(2, 9), Field(2, 16)], ids=lambda f: f.descriptor())
def test_large_extension_ops_sampled(f):
    """Past q = 256: scalar, list and array products against a shift-and-add
    oracle on sampled pairs with zero operands, and pow and inv against it."""
    rng = np.random.default_rng(f.k)
    a = np.concatenate([[0, 0, 1, f.q - 1], rng.integers(0, f.q, 2000)])
    b = np.concatenate([[0, f.q - 1, 0, 0], rng.integers(0, f.q, 2000)])
    a[::7] = 0
    expected = [_mul_by_shift_and_add(f, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert [f.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == expected
    assert f.mul_array(a, b).tolist() == expected
    c = int(b[4]) or 1
    xs, ys = a.tolist(), b.tolist()
    assert f._addmul(c, xs, ys) == [x ^ _mul_by_shift_and_add(f, c, y) for x, y in zip(xs, ys)]
    m, n = a[:36].reshape(6, 6).tolist(), b[:36].reshape(6, 6).tolist()
    expected = [[0] * 6 for _ in range(6)]
    for i, j, k in itertools.product(range(6), repeat=3):
        expected[i][j] ^= _mul_by_shift_and_add(f, m[i][k], n[k][j])
    assert f.matmul_array(np.array(m), np.array(n)).tolist() == expected
    for x, e in zip(a[:50].tolist(), range(50)):
        power = 1
        for _ in range(e):
            power = _mul_by_shift_and_add(f, power, x)
        assert f.pow(x, e) == power
        if x:
            assert _mul_by_shift_and_add(f, x, f.inv(x)) == 1
            assert f.pow(x, -e) == f.pow(f.inv(x), e)


def test_element_validation():
    with pytest.raises(ValueError):
        GF3.check(3)
    with pytest.raises(ValueError):
        GF3.check(-1)
    assert GF3.check(2) == 2
    for flag in (True, False):  # bool is an int subclass, but not a field element
        with pytest.raises(ValueError, match="is not an element"):
            GF3.check(flag)


def test_descriptor_roundtrip():
    for f in (GF2, GF3, GF4, Field(2, 3), Field(7)):
        assert parse_field(f.descriptor()) == f
    assert parse_field("GF(4)") == Field(2, 2)
    assert parse_field("gf(2^2)/111") == GF4
    assert parse_field("GF(8)") == Field(2, 3)


def test_parse_field_errors():
    for bad in ("GF(6)", "GF(12)", "F(2)", "GF(9)", "GF(2^2)/101"):
        with pytest.raises(ValueError):
            parse_field(bad)
    with pytest.raises(ValueError, match="a prime field takes no modulus"):
        parse_field("GF(3)/101")
    assert Field(3, 1, []) == GF3 and hash(Field(3, 1, [])) == hash(GF3)


def test_big_orders_are_refused_before_factoring():
    # trial division of 10^16 + 61 takes seconds; the order cap is checked first
    for text, message in (
        ("GF(10000000000000061)", "field order 10000000000000061 exceeds 65536"),
        ("GF(1999999999978)", "field order 1999999999978 exceeds 65536"),
        ("GF(100000)", "field order 100000 exceeds 65536"),
        ("GF(10000000000000061^1)", "field order 10000000000000061^1 exceeds 65536"),
        ("GF(3^100000000)", "field order 3^100000000 exceeds 65536"),
    ):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_field(text)
        assert time.perf_counter() - t0 < 0.01, text
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"^field order 10000000000000061\^1 exceeds 65536$"):
        Field(10**16 + 61)
    assert time.perf_counter() - t0 < 0.01


def _prime_power(q):
    """Oracle: (p, k) with q = p^k, by trial division, or None."""
    p = next((p for p in range(2, q + 1) if q % p == 0), None)
    if p is None:
        return None
    k, n = 0, q
    while n % p == 0:
        n, k = n // p, k + 1
    return (p, k) if n == 1 else None


def test_parse_field_orders_match_trial_division():
    for q in range(4097):
        pk = _prime_power(q)
        if pk is None:
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                parse_field(f"GF({q})")
        elif pk[0] != 2 and pk[1] > 1:
            with pytest.raises(ValueError, match="only in characteristic 2"):
                parse_field(f"GF({q})")
        else:
            f = parse_field(f"GF({q})")
            assert (f.p, f.k, f.q) == (*pk, q)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
