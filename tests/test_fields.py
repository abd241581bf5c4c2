"""Field construction, arithmetic axioms, and descriptor parsing."""

import itertools

import pytest

from soca_kit.fields import DEFAULT_MODULI, Field, GF2, GF3, is_prime, parse_field
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
        Field(2, 17)  # no built-in modulus past degree 16
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1))  # degree too low


def test_default_moduli_are_irreducible_degree_k():
    for k, mask in DEFAULT_MODULI.items():
        f = Field(2, k)
        assert len(f.modulus) == k + 1 and f.modulus[-1] == 1 and f.modulus[0] == 1
        # root-free and divisor-free by trial division on bit lists
        bits = list(f.modulus)
        for cand_mask in range(2, 1 << (k // 2 + 1)):
            cand = [(cand_mask >> i) & 1 for i in range(cand_mask.bit_length())]
            if len(cand) < 2:
                continue
            rem = list(bits)
            while len(rem) >= len(cand):
                if rem[-1]:
                    for j in range(len(cand)):
                        rem[len(rem) - len(cand) + j] ^= cand[j]
                rem.pop()
            assert any(rem), f"default modulus for k={k} divisible by {cand_mask:b}"
        assert mask == sum(c << i for i, c in enumerate(f.modulus))


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


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
