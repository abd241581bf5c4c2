"""Dense matrices, circulants, the stacked construction, Sylvester stacks."""

import itertools
import random

import numpy as np
import pytest

from soca_kit.fields import Field, GF2, GF3
from soca_kit.polynomials import Poly, gcd
from soca_kit.rules import LinearRule
from soca_kit.matrices import (
    Circulant,
    Matrix,
    circulant_of_stacked,
    mat_mul,
    pbca_transition_matrix,
    stacked_matrix,
    swap_permutation_matrix,
    sylvester_resultant,
    transition_matrix,
    transpose_ca_matrix,
    x_pow_minus_one,
)

GF4 = Field(2, 2)

R150 = LinearRule(GF2, (1, 1, 1))
R90 = LinearRule(GF2, (1, 0, 1))


def naive_mat_mul(f, a, b):
    """Oracle: triple loop over field scalars."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc = f.add(acc, f.mul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def naive_det_nonzero(f, m):
    """Oracle: permutation-expansion determinant, for tiny matrices."""
    n = len(m)
    det = 0
    for perm in itertools.permutations(range(n)):
        sign_odd = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        ) % 2
        term = 1
        for i in range(n):
            term = f.mul(term, m[i][perm[i]])
        det = f.sub(det, term) if sign_odd else f.add(det, term)
    return det != 0


def random_matrix(rng, f, rows, cols):
    return Matrix(f, [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)])


def test_identity_and_shapes():
    eye = Matrix.identity(GF3, 4)
    assert eye.is_invertible()
    a = random_matrix(random.Random(0), GF3, 2, 3)
    assert mat_mul(a, Matrix.identity(GF3, 3)) == a
    with pytest.raises(ValueError):
        mat_mul(a, a)
    with pytest.raises(ValueError):
        a.is_invertible()


def test_mat_mul_against_oracle():
    rng = random.Random(12)
    for f in (GF2, GF3, GF4, Field(5)):
        for _ in range(25):
            r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(rng, f, r, k)
            b = random_matrix(rng, f, k, c)
            assert mat_mul(a, b).data.tolist() == naive_mat_mul(f, a.data.tolist(), b.data.tolist())


def test_invertibility_against_determinant_oracle():
    rng = random.Random(13)
    for f in (GF2, GF3, GF4):
        for n in (1, 2, 3, 4):
            for _ in range(40):
                m = random_matrix(rng, f, n, n)
                assert m.is_invertible() == naive_det_nonzero(f, m.data.tolist()), m.data
    # fields first served by the one elimination (GF(257): inverses past the
    # dense-table limit); every other matrix is made singular (last row =
    # c * row 0 + row n-2) so both verdicts occur
    for f in (Field(5), Field(7), Field(2, 3), Field(257)):
        for n in (1, 2, 3, 4, 5):
            for trial in range(40):
                rows = random_matrix(rng, f, n, n).data.tolist()
                if trial % 2 and n > 1:
                    c = rng.randrange(f.q)
                    rows[-1] = [f.add(f.mul(c, x), y) for x, y in zip(rows[0], rows[n - 2])]
                m = Matrix(f, rows)
                assert m.is_invertible() == naive_det_nonzero(f, rows), m.data


def test_stacked_matrix_rule150():
    s = stacked_matrix(R150)
    assert s.data.tolist() == [[1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]
    assert s.is_invertible()
    assert naive_det_nonzero(GF2, s.data.tolist())


def test_stacked_matrix_rule90_singular():
    s = stacked_matrix(R90)
    assert s.data.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
    assert not s.is_invertible()


def test_stacked_matrix_degenerate_d2():
    s = stacked_matrix(LinearRule(GF2, (1, 1)))
    assert s.data.tolist() == [[1, 1], [1, 1]]
    assert not s.is_invertible()


def test_stacked_first_row_shape():
    for coeffs in ((1, 1, 1), (1, 0, 1, 1), (1, 2, 0, 1)):
        f = GF2 if max(coeffs) < 2 else GF3
        lr = LinearRule(f, coeffs)
        d = lr.diameter
        first = stacked_matrix(lr).row(0)
        assert first == coeffs + (0,) * (2 * (d - 1) - d)


def test_swap_permutation_matrix():
    assert swap_permutation_matrix(GF2, 2).data.tolist() == [[0, 1], [1, 0]]
    assert swap_permutation_matrix(GF2, 4).data.tolist() == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    ms = swap_permutation_matrix(GF3, 6)
    assert mat_mul(ms, ms) == Matrix.identity(GF3, 6)
    with pytest.raises(ValueError):
        swap_permutation_matrix(GF2, 5)


def test_transition_matrix_examples():
    assert transition_matrix(R150, 4).data.tolist() == [[1, 1, 1, 0], [0, 1, 1, 1]]
    assert transition_matrix(R90, 4).data.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]
    assert transition_matrix(LinearRule(GF2, (1, 1)), 2).data.tolist() == [[1, 1]]
    with pytest.raises(ValueError):
        transition_matrix(R150, 2)


def test_transpose_ca_matrix_closed_form():
    assert transpose_ca_matrix(R150).data.tolist() == [[1, 0, 1, 1], [1, 1, 0, 1]]
    assert transpose_ca_matrix(R90).data.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]
    rng = random.Random(21)
    for f in (GF2, GF3):
        for _ in range(30):
            d = rng.randint(2, 8)
            coeffs = [rng.randrange(1, f.q)] + [rng.randrange(f.q) for _ in range(d - 2)] + [
                rng.randrange(1, f.q)
            ]
            lr = LinearRule(f, tuple(coeffs))
            explicit = mat_mul(
                transition_matrix(lr, 2 * (d - 1)), swap_permutation_matrix(f, 2 * (d - 1))
            )
            assert transpose_ca_matrix(lr) == explicit


def test_transpose_ca_warns_on_non_bipermutive():
    with pytest.warns(UserWarning):
        transpose_ca_matrix(LinearRule(GF2, (1, 1, 0)))


def test_circulant_of_stacked_examples():
    c150 = circulant_of_stacked(R150)
    assert c150.first_row == (1, 1, 1, 0)
    assert c150.poly() == Poly(GF2, (1, 1, 1))
    c90 = circulant_of_stacked(R90)
    assert c90.first_row == (1, 0, 1, 0)
    assert c90.poly() == Poly(GF2, (1, 0, 1))


def test_circulant_of_stacked_structure_holds_broadly():
    rng = random.Random(31)
    for f in (GF2, GF3):
        for d in range(2, 11):
            for _ in range(5):
                coeffs = (
                    [rng.randrange(1, f.q)]
                    + [rng.randrange(f.q) for _ in range(d - 2)]
                    + [rng.randrange(1, f.q)]
                )
                lr = LinearRule(f, tuple(coeffs))
                c = circulant_of_stacked(lr)
                assert c.poly() == lr.polynomial()
                assert c.to_matrix() == stacked_matrix(lr)


def test_circulant_of_stacked_rejects_a_broken_stack(monkeypatch):
    data = stacked_matrix(R150).data.copy()
    data[2, 1] ^= 1
    monkeypatch.setattr("soca_kit.matrices.stacked_matrix", lambda lr: Matrix(GF2, data))
    with pytest.raises(RuntimeError, match=r"not circulant at \(2, 1\)"):
        circulant_of_stacked(R150)


def test_circulant_rows_are_shifted_polynomials():
    rng = random.Random(41)
    for f in (GF2, GF3, GF4):
        for n in range(1, 17):
            row = tuple(rng.randrange(f.q) for _ in range(n))
            c = Circulant(f, row)
            dense = c.to_matrix()
            modulus = x_pow_minus_one(f, n)
            for i in range(n):
                xi_c = (Poly.x_pow(f, i) * c.poly()) % modulus
                assert dense.row(i) == tuple(xi_c[j] for j in range(n))


def test_circulant_ring_isomorphism_against_dense_product():
    rng = random.Random(51)
    for f in (GF2, GF3, GF4):
        for n in (1, 2, 3, 5, 8, 13, 16):
            for _ in range(20):
                a = Circulant(f, tuple(rng.randrange(f.q) for _ in range(n)))
                b = Circulant(f, tuple(rng.randrange(f.q) for _ in range(n)))
                dense = mat_mul(a.to_matrix(), b.to_matrix())
                assert (a * b).to_matrix() == dense
                assert a.is_invertible() == a.to_matrix().is_invertible()


def test_circulant_invertibility_examples():
    assert Circulant(GF2, (1, 1, 1, 0)).is_invertible()
    assert not Circulant(GF2, (0, 0, 0, 0)).is_invertible()
    assert not Circulant(GF2, (1, 0, 1, 0)).is_invertible()


def test_stacked_vs_circulant_invertibility_all_binary_rules():
    for d in range(2, 9):
        for central in range(1 << (d - 2)):
            coeffs = (1,) + tuple((central >> i) & 1 for i in range(d - 2)) + (1,)
            lr = LinearRule(GF2, coeffs)
            assert stacked_matrix(lr).is_invertible() == circulant_of_stacked(lr).is_invertible()


def test_pbca_transition_matrix():
    c = pbca_transition_matrix(R150, 6)
    assert c.first_row == (1, 1, 1, 0, 0, 0)
    # wrapped band rows: the first n-d+1 rows equal the no-boundary matrix
    band = transition_matrix(R150, 6).data.tolist()
    dense = c.to_matrix().data.tolist()
    assert dense[: len(band)] == band
    with pytest.raises(ValueError):
        pbca_transition_matrix(R150, 2)


def common_factor_exists(p, g):
    """Oracle: search every monic polynomial of degree 1..min(deg) for a
    common divisor."""
    f = p.field
    for m in range(1, min(p.degree, g.degree) + 1):
        for lower in itertools.product(range(f.q), repeat=m):
            cand = Poly(f, lower + (1,))
            if (p % cand).is_zero and (g % cand).is_zero:
                return True
    return False


def test_sylvester_examples():
    mat, coprime = sylvester_resultant(Poly(GF2, (1, 0, 1)), Poly(GF2, (1, 1, 1)))
    assert coprime and mat.rows == mat.cols == 4
    assert not common_factor_exists(Poly(GF2, (1, 0, 1)), Poly(GF2, (1, 1, 1)))
    p = Poly(GF2, (1, 1, 0, 1))
    _, coprime = sylvester_resultant(p, p)
    assert not coprime


def test_sylvester_1_x_x5_vs_x5_1():
    # Euclid gives gcd 1 here: x^5 + 1 = (x + 1)(x^4 + x^3 + x^2 + x + 1)
    # while 1 + x + x^5 = (1 + x + x^2)(1 + x^2 + x^3); no factor is shared.
    p = Poly(GF2, (1, 1, 0, 0, 0, 1))
    g = Poly(GF2, (1, 0, 0, 0, 0, 1))
    assert not common_factor_exists(p, g)
    _, coprime = sylvester_resultant(p, g)
    assert coprime


def test_sylvester_matches_factor_oracle_randomized():
    rng = random.Random(61)
    for f in (GF2, GF3):
        for _ in range(40):
            deg = rng.randint(1, 4)
            p = Poly(f, [rng.randrange(f.q) for _ in range(deg)] + [rng.randrange(1, f.q)])
            g = Poly(f, [rng.randrange(f.q) for _ in range(deg)] + [rng.randrange(1, f.q)])
            _, coprime = sylvester_resultant(p, g)
            assert coprime == (not common_factor_exists(p, g))


def test_sylvester_degenerate_degrees():
    with pytest.raises(ValueError):
        sylvester_resultant(Poly(GF2, (1, 1)), Poly(GF2, (1, 1, 1)))
    with pytest.raises(ValueError):
        sylvester_resultant(Poly.one(GF2), Poly.one(GF2))


def test_matrix_csv():
    assert transition_matrix(R150, 4).to_csv() == "1,1,1,0\n0,1,1,1\n"


def test_circulant_text_tag():
    assert str(circulant_of_stacked(R150)) == "circulant:1,1,1,0"
