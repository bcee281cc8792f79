from fractions import Fraction

import pytest

from permgrowth.polynomials import (
    ONE,
    IntPolynomial,
    RationalFunction,
    X,
    format_poly,
    poly_gcd,
    square_free_part,
)


def test_arithmetic():
    p = IntPolynomial([1, 2, 3])  # 3x^2 + 2x + 1
    q = IntPolynomial([-1, 1])  # x - 1
    assert (p + q).coeffs == (0, 3, 3)
    assert (p - q).coeffs == (2, 1, 3)
    assert (p * q).coeffs == (-1, -1, -1, 3)
    assert (2 * q).coeffs == (-2, 2)
    assert p(1) == 6
    assert p(Fraction(1, 2)) == Fraction(11, 4)


def test_degree_and_zero():
    assert IntPolynomial([]).is_zero
    assert IntPolynomial([0, 0]).is_zero
    assert IntPolynomial([5]).degree == 0
    assert X.degree == 1
    assert IntPolynomial([]).degree == -1


def test_monomial_shift_reciprocal():
    assert IntPolynomial.monomial(3, 2).coeffs == (0, 0, 0, 2)
    p = IntPolynomial([1, 2, 3])
    assert p.shift(2).coeffs == (0, 0, 1, 2, 3)
    assert p.reciprocal().coeffs == (3, 2, 1)
    # denominator reciprocal turns smallest roots into largest ones
    assert IntPolynomial([1, -2]).reciprocal() == IntPolynomial([-2, 1])


def test_divides_and_exact_div():
    p = IntPolynomial([-1, 1])  # x - 1
    q = IntPolynomial([1, 1])  # x + 1
    prod = p * q
    assert p.divides(prod)
    assert q.divides(prod)
    assert not IntPolynomial([1, 1, 1]).divides(prod)
    assert prod.exact_div(p) == q
    with pytest.raises(ValueError):
        prod.exact_div(IntPolynomial([1, 1, 1]))


def test_gcd_and_square_free():
    p = IntPolynomial([-1, 1])
    q = IntPolynomial([1, 1])
    assert poly_gcd(p * q, p * p) == p
    assert square_free_part(p * p * q) == p * q


def test_format_poly():
    # ascending order of exponents
    assert format_poly((1, 0, 1)) == "1 + x^2"
    assert format_poly((-1, -1, -1, 0, -2, 1)) == "-1 - x - x^2 - 2x^4 + x^5"
    assert format_poly((0,)) == "0"


def test_rational_function_normalization():
    f = RationalFunction(IntPolynomial([0, 1]), IntPolynomial([0, 1, 1]))
    g = RationalFunction(ONE, IntPolynomial([1, 1]))
    assert f == g  # x / (x^2 + x) reduces to 1 / (x + 1)


def test_series_geometric():
    f = RationalFunction(ONE, IntPolynomial([1, -1]))  # 1 / (1 - x)
    assert f.series(6) == [1] * 7
    fib = RationalFunction(ONE, IntPolynomial([1, -1, -1]))
    assert fib.series(7) == [1, 1, 2, 3, 5, 8, 13, 21]


def test_rational_function_arithmetic():
    half = RationalFunction(ONE, IntPolynomial([1, -1]))
    x = RationalFunction.from_poly(X)
    combo = x * half + RationalFunction.from_int(1)
    # x/(1-x) + 1 = 1/(1-x)
    assert combo == half
