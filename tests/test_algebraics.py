import math
from fractions import Fraction

import pytest

from permgrowth.algebraics import (
    KAPPA_POLY,
    XI_POLY,
    AlgebraicNumber,
    compare,
    count_real_roots,
    family_roots,
    growth_polynomial,
    largest_real_root,
    root_bound,
    sturm_sequence,
    xi,
)
from permgrowth.polynomials import ONE, IntPolynomial, RationalFunction


def test_count_real_roots():
    # (x - 1)(x - 2)(x + 3)
    p = IntPolynomial([-1, 1]) * IntPolynomial([-2, 1]) * IntPolynomial([3, 1])
    assert count_real_roots(p, Fraction(-10), Fraction(10)) == 3
    assert count_real_roots(p, Fraction(0), Fraction(10)) == 2
    # x^2 + 1 has no real roots
    assert count_real_roots(IntPolynomial([1, 0, 1]), Fraction(-10), Fraction(10)) == 0


def test_count_real_roots_rejects_a_reversed_interval():
    # once returned -1: Sturm's difference of sign variations, taken backwards
    with pytest.raises(ValueError):
        count_real_roots(IntPolynomial([1, -1]), Fraction(1), Fraction(0))
    assert count_real_roots(IntPolynomial([1, -1]), Fraction(1), Fraction(1)) == 0


def test_root_bound_contains_all_roots():
    p = KAPPA_POLY * XI_POLY
    b = root_bound(p)
    assert count_real_roots(p, -b, b) == count_real_roots(
        p, Fraction(-10**9), Fraction(10**9)
    )


def test_largest_real_root_rational_case():
    p = IntPolynomial([-2, 1]) * IntPolynomial([3, 1])  # roots 2, -3
    r = largest_real_root(p)
    assert compare(r, AlgebraicNumber.from_rational(Fraction(2))) == 0


def test_kappa_and_xi_ordering():
    kappa = largest_real_root(KAPPA_POLY)
    assert compare(kappa, xi()) < 0
    assert compare(xi(), kappa) > 0
    assert compare(xi(), xi()) == 0
    two = AlgebraicNumber.from_rational(Fraction(2))
    three = AlgebraicNumber.from_rational(Fraction(3))
    assert compare(two, kappa) < 0
    assert compare(three, xi()) > 0


def test_refine_narrows_interval():
    x = largest_real_root(XI_POLY)
    x.refine(Fraction(1, 10**8))
    assert x.hi - x.lo <= Fraction(1, 10**8)
    assert x.lo < Fraction(2305224, 10**6) < x.hi + Fraction(1, 10**6)


def test_refine_bisects_only_below_the_float_step(monkeypatch):
    cuts = []
    real_cut = AlgebraicNumber._cut

    def counting_cut(self, m):
        cuts.append(m)
        real_cut(self, m)

    monkeypatch.setattr(AlgebraicNumber, "_cut", counting_cut)
    x = AlgebraicNumber(XI_POLY, sturm_sequence(XI_POLY), Fraction(2), Fraction(3))
    x.refine(Fraction(1, 10**12))
    assert cuts == []
    assert x.hi - x.lo == Fraction(math.ulp(2.0))
    assert x.approx(6) == "2.305224"
    assert cuts == []
    x.refine(Fraction(1, 2**60))
    assert len(cuts) == 9
    assert x.hi - x.lo <= Fraction(1, 2**60)
    assert compare(x, xi()) == 0


def test_approx_digits():
    assert largest_real_root(KAPPA_POLY).approx(6) == "2.205569"
    assert xi().approx(6) == "2.305224"

    def approx(q, digits=6):
        return AlgebraicNumber.from_rational(q).approx(digits)

    # |x| is rounded half up and the sign put in front
    assert approx(Fraction(-1, 2)) == "-0.500000"
    assert approx(Fraction(-1234567, 10**7)) == "-0.123457"
    assert approx(Fraction(1234567, 10**7)) == "0.123457"
    assert approx(Fraction(-27, 10), 0) == "-3"
    assert approx(Fraction(-23, 10), 0) == "-2"
    assert approx(Fraction(0)) == "0.000000"
    assert approx(Fraction(-1, 10**8)) == "0.000000"
    # a root on a rounding boundary goes up, found by an exact sign test
    assert approx(Fraction(5, 2), 0) == "3"
    assert approx(Fraction(4000001, 2000000)) == "2.000001"
    # the root is 2.2990674998772..., 1.2e-10 below a boundary
    p = IntPolynomial([1, 1, 0, 0, 1, 0, 1, 0, -1, -1, -1, 0, -2, 1])
    assert largest_real_root(p).approx(6) == "2.299067"


def test_compare_distinguishes_close_roots():
    # roots of the accumulation family crowd just above xi
    f = XI_POLY * IntPolynomial([1, 1])
    h1 = f * IntPolynomial.monomial(19) + IntPolynomial([-1])
    h2 = f * IntPolynomial.monomial(21) + IntPolynomial([-1])
    r1 = largest_real_root(h1)
    r2 = largest_real_root(h2)
    assert compare(r2, r1) < 0
    assert compare(r2, xi()) > 0


def _accumulation_polys(n):
    f = XI_POLY * IntPolynomial([1, 1])
    return [f.shift(2 * i + 1) - ONE for i in range(1, n + 1)]


def _kappa_polys(n):
    # table 3's 1,1,2^i,1^inf, whose roots rise to kappa
    return [KAPPA_POLY.shift(i) + ONE for i in range(n)]


def test_family_roots_decreasing():
    roots, problem = family_roots(_accumulation_polys(3), XI_POLY, 1)
    assert problem is None
    assert len(roots) == 3
    assert compare(roots[1], roots[0]) < 0
    assert compare(roots[2], roots[1]) < 0


def test_family_roots_from_above_and_below():
    roots, problem = family_roots(_accumulation_polys(10), XI_POLY, 1, Fraction(1, 1000))
    assert problem is None
    assert all(compare(r, xi()) > 0 for r in roots)
    kappa = largest_real_root(KAPPA_POLY)
    roots, problem = family_roots(_kappa_polys(7), KAPPA_POLY, -1, Fraction(1, 20))
    assert problem is None
    assert all(compare(a, b) < 0 for a, b in zip(roots, roots[1:]))
    assert all(compare(r, kappa) < 0 for r in roots)


def test_family_roots_names_the_first_broken_condition():
    polys = _kappa_polys(3)
    # read backwards, the roots move away from kappa
    assert family_roots(polys[::-1], KAPPA_POLY, -1)[1] == (
        "family roots do not move strictly toward the limit"
    )
    # the roots 2, 2.117..., 2.167... straddle 2.1
    assert family_roots(polys, IntPolynomial([-21, 10]), -1)[1] == (
        "family root is not below the limit"
    )
    # the same roots rise, so they do not move toward kappa from above
    assert family_roots(polys, KAPPA_POLY, 1)[1] == (
        "family roots do not move strictly toward the limit"
    )
    # the root at index 1 is 0.088 below kappa, the root at index 6 0.0015
    assert family_roots(polys[:2], KAPPA_POLY, -1)[1] is None
    assert family_roots(polys[:2], KAPPA_POLY, -1, Fraction(1, 20))[1] == (
        "family roots do not approach the limit"
    )
    assert family_roots(_kappa_polys(7), KAPPA_POLY, -1, Fraction(1, 50))[1] is None


def test_growth_polynomial_fibonacci():
    # members GF of the class counted by Fibonacci-like recurrences
    f = RationalFunction(ONE, IntPolynomial([1, -1, -1]))
    g = growth_polynomial(f)
    # largest root is the golden ratio, defining polynomial x^2 - x - 1
    assert g == IntPolynomial([-1, -1, 1])


def test_growth_polynomial_strips_trivial_factors():
    # 1 / ((1 - 2x)(1 - x)): growth factor must isolate the root at 2
    den = IntPolynomial([1, -2]) * IntPolynomial([1, -1])
    g = growth_polynomial(RationalFunction(ONE, den))
    r = largest_real_root(g)
    assert compare(r, AlgebraicNumber.from_rational(Fraction(2))) == 0


def test_growth_polynomial_picks_the_owning_factor():
    # 1/((1 - x - x^2)(1 + x - x^2)): the reciprocal denominator is
    # (x^2 - x - 1)(x^2 + x - 1), whose greatest root is the golden ratio
    den = IntPolynomial([1, -1, -1]) * IntPolynomial([1, 1, -1])
    assert growth_polynomial(RationalFunction(ONE, den)) == IntPolynomial([-1, -1, 1])
    # x^4 + 1 is irreducible over the integers but splits modulo every prime
    den = IntPolynomial([1, -1, -1]) * IntPolynomial([1, 0, 0, 0, 1])
    assert growth_polynomial(RationalFunction(ONE, den)) == IntPolynomial([-1, -1, 1])
    den = IntPolynomial([1, -3]) * IntPolynomial([1, 0, 0, 0, 1]) * IntPolynomial([1, -2])
    assert growth_polynomial(RationalFunction(ONE, den)) == IntPolynomial([-3, 1])


def test_growth_polynomial_rejects_a_double_or_missing_singularity():
    golden = IntPolynomial([1, -1, -1])
    with pytest.raises(ValueError, match="not a simple root"):
        growth_polynomial(RationalFunction(ONE, golden * golden))
    with pytest.raises(ValueError, match="no positive real root"):
        growth_polynomial(RationalFunction(ONE, IntPolynomial([1, 1])))


def test_nonpositive_eps_raises():
    # bisection to width <= eps never ends for eps <= 0
    for eps in (Fraction(0), Fraction(-1)):
        with pytest.raises(ValueError):
            xi().refine(eps)


def test_roots_beyond_the_float_range():
    # no float lies near 10^400: bisection alone narrows it
    big = largest_real_root(IntPolynomial([-10**400, 1]))
    big.refine(Fraction(1, 10**6))
    assert big.hi - big.lo <= Fraction(1, 10**6)
    assert big.approx(2) == "1" + "0" * 400 + ".00"
    assert compare(big, xi()) == 1
    assert compare(big, AlgebraicNumber.from_rational(Fraction(10**400))) == 0
    # 10^-400 lies between the floats 0 and 2^-1074, but its polynomial's
    # coefficient is beyond the float range, so the Newton probe gives up
    tiny = largest_real_root(IntPolynomial([-1, 10**400]))
    tiny.refine(Fraction(1, 10**500))
    assert tiny.hi - tiny.lo <= Fraction(1, 10**500)
    assert tiny.approx(6) == "0.000000"
    assert compare(tiny, AlgebraicNumber.from_rational(Fraction(1, 10**400))) == 0
    assert compare(tiny, AlgebraicNumber.from_rational(Fraction(0))) == 1
