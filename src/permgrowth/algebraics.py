"""Exact real-root isolation and growth-rate extraction.

Roots are isolated with Sturm sequences of integer polynomials: each chain
member is a positive multiple of the rational one (see
``polynomials._prem``), so it has the same sign at every point, and signs
at rational points are taken by integer arithmetic.  Roots are carried
around as ``AlgebraicNumber`` values (square-free defining polynomial plus
an isolating interval), so comparisons against the named constants are
exact rather than floating point.  ``growth_polynomial`` names a growth
rate by the irreducible integer factor that owns it, found with
``polynomials.irreducible_factors``.  A root is isolated once and refined
on demand: ``compare``, ``approx`` and ``to_float`` narrow it as far as
they need, so no answer or printed digit depends on the width; a reader of
``lo``/``hi`` calls ``refine(eps)`` first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .polynomials import (
    IntPolynomial,
    RationalFunction,
    _prem,
    irreducible_factors,
    poly_gcd,
    square_free_part,
)

def _check_eps(eps: Fraction) -> None:
    # bisection stops at width <= eps, which it never reaches for eps <= 0
    if eps <= 0:
        raise ValueError("isolation width must be positive, got %s" % eps)


def sturm_sequence(p: IntPolynomial) -> list[list[int]]:
    """Sturm chain p, p', -prem(p, p'), ... as integer coefficient lists."""
    chain = [list(p.coeffs), list(p.derivative().coeffs)]
    while chain[-1]:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_at(coeffs: Sequence[int], n: int, d: int) -> int:
    """Sign of the polynomial at n/d (d > 0): the sign of
    sum c_i * n^i * d^(deg - i), which is d^deg times its value."""
    acc, dk = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _sign_variations(chain, x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    signs = [s for s in (_sign_at(coeffs, n, d) for coeffs in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _roots_between(chain, lo: Fraction, hi: Fraction) -> int:
    """Sturm's count of the distinct roots in (lo, hi]."""
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def count_real_roots(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval
    (lo, hi]; ``p`` need not be square-free.  Raises ValueError if lo > hi."""
    if lo > hi:
        raise ValueError("empty interval: lo > hi")
    sf = square_free_part(p)
    if sf.degree < 1:
        return 0
    return _roots_between(sturm_sequence(sf), lo, hi)


def root_bound(p: IntPolynomial) -> Fraction:
    """Cauchy bound: all real roots lie in (-M, M)."""
    lead = abs(p.leading)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs)


class AlgebraicNumber:
    """A real algebraic number: square-free defining polynomial plus an
    isolating rational interval (lo, hi] containing exactly one real root."""

    __slots__ = ("poly", "lo", "hi", "_chain")

    def __init__(self, sf: IntPolynomial, chain, lo: Fraction, hi: Fraction):
        """The root of the square-free ``sf`` in (lo, hi]; ``chain`` is the
        Sturm chain of ``sf``."""
        object.__setattr__(self, "poly", sf)
        object.__setattr__(self, "lo", Fraction(lo))
        object.__setattr__(self, "hi", Fraction(hi))
        object.__setattr__(self, "_chain", chain)
        if _roots_between(chain, self.lo, self.hi) != 1:
            raise ValueError("interval does not isolate exactly one root")

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicNumber is immutable")

    @classmethod
    def from_rational(cls, q: Fraction) -> "AlgebraicNumber":
        q = Fraction(q)
        poly = IntPolynomial([-q.numerator, q.denominator])
        return cls(poly, sturm_sequence(poly), q - 1, q)

    def refine(self, eps: Fraction) -> None:
        """Shrink the isolating interval to width <= eps (bisection)."""
        _check_eps(eps)
        while self.hi - self.lo > eps:
            self._cut((self.lo + self.hi) / 2)

    def _cut(self, m: Fraction) -> None:
        """Move hi or lo to m in (lo, hi), keeping the root inside.  The root
        is simple and alone in (lo, hi], so the poly has one sign on (lo, root)
        and the other on (root, hi]; one sign test at m tells the side."""
        coeffs = self.poly.coeffs
        at_hi = _sign_at(coeffs, self.hi.numerator, self.hi.denominator)
        if at_hi and _sign_at(coeffs, m.numerator, m.denominator) != -at_hi:
            object.__setattr__(self, "hi", m)
        else:
            object.__setattr__(self, "lo", m)

    def to_float(self) -> float:
        self.refine(Fraction(1, 10**15))
        return float((self.lo + self.hi) / 2)

    def approx(self, digits: int = 6) -> str:
        """Decimal string with ``digits`` places, |x| rounded half up.

        The rounding boundaries are the odd multiples of 1/(2 * 10^digits),
        so at width 1/(2 * 10^digits) at most one lies in (lo, hi].  Unless
        the root is that one, a cut there leaves the interval's midpoint
        rounding as the root does.
        """
        scale = 2 * 10**digits
        self.refine(Fraction(1, scale))
        t = self.hi.numerator * scale // self.hi.denominator
        t -= 1 - t % 2  # the greatest odd t with t / scale <= hi
        x = Fraction(t, scale)
        if x <= self.lo or _sign_at(self.poly.coeffs, t, scale):
            if self.lo < x < self.hi:
                self._cut(x)
            x = (self.lo + self.hi) / 2
        q = int(abs(x) * 10**digits + Fraction(1, 2))
        sign = "-" if x < 0 and q else ""
        s = str(q)
        if digits == 0:
            return sign + s
        s = s.rjust(digits + 1, "0")
        return sign + s[:-digits] + "." + s[-digits:]

    def __repr__(self) -> str:
        return "AlgebraicNumber(%s in (%s, %s])" % (self.poly, self.lo, self.hi)

    def __str__(self) -> str:
        return "root of %s in (%s, %s] ~ %s" % (self.poly, self.lo, self.hi, self.approx())

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraicNumber) and compare(self, other) == 0

    def __lt__(self, other) -> bool:
        return compare(self, other) < 0

    def __le__(self, other) -> bool:
        return compare(self, other) <= 0

    def __hash__(self):
        raise TypeError("AlgebraicNumber is unhashable; compare explicitly")


def compare(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
    """Exact trichotomy: -1, 0, or +1.

    Disjoint intervals decide at once.  While they overlap, equality is
    decided by a root of the square-free gcd in the overlap, before any
    unbounded refinement, so the function always terminates.

    >>> compare(kappa(), xi())
    -1
    """
    gcd_chain = None
    while True:
        if a.hi <= b.lo:
            return -1
        if b.hi <= a.lo:
            return 1
        if gcd_chain is None:
            g = poly_gcd(a.poly, b.poly)  # square free, as both polys are
            gcd_chain = sturm_sequence(g) if g.degree >= 1 else []
        if gcd_chain and _roots_between(gcd_chain, max(a.lo, b.lo), min(a.hi, b.hi)) >= 1:
            # the shared gcd root inside both intervals is each number's root
            return 0
        width = max(a.hi - a.lo, b.hi - b.lo)
        a.refine(width / 4)
        b.refine(width / 4)


@lru_cache(maxsize=None)
def largest_real_root(p: IntPolynomial) -> AlgebraicNumber:
    """The greatest real root of ``p``, isolated: the only real root of the
    square-free part of ``p`` in the returned (lo, hi].  The root of each
    polynomial is isolated once and shared, refinements included.

    >>> largest_real_root(XI_POLY).approx(6)
    '2.305224'
    """
    if p.degree < 1:
        raise ValueError("polynomial must be nonconstant")
    sf = square_free_part(p)
    chain = sturm_sequence(sf)
    M = root_bound(sf)
    lo, hi = -M, M
    v_lo, v_hi = _sign_variations(chain, lo), _sign_variations(chain, hi)
    if v_lo == v_hi:
        raise ValueError("polynomial has no real root")
    # push lo right while keeping at least one root in (lo, hi]
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        v_mid = _sign_variations(chain, mid)
        if v_mid - v_hi >= 1:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return AlgebraicNumber(sf, chain, lo, hi)


def growth_polynomial(f: RationalFunction) -> IntPolynomial:
    """The irreducible factor of the reciprocal denominator that owns its
    greatest real root, which is 1/rho for the least positive singularity
    rho of ``f``; that root is the growth rate of the coefficient
    sequence."""
    if f.den.degree < 1:
        raise ValueError("denominator has no positive real root")
    rev = f.den.reciprocal()
    try:
        root = largest_real_root(rev)
    except ValueError:
        root = None
    # the root is positive iff (0, hi] holds a root: none lies above it
    if root is None or _roots_between(root._chain, Fraction(0), root.hi) < 1:
        raise ValueError("polynomial has no positive real root")
    # the interval isolates the root among those of the square-free part of
    # rev, the product of its irreducible factors, so exactly one owns it
    factor = next(
        g for g in irreducible_factors(rev) if count_real_roots(g, root.lo, root.hi)
    )
    # the owning factor must appear exactly once (simple singularity)
    if factor.divides(rev.exact_div(factor)):
        raise ValueError("least positive singularity is not a simple root")
    return factor


# Named constants.  kappa and xi carry their defining polynomials; the
# remaining values are display-only approximations from the literature.
KAPPA_POLY = IntPolynomial([-1, 0, -2, 1])  # x^3 - 2x^2 - 1
XI_POLY = IntPolynomial([-1, -1, -1, 0, -2, 1])  # x^5 - 2x^4 - x^2 - x - 1


def kappa() -> AlgebraicNumber:
    return largest_real_root(KAPPA_POLY)


def xi() -> AlgebraicNumber:
    return largest_real_root(XI_POLY)


def family_roots(
    f: IntPolynomial,
    g: IntPolynomial,
    shift: Callable[[int], int],
    i_range: Iterable[int],
) -> list[AlgebraicNumber]:
    """Largest real roots of h_i = x^shift(i) * f + g over ``i_range``.

    When g is negative just right of f's largest root r, the roots decrease
    strictly toward r from above; that is asserted, and violations raise
    (signalling use outside the intended hypotheses).  g = 0 trivially gives
    r for every i.
    """
    i_list = list(i_range)
    r = largest_real_root(f)
    if g.is_zero():
        return [largest_real_root(f) for _ in i_list]
    roots = [largest_real_root(f * IntPolynomial.monomial(shift(i)) + g) for i in i_list]
    for a, b in zip(roots, roots[1:]):
        if not compare(b, a) < 0:
            raise ValueError("family roots are not strictly decreasing")
    for a in roots:
        if not compare(a, r) > 0:
            raise ValueError("family root does not exceed the base root")
    return roots
