"""Exact real-root isolation and growth-rate extraction.

Roots are isolated with Sturm sequences of integer polynomials: each chain
member is a positive multiple of the rational one (see
``polynomials._prem``), so it has the same sign at every point, and signs
at rational points are taken by integer arithmetic.  Roots are carried
around as ``AlgebraicNumber`` values (square-free defining polynomial plus
an isolating interval), so comparisons against the named constants are
exact rather than floating point.  ``growth_rate`` finds the growth rate
of a rational generating function and checks that it is positive and a
simple pole, with no factoring; ``growth_polynomial`` also names that rate
by the irreducible integer factor that owns it, found with
``factoring.irreducible_factors``, for the reports that print the factor.
A root is isolated once and refined on demand: ``compare`` and ``approx``
narrow it as far as they need, so no answer or printed digit depends on
the width; a reader of ``lo``/``hi`` calls ``refine(eps)`` first.  This
module is the only one that decides how far a root is narrowed, and it has
one narrowing routine, ``_float_at_most``: the greatest float at most a
root, found by exact sign tests at floats, where a float Newton probe only
picks the points.  ``refine`` first narrows an interval to the float step
that holds the root with it and bisects ``Fraction`` values only below
that width, or for a root beyond the float range.  ``compare`` narrows
both numbers so before it builds a gcd chain, so a gcd is computed only
for roots within a float of each other.  ``family_roots`` is the one exact
check that a family of roots converges, for the tables and
``accumulation``.  The runners of the ``growth-rate`` and ``accumulation``
campaigns are here too.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .polynomials import IntPolynomial, RationalFunction, _prem, poly_gcd, square_free_part

if TYPE_CHECKING:
    from .classes import ClassSpec
    from .sequences import SumSequence


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
    return 1 + Fraction(max(map(abs, p.coeffs)), abs(p.leading))


def _newton(coeffs, x: float) -> float:
    """An estimate of a root of the polynomial with ``coeffs``: float
    Newton from ``x``, or from Kioustelidis' bound where that is lower, up
    to the first step that does not shrink, a zero derivative or a value
    that is not finite (a coefficient beyond the float range included).

    The bound is twice the greatest |c_i / c_n| ** (1 / (n - i)) over the
    coefficients c_i of the sign opposite to the leading c_n, 0 if there is
    none.  No real root lies above it, so a start above the root sought
    stays above it.  On table 4 at index 3 half the rows start within 1.16
    times their growth rate, against 2.2 times from Cauchy's ``root_bound``,
    and the Newton steps fall from 6381 to 4086."""
    try:
        # leading first, so c_i sits at index n - i
        fs = [float(c) for c in reversed(coeffs)]
    except OverflowError:
        return x
    lead = fs[0]
    bound = max([(-c / lead) ** (1 / k) for k, c in enumerate(fs) if c * lead < 0], default=0.0)
    x = min(x, 2 * bound)
    last = math.inf
    while True:
        p = dp = 0.0
        for c in fs:
            dp = dp * x + p
            p = p * x + c
        if not dp:
            return x
        step = p / dp
        # false for a NaN or infinite step too
        if not abs(step) < abs(last):
            return x
        x, last = x - step, step


def _float_at_most(coeffs, lo: Fraction, hi: Fraction) -> float:
    """The greatest float at most a, where a is the only root in (lo, hi]
    of the polynomial with ``coeffs`` and, unless a is hi itself, the
    polynomial takes the sign it has at hi on (a, hi] and the other sign on
    (lo, a).

    The search keeps floats lo_f <= a < hi_f and starts from the floats
    next to lo and hi outside (lo, hi], so every float strictly between
    them lies in (lo, hi].  A float is dyadic, so the sign there is exact.
    Two probes come first: the float that ``_newton`` reaches from hi_f,
    then its neighbour on the side its sign points to.  A probe strictly
    between lo_f and hi_f moves one of them as a bisection step would; any
    other is skipped, so the estimate only chooses where to test and never
    decides the answer.  When the probes land on adjacent floats, the
    bisection that follows ends at once; otherwise it halves the gap, up to
    rounding, until two adjacent floats remain: within about 2100 steps
    even on the whole float range.
    """
    at_hi = _sign_at(coeffs, hi.numerator, hi.denominator)
    lo_f, hi_f = float(lo), float(hi)
    if lo_f > lo:
        lo_f = math.nextafter(lo_f, -math.inf)
    if hi_f <= hi:
        hi_f = math.nextafter(hi_f, math.inf)
    probe = _newton(coeffs, hi_f)
    for _ in range(2):
        if not lo_f < probe < hi_f:
            break
        if not at_hi or _sign_at(coeffs, *probe.as_integer_ratio()) != at_hi:
            lo_f, probe = probe, math.nextafter(probe, math.inf)
        else:
            hi_f, probe = probe, math.nextafter(probe, -math.inf)
    while True:
        # the rounded midpoint lies strictly between lo_f and hi_f unless
        # they are adjacent floats
        mid = (lo_f + hi_f) / 2
        if mid == lo_f or mid == hi_f:
            return lo_f
        if not at_hi or _sign_at(coeffs, *mid.as_integer_ratio()) != at_hi:
            lo_f = mid
        else:
            hi_f = mid


_FLOAT_MAX = Fraction(sys.float_info.max)


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
        """The rational q as the root of its linear polynomial in (q - 1, q].
        No campaign calls it; it stays as the tests' exact oracle for
        ``compare`` and ``approx``."""
        q = Fraction(q)
        poly = IntPolynomial([-q.numerator, q.denominator])
        return cls(poly, sturm_sequence(poly), q - 1, q)

    def refine(self, eps: Fraction) -> None:
        """Shrink the isolating interval to width <= eps: first to the float
        step that holds the root (``_float_step``), then by ``Fraction``
        bisection, which runs only where eps is below that step's width."""
        _check_eps(eps)
        if self.hi - self.lo > eps:
            self._float_step()
        while self.hi - self.lo > eps:
            self._cut((self.lo + self.hi) / 2)

    def _float_step(self) -> None:
        """Narrow (lo, hi] to the float step that holds the root, within
        (lo, hi]: to (f, f+] for f the greatest float at most the root and
        f+ the next float, or to (f-, f] when the root is the float f.  Any
        float is then outside (lo, hi) and the width at most one ulp.  Does
        nothing when no float lies strictly inside (lo, hi) already, or when
        the interval reaches beyond the float range, where only bisection
        narrows."""
        lo, hi = self.lo, self.hi
        if not (-_FLOAT_MAX < lo and hi < _FLOAT_MAX):
            return
        below_hi = float(hi)
        if below_hi >= hi:
            below_hi = math.nextafter(below_hi, -math.inf)
        if below_hi <= lo:
            return
        coeffs = self.poly.coeffs
        f = _float_at_most(coeffs, lo, hi)
        if f > lo and not _sign_at(coeffs, *f.as_integer_ratio()):
            lo, hi = max(lo, Fraction(math.nextafter(f, -math.inf))), Fraction(f)
        else:
            lo, hi = max(lo, Fraction(f)), min(hi, Fraction(math.nextafter(f, math.inf)))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

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

    Disjoint intervals decide at once.  Overlapping ones are first narrowed
    to the float steps that hold the roots, so roots with different
    greatest floats below them come apart without a gcd.  While they still
    overlap, equality is decided by a root of the square-free gcd in the
    overlap, before any unbounded refinement, so the function always
    terminates.

    >>> compare(largest_real_root(KAPPA_POLY), xi())
    -1
    """
    if a.lo < b.hi and b.lo < a.hi:
        a._float_step()
        b._float_step()
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


def growth_rate(f: RationalFunction) -> AlgebraicNumber:
    """The growth rate of the coefficients of ``f``: the greatest real root
    of the reciprocal denominator, which is 1/rho for the least positive
    singularity rho of ``f``.  ValueError unless that root is positive and
    simple, that is unless rho is a simple pole.

    >>> growth_rate(RationalFunction(IntPolynomial([1]), IntPolynomial([1, -1, -1]))).approx(6)
    '1.618034'
    """
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
    # root.poly is the square-free part of rev, so the quotient's roots are
    # the multiple roots of rev, and the interval isolates the root among
    # the roots of rev
    if count_real_roots(rev.exact_div(root.poly), root.lo, root.hi):
        raise ValueError("least positive singularity is not a simple root")
    return root


def growth_polynomial(f: RationalFunction) -> IntPolynomial:
    """The irreducible factor of the reciprocal denominator of ``f`` that
    owns its root ``growth_rate(f)``."""
    from .factoring import irreducible_factors

    root = growth_rate(f)
    # the factors of the square-free part are those of the denominator, and
    # the interval isolates the root among their roots, so exactly one owns it
    return next(g for g in irreducible_factors(root.poly) if count_real_roots(g, root.lo, root.hi))


# The named constants kappa and xi, by their defining polynomials; each is
# the polynomial's largest real root.
KAPPA_POLY = IntPolynomial([-1, 0, -2, 1])  # x^3 - 2x^2 - 1
XI_POLY = IntPolynomial([-1, -1, -1, 0, -2, 1])  # x^5 - 2x^4 - x^2 - x - 1


def xi() -> AlgebraicNumber:
    return largest_real_root(XI_POLY)


def position_vs_xi(growth: AlgebraicNumber) -> str:
    c = compare(growth, xi())
    return "below_xi" if c < 0 else ("equal_xi" if c == 0 else "above_xi")


GAP_WIDTH = Fraction(1, 10**9)  # both roots' width in the gap test of family_roots


def family_roots(polys: Iterable[IntPolynomial], limit: IntPolynomial, side: int,
                 gap: Optional[Fraction] = None) -> tuple[list[AlgebraicNumber], Optional[str]]:
    """Largest real roots of ``polys``, with the first of these conditions
    they break, or None.  Write r for the largest real root of ``limit``:

    * each root is strictly closer to r than the one before it;
    * each root lies on the side of r that ``side`` names: 1 above, -1 below;
    * with ``gap`` given, the last root lies within ``gap`` of r: refined to
      width ``GAP_WIDTH``, the two intervals span less than ``gap``.

    Every test is exact.  The roots of x^i * kappa_poly + 1 rise to kappa:

    >>> one = IntPolynomial([1])
    >>> roots, problem = family_roots(
    ...     [KAPPA_POLY.shift(i) + one for i in range(4)], KAPPA_POLY, -1, Fraction(1, 20))
    >>> [r.approx(4) for r in roots], problem
    (['2.0000', '2.1177', '2.1675', '2.1888'], None)
    """
    r = largest_real_root(limit)
    roots = [largest_real_root(p) for p in polys]
    # roots on r's side move toward it iff each lies on that side of the next
    if any(compare(a, b) != side for a, b in zip(roots, roots[1:])):
        return roots, "family roots do not move strictly toward the limit"
    if any(compare(a, r) != side for a in roots):
        return roots, "family root is not %s the limit" % ("above" if side == 1 else "below")
    if gap is not None:
        for a in (roots[-1], r):
            a.refine(GAP_WIDTH)
        if max(roots[-1].hi, r.hi) - min(roots[-1].lo, r.lo) >= gap:
            return roots, "family roots do not approach the limit"
    return roots, None


def run_growth_rate(spec: Optional[ClassSpec] = None, seq: Optional[SumSequence] = None):
    """The growth rate of a class or a legal sequence, with the factor that
    owns it and its position against xi."""
    if (spec is None) == (seq is None):
        raise ValueError("provide exactly one of a basis or a sequence")
    if spec is not None:
        from .insertion import class_gf

        f = class_gf(spec)
        params = {"basis": [str(p) for p in spec.sorted_basis()]}
    else:
        from .sequences import class_gf_of_sequence, is_legal

        if not is_legal(seq):
            raise ValueError("sequence %s is illegal" % seq)
        if seq.is_zero():
            raise ValueError("growth rate requires a nonzero sequence")
        f = class_gf_of_sequence(seq)
        params = {"sequence": str(seq)}
    poly = growth_polynomial(f)
    root = largest_real_root(poly)
    return (
        params,
        True,
        {
            "polynomial": str(poly),
            "growth": root.approx(6),
            "position": position_vs_xi(root),
        },
    )


_ACCUMULATION_GAP = "1/1000"  # the last root's greatest distance from xi


def run_accumulation():
    """Largest roots of (x^5-2x^4-x^2-x-1)(x+1)x^(2i+1) - 1 for i = 1..10:
    strictly decreasing, all above xi, with the last within 1/1000 of xi."""
    f = XI_POLY * IntPolynomial([1, 1])  # its largest real root is xi
    polys = [f.shift(2 * i + 1) - IntPolynomial([1]) for i in range(1, 11)]
    roots, problem = family_roots(polys, XI_POLY, 1, Fraction(_ACCUMULATION_GAP))
    artifacts = {
        "roots": [r.approx(8) for r in roots],
        "limit": xi().approx(8),
        "final_gap_below_1e-3": problem is None,  # the gap is the last condition tested
    }
    if problem:
        artifacts["problem"] = problem
    # the report echoes the isolation width of the gap test as "eps"
    return {"eps": str(GAP_WIDTH)}, problem is None, artifacts
