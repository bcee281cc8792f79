"""Exact integer polynomials and rational functions.

``IntPolynomial`` stores ascending integer coefficients with no trailing
zero.  ``RationalFunction`` keeps a coprime numerator/denominator pair with
the denominator's constant term normalized positive, so power series
extraction is always well defined when den(0) != 0.  Factoring over the
integers is in ``factoring``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class IntPolynomial:
    """Ascending-coefficient integer polynomial with exact arithmetic.

    >>> p = IntPolynomial([-1, 0, -2, 1])   # x^3 - 2x^2 - 1
    >>> p.degree
    3
    >>> p(2)
    Fraction(-1, 1)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "IntPolynomial":
        return cls([0] * exponent + [coefficient])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __call__(self, x) -> Fraction:
        # imported here: the searches evaluate no polynomial, and fractions
        # loads decimal
        from fractions import Fraction

        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Divide out the content and normalize the leading coefficient
        positive; the zero polynomial maps to itself."""
        if self.is_zero():
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPolynomial([c // g for c in self.coeffs])

    def reciprocal(self) -> "IntPolynomial":
        """Coefficients reversed: x^deg * p(1/x)."""
        if self.is_zero():
            return self
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def divides(self, other: "IntPolynomial") -> bool:
        """Exact divisibility test over the rationals."""
        if self.is_zero():
            return other.is_zero()
        return not _prem(other.coeffs, self.coeffs)

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Quotient self/other, which must be exact with integer result."""
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        q = [0] * max(0, len(r) - len(b) + 1)
        while len(r) >= len(b):
            f, m = divmod(r[-1], b[-1])
            if m:
                raise ValueError("quotient is not integral")
            k = len(r) - len(b)
            q[k] = f
            for i, c in enumerate(b):
                r[k + i] -= f * c
            while r and r[-1] == 0:
                r.pop()
        if r:
            raise ValueError("division is not exact")
        return IntPolynomial(q)

    def __repr__(self) -> str:
        return "IntPolynomial(%r)" % (list(self.coeffs),)

    def __str__(self) -> str:
        return format_poly(self.coeffs)


def format_poly(coeffs: Sequence) -> str:
    """Human form in ascending powers, e.g. ``1 - 2x - x^3``."""
    if not any(coeffs):
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            x = "x" if i == 1 else "x^%d" % i
            body = x if mag == 1 else "%s%s" % (mag, x)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of a by b over the rationals times a positive constant, as
    a primitive integer list.  Each step scales by |lc(b)| / g, never by a
    negative number, so every coefficient has its rational sign."""
    r, lb = list(a), b[-1]
    while len(r) >= len(b):
        g = math.gcd(r[-1], lb)
        f = r[-1] // g if lb > 0 else -r[-1] // g
        k = len(r) - len(b)
        r = [c * (abs(lb) // g) for c in r]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        while r and r[-1] == 0:
            r.pop()
    g = math.gcd(*r)
    return [c // g for c in r] if g > 1 else r


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd by the primitive polynomial remainder sequence
    (Brown–Traub): every remainder is an integer polynomial with its
    content divided out, so no rational number is built."""
    a, b = p.coeffs, q.coeffs
    while b:
        a, b = b, _prem(a, b)
    return IntPolynomial(a).primitive()


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    if p.degree < 1:
        return p.primitive()
    return p.exact_div(poly_gcd(p, p.derivative())).primitive()


ONE = IntPolynomial([1])
X = IntPolynomial([0, 1])


class RationalFunction:
    """num/den with integer-coefficient polynomials, coprime, and the
    denominator's constant term (or leading coefficient when den(0)=0)
    normalized positive.

    >>> f = RationalFunction(IntPolynomial([1, -1]), IntPolynomial([1, -2, 0, -1]))
    >>> print(f)
    (1 - x) / (1 - 2x - x^3)
    >>> f.series(5)
    [1, 1, 2, 5, 11, 24]
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPolynomial, den: IntPolynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = IntPolynomial([]), ONE
        else:
            g = poly_gcd(num, den)
            if g.degree >= 1 or g.content() > 1:
                num = num.exact_div(g)
                den = den.exact_div(g)
            c = math.gcd(num.content(), den.content())
            sign = den.coeffs[0] if den.coeffs[0] else den.leading
            if sign < 0:
                c = -c
            if c != 1:
                num = IntPolynomial([x // c for x in num.coeffs])
                den = IntPolynomial([x // c for x in den.coeffs])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def _reduced(cls, num: IntPolynomial, den: IntPolynomial) -> "RationalFunction":
        """num/den as given, with no gcd taken: the caller knows the pair
        is already coprime, with coprime contents and the normalized sign."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def from_int(cls, k: int) -> "RationalFunction":
        return cls(IntPolynomial([k]), ONE)

    @classmethod
    def from_poly(cls, p: IntPolynomial) -> "RationalFunction":
        return cls(p, ONE)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RationalFunction":
        return RationalFunction.from_int(1) / self

    def series(self, n: int) -> list[int]:
        """First n+1 power-series coefficients, via the recurrence induced
        by the denominator; requires den(0) != 0."""
        d = self.den.coeffs
        if not d or d[0] == 0:
            raise ValueError("no power series: denominator vanishes at 0")
        d0 = d[0]
        num = self.num.coeffs
        out = []
        for k in range(n + 1):
            acc = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(d) - 1) + 1):
                acc -= d[j] * out[k - j]
            if acc % d0 != 0:
                raise ValueError("series coefficients are not integral")
            out.append(acc // d0)
        return out

    def __call__(self, x) -> Fraction:
        return self.num(x) / self.den(x)

    def __repr__(self) -> str:
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def __str__(self) -> str:
        if self.den == ONE:
            return format_poly(self.num.coeffs)
        return "(%s) / (%s)" % (format_poly(self.num.coeffs), format_poly(self.den.coeffs))
