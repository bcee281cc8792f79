"""Exact integer polynomials and rational functions.

``IntPolynomial`` stores ascending integer coefficients with no trailing
zero.  ``RationalFunction`` keeps a coprime numerator/denominator pair with
the denominator's constant term normalized positive, so power series
extraction is always well defined when den(0) != 0.

``irreducible_factors`` factors over the integers by Zassenhaus's method
(*J. Number Theory* 1, 1969): Cantor–Zassenhaus factorization modulo a small
prime (*Math. Comp.* 36, 1981), Hensel lifting and recombination.  It works
on integers and residues only, and every candidate factor is checked by
exact division.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence


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


# Polynomials modulo m are ascending coefficient lists with entries
# in 0..m-1 and no trailing zero; [] is the zero polynomial.  The
# functions named _p need m = p prime.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul_mod(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _sub_mod(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    return _trim([(x - (b[i] if i < len(b) else 0)) % m for i, x in enumerate(a)])


def _divmod_p(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b (nonzero) modulo the prime p."""
    inv = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        f = r[-1] * inv % p
        k = len(r) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] = (r[k + i] - f * c) % p
        _trim(r)
    return q, r


def _monic_p(a: Sequence[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_p(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd modulo p; a and b are not both zero."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    return _monic_p(a, p)


def _bezout_p(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s*a + t*b = 1 modulo p, for coprime a and b."""
    r0, r1 = list(a), list(b)
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod_p(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    """a^e modulo f and p, by repeated squaring."""
    out, a = [1], _divmod_p(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_p(_mul_mod(out, a, p), f, p)[1]
        a = _divmod_p(_mul_mod(a, a, p), f, p)[1]
        e >>= 1
    return out


def _factor_mod_p(f: Sequence[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a monic square-free f modulo an odd
    prime p: distinct-degree factorization, then Cantor–Zassenhaus
    equal-degree splitting with a fixed seed."""
    rng = random.Random(0)
    x = [0, 1]
    out: list[list[int]] = []

    def split(g: list[int], d: int) -> None:
        # g is a product of distinct irreducibles of degree d
        if len(g) - 1 == d:
            out.append(g)
            return
        e = (p**d - 1) // 2
        while True:
            a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
            if len(a) < 2:
                continue
            c = _gcd_p(g, _sub_mod(_powmod_p(a, e, g, p), [1], p), p)
            if 1 < len(c) < len(g):
                split(c, d)
                split(_divmod_p(g, c, p)[0], d)
                return

    h, d = x, 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod_p(h, p, f, p)  # x^(p^d) mod f
        g = _gcd_p(f, _sub_mod(h, x, p), p)
        if len(g) > 1:
            split(g, d)
            f = _divmod_p(f, g, p)[0]
            h = _divmod_p(h, f, p)[1]
    if len(f) > 1:
        out.append(list(f))
    return out


def _hensel_lift(F: list[int], us: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Monic factors modulo p^k of F, which is monic modulo p^k and the
    product of the monic factors ``us`` modulo p (linear Hensel lifting,
    splitting the factor list in halves)."""
    if len(us) == 1:
        return [F]
    half = len(us) // 2
    g, h = [1], [1]
    for u in us[:half]:
        g = _mul_mod(g, u, p)
    for u in us[half:]:
        h = _mul_mod(h, u, p)
    s, t = _bezout_p(g, h, p)
    pj = p
    for _ in range(k - 1):
        # F = g*h mod p^j; correct both so that it holds mod p^(j+1)
        gh = _mul_mod(g, h, pj * p)
        e = _trim([(c - gh[i]) % (pj * p) // pj for i, c in enumerate(F)])
        sigma = _divmod_p(_mul_mod(s, e, p), h, p)[1]
        tau = _divmod_p(_mul_mod(t, e, p), g, p)[1]
        g = [c + pj * (tau[i] if i < len(tau) else 0) for i, c in enumerate(g)]
        h = [c + pj * (sigma[i] if i < len(sigma) else 0) for i, c in enumerate(h)]
        pj *= p
    return _hensel_lift(g, us[:half], p, k) + _hensel_lift(h, us[half:], p, k)


def _odd_primes():
    n = 3
    while True:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def irreducible_factors(p: IntPolynomial) -> list[IntPolynomial]:
    """The distinct irreducible factors of ``p`` over the integers that
    have degree >= 1, each primitive with a positive leading coefficient,
    in ascending order of degree and then of coefficients.

    Zassenhaus's method: factor the square-free part modulo a small odd
    prime, Hensel-lift the factors past twice the Mignotte bound, and
    recombine subsets of them into true factors.

    >>> [str(g) for g in irreducible_factors(IntPolynomial([-1, 0, 0, 0, 1]))]
    ['-1 + x', '1 + x', '1 + x^2']
    """
    f = square_free_part(p)
    if f.degree < 1:
        return []
    lc = f.leading
    # among the first three odd primes that keep the degree and the image
    # square-free, take the one with the fewest modular factors
    df = f.derivative().coeffs
    found = []
    for q in _odd_primes():
        fq = _trim([c % q for c in f.coeffs])
        if lc % q and len(_gcd_p(fq, _trim([c % q for c in df]), q)) == 1:
            found.append((q, _factor_mod_p(_monic_p(fq, q), q)))
            if len(found) == 3:
                break
    q, us = min(found, key=lambda qu: len(qu[1]))
    # q^k > 2 |lc| 2^n ||f||_2 bounds every coefficient of lc/lc(g) * g
    # for each factor g of f, so the symmetric residues are exact
    bound2 = 4 * lc * lc * 4**f.degree * sum(c * c for c in f.coeffs)
    m, k = q, 1
    while m * m <= bound2:
        m, k = m * q, k + 1
    inv = pow(lc, -1, m)
    lifted = _hensel_lift([c * inv % m for c in f.coeffs], us, q, k)
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = [f.leading % m]
            for i in subset:
                cand = _mul_mod(cand, lifted[i], m)
            g = IntPolynomial([c - m if 2 * c > m else c for c in cand]).primitive()
            if g.divides(f):
                factors.append(g)
                f = f.exact_div(g)
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    factors.append(f)
    return sorted(factors, key=lambda g: (g.degree, g.coeffs))


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
