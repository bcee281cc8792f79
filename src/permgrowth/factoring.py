"""Factorization of integer polynomials over the integers.

``irreducible_factors`` factors by Zassenhaus's method (*J. Number Theory*
1, 1969): Cantor–Zassenhaus factorization modulo a small prime (*Math.
Comp.* 36, 1981), Hensel lifting and recombination.  It works on integers
and residues only, and every candidate factor is checked by exact division.
Only ``algebraics.growth_polynomial`` uses it, to name the factor that owns
a growth rate, so a call that prints no such factor never loads this module.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Sequence

from .polynomials import IntPolynomial, square_free_part


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
