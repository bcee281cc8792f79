"""Reference computations made apart from the program under test.

Nothing here imports ``permgrowth``.  Permutations are tuples of the values
1..n.  ``selftest.py`` checks these references against each other at small
sizes, so no check of the benchmark rests on an untested reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

# x^5 - 2x^4 - x^2 - x - 1, lowest degree first; its largest real root is xi
XI_COEFFS = (-1, -1, -1, 0, -2, 1)


# ---------------------------------------------------------------------------
# permutations by brute force


def parse_perm(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split())


def is_si(p: tuple) -> bool:
    """Sum indecomposable: no proper prefix holds exactly the values 1..k."""
    if not p:
        return False
    hi = 0
    for k, v in enumerate(p[:-1], 1):
        hi = max(hi, v)
        if hi == k:
            return False
    return True


def _pattern(seq) -> tuple:
    order = sorted(seq)
    return tuple(order.index(v) + 1 for v in seq)


def contains(pattern: tuple, perm: tuple) -> bool:
    """Some subsequence of ``perm`` is order isomorphic to ``pattern``."""
    k = len(pattern)
    return any(
        _pattern([perm[i] for i in idx]) == pattern
        for idx in combinations(range(len(perm)), k)
    )


def _hits_with_max(pattern: tuple, perm: tuple, pos: int) -> bool:
    """An occurrence of ``pattern`` that uses the entry at ``pos``, which is
    the maximum of ``perm`` and so must play the pattern's maximum."""
    k = len(pattern)
    m = pattern.index(k)
    for left in combinations(range(pos), m):
        for right in combinations(range(pos + 1, len(perm)), k - 1 - m):
            idx = left + (pos,) + right
            if _pattern([perm[i] for i in idx]) == pattern:
                return True
    return False


def brute_levels(basis: list, max_len: int) -> list:
    """Members of Av(basis) of each length 0..max_len.  Level n grows from
    level n-1 by inserting the new maximum n at every position; a candidate
    is kept iff no basis element occurs in it using that new entry (the
    other occurrences were already excluded from its parent)."""
    basis = [tuple(b) for b in basis]
    levels = [[()] if () not in basis else []]
    for n in range(1, max_len + 1):
        nxt = []
        for p in levels[-1]:
            for pos in range(n):
                c = p[:pos] + (n,) + p[pos:]
                if not any(
                    len(b) <= n and _hits_with_max(b, c, pos) for b in basis
                ):
                    nxt.append(c)
        levels.append(nxt)
    return levels


def brute_counts(basis: list, max_len: int) -> tuple[list, list]:
    """(member counts, SI counts) for lengths 0..max_len."""
    levels = brute_levels(basis, max_len)
    return [len(lv) for lv in levels], [sum(map(is_si, lv)) for lv in levels]


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p, 1):
        inv[v - 1] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# closed forms


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    """F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def a003319(n: int) -> int:
    """Sum indecomposable permutations of length n:
    c_n = n! - sum_{k=1}^{n-1} k! c_{n-k}."""
    return math.factorial(n) - sum(
        math.factorial(k) * a003319(n - k) for k in range(1, n)
    )


def sum_closed_members(si_counts: list) -> list:
    """Member counts m_0..m_N of a sum closed class with SI counts
    s_1..s_N (``si_counts[0]`` is ignored): the coefficients of
    1/(1 - sum s_n x^n), m_n = sum_k s_k m_{n-k}."""
    m = [1]
    for n in range(1, len(si_counts)):
        m.append(sum(si_counts[k] * m[n - k] for k in range(1, n + 1)))
    return m


# ---------------------------------------------------------------------------
# polynomials and real roots (sympy)


def parse_poly(text: str) -> list:
    """Integer coefficients, lowest degree first, of the program's printed
    form, e.g. ``-1 - x - x^2 - 2x^4 + x^5``."""
    coeffs: dict = {}
    for sign, term in _terms(text.replace(" ", "")):
        if "x" in term:
            c, _, e = term.partition("x")
            c = int(c) if c else 1
            e = int(e[1:]) if e else 1
        else:
            c, e = int(term), 0
        coeffs[e] = coeffs.get(e, 0) + sign * c
    deg = max(coeffs)
    return [coeffs.get(i, 0) for i in range(deg + 1)]


def _terms(text: str):
    sign, start = 1, 0
    if text[:1] in "+-":
        sign, start = (-1 if text[0] == "-" else 1), 1
    term = ""
    for ch in text[start:]:
        if ch in "+-" and term and term[-1] != "^":
            yield sign, term
            sign, term = (-1 if ch == "-" else 1), ""
        else:
            term += ch
    yield sign, term


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divides(d: list, p: list) -> bool:
    """Exact division of integer polynomials (lowest degree first)."""
    rem = [Fraction(c) for c in p]
    while len(rem) >= len(d) and any(rem):
        q = rem[-1] / d[-1]
        shift = len(rem) - len(d)
        for i, c in enumerate(d):
            rem[shift + i] -= q * c
        rem.pop()
    return not any(rem)


class Roots:
    """Largest real roots by sympy's exact isolation (``real_roots``),
    compared with xi exactly: equality by exact division by the
    irreducible xi polynomial, order by 60-digit refinement of the
    isolating intervals otherwise."""

    def __init__(self):
        import sympy

        self._sympy = sympy
        self.x = sympy.Symbol("x")
        self.xi = self.largest_root(XI_COEFFS)

    def poly(self, coeffs: list):
        return self._sympy.Poly(list(reversed(coeffs)), self.x)

    def largest_root(self, coeffs: list):
        roots = self.poly(coeffs).real_roots()
        if not roots:
            raise ValueError("no real root")
        return roots[-1]

    def value(self, root, digits: int = 30) -> float:
        return float(root.evalf(digits))

    def side_of_xi(self, coeffs: list, root) -> str:
        """'at', 'above' or 'below': where ``root``, the largest real root
        of ``coeffs``, lies relative to xi."""
        if poly_divides(list(XI_COEFFS), coeffs) and abs(
            root.evalf(60) - self.xi.evalf(60)
        ) < 1e-50:
            return "at"
        gap = root.evalf(60) - self.xi.evalf(60)
        if abs(gap) < 1e-50:
            raise ValueError("root too close to xi to order")
        return "above" if gap > 0 else "below"

    def growth_of_sequence(self, prefix: list, tail: list) -> tuple:
        """(coefficients, root) for the growth rate of the sum closed class
        whose SI counts are ``prefix`` followed by ``tail`` repeated
        forever.  The growth rate is 1/rho, where rho is the least positive
        root of 1 - g(x), g = sum s_n x^n, and so a root of
        N(x) = (1 - x^P)(1 - G(x)) - x^k T(x) (x = 1 is not, as T(1) > 0).
        1/rho is the largest real root of the reversed polynomial x^d N(1/x):
        its other real roots are reciprocals of negative roots or of
        positive roots beyond rho."""
        k, period = len(prefix), len(tail)
        one_minus_g = [1] + [-c for c in prefix]
        if not tail:
            num = one_minus_g
        else:
            num = [0] * (k + period + 1)
            for i, c in enumerate(one_minus_g):
                num[i] += c
                num[i + period] -= c
            for i, c in enumerate(tail):
                num[k + 1 + i] -= c
        while num[-1] == 0:
            num.pop()
        rev = list(reversed(num))
        return rev, self.largest_root(rev)
