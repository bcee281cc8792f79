"""Tests of the benchmark's references against each other at small sizes.

    python3 perfbench/selftest.py

Every benchmark run calls ``run_all`` before it measures anything and
reports itself incorrect if a reference disagrees with another, so no
check rests on an untested reference.
"""

from __future__ import annotations

import math
import sys
from itertools import permutations

import references as ref
import workloads


def _perms(n: int) -> list:
    return list(permutations(range(1, n + 1)))


def _cases():
    yield "brute force of all permutations: n! members", (
        ref.brute_counts([], 7)[0], [math.factorial(n) for n in range(8)])
    yield "SI permutations by brute force are A003319", (
        ref.brute_counts([], 7)[1][1:], [ref.a003319(n) for n in range(1, 8)])
    yield "A003319(8)", (ref.a003319(8), 29093)
    members, si = ref.brute_counts([(3, 2, 1)], 8)
    yield "Av(321) members are Catalan", (members, [ref.catalan(n) for n in range(9)])
    yield "Av(321) SI counts are shifted Catalan", (si[1:], [ref.catalan(n - 1) for n in range(1, 9)])
    yield "Av(321) sum closed identity", (ref.sum_closed_members(si), members)
    fib = [ref.parse_perm(b) for b in workloads.FIBONACCI_CLASS]
    members, si = ref.brute_counts(fib, 9)
    yield "Fibonacci class SI counts", (si[1:], [ref.fibonacci(n) for n in range(1, 10)])
    yield "Fibonacci class sum closed identity", (ref.sum_closed_members(si), members)
    quoted = [ref.parse_perm(b) for b in workloads.QUOTED_XI]
    members, si = ref.brute_counts(quoted, 9)
    yield "quoted xi class SI counts", (si[1:], workloads.QUOTED_XI_SI)
    yield "quoted xi class sum closed identity", (ref.sum_closed_members(si), members)
    for basis in ([(1, 3, 2, 4)], [(2, 1, 3), (4, 3, 2, 1)], [(2, 4, 1, 3), (3, 1, 4, 2)]):
        levels = ref.brute_levels(basis, 6)
        direct = [
            sorted(p for p in _perms(n) if not any(ref.contains(b, p) for b in basis))
            for n in range(7)
        ]
        yield "levels of Av%s by insertion and by containment" % basis, (
            [sorted(lv) for lv in levels], direct)
    yield "SI test against its definition", (
        [ref.is_si(p) for p in _perms(5)],
        [not any(set(p[:k]) == set(range(1, k + 1)) for k in range(1, 5)) for p in _perms(5)])
    yield "inverse", (ref.inverse((2, 4, 1, 3)), (3, 1, 4, 2))
    yield "parse_poly", (ref.parse_poly("3 + 3x - 2x^2 - x^6 + x^11"), [3, 3, -2, 0, 0, 0, -1] + [0] * 4 + [1])
    yield "poly_divides", (
        (ref.poly_divides(list(ref.XI_COEFFS), ref.poly_mul(list(ref.XI_COEFFS), [2, 0, 1])),
         ref.poly_divides(list(ref.XI_COEFFS), [1, 0, 0, 0, 0, 0, 1])),
        (True, False))

    roots = ref.Roots()

    def growth(prefix, tail):
        return round(roots.value(roots.growth_of_sequence(prefix, tail)[1]), 12)

    yield "growth of 1,(1) is 2", (growth([1], [1]), 2.0)
    yield "growth of 1,1 is the golden ratio", (growth([1, 1], []), round((1 + 5 ** 0.5) / 2, 12))
    yield "growth of 1,(2) is 1 + sqrt 2 (SI counts 1,2,2,...)", (growth([1], [2]), round(1 + 2 ** 0.5, 12))
    yield "xi is about 2.305224", (round(roots.value(roots.xi), 6), 2.305224)
    coeffs, root = roots.growth_of_sequence([1, 1, 2, 3], [4])
    yield "1,1,2,3,(4) attains xi", (roots.side_of_xi(coeffs, root), "at")
    coeffs, root = roots.growth_of_sequence([1, 1, 2, 4, 3, 3, 2, 1], [])
    yield "1,1,2,4,3,3,2,1 attains xi", (roots.side_of_xi(coeffs, root), "at")
    coeffs, root = roots.growth_of_sequence([1, 1, 2, 3, 3, 3, 2, 1], [])
    yield "1,1,2,3,3,3,2,1 lies below xi", (roots.side_of_xi(coeffs, root), "below")
    coeffs, root = roots.growth_of_sequence([1, 1, 2, 4, 3, 3, 3], [])
    yield "1,1,2,4,3,3,3 lies above xi", (roots.side_of_xi(coeffs, root), "above")
    # SI counts F_1..F_30 give nearly the growth of the whole Fibonacci
    # class, the largest root of x^2 - 2x - 1
    yield "Fibonacci class growth polynomial", (
        round(growth([ref.fibonacci(n) for n in range(1, 31)], []), 4),
        round(roots.value(roots.largest_root([-1, -2, 1])), 4))


def run_all() -> list:
    """Descriptions of the cases whose two sides disagree."""
    return ["reference self-test failed: %s: %r != %r" % (what, got, want)
            for what, (got, want) in _cases() if got != want]


if __name__ == "__main__":
    failures = run_all()
    for line in failures:
        print(line)
    print("%s" % ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)
