"""End-to-end acceptance checks, one block per headline claim.

Each test recomputes a published-style result from scratch through the
public API and compares against independently frozen values (brute-force
censuses, hand-checked witnesses, closed-form constants).
"""

import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice

import pytest

from permgrowth import (
    KAPPA_POLY,
    XI_POLY,
    census,
    class_gf,
    compare,
    compute_basis,
    contains,
    family_roots,
    growth_polynomial,
    largest_real_root,
    si_gf,
    spec_from_strs,
    verify_reconstruction,
    verify_taper,
    xi,
)
from permgrowth.campaigns import run_campaign
from permgrowth.perms import parse_permutation, split_end_member
from permgrowth.polynomials import IntPolynomial
from permgrowth.sequences import SumSequence, growth_rate_of_sequence
from permgrowth.tables import verify_table


# 1. the two threshold constants, exactly and quickly
def test_constants():
    started = time.perf_counter()
    k = largest_real_root(KAPPA_POLY)
    x = xi()
    k.refine(Fraction(1, 10**9))
    x.refine(Fraction(1, 10**9))
    elapsed = time.perf_counter() - started
    assert abs(float(k.lo) - 2.205569) <= 1e-6
    assert abs(float(x.lo) - 2.305224) <= 1e-6
    assert elapsed < 1.0


# 2. child-set reconstruction: collisions only between oscillation pairs
@pytest.mark.parametrize("n", [5, 6, 7])
def test_reconstruction_exhaustive(n):
    report = verify_reconstruction(n)
    assert report.passed
    assert report.checked == {5: 71, 6: 461, 7: 3447}[n]


def test_reconstruction_exhaustive_length_8():
    report = verify_reconstruction(8)
    assert report.passed
    assert report.checked == 29093


# 3. taper bounds hold at (4,2), (5,3), (6,4) and break at (11,5)
@pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (6, 4)])
def test_taper_holds(n, m):
    assert verify_taper(n, m).passed


TAPER_WITNESSES = (
    "2 3 5 1 7 4 9 6 10 11 8",
    "2 3 5 1 7 4 9 6 11 8 10",
    "2 4 1 6 3 8 5 10 7 11 9",
    "3 1 5 2 7 4 9 6 10 11 8",
    "3 1 5 2 7 4 9 6 11 8 10",
)


@pytest.mark.slow
def test_taper_breaks_at_eleven():
    report = verify_taper(11, 5)
    assert not report.passed
    witness = tuple(sorted(parse_permutation(w) for w in TAPER_WITNESSES))
    # the hand-checked witness set is among the violations; the exhaustive
    # search finds seven further ones, each re-verifiable by direct
    # child-set computation
    assert witness in report.failures
    assert len(report.failures) == 8
    from permgrowth.perms import children

    for group in report.failures:
        union = set()
        for p in group:
            union |= children(p)
        assert len(union) < 5


# 4. the two branching searches over small-count classes
def test_search_1123():
    report = run_campaign("search-1123")
    assert report.passed
    assert report.artifacts["classes_visited"] == 178
    assert report.artifacts["counterexamples"] == []


def test_search_112344():
    report = run_campaign("search-112344")
    assert report.passed
    found = report.artifacts["classes_with_five"]
    bases = sorted(tuple(entry["basis"]) for entry in found)
    assert bases == [
        ("3 2 1", "2 3 4 1", "3 4 1 2", "5 1 2 3 4", "2 5 1 3 6 4"),
        ("3 2 1", "3 4 1 2", "4 1 2 3", "2 3 4 5 1", "3 1 4 6 2 5"),
    ]
    for entry in found:
        seq = SumSequence(entry["si_counts"][:6], entry["si_counts"][6:8])
        assert seq == SumSequence([1, 1, 2, 3, 4, 4], (5, 4))


# 5. generating-function pipeline against brute force
def test_fibonacci_class_series():
    spec = spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1")
    g = si_gf(class_gf(spec))
    assert g.series(8)[1:] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert census(spec, 8).si_sequence() == [1, 1, 2, 3, 5, 8, 13, 21]


# 6. basis recovery for the sum closure of the split-end antichain closure
def test_split_end_sum_closure_basis():
    antichain = [split_end_member(n, "Uo") for n in range(7, 22, 2)]

    @lru_cache(maxsize=None)
    def in_closure(q):
        return any(contains(q, w) for w in antichain)

    # compute_basis asks only about the empty permutation, sum
    # indecomposable ones and the sums of two of length <= 3, which the
    # closure of the antichain already holds, so the sum closure need not
    # be taken here
    def oracle(p):
        return len(p) == 0 or in_closure(p)

    basis = compute_basis(oracle, 7)
    assert sorted(str(b) for b in basis) == [
        "2 3 4 5 1",
        "3 1 4 6 2 5",
        "3 2 1",
        "3 4 1 2",
        "4 1 2 3",
    ]


# 7. the four tables of growth polynomials, regenerated and root-checked
@pytest.mark.parametrize("which", [1, 2, 3, 4])
def test_tables_regenerate(which):
    result = verify_table(which, max_index=6)
    assert result["passed"], result["problems"]
    assert result["checked"] > 0


# 8. an explicit finitely based class attains the accumulation constant:
# its sum indecomposable counts are 1,1,2,4,3,3,2,1 and its growth rate is
# exactly xi.  The basis quoted for this claim (231, 4132, 4213, 54312,
# 7612345, 81234567, 987654321) does not realize it: its length-4 sum
# indecomposable members are only 4123, 4312 and 4321, so its counts are
# 1,1,2,3,3,3,2,1 and its growth rate is about 2.268088 (pinned by the
# companion tests below).  No deletion, same-length SI substitution or
# adjacent transposition of a quoted basis element gives the claimed counts
# either.  The basis used here is the one the xi-basis campaign builds from
# the generic construction; the stdlib brute force below, the census and
# the insertion-encoding generating function each confirm it.
XI_WITNESS_BASIS = (
    "3 1 2",
    "4 3 2 1",
    "2 3 5 4 1",
    "2 4 5 3 1",
    "3 2 5 4 1",
    "3 4 2 5 1",
    "3 4 5 2 1",
    "2 4 3 5 6 7 1",
    "3 2 4 5 6 7 8 1",
    "2 3 4 5 6 7 8 9 1",
)

QUOTED_XI_BASIS = (
    "2 3 1",
    "4 1 3 2",
    "4 2 1 3",
    "5 4 3 1 2",
    "7 6 1 2 3 4 5",
    "8 1 2 3 4 5 6 7",
    "9 8 7 6 5 4 3 2 1",
)


def test_quoted_accumulation_basis_claim():
    assert _brute_si_counts(XI_WITNESS_BASIS, 9) == [1, 1, 2, 4, 3, 3, 2, 1, 0]
    spec = spec_from_strs(*XI_WITNESS_BASIS)
    seq = census(spec, 12).si_sequence()
    assert seq == [1, 1, 2, 4, 3, 3, 2, 1] + [0] * 4
    g = growth_polynomial(class_gf(spec))
    assert XI_POLY.divides(g)


def test_accumulation_sequence_true_behavior():
    # what actually holds: the quoted class has counts 1,1,2,3,3,3,2,1
    assert _brute_si_counts(QUOTED_XI_BASIS, 9) == [1, 1, 2, 3, 3, 3, 2, 1, 0]
    spec = spec_from_strs(*QUOTED_XI_BASIS)
    assert census(spec, 12).si_sequence() == [1, 1, 2, 3, 3, 3, 2, 1] + [0] * 4
    # while the sequence 1,1,2,4,3,3,2,1 itself is realizable with growth
    # exactly the accumulation constant, via the generic construction
    seq = SumSequence([1, 1, 2, 4, 3, 3, 2, 1])
    growth = growth_rate_of_sequence(seq)
    assert compare(growth, xi()) == 0


def test_xi_basis_campaign_reports_discrepancy():
    report = run_campaign("xi-basis")
    assert not report.passed
    assert report.artifacts["quoted_matches_claim"] is False
    assert report.artifacts["construction_matches_claim"] is True
    assert report.artifacts["quoted_si_counts"][:8] == [
        1, 1, 2, 3, 3, 3, 2, 1,
    ]


# 9. the family accumulating to the threshold from above
def test_accumulation_family():
    eps = Fraction(1, 10**9)
    f = XI_POLY * IntPolynomial([1, 1])
    polys = [f.shift(2 * i + 1) - IntPolynomial([1]) for i in range(1, 11)]
    roots, problem = family_roots(polys, XI_POLY, 1, Fraction(1, 1000))
    roots[-1].refine(eps)
    x = xi()
    x.refine(eps)
    # family_roots has shown the strict decrease, each root above xi and the gap
    assert problem is None
    assert len(roots) == 10
    for r in roots:
        assert compare(r, x) > 0
    assert roots[-1].hi - x.lo < Fraction(1, 1000)


# 10. property-style spot suites (the full versions live in the module
# test files; these pin the headline numbers)
def test_roundtrips_to_length_8():
    from permgrowth.perms import all_permutations
    from permgrowth.insertion import decode, encode

    for n in range(1, 9):
        for p in all_permutations(n):
            assert decode(encode(p)) == p


def test_domination_implies_growth_monotonicity():
    import random

    rng = random.Random(20260824)
    checked = 0
    while checked < 50:
        base = [1, 1] + [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
        lower = list(base)
        for i in range(2, len(lower)):
            lower[i] = max(0, lower[i] - rng.randint(0, 2))
        r = SumSequence(base)
        t = SumSequence(lower)
        from permgrowth.sequences import dominates

        # t sits below r pointwise, so its growth cannot exceed r's
        if not dominates(t, r) or not t.prefix or r == t:
            continue
        checked += 1
        assert compare(
            growth_rate_of_sequence(r), growth_rate_of_sequence(t)
        ) >= 0


def _sub_closure_si_counts(p):
    # census of Sub(p): close downward under single-entry deletion
    from permgrowth.perms import is_sum_indecomposable

    levels = {len(p): {p}}
    for n in range(len(p), 1, -1):
        levels[n - 1] = {q.delete(i) for q in levels[n] for i in range(n)}
    return [
        sum(1 for q in levels[n] if is_sum_indecomposable(q))
        for n in range(1, len(p) + 1)
    ]


def _brute_si_counts(basis_strs, n):
    # sum indecomposable counts of Av(basis) for lengths 1..n, using no
    # permgrowth code: grow each level by inserting the new maximum at every
    # position and test containment over all subsequences
    basis = {tuple(int(t) for t in s.split()) for s in basis_strs}
    lengths = sorted({len(b) for b in basis})

    def contains_basis(p):
        for m in lengths:
            for sub in combinations(p, m):
                ranks = sorted(sub)
                if tuple(ranks.index(v) + 1 for v in sub) in basis:
                    return True
        return False

    def is_si(p):
        return all(max(p[:i]) != i for i in range(1, len(p)))

    level, counts = [()], []
    for k in range(1, n + 1):
        level = [
            q
            for p in level
            for i in range(k)
            for q in [p[:i] + (k,) + p[i:]]
            if not contains_basis(q)
        ]
        counts.append(sum(1 for q in level if is_si(q)))
    return counts


@pytest.mark.parametrize("k", [0, 1])
def test_split_end_substructure_counts(k):
    mu = split_end_member(2 * k + 7, "Uo")
    expected = [1, 1, 2, 3] + [4] * (2 * k) + [3, 2, 1]
    assert _sub_closure_si_counts(mu) == expected
