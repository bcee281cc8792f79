"""Randomized invariants over permutations, sequences, and class specs."""

import math
from fractions import Fraction
from itertools import combinations, permutations as all_tuples
from unittest import mock

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from permgrowth import insertion
from permgrowth.algebraics import (
    AlgebraicNumber,
    compare,
    count_real_roots,
    growth_polynomial,
    largest_real_root,
    root_bound,
)
from permgrowth.classes import (
    ClassSpec,
    census,
    compute_basis,
    has_regular_insertion_encoding,
    member,
)
from permgrowth.insertion import (
    SlotBoundExceeded,
    class_gf,
    decode,
    encode,
    eventual_period,
    si_gf,
)
from permgrowth.perms import (
    Permutation,
    _delete,
    children,
    contains,
    direct_sum,
    inversion_graph,
    is_sum_indecomposable,
    member_id,
    next_level,
    next_si_level,
    si_children_within,
    standardize,
)
from permgrowth.factoring import irreducible_factors
from permgrowth.polynomials import (
    ONE,
    IntPolynomial,
    RationalFunction,
    poly_gcd,
)
from permgrowth.sequences import (
    SumSequence,
    class_gf_of_sequence,
    gf_of_sequence,
    growth_rate_of_sequence,
    is_legal,
)


def permutations(max_len=8):
    return st.permutations(range(1, max_len + 1)).flatmap(
        lambda full: st.integers(0, max_len).map(
            lambda n: standardize(full[:n])
        )
    )


@given(permutations())
def test_encode_decode_round_trip(p):
    # the encoding starts from a single open slot, so there is no word
    # for the empty permutation
    if len(p) == 0:
        return
    assert decode(encode(p)) == p


@given(permutations())
@settings(deadline=None)
def test_deletion_yields_patterns(p):
    for i in range(len(p)):
        assert contains(p.delete(i), p)


@given(permutations(max_len=6), permutations(max_len=6))
def test_direct_sum_components(p, q):
    s = direct_sum(p, q)
    assert len(s) == len(p) + len(q)
    assert standardize(s[: len(p)]) == p
    assert standardize(s[len(p):]) == q
    if len(p) and len(q):
        assert not is_sum_indecomposable(s)


@given(permutations())
def test_standardize_is_idempotent(p):
    assert standardize(p) == p


@given(st.lists(st.integers(0, 6), min_size=0, max_size=6),
       st.lists(st.integers(0, 6), min_size=0, max_size=3))
def test_sum_sequence_parse_str_round_trip(prefix, tail):
    s = SumSequence(prefix, tuple(tail) if any(tail) else ())
    assert SumSequence.parse(str(s)) == s


@given(st.lists(permutations(max_len=5), min_size=1, max_size=4))
def test_class_spec_minimization_idempotent(basis):
    basis = [p for p in basis if len(p) > 0]
    if not basis:
        return
    spec = ClassSpec(basis)
    again = ClassSpec(spec.sorted_basis())
    assert spec == again
    # the minimized basis is an antichain under containment
    for p in spec.basis:
        for q in spec.basis:
            assert p == q or not contains(p, q)


@given(st.lists(permutations(max_len=5), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_census_counts_match_membership(basis):
    basis = [p for p in basis if len(p) >= 2]
    if not basis:
        return
    spec = ClassSpec(basis)
    c = census(spec, 5)
    from permgrowth.perms import all_permutations

    for n in range(1, 6):
        direct = sum(1 for p in all_permutations(n) if member(spec, p))
        # member_counts is indexed by length, with length 0 included
        assert c.member_counts[n] == direct


@given(st.lists(permutations(max_len=4), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_census_si_sequences_are_legal(basis):
    basis = [p for p in basis if len(p) >= 3]
    if not basis:
        return
    seq = census(ClassSpec(basis), 7).si_sequence()
    assert is_legal(SumSequence(seq))


@given(permutations(max_len=7))
def test_containment_reflexive_and_monotone(p):
    assert contains(p, p)
    one = Permutation((1,))
    if len(p) >= 1:
        assert contains(one, p)


@given(permutations(max_len=5), permutations(max_len=8))
@settings(deadline=None)
def test_containment_and_si_match_brute_force(p, q):
    brute = any(
        standardize(sub) == p for sub in combinations(q, len(p))
    )
    assert contains(p, q) == brute
    for r in (p, q):
        assert is_sum_indecomposable(r) == inversion_graph(r).is_connected()


def test_containment_antisymmetry_spot():
    p = Permutation((2, 4, 1, 3))
    q = Permutation((2, 4, 1, 5, 3))
    assert contains(p, q)
    assert not contains(q, p)


def _drop(t, i):
    """The entry string of the pattern of t without entry i."""
    return bytes(x - (x > t[i]) for k, x in enumerate(t) if k != i)


def _si(t):
    return bool(t) and all(max(t[:k]) > k for k in range(1, len(t)))


# a random subset of S_n for n in 0..6, of any density, so not closed
# under deletion; filtered to its sum indecomposable members when si
def _sublevels(si=False):
    def draw(n, density, rng):
        return {bytes(t) for t in all_tuples(range(1, n + 1)) if (not si or _si(t)) and rng.random() < density}

    return st.builds(draw, st.integers(1 if si else 0, 6), st.sampled_from([0.2, 0.6, 0.9, 1.0]),
                     st.randoms(use_true_random=False))


@given(_sublevels())
@example({b""})
@example(set())
@settings(max_examples=60, deadline=None)
def test_next_level_matches_brute_force(level):
    # every string one longer, from a new maximum inserted into a member,
    # whose other children all lie in the level, listed once
    brute = set()
    for p in level:
        top = len(p) + 1
        for pos in range(top):
            c = p[:pos] + bytes((top,)) + p[pos:]
            if all(_drop(c, i) in level for i in range(top)):
                brute.add(c)
    assert sorted(next_level(level)) == sorted(brute)


@given(_sublevels(si=True))
@settings(max_examples=60, deadline=None)
def test_next_si_level_groups_by_child_set(level):
    n = len(next(iter(level), b""))
    child_sets = {}
    for c in all_tuples(range(1, n + 2)):
        kids = frozenset(_drop(c, i) for i in range(n + 1)) & level
        if _si(c) and kids:
            child_sets[bytes(c)] = kids
    step = {}
    for c, count, digest in next_si_level(level):
        assert c not in step
        step[c] = (count, digest)
    assert set(step) == set(child_sets)
    for c, (count, digest) in step.items():
        assert count == len(child_sets[c])
        assert digest == sum(map(member_id, child_sets[c])) % 2**64
    # equal values exactly when the child sets are equal
    pairs = {(value, child_sets[c]) for c, value in step.items()}
    assert len(pairs) == len({value for value, _ in pairs}) == len({ks for _, ks in pairs})


def _sliced(t, i):
    """The pattern of t without entry i, by slicing and ``standardize``."""
    return bytes(standardize(t[:i] + t[i + 1:]))


@given(permutations(max_len=12), _sublevels(si=True))
@settings(max_examples=80, deadline=None)
def test_deletions_match_slicing(p, level):
    # the one-translate deletion against slicing the entry out and
    # standardizing what is left, at every position
    t = bytes(p)
    kids = [_sliced(t, i) for i in range(len(t))]
    assert [_delete(p, i) for i in range(len(p))] == kids
    si_kids = {c for c in kids if _si(c)}
    if p:
        assert children(p) == si_kids
    # within exactly its sum indecomposable children, and not within any
    # set one short of them
    assert si_children_within(t, si_kids)
    for c in si_kids:
        assert not si_children_within(t, si_kids - {c})
    # within a drawn level: t, and its prefix one longer than the level's
    # strings, whose children can lie in the level
    n = len(next(iter(level), b""))
    for u in (t, bytes(standardize(t[:n + 1]))):
        assert si_children_within(u, level) == all(
            _sliced(u, i) in level or not _si(_sliced(u, i)) for i in range(len(u))
        )


# a random sum closed class: its basis is 1 to 4 sum indecomposable
# permutations of length 3 to 5
si_basis_elements = (
    st.integers(3, 5)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(tuple)
    .filter(_si)
)


@given(st.lists(si_basis_elements, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_compute_basis_recovers_random_sum_closed_classes(basis):
    spec = ClassSpec(map(Permutation, basis))
    assert compute_basis(lambda p: member(spec, p), 6) == spec.basis


# 1 to 3 permutations of length 3 to 5
basis_elements = (
    st.integers(3, 5).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)
)


# most small bases are not regular, above all the short lists drawn first;
# few drawn SI bases give eventually periodic SI counts, so the example, one
# of the two 1,1,2,3,4,4 classes that reach a count of 5, always checks the
# sequence g.f.s on a prefix and a tail
@given(st.lists(basis_elements, min_size=1, max_size=3))
@example([(3, 2, 1), (3, 4, 1, 2), (4, 1, 2, 3), (2, 3, 4, 5, 1), (3, 1, 4, 6, 2, 5)])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_class_gf_matches_census_on_random_regular_classes(basis):
    spec = ClassSpec(map(Permutation, basis))
    assume(has_regular_insertion_encoding(spec))
    # a build that opens 7 or 8 slots takes 2 s (Av(1432, 12345, 13524), 592
    # states) or 10–15 s (Av(2341, 31254, 54321), 3 381 states), so this test
    # refuses those classes, as the program refuses more than SLOT_CAP slots
    try:
        with mock.patch.object(insertion, "SLOT_CAP", 6):
            f = class_gf(spec)
    except SlotBoundExceeded:
        reject()
    c = census(spec, 8)
    assert f.series(8) == c.member_counts
    if all(map(_si, basis)):  # an SI basis gives a sum closed class
        g = si_gf(f)
        assert g.series(8) == c.si_counts
        # the sequence g.f.s of the SI counts, read off g as a prefix and a
        # tail; a class whose counts are not eventually periodic is refused
        try:
            counts, period = eventual_period(g)
        except ValueError:
            reject()
        seq = SumSequence(counts[1:-period], counts[-period:])
        assert gf_of_sequence(seq) == g
        assert class_gf_of_sequence(seq) == f


def _reference_step(sigs, table, action, j):
    # the element step window by window: each window renumbered alone and
    # again in the matched branch, empty windows screened apart from
    # feasibility, and a pairwise dominance prune
    def reindex(w):
        lo, hi = w
        if action == "f":
            return (lo if lo <= j else lo - 1, hi if hi < j else hi - 1)
        if action == "m":
            return (lo if lo <= j else lo + 1, hi if hi < j else hi + 1)
        return w

    def feasible(sig):
        cur = 1
        for lo, hi in sig:
            cur = max(cur, lo)
            if cur > hi:
                return False
        return True

    j_left, j_right = (j - 1, j) if action in ("f", "r") else (j, j + 1)
    out = set()
    for sig in sigs:
        ns = tuple(map(reindex, sig))
        if all(lo <= hi for lo, hi in ns) and feasible(ns):
            out.add(ns)
        t = table[len(sig)]
        if sig[t][0] <= j <= sig[t][1]:
            matched = []
            for i, w in enumerate(sig):
                if i == t:
                    continue
                wlo, whi = reindex(w)
                if i < t:
                    whi = min(whi, j_left)
                else:
                    wlo = max(wlo, j_right)
                if wlo > whi:
                    break
                matched.append((wlo, whi))
            else:
                if len(matched) <= 1:
                    return insertion._DEAD
                if feasible(matched):
                    out.add(tuple(matched))
    return frozenset(
        a for a in out
        if not any(
            b != a and len(b) == len(a)
            and all(bl <= al and bh >= ah for (bl, bh), (al, ah) in zip(b, a))
            for b in out
        )
    )


# a basis element of length 3 to 6 and a letter walk from its initial
# signature set; a letter names its slot modulo the slot count
@given(
    st.integers(3, 6).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.lists(st.tuples(st.sampled_from(insertion.ACTIONS), st.integers(1, insertion.SLOT_CAP)), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_element_step_matches_a_window_by_window_reference(b, walk):
    table = insertion._next_entry_tables(Permutation(b))
    sigs, s = frozenset({((1, 1),) * len(b)}), 1
    for letter in walk + [None]:
        for action in insertion.ACTIONS:
            for j in range(1, s + 1):
                got = insertion._step_sigset(sigs, table, action, j)
                want = _reference_step(sigs, table, action, j)
                assert got is want if want is insertion._DEAD else got == want, (sigs, action, j)
        if letter is None:
            break
        action, k = letter
        if action == "m" and s == insertion.SLOT_CAP:
            continue
        sigs = _reference_step(sigs, table, action, 1 + (k - 1) % s)
        s += insertion._SLOT_DELTA[action]
        if sigs is insertion._DEAD or s == 0:
            break


# random integer polynomials of degree <= 8, coefficients in -20..20; the
# extra zeros give degree gaps in remainder sequences, where a pseudo-remainder
# scaled by a negative leading coefficient flips the sign of a Sturm member
int_polys = st.lists(st.just(0) | st.integers(-20, 20), max_size=9).map(IntPolynomial)
nonzero_polys = int_polys.filter(lambda p: not p.is_zero())
rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 4))
_X = sympy.Symbol("x")


def _to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], _X, domain="ZZ")


def _from_sympy(P):
    return IntPolynomial([int(c) for c in reversed(P.all_coeffs())])


@given(int_polys, int_polys)
@settings(deadline=None)
def test_poly_gcd_matches_sympy(p, q):
    expected = _from_sympy(_to_sympy(p).gcd(_to_sympy(q))).primitive()
    assert poly_gcd(p, q) == expected


@given(int_polys, nonzero_polys)
def test_exact_div_and_divides_invert_multiplication(a, b):
    assert (a * b).exact_div(b) == a
    assert b.divides(a * b)


@given(nonzero_polys, nonzero_polys, st.integers(2, 5))
def test_exact_div_rejects_a_non_integral_quotient(a, b, k):
    # (a*b) / (k*b) = a/k, which is not integral unless k divides a
    if a.content() % k == 0:
        return
    with pytest.raises(ValueError):
        (a * b).exact_div(b * k)


@given(int_polys, rationals, rationals)
@settings(deadline=None)
def test_count_real_roots_matches_sympy(p, a, b):
    lo, hi = min(a, b), max(a, b)
    roots = set() if p.degree < 1 else set(sympy.real_roots(_to_sympy(p)))
    expected = sum(1 for r in roots if sympy.Rational(lo) < r <= sympy.Rational(hi))
    assert count_real_roots(p, lo, hi) == expected


@given(int_polys.filter(lambda p: p.degree >= 1 and sympy.real_roots(_to_sympy(p))))
@settings(deadline=None)
def test_largest_real_root_is_isolated(p):
    # the returned interval holds the greatest root and no other root of p
    r = largest_real_root(p)
    assert count_real_roots(p, r.lo, r.hi) == 1
    assert count_real_roots(p, r.hi, root_bound(p)) == 0
    top = max(sympy.real_roots(_to_sympy(p)))
    assert sympy.Rational(r.lo) < top <= sympy.Rational(r.hi)


# integer polynomials of degree <= 12, coefficients in -50..50, with a real
# root; each example gets its own copy of the greatest root, isolated
root_polys = st.lists(st.integers(-50, 50), min_size=2, max_size=13).map(IntPolynomial).filter(
    lambda p: p.degree >= 1 and count_real_roots(p, -root_bound(p), root_bound(p)) > 0
)


def _isolated(p):
    r = largest_real_root(p)
    return AlgebraicNumber(r.poly, r._chain, r.lo, r.hi)


def _sign_of(coeffs, q):
    value = sum(c * q**i for i, c in enumerate(coeffs))
    return (value > 0) - (value < 0)


def _bisected(coeffs, lo, hi, width):
    """The root alone in (lo, hi] stays in (lo, hi] as plain Fraction
    bisection by exact sign tests narrows it to ``width``."""
    at_hi = _sign_of(coeffs, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if at_hi and _sign_of(coeffs, mid) != -at_hi:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _side_of(coeffs, lo, hi, q):
    """The sign of a - q for the root a alone in (lo, hi]."""
    if q <= lo:
        return 1
    if q > hi:
        return -1
    s, at_hi = _sign_of(coeffs, q), _sign_of(coeffs, hi)
    return 0 if not s else (-1 if s == at_hi else 1)


def _approx_by_bisection(coeffs, lo, hi, digits):
    """|a| rounded half up to ``digits`` places, with a's sign in front."""
    scale = 2 * 10**digits
    lo, hi = _bisected(coeffs, lo, hi, Fraction(1, scale))
    # the one odd multiple of 1/scale, a rounding boundary, that (lo, hi]
    # can hold; the root rounds as any point between it and the root's side
    x = hi
    t = math.floor(hi * scale)
    t -= 1 - t % 2
    if Fraction(t, scale) > lo:
        side = _side_of(coeffs, lo, hi, Fraction(t, scale))
        x = Fraction(t, scale) if side == 0 else (hi if side > 0 else (lo + Fraction(t, scale)) / 2)
    q = math.floor(abs(x) * 10**digits + Fraction(1, 2))
    text = str(q).rjust(digits + 1, "0")
    return ("-" if x < 0 and q else "") + text[:-digits] + "." + text[-digits:]


@given(root_polys, st.builds(Fraction, st.integers(1, 1000), st.integers(1, 2**130)))
@settings(deadline=None)
def test_refine_keeps_one_root_within_eps(p, eps):
    a = _isolated(p)
    lo, hi = a.lo, a.hi
    a.refine(eps)
    assert a.hi - a.lo <= eps
    assert lo <= a.lo < a.hi <= hi
    assert count_real_roots(a.poly, a.lo, a.hi) == 1


@given(root_polys, st.integers(0, 120), st.sampled_from([-1, 0, 1]))
@settings(deadline=None)
def test_compare_and_approx_match_bisection(p, k, side):
    a = _isolated(p)
    coeffs, lo, hi = a.poly.coeffs, a.lo, a.hi
    assert a.approx(6) == _approx_by_bisection(coeffs, lo, hi, 6)
    # a rational within 2^-k of the root, or within 2^-130 when side is 0:
    # from about k = 52 on, it shares the root's greatest float below
    near_lo, near_hi = _bisected(coeffs, lo, hi, Fraction(1, 2**130))
    q = near_hi + side * Fraction(1, 2**k)
    assert compare(_isolated(p), AlgebraicNumber.from_rational(q)) == _side_of(coeffs, lo, hi, q)
    # the same root by another polynomial, and by the same one
    other = largest_real_root(p * IntPolynomial([1, 0, 1]))
    assert compare(_isolated(p), other) == 0
    assert compare(a, _isolated(p)) == 0


@given(st.lists(st.integers(-50, 50), max_size=12), st.integers(-50, 50).filter(bool))
def test_root_bound_is_cauchys_bound(lower, lead):
    coeffs = lower + [lead]
    expected = 1 + max(Fraction(abs(c), abs(lead)) for c in coeffs)
    assert root_bound(IntPolynomial(coeffs)) == expected


def _sympy_factors(p):
    _, factors = _to_sympy(p).factor_list()
    out = [_from_sympy(P).primitive() for P, _ in factors if P.degree() >= 1]
    return sorted(out, key=lambda g: (g.degree, g.coeffs))


_CYCLOTOMIC = [_from_sympy(sympy.Poly(sympy.cyclotomic_poly(n, _X), _X)) for n in range(1, 25)]
# random factors of degree 1..6 with leading coefficient 1..3
_random_factors = st.builds(
    lambda low, lead: IntPolynomial(low + [lead]),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.integers(1, 3),
)
_squared = st.tuples(st.sampled_from(_CYCLOTOMIC) | _random_factors, st.booleans()).map(
    lambda fs: fs[0] * fs[0] if fs[1] else fs[0]
)


def _product_to_degree_30(factors):
    p = IntPolynomial([1])
    for f in factors:
        if p.degree + f.degree <= 30:
            p = p * f
    return p


@given(st.lists(_squared, min_size=1, max_size=4).map(_product_to_degree_30))
@settings(deadline=None)
def test_irreducible_factors_match_sympy(p):
    assert irreducible_factors(p) == _sympy_factors(p)


def test_irreducible_factors_fixed_cases():
    def poly(expr):
        return _from_sympy(sympy.Poly(expr, _X))

    # irreducible, though they split into linear or quadratic factors
    # modulo every prime, so recombination has to try large subsets
    for p in (
        poly(_X**4 + 1),
        poly(sympy.swinnerton_dyer_poly(3, _X)),
        poly(sympy.swinnerton_dyer_poly(4, _X)),
    ):
        assert irreducible_factors(p) == [p]
    xi = IntPolynomial([-1, -1, -1, 0, -2, 1])
    cyclotomic = [poly(sympy.cyclotomic_poly(n, _X)) for n in (3, 4, 5, 7, 8, 9, 12)]
    product = xi
    for c in cyclotomic:
        product = product * c
    assert product.degree == 33
    assert irreducible_factors(product) == _sympy_factors(product)
    assert set(irreducible_factors(product)) == set(cyclotomic) | {xi}
    # non-monic, with a content and a negative leading coefficient
    factors = [IntPolynomial([1, 2]), IntPolynomial([-1, 0, 3]), IntPolynomial([1, 1, 0, 2])]
    product = IntPolynomial([-6]) * factors[0] * factors[1] * factors[1] * factors[2]
    assert irreducible_factors(product) == factors == _sympy_factors(product)
    assert irreducible_factors(IntPolynomial([])) == []
    assert irreducible_factors(IntPolynomial([-7])) == []
    assert irreducible_factors(IntPolynomial([4, -6])) == [IntPolynomial([-2, 3])]


# legal sequences: s1 = s2 = 1, then counts that keep to the initial caps and
# the taper rules, with or without a nonzero periodic tail
legal_sequences = st.builds(
    lambda prefix, tail: SumSequence([1, 1] + prefix, tail),
    st.lists(st.integers(1, 5), max_size=8),
    st.lists(st.integers(1, 3), max_size=3),
).filter(is_legal)


@given(legal_sequences)
@settings(deadline=None)
def test_class_gf_of_sequence_matches_one_over_one_minus_g(s):
    one = RationalFunction.from_poly(ONE)
    assert class_gf_of_sequence(s) == one / (one - gf_of_sequence(s))


@given(legal_sequences)
@settings(deadline=None)
def test_growth_rate_is_the_root_of_the_growth_factor(s):
    # the rate found without factoring is the greatest root of the factor
    # that the reports print
    factor = growth_polynomial(class_gf_of_sequence(s))
    assert compare(growth_rate_of_sequence(s), largest_real_root(factor)) == 0
