import math
from fractions import Fraction

import pytest

from permgrowth import algebraics
from permgrowth.algebraics import XI_POLY, AlgebraicNumber, compare, largest_real_root
from permgrowth.polynomials import IntPolynomial
from permgrowth.sequences import SumSequence, is_legal
from permgrowth.tables import (
    MAX_INDEX,
    TABLES,
    _parse,
    _strip_trivial,
    entries_to_csv,
    table_rows,
    verify_table,
)


def test_table_one_row_count():
    entries = table_rows(1)
    assert len(entries) == 11
    assert all(e.table == 1 for e in entries)


def test_table_one_first_row_is_threshold_polynomial():
    by_family = {e.family: e for e in table_rows(1)}
    e = by_family["1,1,2,4,3,3,2,1"]
    assert e.polynomial == XI_POLY
    assert e.position == "at"
    assert e.sequence == SumSequence.parse("1,1,2,4,3,3,2,1")


def test_every_row_has_one_domain_per_parameter():
    # a spare domain would pass unseen: zip drops it and the dedup hides
    # the repeated instances
    for which, rows in TABLES.items():
        for row in rows:
            _, _, names = _parse(row.family)
            assert len(names) == len(row.params), (which, row.family)
            for values in row.params:
                assert values, (which, row.family)
                assert all(0 <= v <= MAX_INDEX for v in values), (which, row.family)


def _rows_with(field):
    return [row for rows in TABLES.values() for row in rows if getattr(row, field) is not None]


def test_every_limit_is_the_leading_coefficient():
    # a family's limit is its leading coefficient C_0 with the power of x
    # divided out: a fact of the row's form, so of every index
    rows = _rows_with("limit")
    assert len(rows) == 29
    for row in rows:
        c0 = row.coeffs[0].coeffs
        lowest = next(e for e, c in enumerate(c0) if c)
        assert row.limit == IntPolynomial(c0[lowest:]), row.family


def test_every_certificate_remainder_is_positive_at_every_index():
    # stated = x^a * F + R, F the staircase of coeffs[:base + 1]; R is the
    # staircase of the later coefficients, so it has nonnegative
    # coefficients at every index when they do, and is nonzero when the
    # last one is
    rows = _rows_with("base")
    assert len(rows) == 18
    for row in rows:
        rest = row.coeffs[row.base + 1:]
        assert rest, row.family
        assert all(c >= 0 for p in rest for c in p.coeffs), row.family
        assert not rest[-1].is_zero(), row.family


def test_strip_trivial_removes_x_and_x_minus_and_plus_one():
    x, xm1, xp1 = IntPolynomial([0, 1]), IntPolynomial([-1, 1]), IntPolynomial([1, 1])
    core = XI_POLY * IntPolynomial([1, 0, 1])
    p = IntPolynomial([-3]) * x * x * xm1 * xm1 * xp1 * core
    assert _strip_trivial(p) == core
    assert _strip_trivial(xp1 * xp1 * xm1 * 2) == IntPolynomial([1])
    assert _strip_trivial(IntPolynomial([-2, 4])) == IntPolynomial([-1, 2])


def test_all_table_sequences_are_legal():
    for which in TABLES:
        for e in table_rows(which, max_index=4):
            assert is_legal(e.sequence), (which, e.family)


def _rate(e):
    return largest_real_root(e.polynomial)


def test_rows_sorted_by_growth():
    # exactly, and rows of equal rate by the tie rule: the stated polynomial
    # of higher degree first, then the sequence text, then the coefficients
    for which in TABLES:
        rows = table_rows(which, max_index=4)
        assert [e.growth for e in rows] == sorted(e.growth for e in rows)
        for a, b in zip(rows, rows[1:]):
            c = compare(_rate(a), _rate(b))
            assert c <= 0, (which, str(a.sequence), str(b.sequence))
            if c == 0:
                assert (
                    (-a.polynomial.degree, str(a.sequence), a.polynomial.coeffs)
                    < (-b.polynomial.degree, str(b.sequence), b.polynomial.coeffs)
                ), (which, str(a.sequence), str(b.sequence))


@pytest.mark.parametrize(
    "which,max_index,tied",
    [
        # degree 9 before degree 5
        (4, 3, ["1,1,2,3,4,2,2,1", "1,1,2,(3)"]),
        # the xi family, all stated as the xi polynomial: sequence text
        (2, 2, ["1,1,2,3,(4)", "1,1,2,3,4,4,5,3,3,2,1", "1,1,2,3,4,5,3,3,2,1",
                "1,1,2,3,5,3,3,2,1"]),
    ],
)
def test_exact_ties_follow_the_tie_rule(which, max_index, tied):
    rows = table_rows(which, max_index)
    texts = [str(e.sequence) for e in rows]
    first = texts.index(tied[0])
    assert texts[first:first + len(tied)] == tied
    run = rows[first:first + len(tied)]
    assert all(compare(_rate(run[0]), _rate(e)) == 0 for e in run[1:])
    assert len({e.growth for e in run}) == 1


def _sign(coeffs, q: Fraction) -> int:
    value = sum(c * q**i for i, c in enumerate(coeffs))
    return (value > 0) - (value < 0)


def _float_by_refinement(a: AlgebraicNumber) -> float:
    """The greatest float at most ``a`` (at least 1/2), from its
    Sturm-isolated interval bisected in ``Fraction`` values by exact sign
    tests below a quarter ulp of 1: no float spacing at or above 1/2 is that
    small, so (lo, hi] holds at most one float.  It leaves ``a`` as it is."""
    coeffs, lo, hi = a.poly.coeffs, a.lo, a.hi
    at_hi = _sign(coeffs, hi)
    while hi - lo > Fraction(math.ulp(1.0)) / 4:
        mid = (lo + hi) / 2
        if at_hi and _sign(coeffs, mid) != -at_hi:
            hi = mid
        else:
            lo = mid
    f = float(hi)
    if f > hi:
        f = math.nextafter(f, -math.inf)
    # the root is hi itself when hi is a root, or else the sign changes at it
    if f > lo and at_hi and _sign(coeffs, Fraction(f)) == at_hi:
        f = math.nextafter(f, -math.inf)
    return f


@pytest.mark.parametrize("which,max_index", [(1, 6), (2, 6), (3, 6), (4, 3)])
def test_growth_is_the_greatest_float_at_most_the_rate(which, max_index):
    for e in table_rows(which, max_index):
        assert e.growth == _float_by_refinement(_rate(e)), (which, str(e.sequence))


def test_growth_one_row_has_a_constant_core():
    (e,) = [e for e in table_rows(3) if str(e.sequence) == "1"]
    assert e.polynomial == IntPolynomial([1, -2, 1])
    assert _strip_trivial(e.polynomial) == IntPolynomial([1])
    assert e.growth == 1.0
    assert entries_to_csv([e]).endswith(',"1 - 2x + x^2",1.000000,below\n')


def test_a_row_whose_core_disagrees_gets_its_stated_root(monkeypatch):
    from permgrowth import tables

    stated = IntPolynomial([6, -5, 1])  # (x - 2)(x - 3); 1,1,2 grows at rate 2
    monkeypatch.setattr(tables, "TABLES", {1: (tables._fixed("1,1,2", stated, "above"),)})
    (e,) = table_rows(1)
    assert not e.core_agrees
    assert e.growth == 3.0
    assert verify_table(1)["problems"] == ["1,1,2 []: stated polynomial disagrees with the sequence"]
    # an isolating interval (q - 1, q] ends at the root itself
    for q in (Fraction(3), Fraction(1, 3), Fraction(-7, 5), Fraction(2**60 + 1, 2**60)):
        a = AlgebraicNumber.from_rational(q)
        f = algebraics._float_at_most(a.poly.coeffs, a.lo, a.hi)
        assert f <= q < math.nextafter(f, math.inf), q


def test_equal_floats_are_ordered_by_exact_rate(monkeypatch):
    from permgrowth import tables

    # rates 3 + 2^-60 and 3 share the float 3.0; the tie rule alone would
    # put the first row, of lower sequence text, first
    above = IntPolynomial([-(3 * 2**60 + 1), 2**60])
    monkeypatch.setattr(tables, "TABLES", {1: (
        tables._fixed("1,1,2", above, "above"),
        tables._fixed("1,1,3", IntPolynomial([-3, 1]), "above"),
    )})
    rows = table_rows(1)
    assert [e.growth for e in rows] == [3.0, 3.0]
    assert [str(e.sequence) for e in rows] == ["1,1,3", "1,1,2"]


def test_float_search_is_bounded_and_exact(monkeypatch):
    calls = []
    real_sign_at = algebraics._sign_at

    def counting_sign_at(coeffs, n, d):
        calls.append((n, d))
        return real_sign_at(coeffs, n, d)

    monkeypatch.setattr(algebraics, "_sign_at", counting_sign_at)
    search = algebraics._float_at_most
    # 2x - 5 on (1, 8]: the root 5/2 is a float; x - 8 at its endpoint 8
    assert search([-5, 2], Fraction(1), Fraction(8)) == 2.5
    assert len(calls) <= 1 + 64
    calls.clear()
    assert search([-8, 1], Fraction(1), Fraction(8)) == 8.0
    assert len(calls) == 1
    # a root of 1 + 2^-60, between the floats 1 and 1 + 2^-52
    calls.clear()
    q = 1 + Fraction(1, 2**60)
    assert search([-q.numerator, q.denominator], Fraction(1), Fraction(2)) == 1.0
    assert len(calls) <= 1 + 64


# estimates that the Newton helper is replaced by, from the search's floats
# lo_f < g < hi_f, where g is the growth float the search returns
_ESTIMATES = {
    "nan": lambda lo_f, hi_f, g: math.nan,
    "inf": lambda lo_f, hi_f, g: math.inf,
    "-inf": lambda lo_f, hi_f, g: -math.inf,
    "lo_f": lambda lo_f, hi_f, g: lo_f,
    "hi_f": lambda lo_f, hi_f, g: hi_f,
    "far below": lambda lo_f, hi_f, g: (lo_f + g) / 2,
    "just above": lambda lo_f, hi_f, g: math.nextafter(g, math.inf),
}


@pytest.mark.parametrize("estimate", _ESTIMATES)
def test_the_estimate_cannot_change_a_growth(estimate, monkeypatch):
    from permgrowth import tables

    def rows():
        return [(str(e.sequence), e.polynomial.coeffs, e.growth)
                for which in (2, 3) for e in table_rows(which, 6)]

    searches = []
    real_search = tables._float_at_most

    def recording_search(coeffs, lo, hi):
        g = real_search(coeffs, lo, hi)
        lo_f = float(lo)
        if lo_f > lo:
            lo_f = math.nextafter(lo_f, -math.inf)
        searches.append((lo_f, g))
        return g

    # tables calls the search by this name for each row's growth
    monkeypatch.setattr(tables, "_float_at_most", recording_search)
    want = rows()
    monkeypatch.undo()
    # the searches run in the same order again, one per row; the roots that
    # the exact sort compared are already narrowed, so no other search runs
    pending = iter(searches)

    def estimate_of(coeffs, hi_f):
        lo_f, g = next(pending)
        return _ESTIMATES[estimate](lo_f, hi_f, g)

    monkeypatch.setattr(algebraics, "_newton", estimate_of)
    assert rows() == want
    assert next(pending, None) is None


def test_every_growth_takes_three_sign_tests(monkeypatch):
    from permgrowth import tables

    # the sign tests of each row's float search; a Sturm isolation that a
    # row shares with others through the root cache is not its search
    calls, searching = [], []
    real_sign_at, real_growth_float = algebraics._sign_at, tables._growth_float
    real_search = tables._float_at_most

    def counting_sign_at(coeffs, n, d):
        if searching:
            calls[-1] += 1
        return real_sign_at(coeffs, n, d)

    def counting_search(*args):
        searching.append(True)
        try:
            return real_search(*args)
        finally:
            searching.pop()

    def counting_growth_float(*args):
        calls.append(0)
        return real_growth_float(*args)

    monkeypatch.setattr(algebraics, "_sign_at", counting_sign_at)
    monkeypatch.setattr(tables, "_float_at_most", counting_search)
    monkeypatch.setattr(tables, "_growth_float", counting_growth_float)
    n_rows = sum(len(table_rows(which, 6)) for which in (1, 2, 3, 4))
    assert len(calls) == n_rows == 3503
    assert max(calls) <= 3, [k for k in calls if k > 3][:5]


def test_floor_verdicts_match_the_exact_comparison():
    # every row without a certificate, "at" rows included: a floor other
    # than xi's decides the position, and it is the exact comparison's
    from permgrowth import tables
    from permgrowth.algebraics import xi

    xi_floor = tables._limit_floor(XI_POLY)
    decided = 0
    for which in TABLES:
        for e in table_rows(which, 6):
            if e.row.base is not None:
                continue
            by_floor = tables._floor_order(e.growth, xi_floor)
            if by_floor:
                decided += 1
                assert by_floor == compare(_rate(e), xi()), (which, str(e.sequence))
    assert decided == 147


def _xi_shifted(h: Fraction) -> IntPolynomial:
    """The xi polynomial Q(x - h) times a power of h's denominator, an
    integer polynomial whose greatest real root is xi + h."""
    d = h.denominator
    t = IntPolynomial([-h.numerator, d])  # d (x - h)
    out = IntPolynomial([])
    for i, q in enumerate(XI_POLY.coeffs):
        term = IntPolynomial([q * d ** (XI_POLY.degree - i)])
        for _ in range(i):
            term = term * t
        out = out + term
    return out


def test_rates_on_xi_floor_are_placed_exactly(monkeypatch):
    from permgrowth import tables

    # rates xi + 2^-60 and xi - 2^-60 share xi's floor; the sequence check
    # is waived, so only the position decides
    h = Fraction(1, 2**60)
    monkeypatch.setattr(tables, "_exact_growth_matches", lambda s, stated: True)
    monkeypatch.setattr(tables, "TABLES", {1: (
        tables._fixed("1,1,2", _xi_shifted(h), "above"),
        tables._fixed("1,1,3", _xi_shifted(-h), "above"),
    )})
    result = verify_table(1)
    assert [e.growth for e in result["rows"]] == [tables._limit_floor(XI_POLY)] * 2
    assert [str(e.sequence) for e in result["rows"]] == ["1,1,3", "1,1,2"]
    assert result["problems"] == ["1,1,3 []: root is not above xi"]


def test_a_family_on_one_floor_gets_family_roots_verdict(monkeypatch):
    from permgrowth import tables

    # roots of 2^70 Q x^i + 1 rise to xi, all within 2^-60 of it; at index
    # 2 of 0..3 no gap test is due
    verdicts = []
    real_family_roots = tables.family_roots

    def recording_family_roots(*args):
        verdicts.append(real_family_roots(*args)[1])
        return [], verdicts[-1]

    monkeypatch.setattr(tables, "family_roots", recording_family_roots)
    for position, want in (
        ("below", None),
        ("above", "family roots do not move strictly toward the limit"),
    ):
        row = tables.RowTemplate("1,1,2^i", ((0, 1, 2, 3),),
                                 (XI_POLY * IntPolynomial([2**70]), IntPolynomial([1])),
                                 position, limit=XI_POLY)
        polys = [row.poly({"i": i}) for i in range(3)]
        growths = {p: tables._root_floor(p) for p in polys}
        assert set(growths.values()) == {tables._limit_floor(XI_POLY)}
        verdicts.clear()
        assert tables._check_convergence(row, 2, growths) == want
        assert verdicts == [want]
    # floors that order the roots pass the family without family_roots
    verdicts.clear()
    assert verify_table(3, 5)["passed"]
    assert verdicts == []


def test_a_core_positive_at_one_takes_the_sturm_branch():
    from permgrowth import tables

    # x + 2 has no root above 1; its greatest real root is -2
    x_plus_2 = IntPolynomial([2, 1])
    assert tables._growth_float(x_plus_2, x_plus_2, True) == -2.0


def test_verify_table_does_no_bisection_and_few_gcds(monkeypatch):
    from permgrowth import tables
    from permgrowth.algebraics import AlgebraicNumber

    # work counts, not timings, from empty root caches
    counts = {"_cut": 0, "sturm_sequence": 0, "poly_gcd": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in ("sturm_sequence", "poly_gcd"):
        monkeypatch.setattr(algebraics, name, counting(name, getattr(algebraics, name)))
    monkeypatch.setattr(AlgebraicNumber, "_cut", counting("_cut", AlgebraicNumber._cut))
    largest_real_root.cache_clear()
    tables._limit_floor.cache_clear()
    assert verify_table(4, 6)["passed"]
    assert counts == {"_cut": 0, "sturm_sequence": 60, "poly_gcd": 3}


def test_verify_table_report_shape():
    result = verify_table(1, max_index=4)
    assert set(result) == {"table", "checked", "rows", "problems", "passed"}
    assert result["rows"] == table_rows(1, 4)
    assert result["table"] == 1
    assert result["passed"] is True
    assert result["problems"] == []
    assert result["checked"] == 11


def test_entries_to_csv_format():
    text = entries_to_csv(table_rows(1))
    lines = text.splitlines()
    assert lines[0] == "table,family,assignment,sequence,polynomial,growth,position"
    assert len(lines) == 12
    assert text.endswith("\n")
    import csv
    import io

    rows = list(csv.reader(io.StringIO(text)))
    # fixed rows carry an empty assignment column
    assert rows[1][2] == ""
    assert rows[1][0] == "1"
    assert rows[1][6] in {"at", "above", "below"}


@pytest.mark.parametrize("which", [2, 3, 4])
def test_parameterized_tables_verify_at_low_index(which):
    # at index 5 the convergence tolerance is not checked for families whose
    # last listed index is 6; order and side still are
    result = verify_table(which, max_index=5)
    assert result["passed"], result["problems"]
    assert result["checked"] > 0


@pytest.mark.parametrize(
    "which,max_index",
    [(3, k) for k in range(7)] + [(4, k) for k in range(4)],
)
def test_tables_below_xi_verify_at_every_index(which, max_index):
    # a valid index narrows the check; it never makes it fail
    result = verify_table(which, max_index=max_index)
    assert result["passed"], result["problems"]
    if which == 3:
        # kappa, the first accumulation point from below, at every index
        assert any(e.family == "1,1,2^inf" for e in result["rows"])


def test_verify_table_reports_each_kind_of_failure(monkeypatch):
    from permgrowth import tables

    true_1134 = next(row for row in tables.TABLES[1] if row.family == "1,1,3,4").poly({})
    family = "1,1,2,3,4^i,8"
    converging = next(row for row in tables.TABLES[2] if row.family == family)
    monkeypatch.setattr(tables, "TABLES", {1: (
        tables._fixed("1,2", XI_POLY, "at"),
        tables._fixed("1,1,3,4", XI_POLY, "above"),
        tables._fixed("1,1,3,4", true_1134, "below"),
        tables.RowTemplate(family, converging.params, converging.coeffs, "below",
                           limit=converging.limit),
    )})
    result = verify_table(1, max_index=1)
    assert result["passed"] is False
    assert result["checked"] == 5
    assert sorted(result["problems"]) == sorted([
        "1,2 []: sequence 1,2 is illegal",
        "1,1,3,4 []: stated polynomial disagrees with the sequence",
        "1,1,3,4 []: root is not below xi",
        "%s [('i', 0)]: root is not below xi" % family,
        "%s [('i', 1)]: root is not below xi" % family,
        "%s: family roots do not move strictly toward the limit" % family,
    ])
