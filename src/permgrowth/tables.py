"""Regeneration of the four growth-rate tables that bracket xi.

Tables 1 and 2 list minimal legal sequences whose growth rates are at or
above xi (table 2 rows are parameterized families converging to xi from
above); tables 3 and 4 list the realizable sequences below xi (table 4
families converge to xi from below).  Each row carries the stated
polynomial whose greatest real root is the growth rate of the sum closed
class realizing the sequence.

A row's family label is its sequence.  Each comma-separated token is ``v``
(one count v), ``v^name`` (v repeated a parameter number of times) or, as
the last token, ``v^inf`` (the periodic tail v, v, ...).  The row's
``params`` give the allowed values of each parameter, in the order the
label first names them:

>>> terms, tail, names = _parse("1,1,3,2^i,1^inf")
>>> names
('i',)
>>> _sequence_of(terms, tail, {"i": 2})
SumSequence('1,1,3,2,2,(1)')

A row states its polynomial as a staircase of coefficients (C_0, ..., C_r)
in Z[x], one step per parameter in label order: with y_p = x^(p-th
parameter), stated = C_0 y_1...y_r + C_1 y_2...y_r + ... + C_r, and a row
without parameters states C_0.  So the form is read off for every index: a
convergent family's limit is C_0 up to a power of x, and a certificate's R
(below) is nonnegative at every index when each coefficient after the
certificate's base has nonnegative coefficients.

``table_rows`` instantiates a table once: every row template in table
order, each parameter assignment up to the index bound, deduplicated on the
pair (sequence, polynomial) and sorted by growth rate.  ``verify_table``
checks the entries it returns.  Verification per instantiated row:

* the stated polynomial agrees with the reciprocal of the denominator of
  the class generating function computed from the sequence, after both
  sides are stripped of factors x, x - 1, and x + 1 (those factors carry
  no root above 1, so they cannot affect a growth rate above 1);
* the position of the greatest real root relative to xi.  The large
  parameterized families carry a positivity certificate: stated = x^a * F
  + R where R has nonnegative coefficients and F has no real root above
  xi, which forces stated > 0 on [xi, infinity).  The base F is the
  staircase of a prefix C_0, ..., C_b of the row's coefficients over its
  first b parameters.  Any other row compares its ``growth`` with xi's,
  and only equal ones are compared exactly.

Each convergent family is checked exactly: its roots move strictly toward
the limit, the last within 1/20 of it.  Its instances' ``growth`` values,
strictly ordered toward the limit's, settle the first two; the gap test,
and any family whose values tie, go to ``algebraics.family_roots``.

An entry's ``growth`` fills the CSV column and is the first key wherever
rates are compared.  It is the greatest float at most the row's growth
rate, certified by exact sign tests, so equal rates give equal floats and
two different floats order their rates exactly.  Only equal floats need
the exact comparison of ``algebraics.compare``: rows of equal float are
sorted by their exact rates, and rows of exactly equal rate by the tie
rule of ``_tie_key``.

``run_table`` is the runner of the ``table1``–``table4`` campaigns.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import NamedTuple, Optional

from .algebraics import (
    KAPPA_POLY,
    XI_POLY,
    _float_at_most,
    compare,
    family_roots,
    largest_real_root,
    root_bound,
    xi,
)
from .polynomials import ONE, IntPolynomial
from .sequences import (
    SumSequence,
    class_gf_terms,
    growth_rate_of_sequence,
    is_legal,
)


def _poly(terms: dict[int, int]) -> IntPolynomial:
    coeffs = [0] * (max(terms) + 1)
    for e, c in terms.items():
        coeffs[e] = c
    return IntPolynomial(coeffs)


def _staircase(coeffs: tuple, values) -> IntPolynomial:
    """C_0 y_1...y_r + C_1 y_2...y_r + ... + C_r for ``coeffs`` (C_0, ...,
    C_r) and y_p = x^(values[p - 1]), by Horner's rule in y.  Values past
    the r-th are not read, so a prefix of a row's coefficients gives the
    staircase of its leading parameters.

    >>> x_minus_2 = IntPolynomial([-2, 1])
    >>> str(_staircase((x_minus_2, ONE, ONE), (2, 1)))  # (x - 2) x^3 + x + 1
    '1 + x - 2x^3 + x^4'
    >>> str(_staircase((x_minus_2, ONE), (2, 1)))  # (x - 2) x^2 + 1
    '1 - 2x^2 + x^3'
    """
    acc = coeffs[0]
    for c, v in zip(coeffs[1:], values):
        acc = acc.shift(v) + c
    return acc


class RowTemplate(NamedTuple):
    family: str  # the row's sequence, in the notation of the module docstring
    params: tuple  # a tuple of allowed values per parameter, in label order
    coeffs: tuple  # the stated polynomial's staircase (C_0, ..., C_r)
    position: str  # "at" | "above" | "below"
    # positivity certificate for "below" rows: its base is the staircase of
    # coeffs[:base + 1] over the first ``base`` parameters
    base: Optional[int] = None
    # the polynomial whose root a convergent family approaches
    limit: Optional[IntPolynomial] = None

    def poly(self, pv: dict) -> IntPolynomial:
        """The stated polynomial at the parameter values ``pv``."""
        return _staircase(self.coeffs, [pv[n] for n in _parse(self.family)[2]])


class TableEntry(NamedTuple):
    table: int
    family: str
    assignment: tuple  # ordered (name, value)
    sequence: SumSequence
    polynomial: IntPolynomial
    growth: float  # the greatest float at most the growth rate
    position: str
    row: RowTemplate  # the template it instantiates
    # the stated polynomial's core equals the one computed from the sequence
    core_agrees: bool


def _parse(family: str) -> tuple[tuple, Optional[int], tuple]:
    """The terms a family label states, as (value, count) pairs with count
    1 or a parameter name; the value of its periodic tail, or None; and its
    parameter names in the order the label first names them."""
    terms = []
    tail = None
    for token in family.split(","):
        value, _, count = token.partition("^")
        if count == "inf":
            tail = int(value)
        else:
            terms.append((int(value), count or 1))
    names = tuple(dict.fromkeys(c for _, c in terms if isinstance(c, str)))
    return tuple(terms), tail, names


def _sequence_of(terms: tuple, tail: Optional[int], pv: dict) -> SumSequence:
    prefix: list[int] = []
    for value, count in terms:
        n = count if isinstance(count, int) else pv[count]
        prefix.extend([value] * n)
    return SumSequence(prefix, (tail,) if tail is not None else ())


FULL = tuple(range(0, 7))
MAX_INDEX = FULL[-1]  # no family has a parameter value above this
EVEN = (2, 4, 6)
ONE_OR_EVEN = (1, 2, 4, 6)
LE1 = (0, 1)
LE5 = tuple(range(0, 6))

Q = XI_POLY


def _fixed(family: str, stated: IntPolynomial, position: str) -> RowTemplate:
    return RowTemplate(family, (), (stated,), position)


_TABLE1 = (
    _fixed("1,1,2,4,3,3,2,1", Q, "at"),
    _fixed("1,1,2,4,3,3,3", _poly({7: 1, 6: -1, 5: -1, 4: -2, 3: -4, 2: -3, 1: -3, 0: -3}),
           "above"),
    _fixed("1,1,2,4,4,1,1,1,1,1,1",
           _poly({11: 1, 10: -1, 9: -1, 8: -2, 7: -4, 6: -4,
                  5: -1, 4: -1, 3: -1, 2: -1, 1: -1, 0: -1}),
           "above"),
    _fixed("1,1,2,4,4,2", _poly({6: 1, 5: -1, 4: -1, 3: -2, 2: -4, 1: -4, 0: -2}), "above"),
    _fixed("1,1,2,4,5", _poly({5: 1, 4: -1, 3: -1, 2: -2, 1: -4, 0: -5}), "above"),
    _fixed("1,1,2,5,2,1,1", _poly({6: 1, 5: -2, 4: 1, 3: -3, 2: -2, 0: -1}), "above"),
    _fixed("1,1,2,5,2,2", _poly({6: 1, 5: -1, 4: -1, 3: -2, 2: -5, 1: -2, 0: -2}), "above"),
    _fixed("1,1,2,5,3", _poly({5: 1, 4: -1, 3: -1, 2: -2, 1: -5, 0: -3}), "above"),
    _fixed("1,1,3,3,1,1,1,1,1,1",
           _poly({10: 1, 9: -1, 8: -1, 7: -3, 6: -3, 5: -1, 4: -1, 3: -1, 2: -1, 1: -1, 0: -1}),
           "above"),
    _fixed("1,1,3,3,2", _poly({5: 1, 4: -1, 3: -1, 2: -3, 1: -3, 0: -2}), "above"),
    _fixed("1,1,3,4", _poly({3: 1, 2: -2, 1: 1, 0: -4}), "above"),
)


# the convergent table 2 families are stated x^(i + k) Q + g; the offset g
# is negative just right of xi, so the roots approach xi from above
_TABLE2 = (
    _fixed("1,1,2,3,4^inf", Q, "at"),
    # stated Q at every i
    RowTemplate("1,1,2,3,4^i,5,3,3,2,1", (FULL,), (IntPolynomial(()), Q), "at"),
) + tuple(
    RowTemplate(family, (FULL,), (Q.shift(k), _poly(g)), "above", limit=Q)
    for family, g, k in (
        ("1,1,2,3,4^i,5,3,3,3", {4: -1, 3: 2, 0: 3}, 4),
        ("1,1,2,3,4^i,5,4,1,1,1,1,1,1", {8: -1, 7: 1, 6: 3, 0: 1}, 8),
        ("1,1,2,3,4^i,5,4,2", {3: -1, 2: 1, 1: 2, 0: 2}, 3),
        ("1,1,2,3,4^i,5,5", {2: -1, 0: 5}, 2),
        ("1,1,2,3,4^i,6,2,1,1", {4: -2, 3: 4, 2: 1, 0: 1}, 4),
        ("1,1,2,3,4^i,6,2,2", {3: -2, 2: 4, 0: 2}, 3),
        ("1,1,2,3,4^i,6,3", {2: -2, 1: 3, 0: 3}, 2),
        ("1,1,2,3,4^i,7,1", {2: -3, 1: 6, 0: 1}, 2),
        ("1,1,2,3,4^i,8", {1: -4, 0: 8}, 1),
    )
)


# base polynomials for the table 3 families; each has greatest real root
# strictly below xi, isolated once
_B_1331 = _poly({5: 1, 4: -2, 2: -2, 0: 2})
_B_113_2 = _poly({4: 1, 3: -2, 1: -2, 0: 1})
_B_1125_1 = _poly({5: 1, 4: -2, 2: -1, 1: -3, 0: 4})
_B_11244 = _poly({6: 1, 5: -2, 3: -1, 2: -2, 0: 3})
_B_112433_1 = _poly({7: 1, 6: -2, 4: -1, 3: -2, 2: 1, 0: 2})
_B_11243_2 = _poly({6: 1, 5: -2, 3: -1, 2: -2, 1: 1, 0: 1})
_B_1124_2 = _poly({5: 1, 4: -2, 2: -1, 1: -2, 0: 2})
_B_ONE = _poly({1: 1, 0: -2})


def _ones(family: str, base: IntPolynomial, params: tuple = (FULL,),
          convergent: bool = True) -> RowTemplate:
    """The family stated as the staircase (base, 1, ..., 1): a convergent
    one is certified by its base and approaches the base's root from below.
    A bounded one (the base root itself sits above xi, which is why the
    index is bounded) gets no certificate and is root-compared directly."""
    return RowTemplate(
        family, params, (base,) + (ONE,) * len(params), "below",
        base=0 if convergent else None,
        limit=base if convergent else None,
    )


_TABLE3 = (
    _ones("1,1,3,3,1^i", _B_1331, (LE5,), convergent=False),
    _fixed("1,1,3,2^inf", _B_113_2, "below"),
    _ones("1,1,3,2^i,1^inf", _B_113_2),
    _ones("1,1,3,2^i,1^j", _B_113_2, (FULL, FULL)),
    _fixed("1,1,2,5,2,1", _poly({6: 1, 5: -1, 4: -1, 3: -2, 2: -5, 1: -2, 0: -1}), "below"),
    _fixed("1,1,2,5,2", _poly({5: 1, 4: -1, 3: -1, 2: -2, 1: -5, 0: -2}), "below"),
    _fixed("1,1,2,5,1^inf", _B_1125_1, "below"),
    _ones("1,1,2,5,1^i", _B_1125_1),
    _ones("1,1,2,4,4,1^i", _B_11244, (LE5,), convergent=False),
    _fixed("1,1,2,4,3,3,2", _poly({7: 1, 6: -1, 5: -1, 4: -2, 3: -4, 2: -3, 1: -3, 0: -2}),
           "below"),
    _fixed("1,1,2,4,3,3,1^inf", _B_112433_1, "below"),
    _ones("1,1,2,4,3,3,1^i", _B_112433_1),
    _fixed("1,1,2,4,3,2^inf", _B_11243_2, "below"),
    _ones("1,1,2,4,3,2^i,1^inf", _B_11243_2),
    _ones("1,1,2,4,3,2^i,1^j", _B_11243_2, (FULL, FULL)),
    _fixed("1,1,2,4,2^inf", _B_1124_2, "below"),
    _ones("1,1,2,4,2^i,1^inf", _B_1124_2),
    _ones("1,1,2,4,2^i,1^j", _B_1124_2, (FULL, FULL)),
    _fixed("1,1,2^inf", KAPPA_POLY, "below"),
    _ones("1,1,2^i,1^inf", KAPPA_POLY),
    _ones("1,1,2^i,1^j", KAPPA_POLY, (FULL, FULL)),
    _fixed("1^inf", _B_ONE, "below"),
    _ones("1^i", _B_ONE, (tuple(range(1, 7)),)),
)


# staircases that several table 4 rows share
_C_541 = (Q.shift(2), _poly({2: -1, 1: 1, 0: 3}), ONE)
_C_5331 = (Q.shift(3), _poly({3: -1, 2: 2, 0: 2}), ONE)
# x^(i+j+1) Q - x^j (x - 2) + 1, with greatest real root below xi: the base
# of the certificates of the 5,3^j,2^k,1 families
_C_532 = (Q.shift(1), _poly({1: -1, 0: 2}), ONE)

_TABLE4 = (
    RowTemplate("1,1,2,3,4^i,5,4,1^j", (LE1, LE5), _C_541, "below"),
    RowTemplate("1,1,2,3,4^i,5,4,1^j", (EVEN, LE1), _C_541, "below", limit=Q),
    RowTemplate("1,1,2,3,4^i,5,3,3,2", (ONE_OR_EVEN,),
                (Q.shift(4), _poly({4: -1, 3: 2, 1: 1, 0: 2})), "below", limit=Q),
    RowTemplate("1,1,2,3,4^i,5,3,3,1^inf", (LE1,), _C_5331[:2], "below"),
    RowTemplate("1,1,2,3,4^i,5,3,3,1^j", (LE1, FULL), _C_5331, "below"),
    RowTemplate("1,1,2,3,4^i,5,3,3,1^j", (EVEN, LE1), _C_5331, "below", limit=Q),
    RowTemplate("1,1,2,3,4^i,5,3^j,2^inf", (ONE_OR_EVEN, LE1), _C_532, "below", limit=Q),
    RowTemplate("1,1,2,3,4^i,5,3^j,2^k,1^inf", (LE1, LE1, FULL), _C_532 + (ONE,), "below",
                base=2),
    RowTemplate("1,1,2,3,4^i,5,3^j,2^k,1^l", (LE1, LE1, FULL, FULL), _C_532 + (ONE, ONE),
                "below", base=2),
    RowTemplate("1,1,2,3,4^i,5,3^j,2^k,1^l", (EVEN, LE1, FULL, LE1), _C_532 + (ONE, ONE),
                "below", base=2, limit=Q),
    _ones("1,1,2,3,4^i,3^inf", Q),
    _ones("1,1,2,3,4^i,3^j,2^inf", Q, (FULL, FULL)),
    _ones("1,1,2,3,4^i,3^j,2^k,1^inf", Q, (FULL,) * 3),
    _ones("1,1,2,3,4^i,3^j,2^k,1^l", Q, (FULL,) * 4),
)

TABLES: dict[int, tuple[RowTemplate, ...]] = {
    1: _TABLE1,
    2: _TABLE2,
    3: _TABLE3,
    4: _TABLE4,
}


def _strip_trivial(p: IntPolynomial) -> IntPolynomial:
    """Remove all factors x, x - 1, x + 1 and normalize to a primitive
    polynomial with positive leading coefficient."""
    cs = list(p.primitive().coeffs)
    while cs[0] == 0:
        del cs[0]
    for r in (1, -1):
        # p(r) == 0: divide by x - r synthetically
        while len(cs) > 1 and sum(cs[::2]) + r * sum(cs[1::2]) == 0:
            acc = 0
            for i in range(len(cs) - 1, 0, -1):
                acc = acc * r + cs[i]
                cs[i] = acc
            del cs[0]
    return IntPolynomial(cs)


def _computed_core(s: SumSequence) -> IntPolynomial:
    """The core of the class g.f.'s reciprocal denominator, taken from the
    denominator before the gcd with its numerator is cancelled.  That gcd
    divides 1 - x^P for the tail's period P; for P <= 2 its factors are
    x - 1 and x + 1, which stripping removes anyway.  No table row has a
    longer period; there a leftover cyclotomic factor would fail the
    agreement, and the row would take the exact ``_exact_growth_matches``
    path."""
    return _strip_trivial(class_gf_terms(s)[1].reciprocal())


def _root_floor(p: IntPolynomial) -> float:
    """The greatest float at most the greatest real root of ``p``."""
    a = largest_real_root(p)
    return _float_at_most(a.poly.coeffs, a.lo, a.hi)


@lru_cache(maxsize=None)
def _limit_floor(limit: IntPolynomial) -> float:
    """``_root_floor`` of xi's or a family limit's polynomial, found once."""
    return _root_floor(limit)


def _floor_order(a: float, b: float) -> int:
    """The order of two rates by their floors a and b: exact when a != b,
    since a rate lies below the float after its floor; 0 leaves it open."""
    return (a > b) - (a < b)


def _growth_float(stated: IntPolynomial, core: IntPolynomial, agrees: bool) -> float:
    """The greatest float at most a row's growth rate r, the greatest real
    root of ``stated``.

    When the stated core agrees with the sequence, is not constant and is
    negative at 1, the search needs no Sturm chain.  With g the SI
    generating function, which has nonnegative coefficients, 1 - g(1/x)
    increases strictly on x > 1, and the class g.f.'s denominator is
    D * (1 - g), where D has its roots on the unit circle.  So on (1, inf)
    the core has at most one root, simple, and core(1) < 0 with a positive
    leading coefficient puts one there: r, with the core negative on (1, r)
    and positive above it, up to ``root_bound``.  Each part of that premise
    is checked, so the float decides verdicts.  Any other row, a constant
    core included (rate 1), uses the isolated greatest root of its stated
    polynomial.  Either way the search's Newton probe starts above r and
    lands within a float of it on every row of tables 1-4 at index 6, so
    each row takes three sign tests: at the interval's top, at the probe
    and at its neighbour.
    """
    if agrees and core.degree >= 1 and sum(core.coeffs) < 0:
        return _float_at_most(core.coeffs, Fraction(1), root_bound(core))
    return _root_floor(stated)


def _certified_below_xi(stated: IntPolynomial, base: IntPolynomial) -> bool:
    """True when stated = x^a * base + R, a = deg stated - deg base, with
    R >= 0 coefficientwise and base has no real root above xi; then stated
    is positive on [xi, inf)."""
    rem = stated - base.shift(stated.degree - base.degree)
    if any(c < 0 for c in rem.coeffs):
        return False
    if base == XI_POLY:
        # base vanishes at xi itself, so the remainder must contribute
        return not rem.is_zero()
    return compare(largest_real_root(base), xi()) < 0


def _tie_key(e: TableEntry) -> tuple:
    """The order of rows of exactly equal growth rate: the stated
    polynomial of higher degree first, then the sequence text, then the
    coefficients."""
    return (-e.polynomial.degree, str(e.sequence), e.polynomial.coeffs)


def _exact_order(a: TableEntry, b: TableEntry) -> int:
    c = compare(largest_real_root(a.polynomial), largest_real_root(b.polynomial))
    if c:
        return c
    ka, kb = _tie_key(a), _tie_key(b)
    return (ka > kb) - (ka < kb)


def _sorted_by_growth(entries: list[TableEntry]) -> list[TableEntry]:
    """Entries by growth rate, exactly.  A float below the rate orders
    different floats as their rates; only a run of equal floats needs the
    exact comparison."""
    entries = sorted(entries, key=lambda e: e.growth)
    out = []
    for _, run in itertools.groupby(entries, key=lambda e: e.growth):
        out.extend(sorted(run, key=cmp_to_key(_exact_order)))
    return out


def table_rows(which: int, max_index: int = 6) -> list[TableEntry]:
    """All instantiated rows of the given table, deduplicated on the pair
    (sequence, polynomial) and sorted by growth rate."""
    seen = set()
    entries = []
    for row in TABLES[which]:
        terms, tail, names = _parse(row.family)
        pools = [[v for v in values if v <= max_index] for values in row.params]
        for values in itertools.product(*pools):
            pv = dict(zip(names, values))
            seq = _sequence_of(terms, tail, pv)
            stated = _staircase(row.coeffs, values)
            key = (str(seq), stated.coeffs)
            if key not in seen:
                seen.add(key)
                core = _strip_trivial(stated)
                agrees = core == _computed_core(seq)
                growth = _growth_float(stated, core, agrees)
                entries.append(TableEntry(
                    which, row.family, tuple(sorted(pv.items())), seq, stated,
                    growth, row.position, row, agrees,
                ))
    return _sorted_by_growth(entries)


def _check_position(e: TableEntry) -> bool:
    if e.position == "at":
        # the stated polynomial must literally define xi; the core identity
        # ties the sequence's growth to it
        return e.polynomial == XI_POLY
    if e.position == "below" and e.row.base is not None:
        prefix = e.row._replace(coeffs=e.row.coeffs[: e.row.base + 1])
        return _certified_below_xi(e.polynomial, prefix.poly(dict(e.assignment)))
    c = _floor_order(e.growth, _limit_floor(XI_POLY))
    if not c:
        c = compare(largest_real_root(e.polynomial), xi())
    return c > 0 if e.position == "above" else c < 0


def _exact_growth_matches(s: SumSequence, stated: IntPolynomial) -> bool:
    """The stated polynomial's greatest real root is the sequence's growth
    rate; the rate's minimal polynomial then divides it."""
    return compare(largest_real_root(stated), growth_rate_of_sequence(s)) == 0


def verify_table(which: int, max_index: int = 6) -> dict:
    """Check every row ``table_rows`` builds for a table: sequence legality,
    the stated polynomial against the sequence's generating function, and
    the position of its greatest real root relative to xi; then, for each
    convergent family, monotone approach to the stated limit.  Returns a
    report dictionary with the checked rows and any failures listed."""
    rows = table_rows(which, max_index)
    growths = {e.polynomial: e.growth for e in rows}
    problems: list[str] = []
    for e in rows:
        label = "%s %s" % (e.family, list(e.assignment))
        if not is_legal(e.sequence):
            problems.append("%s: sequence %s is illegal" % (label, e.sequence))
            continue
        if not e.core_agrees:
            # fall back to the exact factor test before declaring failure
            if not _exact_growth_matches(e.sequence, e.polynomial):
                problems.append(
                    "%s: stated polynomial disagrees with the sequence" % label
                )
                continue
        if not _check_position(e):
            problems.append("%s: root is not %s xi" % (label, e.position))
    for row in TABLES[which]:
        if row.limit is not None:
            err = _check_convergence(row, max_index, growths)
            if err:
                problems.append("%s: %s" % (row.family, err))
    return {
        "table": which,
        "checked": len(rows),
        "rows": rows,
        "problems": problems,
        "passed": not problems,
    }


def _check_convergence(row: RowTemplate, max_index: int,
                       growths: dict) -> Optional[str]:
    """Roots along the first parameter (others at their least values) must
    approach the family limit strictly from the side ``row.position`` names
    and, once the values reach the last listed index, lie within 1/20 of
    it.  ``growths`` maps stated polynomials to their floors.  Floors
    strictly ordered toward the limit's, the last against the limit
    included, pass a family with no gap test due; anything else is decided
    exactly by ``family_roots``, which names the broken condition."""
    names = _parse(row.family)[2]
    listed = row.params[0]
    values = [v for v in listed if v <= max_index]
    if len(values) < 2:
        return None
    rest = {n: vals[0] for n, vals in zip(names[1:], row.params[1:])}
    polys = [row.poly({**rest, names[0]: v}) for v in values]
    side = 1 if row.position == "above" else -1  # sign of root - limit
    gap = Fraction(1, 20) if values[-1] == listed[-1] else None
    if gap is None:
        floors = [growths.get(p) for p in polys] + [_limit_floor(row.limit)]
        if None not in floors and all(
            _floor_order(a, b) == side for a, b in zip(floors, floors[1:])
        ):
            return None
    return family_roots(polys, row.limit, side, gap)[1]


def entries_to_csv(entries: list[TableEntry]) -> str:
    lines = ["table,family,assignment,sequence,polynomial,growth,position"]
    for e in entries:
        assignment = ";".join("%s=%d" % (n, v) for n, v in e.assignment)
        lines.append(
            '%d,"%s",%s,"%s","%s",%.6f,%s'
            % (e.table, e.family, assignment, e.sequence, e.polynomial,
               e.growth, e.position)
        )
    return "\n".join(lines) + "\n"


def run_table(which: int, max_index: int = 6):
    report = verify_table(which, max_index)
    return (
        {"max_index": max_index},
        report["passed"],
        {
            "rows": report["checked"],
            "problems": report["problems"],
            "csv": entries_to_csv(report["rows"]),
        },
    )
