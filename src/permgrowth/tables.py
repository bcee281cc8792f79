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

Verification per instantiated row:

* the stated polynomial agrees with the reciprocal of the denominator of
  the class generating function computed from the sequence, after both
  sides are stripped of factors x, x - 1, and x + 1 (those factors carry
  no root above 1, so they cannot affect a growth rate above 1);
* the position of the greatest real root relative to xi.  Small rows are
  compared directly by Sturm isolation.  The large parameterized families
  instead carry a positivity certificate: stated = x^a * F + R where R has
  nonnegative coefficients and F has no real root above xi, which forces
  stated > 0 on [xi, infinity).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .algebraics import (
    KAPPA_POLY,
    XI_POLY,
    compare,
    largest_real_root,
    xi,
)
from .polynomials import ONE, IntPolynomial
from .sequences import (
    SumSequence,
    class_gf_of_sequence,
    growth_rate_of_sequence,
    is_legal,
)


def _poly(terms: dict[int, int]) -> IntPolynomial:
    coeffs = [0] * (max(terms) + 1)
    for e, c in terms.items():
        coeffs[e] = c
    return IntPolynomial(coeffs)


def _mono(e: int) -> IntPolynomial:
    return IntPolynomial.monomial(e)


@dataclass(frozen=True)
class RowTemplate:
    family: str  # the row's sequence, in the notation of the module docstring
    params: tuple  # a tuple of allowed values per parameter, in label order
    poly: Callable[[dict], IntPolynomial]
    position: str  # "at" | "above" | "below"
    # positivity certificate for "below" rows: stated = x^a * base + R,
    # a = deg stated - deg base
    base: Optional[Callable[[dict], IntPolynomial]] = None
    # the polynomial whose root a convergent family approaches
    limit: Optional[IntPolynomial] = None


@dataclass(frozen=True)
class TableEntry:
    table: int
    family: str
    assignment: tuple  # ordered (name, value)
    sequence: SumSequence
    polynomial: IntPolynomial
    growth: float
    position: str


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


def _assignments(names: tuple, domains: tuple, max_index: int):
    pools = [[v for v in values if v <= max_index] for values in domains]
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


FULL = tuple(range(0, 7))
MAX_INDEX = FULL[-1]  # no family has a parameter value above this
EVEN = (2, 4, 6)
ONE_OR_EVEN = (1, 2, 4, 6)
LE1 = (0, 1)
LE5 = tuple(range(0, 6))

Q = XI_POLY


def _fixed(family: str, stated: IntPolynomial, position: str) -> RowTemplate:
    return RowTemplate(family, (), lambda pv, p=stated: p, position)


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


def _t2_row(family: str, g_terms: dict[int, int], shift_plus: int) -> RowTemplate:
    g = _poly(g_terms)
    return RowTemplate(
        family, (FULL,),
        lambda pv, g=g, k=shift_plus: Q.shift(pv["i"] + k) + g,
        "above", limit=Q,
    )


# shift exponents and offset terms for the convergent table 2 families; the
# offset is negative just right of xi, so the roots approach xi from above
_TABLE2_FAMILY_DATA = (
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

_TABLE2 = (
    _fixed("1,1,2,3,4^inf", Q, "at"),
    RowTemplate("1,1,2,3,4^i,5,3,3,2,1", (FULL,), lambda pv: Q, "at"),
) + tuple(_t2_row(*data) for data in _TABLE2_FAMILY_DATA)


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


def _t3_i(family: str, base: IntPolynomial, values: tuple = FULL,
          convergent: bool = True) -> RowTemplate:
    # bounded families (the base root itself sits above xi, which is why the
    # index is bounded) get no certificate and are root-compared directly
    return RowTemplate(
        family, (values,),
        lambda pv, b=base: b.shift(pv["i"]) + ONE, "below",
        base=(lambda pv, b=base: b) if convergent else None,
        limit=base if convergent else None,
    )


def _t3_ij(family: str, base: IntPolynomial) -> RowTemplate:
    return RowTemplate(
        family, (FULL, FULL),
        lambda pv, b=base: b.shift(pv["i"] + pv["j"]) + _mono(pv["j"]) + ONE,
        "below",
        base=lambda pv, b=base: b,
        limit=base,
    )


_TABLE3 = (
    _t3_i("1,1,3,3,1^i", _B_1331, values=LE5, convergent=False),
    _fixed("1,1,3,2^inf", _B_113_2, "below"),
    _t3_i("1,1,3,2^i,1^inf", _B_113_2),
    _t3_ij("1,1,3,2^i,1^j", _B_113_2),
    _fixed("1,1,2,5,2,1", _poly({6: 1, 5: -1, 4: -1, 3: -2, 2: -5, 1: -2, 0: -1}), "below"),
    _fixed("1,1,2,5,2", _poly({5: 1, 4: -1, 3: -1, 2: -2, 1: -5, 0: -2}), "below"),
    _fixed("1,1,2,5,1^inf", _B_1125_1, "below"),
    _t3_i("1,1,2,5,1^i", _B_1125_1),
    _t3_i("1,1,2,4,4,1^i", _B_11244, values=LE5, convergent=False),
    _fixed("1,1,2,4,3,3,2", _poly({7: 1, 6: -1, 5: -1, 4: -2, 3: -4, 2: -3, 1: -3, 0: -2}),
           "below"),
    _fixed("1,1,2,4,3,3,1^inf", _B_112433_1, "below"),
    _t3_i("1,1,2,4,3,3,1^i", _B_112433_1),
    _fixed("1,1,2,4,3,2^inf", _B_11243_2, "below"),
    _t3_i("1,1,2,4,3,2^i,1^inf", _B_11243_2),
    _t3_ij("1,1,2,4,3,2^i,1^j", _B_11243_2),
    _fixed("1,1,2,4,2^inf", _B_1124_2, "below"),
    _t3_i("1,1,2,4,2^i,1^inf", _B_1124_2),
    _t3_ij("1,1,2,4,2^i,1^j", _B_1124_2),
    _fixed("1,1,2^inf", KAPPA_POLY, "below"),
    _t3_i("1,1,2^i,1^inf", KAPPA_POLY),
    _t3_ij("1,1,2^i,1^j", KAPPA_POLY),
    _fixed("1^inf", _B_ONE, "below"),
    _t3_i("1^i", _B_ONE, values=tuple(range(1, 7))),
)


def _t4_certified(pv: dict) -> IntPolynomial:
    # stated = x^(k+l) * F + lower positive terms, with
    # F = x^(i+j+1) Q - x^j (x - 2) + 1 having greatest real root below xi
    i, j = pv["i"], pv["j"]
    return Q.shift(i + j + 1) - _poly({1: 1, 0: -2}).shift(j) + ONE


_T4_541 = lambda pv: (
    Q.shift(pv["i"] + pv["j"] + 2) - _poly({2: 1, 1: -1, 0: -3}).shift(pv["j"]) + ONE
)

_T4_5331 = lambda pv: (
    Q.shift(pv["i"] + pv["j"] + 3) - _poly({3: 1, 2: -2, 0: -2}).shift(pv["j"]) + ONE
)

_T4_5321 = lambda pv: (
    _t4_certified(pv).shift(pv["k"] + pv["l"]) + _mono(pv["l"]) + ONE
)

_TABLE4 = (
    RowTemplate("1,1,2,3,4^i,5,4,1^j", (LE1, LE5), _T4_541, "below"),
    RowTemplate("1,1,2,3,4^i,5,4,1^j", (EVEN, LE1), _T4_541, "below", limit=Q),
    RowTemplate("1,1,2,3,4^i,5,3,3,2", (ONE_OR_EVEN,),
                lambda pv: Q.shift(pv["i"] + 4) + _poly({4: -1, 3: 2, 1: 1, 0: 2}),
                "below", limit=Q),
    RowTemplate("1,1,2,3,4^i,5,3,3,1^inf", (LE1,),
                lambda pv: Q.shift(pv["i"] + 3) + _poly({3: -1, 2: 2, 0: 2}),
                "below"),
    RowTemplate("1,1,2,3,4^i,5,3,3,1^j", (LE1, FULL), _T4_5331, "below"),
    RowTemplate("1,1,2,3,4^i,5,3,3,1^j", (EVEN, LE1), _T4_5331, "below", limit=Q),
    RowTemplate("1,1,2,3,4^i,5,3^j,2^inf", (ONE_OR_EVEN, LE1),
                _t4_certified, "below", limit=Q),
    RowTemplate("1,1,2,3,4^i,5,3^j,2^k,1^inf", (LE1, LE1, FULL),
                lambda pv: _t4_certified(pv).shift(pv["k"]) + ONE,
                "below",
                base=_t4_certified),
    RowTemplate("1,1,2,3,4^i,5,3^j,2^k,1^l", (LE1, LE1, FULL, FULL), _T4_5321, "below",
                base=_t4_certified),
    RowTemplate("1,1,2,3,4^i,5,3^j,2^k,1^l", (EVEN, LE1, FULL, LE1), _T4_5321, "below",
                base=_t4_certified, limit=Q),
    RowTemplate("1,1,2,3,4^i,3^inf", (FULL,),
                lambda pv: Q.shift(pv["i"]) + ONE, "below",
                base=lambda pv: Q, limit=Q),
    RowTemplate("1,1,2,3,4^i,3^j,2^inf", (FULL, FULL),
                lambda pv: Q.shift(pv["i"] + pv["j"]) + _mono(pv["j"]) + ONE,
                "below",
                base=lambda pv: Q, limit=Q),
    RowTemplate("1,1,2,3,4^i,3^j,2^k,1^inf", (FULL, FULL, FULL),
                lambda pv: Q.shift(pv["i"] + pv["j"] + pv["k"])
                + _mono(pv["j"] + pv["k"]) + _mono(pv["k"]) + ONE,
                "below",
                base=lambda pv: Q, limit=Q),
    RowTemplate("1,1,2,3,4^i,3^j,2^k,1^l", (FULL, FULL, FULL, FULL),
                lambda pv: Q.shift(pv["i"] + pv["j"] + pv["k"] + pv["l"])
                + _mono(pv["j"] + pv["k"] + pv["l"])
                + _mono(pv["k"] + pv["l"]) + _mono(pv["l"]) + ONE,
                "below",
                base=lambda pv: Q, limit=Q),
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
    den = class_gf_of_sequence(s).den
    return _strip_trivial(den.reciprocal())


def _float_largest_root(p: IntPolynomial) -> float:
    import numpy as np

    roots = np.roots(list(reversed(p.coeffs)))
    reals = [r.real for r in roots if abs(r.imag) < 1e-9]
    if not reals:
        raise ValueError("no real root")
    return float(max(reals))


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


def _instances(which: int, max_index: int):
    """Each row template of the table with its parameter names and the
    instances it adds: the (assignment, sequence, stated polynomial) triples
    whose pair (sequence, polynomial) no earlier instance of the table has."""
    seen = set()
    for row in TABLES[which]:
        terms, tail, names = _parse(row.family)
        fresh = []
        for pv in _assignments(names, row.params, max_index):
            seq = _sequence_of(terms, tail, pv)
            stated = row.poly(pv)
            key = (str(seq), stated.coeffs)
            if key not in seen:
                seen.add(key)
                fresh.append((pv, seq, stated))
        yield row, names, fresh


def _by_growth(e: TableEntry) -> tuple:
    return (e.growth, str(e.sequence), e.polynomial.coeffs)


def table_rows(which: int, max_index: int = 6) -> list[TableEntry]:
    """All instantiated rows of the given table, deduplicated on the pair
    (sequence, polynomial) and sorted by growth rate."""
    entries = [
        TableEntry(
            which, row.family,
            tuple(sorted(pv.items())),
            seq, stated,
            _float_largest_root(stated),
            row.position,
        )
        for row, _, fresh in _instances(which, max_index)
        for pv, seq, stated in fresh
    ]
    entries.sort(key=_by_growth)
    return entries


def _check_position(row: RowTemplate, pv: dict, stated: IntPolynomial) -> bool:
    if row.position == "at":
        # the stated polynomial must literally define xi; the core identity
        # ties the sequence's growth to it
        return stated == XI_POLY
    if row.position == "below" and row.base is not None:
        return _certified_below_xi(stated, row.base(pv))
    c = compare(largest_real_root(stated), xi())
    return c > 0 if row.position == "above" else c < 0


def _exact_growth_matches(s: SumSequence, stated: IntPolynomial) -> bool:
    growth = growth_rate_of_sequence(s)
    if not growth.poly.divides(stated):
        return False
    return compare(largest_real_root(stated), growth) == 0


def verify_table(which: int, max_index: int = 6) -> dict:
    """Check every instantiated row of a table: sequence legality, the
    stated polynomial against the sequence's generating function, the
    position of its greatest real root relative to xi, and (for convergent
    families) monotone approach to the stated limit.  Returns a report
    dictionary with any failures listed."""
    problems: list[str] = []
    checked = 0
    for row, names, fresh in _instances(which, max_index):
        for pv, seq, stated in fresh:
            checked += 1
            label = "%s %s" % (row.family, sorted(pv.items()))
            if not is_legal(seq):
                problems.append("%s: sequence %s is illegal" % (label, seq))
                continue
            if _strip_trivial(stated) != _computed_core(seq):
                # fall back to the exact factor test before declaring failure
                if not _exact_growth_matches(seq, stated):
                    problems.append(
                        "%s: stated polynomial disagrees with the sequence"
                        % label
                    )
                    continue
            if not _check_position(row, pv, stated):
                problems.append(
                    "%s: root is not %s xi" % (label, row.position)
                )
        if row.limit is not None:
            err = _check_convergence(row, names, max_index)
            if err:
                problems.append("%s: %s" % (row.family, err))
    return {
        "table": which,
        "checked": checked,
        "problems": problems,
        "passed": not problems,
    }


def _check_convergence(row: RowTemplate, names: tuple, max_index: int) -> Optional[str]:
    """Roots along the first parameter (others at their least values) must
    approach the family limit monotonically from the side ``row.position``
    names, and, once the values reach the last listed index, come within
    0.05 of it."""
    name = names[0]
    listed = row.params[0]
    values = [v for v in listed if v <= max_index]
    if len(values) < 2:
        return None
    rest = {n: vals[0] for n, vals in zip(names[1:], row.params[1:])}
    side = 1 if row.position == "above" else -1  # sign of root - limit
    limit = largest_real_root(row.limit)
    roots = [largest_real_root(row.poly({**rest, name: v})) for v in values]
    for a, b in zip(roots, roots[1:]):
        if compare(a, b) != side:
            return "family roots do not move strictly toward the limit"
    for r in roots:
        if compare(r, limit) != side:
            return "family root is not %s the limit" % row.position
    if values[-1] == listed[-1] and abs(limit.to_float() - roots[-1].to_float()) >= 0.05:
        return "family roots do not approach the limit"
    return None


def enumerate_below_xi(max_index: int = 6) -> list[TableEntry]:
    """All instantiated rows of the two below-xi tables, verified: every
    stated polynomial matches its sequence, every growth rate sits strictly
    below xi, and the unbounded families approach xi from below."""
    reports = [verify_table(3, max_index), verify_table(4, max_index)]
    problems = [p for r in reports for p in r["problems"]]
    if problems:
        raise AssertionError("table verification failed: %s" % problems[:5])
    entries = table_rows(3, max_index) + table_rows(4, max_index)
    entries.sort(key=_by_growth)
    return entries


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
