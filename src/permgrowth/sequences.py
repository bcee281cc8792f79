"""Eventually periodic count sequences (s_n) of sum indecomposable
permutations: legality, domination, generating functions, growth rates,
classification, and explicit realizing classes.

``realize`` and ``classify`` take the two realization constructions from
``constructions``, which they load when they run.  This module also holds
the runner of the ``classify`` campaign.

Text format: comma-separated prefix with an optional parenthesized periodic
tail, e.g. ``1,1,2,3,(4)`` for 1,1,2,3,4,4,... and ``1,1,2,5,2,1`` for a
sequence that ends in zeros.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .algebraics import AlgebraicNumber, growth_rate, position_vs_xi
from .polynomials import ONE, IntPolynomial, RationalFunction

if TYPE_CHECKING:
    from .constructions import Realization


# most counts, prefix and tail together, that SumSequence.parse reads:
# the longest table row at max_index 6 has 28.  classify needs no factoring
# and takes under 0.01 s on 64, 120 or 240 ones; growth-rate --seq factors
# the denominator to print the rate's factor, and takes about 0.2 s on 64
# ones but 1.0 s on 120 and 7.7 s on 240
MAX_COUNTS = 64


class SumSequence:
    """Counts s_1, s_2, ... stored as a finite prefix plus a tail repeated
    forever; an empty tail means the sequence ends in zeros.  Kept in
    canonical form: shortest tail period, then shortest prefix.

    >>> SumSequence([1, 1, 2, 3, 4], (4, 4))
    SumSequence('1,1,2,3,(4)')
    >>> SumSequence([1, 1, 2, 5, 2, 1, 0, 0])
    SumSequence('1,1,2,5,2,1')
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: Iterable[int], tail: Iterable[int] = ()):
        prefix = [int(c) for c in prefix]
        tail = [int(c) for c in tail]
        if any(c < 0 for c in prefix + tail):
            raise ValueError("counts must be nonnegative")
        if not any(tail):
            tail = []
        if tail:
            for period in range(1, len(tail) + 1):
                if len(tail) % period == 0 and tail == tail[: period] * (
                    len(tail) // period
                ):
                    tail = tail[:period]
                    break
            while prefix and prefix[-1] == tail[-1]:
                prefix.pop()
                tail = [tail[-1]] + tail[:-1]
        else:
            while prefix and prefix[-1] == 0:
                prefix.pop()
        object.__setattr__(self, "prefix", tuple(prefix))
        object.__setattr__(self, "tail", tuple(tail))

    def __setattr__(self, name, value):
        raise AttributeError("SumSequence is immutable")

    @classmethod
    def parse(cls, text: str) -> "SumSequence":
        """Read the text format; "" is the zero sequence.  An empty field,
        in the prefix or in the tail, raises ValueError: dropping it would
        move every later count down one length.  So does text of more than
        ``MAX_COUNTS`` counts."""
        text = text.strip()
        if text.count(",") >= MAX_COUNTS:  # one comma between two counts
            raise ValueError("a sequence has at most %d counts" % MAX_COUNTS)
        if "(" not in text:
            return cls(_counts(text, text) if text else [])
        head, _, rest = text.partition("(")
        body, close, trailing = rest.partition(")")
        if not close or trailing.strip():
            raise ValueError("malformed periodic tail in %r" % text)
        head = head.rstrip()
        if head and not head.endswith(","):
            raise ValueError("no comma before the periodic tail in %r" % text)
        return cls(_counts(head[:-1], text) if head else [], _counts(body, text))

    def term(self, n: int) -> int:
        """s_n, 1-based."""
        if n < 1:
            raise IndexError("terms are indexed from 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if not self.tail:
            return 0
        return self.tail[(n - len(self.prefix) - 1) % len(self.tail)]

    def terms(self, upto: int) -> list[int]:
        return [self.term(n) for n in range(1, upto + 1)]

    def is_zero(self) -> bool:
        return not self.prefix and not self.tail

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SumSequence)
            and self.prefix == other.prefix
            and self.tail == other.tail
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.tail))

    def __str__(self) -> str:
        parts = [str(c) for c in self.prefix]
        if self.tail:
            parts.append("(%s)" % ",".join(str(c) for c in self.tail))
        return ",".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return "SumSequence(%r)" % str(self)

    def _horizon(self, other: Optional["SumSequence"] = None) -> int:
        """Index after which both sequences are jointly periodic."""
        p = len(self.tail) or 1
        q = 1 if other is None else (len(other.tail) or 1)
        start = len(self.prefix) if other is None else max(
            len(self.prefix), len(other.prefix)
        )
        return start + p * q // math.gcd(p, q)


def _counts(fields: str, text: str) -> list[int]:
    """The comma-separated counts of ``fields``, a part of ``text``."""
    parts = fields.split(",")
    if not all(f.strip() for f in parts):
        raise ValueError("empty field in %r" % text)
    return [int(f) for f in parts]


def is_legal(s: SumSequence) -> bool:
    """The three initial caps plus the four taper rules, checked over the
    prefix and one joint period beyond."""
    if s.term(1) > 1 or s.term(2) > 1 or s.term(3) > 3:
        return False
    horizon = s._horizon() + 1
    for n in range(1, horizon + 1):
        a, b = s.term(n), s.term(n + 1)
        if a == 0 and b != 0:
            return False
        if n >= 3 and a <= 1 and b > 1:
            return False
        if n >= 4 and a <= 2 and b > 2:
            return False
        if n >= 5 and a <= 3 and b > 3:
            return False
    return True


def dominates(r: SumSequence, t: SumSequence) -> bool:
    """True iff r_n <= t_n for all n (r is dominated by t)."""
    return all(r.term(n) <= t.term(n) for n in range(1, r._horizon(t) + 1))


def gf_of_sequence(s: SumSequence) -> RationalFunction:
    """g(x) = sum s_n x^n as an exact rational function."""
    g = RationalFunction(
        IntPolynomial((0,) + s.prefix), ONE
    )
    if s.tail:
        P = len(s.tail)
        num = IntPolynomial((0,) * (len(s.prefix) + 1) + s.tail)
        den = IntPolynomial([1] + [0] * (P - 1) + [-1])
        g = g + RationalFunction(num, den)
    return g


def class_gf_terms(s: SumSequence) -> tuple[IntPolynomial, IntPolynomial]:
    """The numerator and denominator of f = 1/(1 - g), the generating
    function of a sum closed class whose sum indecomposable members are
    counted by s, before any common factor is cancelled.  With A the prefix
    polynomial and B/(1 - x^P) the tail term, they are (1 - x^P) and
    (1 - x^P)(1 - A) - B, or 1 and 1 - A without a tail; a common factor
    can only divide 1 - x^P."""
    one_minus_a = IntPolynomial((1,) + tuple(-c for c in s.prefix))
    if not s.tail:
        return ONE, one_minus_a
    cycle = IntPolynomial((1,) + (0,) * (len(s.tail) - 1) + (-1,))
    b = IntPolynomial((0,) * (len(s.prefix) + 1) + s.tail)
    return cycle, cycle * one_minus_a - b


def class_gf_of_sequence(s: SumSequence) -> RationalFunction:
    """f = 1/(1 - g) of ``class_gf_terms``, reduced by one gcd."""
    return RationalFunction(*class_gf_terms(s))


def growth_rate_of_sequence(s: SumSequence) -> AlgebraicNumber:
    if s.is_zero():
        raise ValueError("growth rate requires a nonzero sequence")
    return growth_rate(class_gf_of_sequence(s))


def realize(s: SumSequence) -> Realization:
    """An explicit class realizing ``s``, which must be legal and fit one of
    the constructions (classify(s) calls it realizable).  Level n selects
    the first s_n members of the construction's level, which the template
    guarantees are there (a narrow level at the spike holds its spike
    member last), and a tail of value t the first t chains.  The
    witness basis is computed from the selection itself: a member's sum
    components are selected members.  The class is returned only when the
    SI generating function of its insertion-encoding automaton equals the
    sequence's, which certifies the counts at every length; otherwise
    ValueError names the sequence.  No pattern closure is needed: a class
    that passes holds the selection and has s_n SI members of each length
    n, so its SI members are the selection."""
    from .classes import ClassSpec, compute_basis
    from .constructions import Realization, _construction_of, _selection_oracle
    from .insertion import class_gf, si_gf

    chosen = _construction_of(s) if is_legal(s) else None
    if chosen is None:
        raise ValueError("sequence %s is not known to be realizable" % s)
    construction, spike = chosen
    explicit_to = max(len(s.prefix), construction.chain_min)
    levels = {n: construction.level(n, spike)[: s.term(n)] for n in range(1, explicit_to + 1)}
    active = [chain for _, chain in construction.chains[: s.term(explicit_to + 1)]]
    bound = max(7, len(s.prefix) + 2)
    spec = ClassSpec(compute_basis(_selection_oracle(levels, active, bound), bound))
    if si_gf(class_gf(spec)) != gf_of_sequence(s):
        raise ValueError("the class built for %s does not realize it" % s)
    return Realization(construction.name, spec)


class ClassificationVerdict(NamedTuple):
    legal: bool
    realizable: str  # "yes" | "no"
    reason: Optional[str] = None
    growth: Optional[AlgebraicNumber] = None
    position: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "legal": self.legal,
            "realizable": self.realizable,
            "reason": self.reason,
            "growth": None if self.growth is None else self.growth.approx(6),
            "position": self.position,
        }


def classify(s: SumSequence) -> ClassificationVerdict:
    """Legality, the structural exclusions, realizability coverage, and the
    comparison of the growth rate with xi."""
    if not is_legal(s):
        return ClassificationVerdict(False, "no", "illegal sequence")
    if s.is_zero():
        return ClassificationVerdict(True, "yes", "empty selection")
    from .constructions import _construction_of, _has_late_double_one

    growth = growth_rate_of_sequence(s)
    position = position_vs_xi(growth)

    def no(reason: str) -> ClassificationVerdict:
        return ClassificationVerdict(True, "no", reason, growth, position)

    horizon = s._horizon() + 1
    if s.term(3) == 2 and s.term(4) > 5:
        return no("a class with 2 sum indecomposables of length 3 has at most 5 of length 4")
    starts_1123 = s.terms(4) == [1, 1, 2, 3]
    starts_112344 = s.terms(6) == [1, 1, 2, 3, 4, 4]
    if starts_1123:
        first_five = next(
            (n for n in range(1, horizon + 1) if s.term(n) == 5), None
        )
        for n in range(1, (first_five or horizon) + 1):
            if s.term(n) > 5:
                return no("an entry above 5 before any entry equal to 5")
    if starts_112344:
        if any(
            s.term(n) == 5 for n in range(2, horizon + 1, 2)
        ):
            return no("an even-indexed entry equal to 5")
        if any(s.term(n) == 5 for n in range(1, horizon + 1)) and _has_late_double_one(s):
            return no("contains a 5 but ends with consecutive entries equal to 1")
    chosen = _construction_of(s)
    if chosen is None:
        return no("outside the characterized region")
    return ClassificationVerdict(True, "yes", "%s construction" % chosen[0].name, growth, position)


def run_classify(seq: SumSequence):
    return {"sequence": str(seq)}, True, classify(seq).to_dict()
