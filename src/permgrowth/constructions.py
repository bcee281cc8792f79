"""The two realization constructions behind ``sequences.realize`` and the
structural rules of ``sequences.classify``, and the ``xi-basis`` campaign.

A realizable sequence takes its class from one of two constructions, the
wide one (``WIDE``) or the oscillation-based narrow one (``NARROW``).  Each
is one ``Construction`` record: its chains with the length each starts at,
the extra members of a few short levels, and the length ``chain_min`` from
which a level holds just the chains.  Its levels and its template, the
largest sequence it realizes, are read off that record.  Permutations are
built, and ``perms`` loaded, only when a level is listed, so classifying a
sequence builds none.

The narrow construction's members are built here, in closed form: the two
increasing oscillations, and an oscillation with one or both ends of its
inversion-graph path turned into a rise by ``_with_rises`` (the head and
tail chains, and the spike member that a level at a narrow sequence's one
allowed 5 adds).  ``Construction.level`` is the one place that lists a
level, the spike member included.

A realizing class's membership oracle is its selection, closed under sums
but not under patterns: ``realize`` certifies the class by its SI generating
function, and a certified class's SI members are exactly the selected ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .sequences import SumSequence, dominates

if TYPE_CHECKING:
    from .classes import ClassSpec
    from .perms import Permutation


class Construction(NamedTuple):
    """A realization poset: infinite chains, each with the length it starts
    at, and the extra members of a few short levels.  From ``chain_min`` on,
    a level holds just the chains.  A level lists its most reusable members
    first (the chains in order, then the extras), and a realizing class
    selects the first s_n of them.

    >>> [str(p) for p in WIDE.level(4)]
    ['2 3 4 1', '3 2 4 1', '2 4 3 1', '3 4 2 1', '4 3 2 1']
    >>> WIDE.template(), NARROW.template()
    (SumSequence('1,1,3,5,5,5,(4)'), SumSequence('1,1,2,3,(4)'))
    """

    name: str
    chains: tuple[tuple[int, Callable[[int], Permutation]], ...]
    extra: dict[int, tuple[str, ...]]
    chain_min: int

    def level(self, n: int, spike: int = 0) -> list[Permutation]:
        """The members of length n; at ``spike``, the position of a narrow
        sequence's 5 (see ``_construction_of``), also the spike member."""
        from .perms import parse_permutation

        if n < 1:
            raise ValueError("levels start at 1")
        members = [chain(n) for start, chain in self.chains if n >= start]
        members += [parse_permutation(q) for q in self.extra.get(n, ())]
        return members + [spike_member(n)] if n == spike else members

    def template(self) -> SumSequence:
        """The largest sequence the construction selects from: its level
        sizes below ``chain_min``, then one member per chain.  A level's
        size is its chains started by then plus its extra members, so no
        permutation is built."""
        sizes = [
            sum(start <= n for start, _ in self.chains) + len(self.extra.get(n, ()))
            for n in range(1, self.chain_min)
        ]
        return SumSequence(sizes, (len(self.chains),))


def _wide_chain(head: str) -> tuple[int, Callable[[int], Permutation]]:
    """The chain (h ⊕ 12...k) ⊖ 1 for k >= 0, from length len(h) + 1."""
    size = len(head.split())

    def chain(n: int) -> Permutation:
        from .perms import Permutation, direct_sum, parse_permutation, skew_sum

        h = parse_permutation(head)
        return skew_sum(direct_sum(h, Permutation(range(1, n - size))), Permutation((1,)))

    return size + 1, chain


def _with_rises(core: Permutation, *values: int) -> Permutation:
    """``core`` with the entry of each of ``values`` turned into a rise
    v, v+1; the larger entries move up to make room.

    >>> from permgrowth.perms import increasing_oscillation
    >>> str(_with_rises(increasing_oscillation(9), 2, 9))
    '2 3 5 1 7 4 9 6 10 11 8'
    """
    from .perms import Permutation

    out: list[int] = []
    for x in core:
        y = x + sum(v < x for v in values)
        out += (y, y + 1) if x in values else (y,)
    return Permutation._trusted(out)


# the narrow members load perms at their first call.  The tail's core type
# alternates with the parity of n: that type has its maximum at an end of
# its path, and consecutive tail members nest
def _oscillation(n: int, primary: bool = True) -> Permutation:
    from .perms import increasing_oscillation

    return increasing_oscillation(n, primary)


def _head(n: int) -> Permutation:
    core = _oscillation(n - 1)
    return _with_rises(core, core[0])


def _tail(n: int) -> Permutation:
    return _with_rises(_oscillation(n - 1, primary=n % 2 == 0), n - 1)


def spike_member(n: int) -> Permutation:
    """The split-end member of odd length n >= 7 that a narrow level holds
    at its spike: the primary oscillation of length n - 2 with both ends of
    its inversion-graph path, its first entry and its maximum, turned into
    rises.  These members form an antichain."""
    core = _oscillation(n - 2)
    return _with_rises(core, core[0], n - 2)


WIDE = Construction(
    "wide",
    tuple(map(_wide_chain, ("", "2 1", "1 3 2", "1 2 4 3"))),
    {3: ("3 1 2",), 4: ("3 4 2 1", "4 3 2 1"), 5: ("3 2 5 4 1",), 6: ("2 3 4 6 5 1",)},
    7,
)

# the two increasing oscillations and the head and tail chains; a level
# at a spike adds a fifth member, the spike member
NARROW = Construction(
    "narrow",
    (
        (1, _oscillation),
        (3, lambda n: _oscillation(n, primary=False)),
        (4, _head),
        (5, _tail),
    ),
    {},
    5,
)


def _narrow_spike(s: SumSequence) -> Optional[int]:
    """If s is dominated by 1,1,2,3,4^{2i},5,4^... for some i >= 0, the
    position of the allowed 5 (or 0 when no term reaches 5); None when not
    dominated by any member of the family."""
    template = NARROW.template()
    spike = 0
    for n in range(1, s._horizon() + 1):
        v = s.term(n)
        if v > template.term(n):
            if v == 5 and n >= 5 and n % 2 == 1 and spike == 0:
                spike = n
            else:
                return None
    # the spike must sit at 2i+5 with 4s before it: domination handles the
    # rest, but a spike inside the periodic tail would repeat
    if spike and s.tail and spike > len(s.prefix):
        return None
    return spike


def _has_late_double_one(s: SumSequence) -> bool:
    for n in range(4, s._horizon() + 2):
        if s.term(n) == 1 and s.term(n + 1) == 1:
            return True
    return False


def _construction_of(s: SumSequence) -> Optional[tuple[Construction, int]]:
    """The construction that realizes s, with the position of a narrow
    one's spike (0 for none), or None when neither does."""
    if dominates(s, WIDE.template()):
        return WIDE, 0
    spike = _narrow_spike(s)
    if spike is None or _has_late_double_one(s):
        return None
    return NARROW, spike


class Realization(NamedTuple):
    """A class whose sum indecomposable members realize a sequence: the
    construction it selects from and its finite basis (the class is all
    sums of the selected members)."""

    kind: str  # "wide" | "narrow"
    spec: ClassSpec


def _selection_oracle(
    levels: dict[int, list[Permutation]],
    chains: list[Callable[[int], Permutation]],
    max_len: int,
) -> Callable[[Permutation], bool]:
    """Membership of a permutation of length <= max_len in the sum closure
    of a selection: each of its sum components of length k is one of the
    selected members of level k or, past the listed levels, the member of
    length k of one of the active chains."""
    members = {
        k: frozenset(levels[k] if k in levels else [chain(k) for chain in chains])
        for k in range(1, max_len + 1)
    }

    def oracle(p: Permutation) -> bool:
        start = hi = 0
        for k, x in enumerate(p, 1):
            hi = max(hi, x)
            if hi == k:  # p[start:k] is a sum component
                if bytes(v - start for v in p[start:k]) not in members[k - start]:
                    return False
                start = k
        return True

    return oracle


def run_xi_basis(max_len: int = 12):
    """Check the quoted witness class against the claimed counts and growth
    rate, and independently realize the claimed sequence from the generic
    construction, validating that witness by census and exact root
    comparison."""
    from .algebraics import compare, growth_polynomial, largest_real_root, xi
    from .campaigns import XI_CLAIM_BASIS, XI_CLAIM_SEQUENCE
    from .classes import census, spec_from_strs
    from .sequences import class_gf_of_sequence, realize

    quoted = spec_from_strs(*XI_CLAIM_BASIS)
    observed = census(quoted, max_len).si_sequence()
    claimed = list(XI_CLAIM_SEQUENCE) + [0] * (max_len - len(XI_CLAIM_SEQUENCE))
    quoted_factor = growth_polynomial(class_gf_of_sequence(SumSequence(observed)))
    quoted_growth = largest_real_root(quoted_factor)
    quoted_ok = observed == claimed and compare(quoted_growth, xi()) == 0

    target = SumSequence(XI_CLAIM_SEQUENCE)
    construction = realize(target)
    built_observed = census(construction.spec, max_len).si_sequence()
    built_factor = growth_polynomial(class_gf_of_sequence(target))
    built_growth = largest_real_root(built_factor)
    built_ok = built_observed == claimed and compare(built_growth, xi()) == 0

    artifacts = {
        "claimed_si_counts": claimed,
        "quoted_basis": list(XI_CLAIM_BASIS),
        "quoted_si_counts": observed,
        "quoted_growth_polynomial": str(quoted_factor),
        "quoted_growth": quoted_growth.approx(6),
        "quoted_matches_claim": quoted_ok,
        "construction_basis": [str(p) for p in construction.spec.sorted_basis()],
        "construction_si_counts": built_observed,
        "construction_growth_polynomial": str(built_factor),
        "construction_growth": built_growth.approx(6),
        "construction_matches_claim": built_ok,
    }
    return {"max_len": max_len}, quoted_ok and built_ok, artifacts
