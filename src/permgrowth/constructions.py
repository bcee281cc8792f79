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
"""

from __future__ import annotations

from functools import lru_cache
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

    def level(self, n: int) -> list[Permutation]:
        from .perms import parse_permutation

        if n < 1:
            raise ValueError("levels start at 1")
        members = [chain(n) for start, chain in self.chains if n >= start]
        return members + [parse_permutation(q) for q in self.extra.get(n, ())]

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


def _perms_chain(name: str, **options) -> Callable[[int], Permutation]:
    """The chain n -> perms.<name>(n, **options); perms loads at its first
    member, so classifying a sequence builds and loads no permutation."""

    def chain(n: int) -> Permutation:
        from . import perms

        return getattr(perms, name)(n, **options)

    return chain


WIDE = Construction(
    "wide",
    tuple(map(_wide_chain, ("", "2 1", "1 3 2", "1 2 4 3"))),
    {3: ("3 1 2",), 4: ("3 4 2 1", "4 3 2 1"), 5: ("3 2 5 4 1",), 6: ("2 3 4 6 5 1",)},
    7,
)

# the two increasing oscillations and two split-end chains; at a spike,
# realize adds a fifth member, a split-end one, to the level
NARROW = Construction(
    "narrow",
    (
        (1, _perms_chain("increasing_oscillation")),
        (3, _perms_chain("increasing_oscillation", primary=False)),
        (4, _perms_chain("head_member")),
        (5, _perms_chain("tail_member")),
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
    construction it selects from and its finite basis (all sums of patterns
    of the selections)."""

    kind: str  # "wide" | "narrow"
    spec: ClassSpec


def _selection_oracle(
    levels: dict[int, list[Permutation]],
    chains: list[Callable[[int], Permutation]],
    chain_min: int,
) -> Callable[[Permutation], bool]:
    """Membership of a permutation in the sum closure of the selected levels
    and the active chains: each of its sum components is an SI pattern of
    one of them."""
    from .perms import children

    flat = [q for level in levels.values() for q in level]

    @lru_cache(maxsize=None)
    def members(k: int) -> frozenset[Permutation]:
        # the SI patterns of length k of the selections and of each chain at
        # length n.  All of these are SI, and SI children alone reach every
        # SI pattern of one: a connected inversion graph stays connected
        # without some vertex outside a given connected induced part (a leaf
        # of a spanning tree that extends one of the part)
        n = max(chain_min, 2 * k + 6)
        found: set[Permutation] = set()
        for top in [q for q in flat if len(q) >= k] + [chain(n) for chain in chains]:
            level = {top}
            for _ in range(len(top) - k):
                level = {c for q in level for c in children(q)}
            found |= level
        return frozenset(found)

    def oracle(p: Permutation) -> bool:
        start = hi = 0
        for k, x in enumerate(p, 1):
            hi = max(hi, x)
            if hi == k:  # p[start:k] is a sum component
                if bytes(v - start for v in p[start:k]) not in members(k - start):
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
