"""Finite-basis permutation classes: membership, census, bounded basis
computation, and the regular-insertion-encodability test.

Basis files use the text format of :mod:`permgrowth.perms`, one permutation
per line, with ``#`` comments.  Census data serializes to CSV with columns
``length, members, sum_indecomposable``.  ``run_census`` is the runner of
the ``census`` campaign.
"""

from __future__ import annotations

from itertools import filterfalse, islice
from typing import Callable, Iterable, Optional

from .perms import (
    EMPTY,
    Permutation,
    contains,
    direct_sum,
    is_sum_indecomposable,
    next_level,
    next_si_level,
    parse_permutation,
    si_children_within,
)

CENSUS_BOUND = 14
# the most members one census level may hold: about five times the largest
# level a campaign builds (52 778, the xi-basis construction class at length
# 14).  Av(321) runs to 12 (208 012 members); an empty basis is refused at 9.
MEMBER_BOUND = 250_000


class ClassSpec:
    """An avoidance class Av(basis).  The basis is minimized to an antichain
    on construction."""

    __slots__ = ("basis",)

    def __init__(self, basis: Iterable[Permutation]):
        # sorted, so the containment tests run in one order whatever the
        # hash seed of the process
        given = sorted(set(basis))
        minimal = [
            p
            for p in given
            if not any(q != p and contains(q, p) for q in given)
        ]
        object.__setattr__(self, "basis", frozenset(minimal))

    def __setattr__(self, name, value):
        raise AttributeError("ClassSpec is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassSpec) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        inner = ", ".join(repr(str(p)) for p in sorted(self.basis))
        return "ClassSpec([%s])" % inner

    def sorted_basis(self) -> list[Permutation]:
        return sorted(self.basis)

    def extended(self, extra: Iterable[Permutation]) -> "ClassSpec":
        return ClassSpec(list(self.basis) + list(extra))

    @classmethod
    def _of_antichain(cls, basis: Iterable[Permutation]) -> "ClassSpec":
        """Av(basis) for a basis known to be an antichain, without the
        pairwise minimisation; only for bases built so."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "basis", frozenset(basis))
        return spec


def parse_basis_text(text: str) -> ClassSpec:
    perms = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            perms.append(parse_permutation(line))
    return ClassSpec(perms)


def spec_from_strs(*perm_strs: str) -> ClassSpec:
    return ClassSpec([parse_permutation(s) for s in perm_strs])


def member(spec: ClassSpec, p: Permutation) -> bool:
    """True iff ``p`` avoids every basis element."""
    return all(not contains(b, p) for b in spec.basis)


# per length n, the translation table v -> n + 1 - v of the entry strings,
# built when first needed
_RC_TABLES: dict[int, bytes] = {}


def orbit_key(spec: ClassSpec) -> tuple[Permutation, ...]:
    """The least sorted basis among B, B⁻¹, rc(B) and rc(B⁻¹),
    where B is the basis of ``spec`` and rc is reverse-complement.  The four
    classes share their counts and their sum indecomposable counts, since
    (a⊕b)⁻¹ = a⁻¹⊕b⁻¹ and rc(a⊕b) = rc(b)⊕rc(a).

    >>> orbit_key(spec_from_strs("2 3 1"))
    (Permutation('2 3 1'),)
    >>> orbit_key(spec_from_strs("3 1 2")) == orbit_key(spec_from_strs("2 3 1"))
    True
    >>> orbit_key(spec_from_strs("1 3 2"))
    (Permutation('1 3 2'),)
    """
    def rc(p: Permutation) -> Permutation:
        n = len(p)
        table = _RC_TABLES.get(n) or _RC_TABLES.setdefault(n, bytes((n + 1 - v) & 255 for v in range(256)))
        return Permutation._trusted(p[::-1].translate(table))

    basis = spec.basis
    inverses = [b.inverse() for b in basis]
    return min(tuple(sorted(image)) for image in (basis, inverses, map(rc, basis), map(rc, inverses)))


class Census:
    """Per-length counts (and listings) of class members and their sum
    indecomposable subset."""

    __slots__ = ("member_counts", "si_counts", "levels")

    def __init__(self, member_counts: Optional[list[int]] = None,
                 si_counts: Optional[list[int]] = None,
                 levels: Optional[list[set[bytes]]] = None):
        self.member_counts = [] if member_counts is None else member_counts  # index = length
        self.si_counts = [] if si_counts is None else si_counts
        self.levels = [] if levels is None else levels

    def si_sequence(self) -> list[int]:
        """SI counts for lengths 1..max_len."""
        return self.si_counts[1:]

    def si_members(self, n: int) -> list[Permutation]:
        return sorted(Permutation._trusted(t) for t in self.levels[n] if is_sum_indecomposable(t))

    def to_csv(self) -> str:
        lines = ["length,members,sum_indecomposable"]
        for n, (m, s) in enumerate(zip(self.member_counts, self.si_counts)):
            lines.append("%d,%d,%d" % (n, m, s))
        return "\n".join(lines) + "\n"


def census(spec: ClassSpec, max_len: int) -> Census:
    """Exact member/SI counts by incremental children-closed generation:
    a length-n candidate is a member iff all n of its children are members
    of the previous level and the candidate is not itself a basis element.
    Raises ValueError on a level of more than ``MEMBER_BOUND`` members."""
    if max_len > CENSUS_BOUND:
        raise ValueError("census bound exceeded (max %d)" % CENSUS_BOUND)
    basis_by_len: dict[int, set[Permutation]] = {}
    for b in spec.basis:
        basis_by_len.setdefault(len(b), set()).add(b)
    out = Census()
    level = {b""} if EMPTY not in spec.basis else set()
    out.levels.append(level)
    out.member_counts.append(len(level))
    out.si_counts.append(0)
    for n in range(1, max_len + 1):
        forbidden = basis_by_len.get(n, set())
        level = set(islice(filterfalse(forbidden.__contains__, next_level(level)), MEMBER_BOUND + 1))
        if len(level) > MEMBER_BOUND:
            raise ValueError("census level %d exceeds %d members" % (n, MEMBER_BOUND))
        out.levels.append(level)
        out.member_counts.append(len(level))
        out.si_counts.append(sum(1 for t in level if is_sum_indecomposable(t)))
    return out


def compute_basis(
    oracle: Callable[[Permutation], bool],
    max_len: int,
) -> set[Permutation]:
    """The basis elements of length <= max_len of the sum closed class
    decided by ``oracle``.

    Its basis is sum indecomposable (SI), and an SI permutation is a member
    iff all its SI children are and it is not a basis element.  So the walk
    grows the SI members one length at a time with ``perms.next_si_level``
    and asks ``oracle`` only about the candidates whose SI children all lie
    in the level (and about the empty permutation and 1); a rejected one is
    a basis element.  Raises ValueError if the oracle accepts an SI
    one-point extension of a basis element shorter than ``max_len``, which
    no downward closed oracle does and the walk never asks about, or if it
    rejects the sum of two SI members of length <= 3 that it accepts, which
    no sum closed oracle does and the walk, asking only about SI
    permutations, would not see.

    >>> av321 = lambda p: not contains(Permutation((3, 2, 1)), p)
    >>> sorted(map(str, compute_basis(av321, 5)))
    ['3 2 1']
    """
    if not oracle(EMPTY):
        return {EMPTY}
    one = Permutation((1,))
    if not oracle(one):
        return {one}
    basis: set[bytes] = set()
    level = {bytes((1,))}
    short = [one]  # the SI members of length <= 3
    for n in range(2, max_len + 1):
        nxt = set()
        for c, _, _ in next_si_level(level):
            if not si_children_within(c, level):
                continue
            if oracle(Permutation._trusted(c)):
                nxt.add(c)
            else:
                basis.add(c)
        level = nxt
        if n <= 3:
            short += sorted(nxt)
    for b in sorted(b for b in basis if len(b) < max_len):
        for c in sorted(c for c, _, _ in next_si_level({b})):
            p = Permutation._trusted(c)
            if oracle(p):
                raise ValueError("oracle violates downward closure at %s" % p)
    for a in short:
        for b in short:
            if not oracle(direct_sum(a, b)):
                raise ValueError("oracle is not sum closed: it rejects %s" % direct_sum(a, b))
    return {Permutation._trusted(b) for b in basis}


# the directions of the bottom and the top half of each kind of vertical
# alternation (``perms.vertical_alternation``), 1 increasing, -1 decreasing
_ALTERNATION_HALVES = {
    "wedge1": (1, -1),
    "wedge2": (-1, 1),
    "parallel1": (1, 1),
    "parallel2": (-1, -1),
}


def embeds_in_alternation(b: Permutation, kind: str) -> bool:
    """True iff ``b`` is contained in a long enough vertical alternation of
    ``kind``: some value threshold t splits ``b`` into its entries <= t,
    monotone in the kind's bottom direction, and its entries > t, monotone
    in its top direction.

    >>> embeds_in_alternation(Permutation((3, 1, 4, 2)), "parallel1")
    True
    >>> embeds_in_alternation(Permutation((3, 2, 1)), "parallel1")
    False
    """
    bottom, top = _ALTERNATION_HALVES[kind]
    n = len(b)
    # pos[v - 1] is the position of v; values 1..lo lie monotone bottom,
    # and values hi+1..n monotone top, in position order
    pos = sorted(range(n), key=b.__getitem__)
    lo = min(n, 1)
    while lo < n and (pos[lo] - pos[lo - 1]) * bottom > 0:
        lo += 1
    hi = max(n - 1, 0)
    while hi > 0 and (pos[hi] - pos[hi - 1]) * top > 0:
        hi -= 1
    return hi <= lo


def has_regular_insertion_encoding(spec: ClassSpec) -> bool:
    """True iff the class contains no arbitrarily long vertical alternation:
    for each of the four kinds, some basis element embeds in an alternation
    of that kind (Albert, Linton and Ruškuc 2005).

    An alternation of a kind is a bottom half of small values and a top half
    of large ones, each monotone in the kind's direction, with positions
    alternating bottom, top, bottom, ...  Its value threshold splits any
    embedded pattern into two such monotone parts.  Conversely, if a
    threshold t splits ``b`` that way, an alternation of length 2|b| has a
    bottom and a top slot for each entry of ``b``, in order, so ``b`` embeds
    however its two parts interleave in position.  So the split test of
    :func:`embeds_in_alternation` decides what a containment probe in an
    alternation of length 2|b| + 4 decides, without the embedding search.
    """
    if not spec.basis:
        raise ValueError("the class of all permutations is not supported")
    return all(
        any(embeds_in_alternation(b, kind) for b in spec.basis)
        for kind in _ALTERNATION_HALVES
    )


def run_census(spec: ClassSpec, max_len: int = 8):
    c = census(spec, max_len)
    return (
        {"basis": [str(p) for p in spec.sorted_basis()], "max_len": max_len},
        True,
        {"csv": c.to_csv(), "si_counts": c.si_sequence()},
    )
