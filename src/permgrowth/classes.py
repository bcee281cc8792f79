"""Finite-basis permutation classes: membership, census, bounded basis
computation, and the regular-insertion-encodability test.

Basis files use the text format of :mod:`permgrowth.perms`, one permutation
per line, with ``#`` comments.  Census data serializes to CSV with columns
``length, members, sum_indecomposable``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .perms import (
    ALTERNATION_KINDS,
    EMPTY,
    Permutation,
    contains,
    is_si_entries,
    is_sum_indecomposable,
    next_level,
    next_si_level,
    parse_permutation,
    si_children_within,
    vertical_alternation,
)

CENSUS_BOUND = 14


class ClassSpec:
    """An avoidance class Av(basis).  The basis is minimized to an antichain
    on construction."""

    __slots__ = ("basis",)

    def __init__(self, basis: Iterable[Permutation]):
        given = set(basis)
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


@dataclass
class Census:
    """Per-length counts (and listings) of class members and their sum
    indecomposable subset."""

    member_counts: list[int] = field(default_factory=list)  # index = length
    si_counts: list[int] = field(default_factory=list)
    levels: list[set[tuple[int, ...]]] = field(default_factory=list)

    def si_sequence(self) -> list[int]:
        """SI counts for lengths 1..max_len."""
        return self.si_counts[1:]

    def si_members(self, n: int) -> list[Permutation]:
        members = map(Permutation._trusted, self.levels[n])
        return sorted(p for p in members if is_sum_indecomposable(p))

    def to_csv(self) -> str:
        lines = ["length,members,sum_indecomposable"]
        for n, (m, s) in enumerate(zip(self.member_counts, self.si_counts)):
            lines.append("%d,%d,%d" % (n, m, s))
        return "\n".join(lines) + "\n"


def census(spec: ClassSpec, max_len: int) -> Census:
    """Exact member/SI counts by incremental children-closed generation:
    a length-n candidate is a member iff all n of its children are members
    of the previous level and the candidate is not itself a basis element."""
    if max_len > CENSUS_BOUND:
        raise ValueError("census bound exceeded (max %d)" % CENSUS_BOUND)
    basis_by_len: dict[int, set[tuple[int, ...]]] = {}
    for b in spec.basis:
        basis_by_len.setdefault(len(b), set()).add(b.entries)
    out = Census()
    level = {()} if EMPTY not in spec.basis else set()
    out.levels.append(level)
    out.member_counts.append(len(level))
    out.si_counts.append(0)
    for n in range(1, max_len + 1):
        forbidden = basis_by_len.get(n, set())
        level = {c for c in next_level(level) if c not in forbidden}
        out.levels.append(level)
        out.member_counts.append(len(level))
        out.si_counts.append(sum(1 for t in level if is_si_entries(t)))
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
    no downward closed oracle does and the walk never asks about.

    >>> av321 = lambda p: not contains(Permutation((3, 2, 1)), p)
    >>> sorted(map(str, compute_basis(av321, 5)))
    ['3 2 1']
    """
    if not oracle(EMPTY):
        return {EMPTY}
    one = Permutation((1,))
    if not oracle(one):
        return {one}
    basis: set[tuple[int, ...]] = set()
    level = {one.entries}
    for n in range(2, max_len + 1):
        nxt = set()
        for c in next_si_level(level):
            if not si_children_within(c, level):
                continue
            if oracle(Permutation._trusted(c)):
                nxt.add(c)
            else:
                basis.add(c)
        level = nxt
    for b in sorted(b for b in basis if len(b) < max_len):
        for c in sorted(next_si_level({b})):
            p = Permutation._trusted(c)
            if oracle(p):
                raise ValueError("oracle violates downward closure at %s" % p)
    return set(map(Permutation._trusted, basis))


def has_regular_insertion_encoding(spec: ClassSpec) -> bool:
    """True iff the class contains no arbitrarily long vertical alternation:
    each of the four alternation families must meet the basis.

    Each family is a chain under containment, so checking one sufficiently
    long member per family decides containment of arbitrarily long ones.
    """
    if not spec.basis:
        raise ValueError("the class of all permutations is not supported")
    if EMPTY in spec.basis:
        return True
    cutoff = 2 * max(len(b) for b in spec.basis) + 4
    for kind in ALTERNATION_KINDS:
        probe = vertical_alternation(cutoff, kind)
        if all(not contains(b, probe) for b in spec.basis):
            return False
    return True
