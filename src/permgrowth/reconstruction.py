"""Reconstruction of sum indecomposable permutations from their sets of sum
indecomposable children, plus the exhaustive taper verifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .perms import (
    Permutation,
    all_permutations,
    children,
    inversion_graph,
    is_sum_indecomposable,
    next_si_level,
    si_children_within,
    skew_sum,
)

# longest length verify_reconstruction accepts: it builds the sum
# indecomposable permutations of each length up to n from the insertion
# side, and those of length n with their K-sets (n = 9 is 273 343 of them,
# 2.9 s and a 131 MB peak in one Python 3.11 process on a 2-core virtual
# machine; n = 10 is ten times as many)
RECON_BOUND = 10


def _require_si(p: Permutation) -> None:
    if not is_sum_indecomposable(p):
        raise ValueError("%r is not sum indecomposable" % str(p))


def k_class(p: Permutation) -> int:
    """|K(p)|, the number of distinct sum indecomposable children."""
    _require_si(p)
    return len(children(p, indecomposable_only=True))


def k1_members(n: int) -> set[Permutation]:
    """The three sum indecomposable permutations of length n with exactly
    one sum indecomposable child: the decreasing one and the two
    one-entry-off-monotone shapes."""
    if n < 3:
        raise ValueError("length must be at least 3")
    one = Permutation((1,))
    increasing = Permutation(range(1, n))
    return {
        Permutation(range(n, 0, -1)),
        skew_sum(one, increasing),
        skew_sum(increasing, one),
    }


def is_increasing_oscillation(p: Permutation) -> bool:
    """Sum indecomposable with a path inversion graph."""
    return is_sum_indecomposable(p) and inversion_graph(p).is_path()


@dataclass(frozen=True)
class ReconstructionVerdict:
    tag: str  # "unique" | "oscillation_pair" | "no_match"
    matches: tuple[Permutation, ...] = ()


def reconstruct_from_k(kset: Iterable[Permutation], n: int) -> ReconstructionVerdict:
    """Search for the sum indecomposable permutations of length n whose set
    of sum indecomposable children equals ``kset``."""
    kset = frozenset(kset)
    if n < 5:
        raise ValueError("reconstruction requires length >= 5")
    if not kset:
        raise ValueError("empty child set")
    for p in kset:
        if len(p) != n - 1:
            raise ValueError("children must have length n - 1")
        _require_si(p)
    # a match has every member of kset among its children, and no sum
    # indecomposable child outside it
    level = {p.entries for p in kset}
    matches = sorted(
        Permutation._trusted(c)
        for c, kids in next_si_level(level).items()
        if len(kids) == len(level) and si_children_within(c, level)
    )
    if not matches:
        return ReconstructionVerdict("no_match")
    if len(matches) == 1:
        return ReconstructionVerdict("unique", tuple(matches))
    if len(matches) == 2 and all(is_increasing_oscillation(m) for m in matches):
        return ReconstructionVerdict("oscillation_pair", tuple(matches))
    raise AssertionError(
        "K-set collision outside oscillation pairs: %s" % [str(m) for m in matches]
    )


@dataclass(frozen=True)
class Report:
    checked: int
    failures: tuple[tuple[Permutation, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def sum_indecomposables(n: int) -> list[Permutation]:
    """All sum indecomposable permutations of length n by brute force."""
    return [p for p in all_permutations(n) if is_sum_indecomposable(p)]


def verify_reconstruction(n: int) -> Report:
    """Exhaustively confirm that K-sets of length-n sum indecomposable
    permutations collide only between the two increasing oscillations.

    The K-sets come from the insertion side (``perms.next_si_level``); each
    collision is confirmed on the deletion side before it is judged.
    """
    if n < 5:
        raise ValueError("verification requires length >= 5")
    if n > RECON_BOUND:
        raise ValueError("verification bound exceeded (max %d)" % RECON_BOUND)
    level: set[tuple[int, ...]] = {(1,)}
    for _ in range(n - 2):
        level = set(next_si_level(level))
    ksets = next_si_level(level)
    # within one next_si_level call, equal K-sets are equal tuples
    by_kset: dict[tuple[tuple[int, ...], ...], list[tuple[int, ...]]] = {}
    for c, kids in ksets.items():
        by_kset.setdefault(kids, []).append(c)
    failures = []
    for kids, group in by_kset.items():
        if len(group) == 1:
            continue
        group = sorted(Permutation._trusted(c) for c in group)
        kset = frozenset(map(Permutation._trusted, kids))
        for p in group:
            if children(p, indecomposable_only=True) != kset:
                raise AssertionError("K-set of %r differs between insertion and deletion" % str(p))
        if len(group) == 2 and all(is_increasing_oscillation(p) for p in group):
            continue
        failures.append(tuple(group))
    return Report(len(ksets), tuple(sorted(failures)))


def k_bounded_members(n: int, m: int) -> list[Permutation]:
    """Sum indecomposable permutations of length n with at most m sum
    indecomposable children, generated level by level from ``(1,)``.

    The sets K^(m) are closed under sum indecomposable children, and every
    sum indecomposable permutation of length at least 2 has one, so each
    member of length n arises by inserting one entry into a member of length
    n - 1.  ``perms.next_si_level`` makes those insertions and collects each
    candidate's children among the members; a candidate is kept when there
    are at most m and ``perms.si_children_within`` finds no sum
    indecomposable child outside them.
    """
    level: set[tuple[int, ...]] = {(1,)} if n > 0 else set()
    for _ in range(n - 1):
        level = {
            c
            for c, kids in next_si_level(level).items()
            if len(kids) <= m and si_children_within(c, level)
        }
    return sorted(Permutation._trusted(t) for t in level)


def verify_taper(n: int, m: int) -> Report:
    """Check that every m-subset of sum indecomposable permutations of
    length n together contains at least m sum indecomposable permutations
    of length n - 1.

    Any violating subset has every member in K^(m-1), so the exhaustion is
    restricted to those members without loss.
    """
    if m not in (2, 3, 4, 5):
        raise ValueError("m must be in 2..5")
    if n < 4:
        raise ValueError("n must be at least 4")
    pool = k_bounded_members(n, m - 1)
    ksets = {p: children(p, indecomposable_only=True) for p in pool}
    universe = sorted({c for ks in ksets.values() for c in ks})
    index = {c: i for i, c in enumerate(universe)}
    masks = {p: sum(1 << index[c] for c in ksets[p]) for p in pool}
    limit = m - 1
    failures: set[tuple[Permutation, ...]] = set()

    groups: dict[int, list[Permutation]] = {}
    for p in pool:
        groups.setdefault(masks[p], []).append(p)

    def members_within(U: int) -> list[Permutation]:
        # every pool member whose K-set sits inside the child set U
        out: list[Permutation] = []
        S = U
        while True:
            out.extend(groups.get(S, ()))
            if S == 0:
                break
            S = (S - 1) & U
        return out

    # a violating m-subset has a child union of at most m-1 elements, so
    # either one member has exactly m-1 children (the union is pinned to
    # that K-set) or every member has at most m-2 children
    for M, g in groups.items():
        if M.bit_count() != limit:
            continue
        cand = members_within(M)
        if len(cand) < m:
            continue
        gset = set(g)
        for combo in combinations(sorted(cand), m):
            if any(p in gset for p in combo):
                failures.add(combo)

    small = [p for p in pool if masks[p].bit_count() <= limit - 1]
    by_bit: dict[int, list[Permutation]] = {}
    for p in small:
        M = masks[p]
        while M:
            b = M & -M
            by_bit.setdefault(b, []).append(p)
            M ^= b
    # members of small keyed by (subset of their K-set, children removed);
    # a lookup with subsets of a partial union and a new-children budget
    # finds every member that keeps the union within the limit
    removal: dict[tuple[int, int], set[Permutation]] = {}
    for p in small:
        M = masks[p]
        total = M.bit_count()
        S = M
        while True:
            removal.setdefault((S, total - S.bit_count()), set()).add(p)
            if S == 0:
                break
            S = (S - 1) & M

    def complete(base: list[Permutation], union: int) -> None:
        # all ways to extend base by m - len(base) members of small while
        # the union stays within the limit
        free = limit - union.bit_count()
        cand: set[Permutation] = set()
        S = union
        while True:
            for j in range(free + 1):
                cand.update(removal.get((S, j), ()))
            if S == 0:
                break
            S = (S - 1) & union
        cand.difference_update(base)
        order = sorted(cand)

        def extend(start: int, chosen: list[Permutation], u: int, need: int) -> None:
            if need == 0:
                failures.add(tuple(sorted(chosen)))
                return
            for idx in range(start, len(order)):
                p = order[idx]
                u2 = u | masks[p]
                if u2.bit_count() > limit:
                    continue
                extend(idx + 1, chosen + [p], u2, need - 1)

        extend(0, list(base), union, m - len(base))

    # all-small subsets: some child is shared by two members (m masks with
    # at most m-1 children in their union), so anchor on that pair
    if limit >= 2:
        for b, plist in by_bit.items():
            plist = sorted(plist)
            for i, p in enumerate(plist):
                for q in plist[i + 1:]:
                    union = masks[p] | masks[q]
                    if union.bit_count() <= limit:
                        complete([p, q], union)

    checked = len(pool)
    return Report(checked, tuple(sorted(failures)))
