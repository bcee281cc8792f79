"""Exhaustive verification that a sum indecomposable permutation's set of
sum indecomposable children determines it, but for the two increasing
oscillations of each length, plus the exhaustive taper verifications.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from typing import Iterator, NamedTuple

from . import perms
from .perms import (
    Permutation,
    children,
    inversion_graph,
    is_sum_indecomposable,
    next_si_level,
    si_children_within,
)

# longest length verify_reconstruction accepts: it builds the sum
# indecomposable permutations of each length up to n from the insertion
# side, and keeps those of length n as one entry string and one K-set
# digest each (n = 10 is 2 829 325 of them; the longest step holds the
# candidates with one first entry at a time)
RECON_BOUND = 10
# verify_reconstruction splits the length-n digests into this many parts
# by their residue, and looks for shared digests in one part at a time
_PARTS = 16


def is_increasing_oscillation(p: Permutation) -> bool:
    """Sum indecomposable with a path inversion graph."""
    return is_sum_indecomposable(p) and inversion_graph(p).is_path()


class Report(NamedTuple):
    checked: int
    failures: tuple[tuple[Permutation, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_reconstruction(n: int) -> Report:
    """Exhaustively confirm that K-sets of length-n sum indecomposable
    permutations collide only between the two increasing oscillations.

    The K-set digests come from the insertion side (``perms.next_si_level``)
    and equal K-sets have equal digests.  Each digest shared by two or more
    permutations is confirmed on the deletion side with ``children``, which
    splits a false collision by its true K-sets, so the verdict is exact.
    """
    if n < 5:
        raise ValueError("verification requires length >= 5")
    if n > RECON_BOUND:
        raise ValueError("verification bound exceeded (max %d)" % RECON_BOUND)
    level: set[bytes] = {bytes((1,))}
    for _ in range(n - 2):
        level = {c for c, _, _ in next_si_level(level)}
    # each candidate as n bytes of one string and its digest
    parts = [(bytearray(), array("Q")) for _ in range(_PARTS)]
    for c, _, digest in next_si_level(level):
        strings, digests = parts[digest % _PARTS]
        strings += c
        digests.append(digest)
    by_kset: dict[frozenset[Permutation], list[Permutation]] = {}
    for strings, digests in parts:
        if len(set(digests)) == len(digests):
            continue  # no digest shared in this part
        seen: set[int] = set()
        shared = {d for d in digests if d in seen or seen.add(d)}
        for i, d in enumerate(digests):
            if d in shared:
                p = Permutation._trusted(strings[i * n:i * n + n])
                kset = children(p)
                if sum(map(perms.member_id, kset)) % 2**64 != d:
                    raise AssertionError("K-set of %r differs between insertion and deletion" % str(p))
                by_kset.setdefault(kset, []).append(p)
    failures = [
        tuple(sorted(group))
        for group in by_kset.values()
        if len(group) > 1 and not (len(group) == 2 and all(map(is_increasing_oscillation, group)))
    ]
    return Report(sum(len(digests) for _, digests in parts), tuple(sorted(failures)))


def k_bounded_members(n: int, m: int) -> list[Permutation]:
    """Sum indecomposable permutations of length n with at most m sum
    indecomposable children, generated level by level from ``(1,)``.

    The sets K^(m) are closed under sum indecomposable children, and every
    sum indecomposable permutation of length at least 2 has one, so each
    member of length n arises by inserting one entry into a member of length
    n - 1.  ``perms.next_si_level`` makes those insertions and counts each
    candidate's children among the members; a candidate is kept when there
    are at most m and ``perms.si_children_within`` finds no sum
    indecomposable child outside them.
    """
    level: set[bytes] = {bytes((1,))} if n > 0 else set()
    for _ in range(n - 1):
        level = {
            c
            for c, count, _ in next_si_level(level)
            if count <= m and si_children_within(c, level)
        }
    return sorted(map(Permutation._trusted, level))


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
    # K-sets as frozensets of children, each child one shared object
    shared: dict[Permutation, Permutation] = {}
    ksets = {p: frozenset(shared.setdefault(c, c) for c in children(p)) for p in pool}
    del shared
    limit = m - 1
    failures: set[tuple[Permutation, ...]] = set()

    groups: dict[frozenset[Permutation], list[Permutation]] = {}
    for p in pool:
        groups.setdefault(ksets[p], []).append(p)

    def members_within(U: frozenset[Permutation]) -> list[Permutation]:
        # every pool member whose K-set sits inside the child set U
        out: list[Permutation] = []
        for S in _subsets(U):
            out.extend(groups.get(S, ()))
        return out

    # a violating m-subset has a child union of at most m-1 elements, so
    # either one member has exactly m-1 children (the union is pinned to
    # that K-set) or every member has at most m-2 children
    for M, g in groups.items():
        if len(M) != limit:
            continue
        cand = members_within(M)
        if len(cand) < m:
            continue
        gset = set(g)
        for combo in combinations(sorted(cand), m):
            if any(p in gset for p in combo):
                failures.add(combo)

    small = [p for p in pool if len(ksets[p]) <= limit - 1]
    by_child: dict[Permutation, list[Permutation]] = {}
    for p in small:
        for c in ksets[p]:
            by_child.setdefault(c, []).append(p)
    # members of small keyed by (subset of their K-set, children removed);
    # a lookup with subsets of a partial union and a new-children budget
    # finds every member that keeps the union within the limit
    removal: dict[tuple[frozenset[Permutation], int], set[Permutation]] = {}
    for p in small:
        M = ksets[p]
        for S in _subsets(M):
            removal.setdefault((S, len(M) - len(S)), set()).add(p)

    def complete(base: list[Permutation], union: frozenset[Permutation]) -> None:
        # all ways to extend base by m - len(base) members of small while
        # the union stays within the limit
        free = limit - len(union)
        cand: set[Permutation] = set()
        for S in _subsets(union):
            for j in range(free + 1):
                cand.update(removal.get((S, j), ()))
        cand.difference_update(base)
        order = sorted(cand)

        def extend(start: int, chosen: list[Permutation], u: frozenset[Permutation], need: int) -> None:
            if need == 0:
                failures.add(tuple(sorted(chosen)))
                return
            for idx in range(start, len(order)):
                p = order[idx]
                u2 = u | ksets[p]
                if len(u2) > limit:
                    continue
                extend(idx + 1, chosen + [p], u2, need - 1)

        extend(0, list(base), union, m - len(base))

    # all-small subsets: some child is shared by two members (m K-sets with
    # at most m-1 children in their union), so anchor on that pair
    if limit >= 2:
        for plist in by_child.values():
            plist = sorted(plist)
            for i, p in enumerate(plist):
                for q in plist[i + 1:]:
                    union = ksets[p] | ksets[q]
                    if len(union) <= limit:
                        complete([p, q], union)

    checked = len(pool)
    return Report(checked, tuple(sorted(failures)))


def _subsets(s: frozenset) -> Iterator[frozenset]:
    """Every subset of ``s``, the empty one included."""
    for k in range(len(s) + 1):
        yield from map(frozenset, combinations(s, k))
