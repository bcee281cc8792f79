"""Reconstruction of sum indecomposable permutations from their sets of sum
indecomposable children, plus the exhaustive taper verifications.

Reports serialize to JSON documents ``{checked: int, failures: [...]}`` where
each failure is a list of permutations in text format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .perms import (
    Permutation,
    all_permutations,
    children,
    inversion_graph,
    is_si_entries,
    is_sum_indecomposable,
    si_children_entries,
    skew_sum,
)

# longest length verify_reconstruction accepts: it visits every permutation
# of that length (n = 10 is 3.6M of them and takes minutes)
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

    @classmethod
    def unique(cls, p: Permutation) -> "ReconstructionVerdict":
        return cls("unique", (p,))

    @classmethod
    def oscillation_pair(cls, a: Permutation, b: Permutation) -> "ReconstructionVerdict":
        return cls("oscillation_pair", tuple(sorted((a, b))))

    @classmethod
    def no_match(cls) -> "ReconstructionVerdict":
        return cls("no_match")


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
    # every candidate must contain each child, so single-entry insertions
    # into any one child cover all candidates
    seed = next(iter(kset))
    candidates = set()
    for pos in range(n):
        for val in range(1, n + 1):
            candidates.add(seed.insert(pos, val))
    matches = sorted(
        c
        for c in candidates
        if is_sum_indecomposable(c) and children(c, indecomposable_only=True) == kset
    )
    if not matches:
        return ReconstructionVerdict.no_match()
    if len(matches) == 1:
        return ReconstructionVerdict.unique(matches[0])
    if len(matches) == 2 and all(is_increasing_oscillation(m) for m in matches):
        return ReconstructionVerdict.oscillation_pair(*matches)
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "checked": self.checked,
                "failures": [[str(p) for p in group] for group in self.failures],
            },
            indent=2,
            sort_keys=True,
        )


def sum_indecomposables(n: int) -> list[Permutation]:
    """All sum indecomposable permutations of length n by brute force."""
    return [p for p in all_permutations(n) if is_sum_indecomposable(p)]


def verify_reconstruction(n: int) -> Report:
    """Exhaustively confirm that K-sets of length-n sum indecomposable
    permutations collide only between the two increasing oscillations."""
    if n < 5:
        raise ValueError("verification requires length >= 5")
    if n > RECON_BOUND:
        raise ValueError("verification bound exceeded (max %d)" % RECON_BOUND)
    by_kset: dict[frozenset[Permutation], list[Permutation]] = {}
    checked = 0
    for p in sum_indecomposables(n):
        checked += 1
        by_kset.setdefault(children(p, indecomposable_only=True), []).append(p)
    failures = []
    for group in by_kset.values():
        if len(group) == 1:
            continue
        if len(group) == 2 and all(is_increasing_oscillation(p) for p in group):
            continue
        failures.append(tuple(sorted(group)))
    return Report(checked, tuple(sorted(failures)))


def k_bounded_members(n: int, m: int) -> list[Permutation]:
    """Sum indecomposable permutations of length n with at most m sum
    indecomposable children, generated incrementally level by level (the
    sets K^(m) are closed under sum indecomposable children, so every member
    grows from one).

    The closure covers sum indecomposable children only: removing the
    maximum can leave a sum decomposable permutation (312 -> 12), so
    inserting only a new maximum (``perms.next_level``) would miss members.
    The generation therefore visits every single-entry insertion of every
    survivor, on raw entry tuples.
    """
    if n < 3:
        return sum_indecomposables(n)
    level = {p.entries for p in sum_indecomposables(3) if k_class(p) <= m}
    for length in range(4, n + 1):
        prev = level
        nxt = set()
        seen = set()
        for t in prev:
            for val in range(1, length + 1):
                shifted = tuple(x + 1 if x >= val else x for x in t)
                for pos in range(length):
                    c = shifted[:pos] + (val,) + shifted[pos:]
                    if c in seen:
                        continue
                    seen.add(c)
                    if not is_si_entries(c):
                        continue
                    kids = si_children_entries(c)
                    if len(kids) <= m and kids <= prev:
                        nxt.add(c)
        level = nxt
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
        if bin(M).count("1") != limit:
            continue
        cand = members_within(M)
        if len(cand) < m:
            continue
        gset = set(g)
        for combo in combinations(sorted(cand), m):
            if any(p in gset for p in combo):
                failures.add(combo)

    small = [p for p in pool if bin(masks[p]).count("1") <= limit - 1]
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
        total = bin(M).count("1")
        S = M
        while True:
            removal.setdefault((S, total - bin(S).count("1")), set()).add(p)
            if S == 0:
                break
            S = (S - 1) & M

    def complete(base: list[Permutation], union: int) -> None:
        # all ways to extend base by m - len(base) members of small while
        # the union stays within the limit
        free = limit - bin(union).count("1")
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
                if bin(u2).count("1") > limit:
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
                    if bin(union).count("1") <= limit:
                        complete([p, q], union)

    checked = len(pool)
    return Report(checked, tuple(sorted(failures)))
