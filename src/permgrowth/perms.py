"""Value types and exact combinatorial algorithms for permutations.

Permutations are 1-based rank sequences in one-line notation; the empty
permutation is a valid value.  All operations are pure and all types are
immutable, so everything here is safe to use from concurrent callers.

Text format: space-separated values, e.g. ``"2 4 1 3"``; the empty string
denotes the empty permutation.

``constructions`` builds the narrow construction's members from
``increasing_oscillation``.

One representation serves every walk: the entry string, ``bytes`` with one
byte per entry, so lengths are below 256.  A :class:`Permutation` is an
entry string whose entries were checked to form a rearrangement of 1..n.
It equals, and hashes like, the plain entry string with the same entries,
so sets may mix the two; only its order (length first, then entries), its
text form and its methods differ.  The level steps and the census hold
plain entry strings, and wrap one as a Permutation only where it reaches a
caller that prints or sorts it.

The two level steps grow a set of members by one length.  ``next_level``
(the census of any class) works by active sites: one bitmask AND over a
member's deletions says at which positions a new maximum gives a candidate
whose children all lie in the level.  ``next_si_level`` (every walk over the
sum indecomposable members of a sum closed set: basis search,
reconstruction, K^(m)) inserts an entry into each member in every way but
the two that make a sum, and gives each new string once with the count of
its children in the level and an order-free digest of them; reconstruction
groups by the digest, K^(m) filters on the count, and the basis search and
K^(m) keep the candidates that pass ``si_children_within``.

Insertion and deletion are each one ``bytes.translate``.  To insert the
value v at a position, the member gets a hole byte 0 there once, and the
table ``_SLOT[v]`` maps the hole to v and raises the entries >= v by one.
To delete the entry of value v, ``translate`` drops the byte v and
``_DOWN[v]`` lowers the larger entries by one; a value occurs once in an
entry string, so the byte dropped is that entry's.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence


class Permutation(bytes):
    """An arrangement of the values 1..n, each exactly once (0 <= n < 256),
    stored as its entry string.

    >>> Permutation((2, 4, 1, 3))
    Permutation('2 4 1 3')
    >>> len(Permutation(()))
    0
    >>> Permutation((2, 1)) == bytes((2, 1))
    True
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int] = ()) -> "Permutation":
        try:
            return bytes.__new__(cls, entries)
        except ValueError:
            raise ValueError("entries must lie in 1..255: a permutation has at most 255 entries") from None

    def __init__(self, entries: Iterable[int] = ()):
        n = len(self)
        if n and (min(self) < 1 or max(self) > n or len(set(self)) < n):
            raise ValueError("entries must form a rearrangement of 1..n")

    @classmethod
    def _trusted(cls, entries: Iterable[int]) -> "Permutation":
        """Wrap entries already known to form a rearrangement of 1..n,
        without validating them; only for entries built from valid ones."""
        return bytes.__new__(cls, entries)

    # length-then-lexicographic, for deterministic listings; bytes compares
    # bytewise, so all four are replaced to keep a > b the same as b < a
    def __lt__(self, other) -> bool:
        m, n = len(self), len(other)
        return m < n or m == n and bytes.__lt__(self, other)

    def __le__(self, other) -> bool:
        m, n = len(self), len(other)
        return m < n or m == n and bytes.__le__(self, other)

    def __gt__(self, other) -> bool:
        m, n = len(self), len(other)
        return m > n or m == n and bytes.__gt__(self, other)

    def __ge__(self, other) -> bool:
        m, n = len(self), len(other)
        return m > n or m == n and bytes.__ge__(self, other)

    def __repr__(self) -> str:
        return "Permutation(%r)" % (str(self),)

    def __str__(self) -> str:
        return " ".join(map(str, self))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, v in enumerate(self):
            inv[v - 1] = i + 1
        return Permutation._trusted(inv)

    def delete(self, index: int) -> "Permutation":
        """Pattern left after removing the entry at 0-based ``index``.  No
        campaign calls it; the tests use it as a deletion apart from the
        level steps' inlined one: ``test_deletion_yields_patterns`` checks
        ``contains`` on it, and ``test_acceptance`` closes Sub(p) under it."""
        if not 0 <= index < len(self):
            raise IndexError("index must be in 0..n-1")
        return Permutation._trusted(_delete(self, index))


EMPTY = Permutation(())


def parse_permutation(text: str) -> Permutation:
    """Parse the space-separated text format; '' is the empty permutation."""
    entries = [int(tok) for tok in text.split()]
    return Permutation(entries) if entries else EMPTY


def standardize(values: Sequence[int]) -> Permutation:
    """The pattern (order-isomorphism class) of a sequence of distinct ints.
    No campaign calls it; it stays as the tests' independent oracle for
    ``contains`` and ``direct_sum`` (brute force over subsequences in
    ``test_properties`` and ``test_perms``)."""
    ranks = {v: i + 1 for i, v in enumerate(sorted(values))}
    return Permutation(ranks[v] for v in values)


def all_permutations(n: int) -> Iterator[Permutation]:
    for p in itertools.permutations(range(1, n + 1)):
        yield Permutation._trusted(p)


def is_sum_indecomposable(p: Sequence[int]) -> bool:
    """True iff ``p``, a permutation or entry string, is not a direct sum of
    two nonempty permutations: no proper prefix of length k uses exactly
    the values 1..k.  The empty permutation is not sum indecomposable."""
    hi = 0
    for k in range(len(p) - 1):
        if p[k] > hi:
            hi = p[k]
        if hi == k + 1:
            return False
    return bool(p)


# translation tables of the entry strings: _UP[v] raises the entries >= v
# by one, _DOWN[v] lowers the entries > v by one, and _SLOT[v] is _UP[v]
# that also fills the hole byte 0 with v; _BYTE[v] is the string (v,)
_BYTES = bytes(range(256))
_UP = [_BYTES[:v] + _BYTES[v + 1:] + b"\0" for v in range(256)]
_DOWN = [_BYTES[:v + 1] + _BYTES[v:255] for v in range(256)]
_BYTE = [_BYTES[v:v + 1] for v in range(256)]
_SLOT = [_BYTE[v] + _UP[v][1:] for v in range(256)]
_MASK64 = (1 << 64) - 1


def _delete(t: bytes, index: int) -> bytes:
    """The entry string left after removing position ``index`` of ``t``.

    It drops the byte of that entry's value v and lowers the larger
    entries, in one ``translate``: each value occurs once in an entry
    string, so dropping every byte v removes exactly that entry."""
    v = t[index]
    return t.translate(_DOWN[v], _BYTE[v])


def si_children_within(t: bytes, level: set[bytes]) -> bool:
    """True iff every sum indecomposable child of the entry string ``t``
    lies in ``level``; the scan stops at the first that does not, where
    most candidates fail.

    >>> si_children_within(bytes((2, 3, 1)), {bytes((2, 1))})
    True
    >>> si_children_within(bytes((2, 4, 1, 3)), {bytes((2, 3, 1))})
    False
    """
    for v in t:
        c = t.translate(_DOWN[v], _BYTE[v])
        if c not in level and is_sum_indecomposable(c):
            return False
    return True


def member_id(t: bytes) -> int:
    """A fixed 64-bit id of the entry string ``t``: the splitmix64
    finalizer of its entries read as one integer and reduced mod 2^61 - 1.
    Distinct strings of at most seven entries get distinct ids.

    >>> member_id(bytes((2, 1))) == member_id(bytes((2, 1))) != member_id(bytes((1, 2)))
    True
    """
    z = int.from_bytes(t, "big") % 0x1FFFFFFFFFFFFFFF
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def next_level(level: set[bytes]) -> Iterator[bytes]:
    """Every entry string one longer than the members of ``level`` whose
    children all lie in ``level``, each exactly once.  ``level`` must hold
    strings of a single length below 255; it need not be closed under
    deletion.

    This is the generating tree of permutations: each candidate arises from
    exactly one member p, the one left by removing its maximum, by inserting
    the new maximum at some position.  The step works by active sites.  A
    first pass records, for each q, the bitmask ``sites[q]`` of the
    positions of the maximum over the members that are q with a maximum
    inserted.  Deleting the entry p[j] from the candidate with the new
    maximum at ``pos`` leaves the j-th deletion of p with the maximum at
    pos - 1 (if j < pos) or at pos (otherwise), so that child is a member
    iff ``sites`` of the j-th deletion of p has that bit.  One AND over the
    m deletions of a member of length m decides all m + 1 positions, and a
    string is built only for a candidate that is yielded.

    >>> sorted(map(tuple, next_level({bytes((1, 2)), bytes((2, 1))})))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    >>> list(map(tuple, next_level({bytes((1, 2))})))
    [(1, 2, 3)]
    """
    sites: dict[bytes, int] = {}
    for p in level:
        if p:
            i = p.index(len(p))
            q = p[:i] + p[i + 1:]
            sites[q] = sites.get(q, 0) | 1 << i
    get = sites.get
    top = len(next(iter(level), b"")) + 1
    new = bytes((top,))
    for p in level:
        good = (1 << top) - 1  # bit pos: the new maximum may go at pos
        for j, v in enumerate(p):
            # _delete inlined for speed
            mask = get(p.translate(_DOWN[v], _BYTE[v]), 0)
            low = (2 << j) - 1  # positions pos <= j
            # pos <= j needs bit pos of mask, pos > j needs bit pos - 1
            good &= (mask & low) | (mask << 1 & ~low)
            if not good:
                break
        pos = 0
        while good:
            if good & 1:
                yield p[:pos] + new + p[pos:]
            good >>= 1
            pos += 1


def next_si_level(level: set[bytes]) -> Iterator[tuple[bytes, int, int]]:
    """Every sum indecomposable entry string one longer than the members of
    ``level`` that has a child in ``level``, each once, as ``(candidate,
    count, digest)``: ``count`` is the number of its children in ``level``
    and ``digest`` the sum mod 2^64 of their ``member_id``s, so equal child
    sets give equal digests.  ``level`` must hold sum indecomposable
    strings of a single length below 255.

    This works from the insertion side: each single-entry insertion into a
    member is a candidate, and the member is one of its children.  Deleting
    one entry of a sum a + b leaves a sum unless the entry is all of a or
    all of b, so the only decomposable insertions into a sum indecomposable
    p are 1 + p (value 1 at the front) and p + 1 (the new maximum at the
    end); the step skips those two.  Every sum indecomposable permutation
    of length n >= 2 has a sum indecomposable child (its inversion graph is
    connected, so some vertex can go without disconnecting it).  So when
    ``level`` holds every sum indecomposable string of its length, the
    candidates are every such string one longer, and each count and digest
    is that of its set K of sum indecomposable children.

    Deleting any entry of a run of adjacent positions that hold consecutive
    values leaves the same child.  So the step makes each (candidate, child)
    pair once: it skips an insertion of val whose left neighbour in the
    candidate is val - 1 or val + 1, as the pair comes again from the
    insertion of the run's leftmost entry.

    Only one block of candidates, those with one first entry r, is held at
    a time.  A candidate starts with r when r is inserted at the front, or
    when an entry goes after the first entry f of a member, with f = r if
    the entry is larger and f = r - 1 if not.

    Each candidate is one ``translate``: per member and position the step
    builds the member with a hole byte 0 there, and ``_SLOT[val]`` fills
    the hole with val and raises the entries >= val.  Per block it lists,
    for each left neighbour a, the tables of the values that may follow a
    (not a or a + 1, by the run rule; at the last position not the new
    maximum either), so the inner loop makes no test.

    >>> [(tuple(c), count) for c, count, _ in next_si_level({bytes((1,))})]
    [((2, 1), 1)]
    >>> sorted(tuple(c) for c, _, _ in next_si_level({bytes((2, 1))}))
    [(2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    top = len(next(iter(level), b"")) + 1
    if top > 255:
        raise ValueError("an entry string has at most 255 entries")
    members = []
    by_first: list[list[tuple[bytes, int]]] = [[] for _ in range(top + 1)]
    for p in level:
        # a low byte counts the children, the bits above it sum their ids
        member = (p, member_id(p) << 8 | 1)
        members.append(member)
        by_first[p[0]].append(member)
    # a string of length >= 2 starting with 1 is a sum: no block 1
    for r in range(2, top + 1):
        found: dict[bytes, int] = {}
        get = found.get
        front, up = _BYTE[r], _UP[r]
        for p, w in members:
            c = front + p.translate(up)
            found[c] = get(c, 0) + w
        for first, vals in ((by_first[r], range(r + 1, top + 1)), (by_first[r - 1], range(1, r))):
            if not first:
                continue
            # after[a]: the tables of the values allowed after the entry a;
            # at the last position the new maximum would give p + 1
            after = [tuple(_SLOT[v] for v in vals if v != a and v != a + 1) for a in range(top)]
            last = [tuple(t for t in allowed if t is not _SLOT[top]) for allowed in after]
            rows = [after] * (top - 2) + [last]
            for p, w in first:
                # position pos of the candidate, right after the entry a of p
                for pos, a, allowed in zip(range(1, top), p, rows):
                    q = p[:pos] + b"\0" + p[pos:]
                    for t in allowed[a]:
                        c = q.translate(t)
                        found[c] = get(c, 0) + w
        for c, v in found.items():
            yield c, v & 0xFF, v >> 8 & _MASK64


def contains(pattern: Permutation, text: Permutation) -> bool:
    """True iff some subsequence of ``text`` is order isomorphic to ``pattern``.

    A backtracking embedding search on the entry strings.

    >>> contains(parse_permutation("2 1 3"), parse_permutation("2 3 1 4"))
    True
    >>> contains(parse_permutation("3 2 1"), parse_permutation("2 3 4 1"))
    False
    """
    pat, seq = pattern, text
    k = len(pat)
    n = len(seq)
    if k == 0:
        return True
    if k > n:
        return False
    choice = [0] * k
    i = 0
    pos = 0
    while True:
        # leftmost-feasible scan; there must be room for the k-i-1 later entries
        last = n - k + i
        pi = pat[i]
        while pos <= last:
            v = seq[pos]
            for j in range(i):
                if (pat[j] < pi) != (seq[choice[j]] < v):
                    break
            else:  # every placed entry agrees: place entry i here
                break
            pos += 1
        if pos <= last:
            if i == k - 1:
                return True
            choice[i] = pos
            i += 1
            pos += 1
        else:
            if i == 0:
                return False
            i -= 1
            pos = choice[i] + 1


def direct_sum(p: Permutation, q: Permutation) -> Permutation:
    n = len(p)
    return Permutation([*p, *(x + n for x in q)])


def skew_sum(p: Permutation, q: Permutation) -> Permutation:
    m = len(q)
    return Permutation([*(x + m for x in p), *q])


def children(p: Permutation) -> frozenset[Permutation]:
    """The set K(p) of sum indecomposable children of ``p``: its distinct
    single-entry deletion patterns that are sum indecomposable."""
    if len(p) == 0:
        raise ValueError("the empty permutation has no children")
    kids = {_delete(p, i) for i in range(len(p))}
    return frozenset(map(Permutation._trusted, filter(is_sum_indecomposable, kids)))


class InversionGraph(NamedTuple):
    """Graph on values 1..n with an edge (a, b), a > b, whenever a appears
    before b; connected iff the source permutation is sum indecomposable."""

    n: int
    edges: frozenset[tuple[int, int]]  # stored as (min, max) value pairs

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = {1}
        frontier = [1]
        adj = {v: set() for v in range(1, self.n + 1)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    def is_path(self) -> bool:
        """True iff the graph is a simple path on all n vertices (n >= 1)."""
        if self.n == 0:
            return False
        if self.n == 1:
            return len(self.edges) == 0
        if len(self.edges) != self.n - 1 or not self.is_connected():
            return False
        return all(self.degree(v) <= 2 for v in range(1, self.n + 1))


def inversion_graph(p: Permutation) -> InversionGraph:
    edges = set()
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                edges.add((p[j], p[i]))
    return InversionGraph(len(p), frozenset(edges))


def increasing_oscillation(n: int, primary: bool = True) -> Permutation:
    """The length-n increasing oscillation; the primary type begins with 2,
    the other type is its inverse.  For n in {1, 2} the two types coincide
    and ``primary`` is ignored.

    >>> str(increasing_oscillation(9))
    '2 4 1 6 3 8 5 9 7'
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    if n == 1:
        return Permutation((1,))
    vals = [0] * n
    vals[0] = 2
    for i in range(2, n + 1):
        if i % 2 == 0:
            vals[i - 1] = i + 2
        else:
            vals[i - 1] = i - 2
    if n % 2 == 0:
        vals[n - 1] = n - 1
    else:
        vals[n - 2] = n
    p = Permutation(vals)
    return p if primary else p.inverse()


ALTERNATION_KINDS = ("wedge1", "wedge2", "parallel1", "parallel2")


def vertical_alternation(n: int, kind: str) -> Permutation:
    """Length-n prefix pattern of one of the four infinite vertical
    alternation families (two wedge shapes, two parallel shapes).  No
    campaign calls it; it stays as the probe that
    ``test_split_rule_matches_the_alternation_probe`` checks
    ``classes.embeds_in_alternation`` against.

    >>> str(vertical_alternation(10, "wedge1"))
    '1 10 2 9 3 8 4 7 5 6'
    >>> str(vertical_alternation(10, "parallel1"))
    '6 1 7 2 8 3 9 4 10 5'
    """
    if kind not in ALTERNATION_KINDS:
        raise ValueError("kind must be one of %s" % (ALTERNATION_KINDS,))
    if n < 1:
        raise ValueError("length must be at least 1")
    half = n // 2
    vals = []
    for i in range(1, n + 1):
        if kind == "wedge1":
            v = (i + 1) // 2 if i % 2 else n + 1 - i // 2
        elif kind == "wedge2":
            v = half + (i + 1) // 2 if i % 2 else half + 1 - i // 2
        elif kind == "parallel1":
            v = half + (i + 1) // 2 if i % 2 else i // 2
        else:  # parallel2
            v = n - (i - 1) // 2 if i % 2 else half + 1 - i // 2
        vals.append(v)
    return Permutation(vals)
