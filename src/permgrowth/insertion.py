"""Insertion encodings of permutations and the finite automata they induce
for finitely based classes, yielding exact rational generating functions.

A permutation is built by inserting the values 1, 2, ... in order.  At each
step the gaps still to be filled form numbered slots, left to right, and the
new value either fills a slot (``f``), leaves a gap on its left (``l``), on
its right (``r``), or on both sides (``m``).  The letter sequence determines
the permutation and vice versa.

The automaton for a class tracks, per basis element, every way a value
prefix of that element embeds into the decided entries, recording for each
still-missing entry the interval of slots it may occupy.  A completed
embedding, or one with a single entry left, kills the state; words reaching
slot count zero are exactly the encodings of class members.

A signature, the windows of one embedding's missing entries, is ``bytes``
with one byte per entry, the window (lo, hi) packed as ``lo << 4 | hi``.
Renumbering the slots after a letter is then one ``bytes.translate`` of
the signature, and so is each side of the clamp a matched entry puts on
its neighbours.  The 256-byte tables are built on first use, one per
letter and clamp bound; a window reaches ``SLOT_CAP + 1``, which 4 bits
must hold.

One basis element's step depends only on the element, its signature set
and the letter, so steps are cached across builds: the classes of one
search share most basis elements.  Equal signature sets are interned to one
object, and the cache is cleared once it holds ``_STEP_CACHE_CAP`` steps.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .classes import ClassSpec, has_regular_insertion_encoding
from .perms import Permutation
from .polynomials import IntPolynomial, RationalFunction

ACTIONS = ("f", "l", "r", "m")
# how each action changes the number of open slots
_SLOT_DELTA = {"f": -1, "l": 0, "r": 0, "m": 1}


class NotRegular(ValueError):
    """The class admits arbitrarily long vertical alternations, so no
    finite-slot automaton exists."""


class SlotBoundExceeded(ValueError):
    """The construction would need more than ``SLOT_CAP`` simultaneous
    slots, so the build refuses instead."""


class _Letter(NamedTuple):
    action: str  # one of ACTIONS
    slot: int  # 1-based


class IELetter(_Letter):
    """One letter of an insertion encoding; letters order by (action, slot)."""

    __slots__ = ()

    def __new__(cls, action: str, slot: int) -> "IELetter":
        if action not in ACTIONS:
            raise ValueError("unknown action %r" % (action,))
        if slot < 1:
            raise ValueError("slot indices are 1-based")
        return super().__new__(cls, action, slot)

    def __str__(self) -> str:
        return "%s_%d" % (self.action, self.slot)


def encode(p: Permutation) -> list[IELetter]:
    """Insertion encoding of ``p``: one letter per value, in value order.
    No campaign calls it; it stays as the tests' independent oracle for
    the automaton, whose accepted words must be the encodings of exactly
    the members (``test_automaton_accepts_exactly_the_encodings_of_members``).

    >>> [str(x) for x in encode(Permutation((2, 3, 1)))]
    ['l_1', 'r_1', 'f_1']
    """
    n = len(p)
    undecided = [True] * n
    letters = []
    for v in range(1, n + 1):
        i = p.index(v)
        # slot index: count maximal undecided runs strictly left of i's run
        slot = 1
        in_run = False
        for t in range(i):
            if undecided[t]:
                in_run = True
            elif in_run:
                slot += 1
                in_run = False
        left = i > 0 and undecided[i - 1]
        right = i + 1 < n and undecided[i + 1]
        undecided[i] = False
        if left and right:
            action = "m"
        elif left:
            action = "l"
        elif right:
            action = "r"
        else:
            action = "f"
        letters.append(IELetter(action, slot))
    return letters


_SLOT = object()


def decode(letters: Iterable[IELetter]) -> Permutation:
    """Inverse of :func:`encode`; raises if the word is not a valid
    encoding (bad slot index or leftover slots).  No campaign calls it; the
    tests' round trip ``decode(encode(p)) == p`` checks :func:`encode` with
    it (``test_insertion``, ``test_properties``, ``test_acceptance``)."""
    items: list = [_SLOT]
    v = 0
    for letter in letters:
        v += 1
        idx = -1
        seen = 0
        for t, item in enumerate(items):
            if item is _SLOT:
                seen += 1
                if seen == letter.slot:
                    idx = t
                    break
        if idx < 0:
            raise ValueError("letter %s has no slot to act on" % letter)
        replacement = {
            "f": [v],
            "l": [_SLOT, v],
            "r": [v, _SLOT],
            "m": [_SLOT, v, _SLOT],
        }[letter.action]
        items[idx : idx + 1] = replacement
    if any(item is _SLOT for item in items):
        raise ValueError("word leaves unfilled slots")
    return Permutation(items)


# ---------------------------------------------------------------------------
# automaton construction


def _next_entry_tables(basis: Permutation) -> bytes:
    """For each remaining-count k, the rank (in position order) of the next
    entry to match, which is always the least-valued remaining one.  It is
    bytes, whose hash is computed once, as every step cache key holds it."""
    L = len(basis)
    pos_of_value = {v: i for i, v in enumerate(basis)}
    table = [0] * (L + 1)
    for k in range(1, L + 1):
        m = L - k  # values 1..m already matched
        remaining = sorted(pos_of_value[v] for v in range(m + 1, L + 1))
        table[k] = remaining.index(pos_of_value[m + 1])
    return bytes(table)


class _TranslateTables(dict):
    """``bytes.translate`` tables for windows packed ``lo << 4 | hi``, one
    per (kind, j), each built on its first use: a build needs few of them,
    and building all at import would slow every call that loads this
    module.  Kind ``f`` or ``m`` renumbers the windows after that letter at
    slot j (see ``_reindex``); ``hi`` caps each window's upper end at j and
    ``lo`` raises its lower end to j.  Windows stay within 0..SLOT_CAP + 1,
    so ``m`` never carries a nibble past 15 on a byte that occurs."""

    def __missing__(self, key):
        kind, j = key
        windows = [(w >> 4, w & 15) for w in range(256)]
        if kind == "f":
            table = [(lo - (lo > j)) << 4 | hi - (hi >= j) for lo, hi in windows]
        elif kind == "m":
            table = [min(lo + (lo > j), 15) << 4 | min(hi + (hi >= j), 15) for lo, hi in windows]
        elif kind == "hi":
            table = [lo << 4 | min(hi, j) for lo, hi in windows]
        else:  # lo
            table = [max(lo, j) << 4 | hi for lo, hi in windows]
        out = self[key] = bytes(table)
        return out


_TABLES = _TranslateTables()


def _reindex(sig: bytes, action: str, j: int) -> bytes:
    """The windows of ``sig`` in the slot numbering after the letter
    ``action`` at slot j: ``f`` closes slot j, so the slots right of it move
    down one, and ``m`` splits it in two, so they move up one; ``l`` and
    ``r`` keep the numbering.  A window of slot j alone empties under ``f``."""
    if not _SLOT_DELTA[action]:
        return sig
    return sig.translate(_TABLES[action, j])


def _feasible(sig: bytes) -> bool:
    # remaining entries occupy slots weakly left to right (sharing allowed)
    cur = 1
    for w in sig:
        if w >> 4 > cur:
            cur = w >> 4
        if cur > w & 15:
            return False
    return True


def _dominance_prune(sigs: set) -> frozenset:
    # only signatures of equal length can dominate one another
    if len(sigs) < 2:
        return frozenset(sigs)
    by_len: dict = {}
    for a in sigs:
        by_len.setdefault(len(a), []).append(a)
    if len(by_len) == len(sigs):
        return frozenset(sigs)
    kept = []
    for group in by_len.values():
        for a in group:
            for b in group:
                if b is not a and all(
                    x >> 4 <= y >> 4 and x & 15 >= y & 15 for x, y in zip(b, a)
                ):
                    break  # a is dominated
            else:
                kept.append(a)
    return frozenset(kept)


_DEAD = object()

# the step cache of the module docstring: step key -> interned result, and
# the intern dict, signature set -> its one shared copy
_STEP_CACHE_CAP = 1 << 15
_step_cache: dict = {}
_interned: dict = {}


def _clear_step_cache() -> None:
    _step_cache.clear()
    _interned.clear()


def _cached_step(sigs, table, action: str, j: int):
    """``_step_sigset`` through the shared step cache."""
    key = (sigs, table, action, j)
    out = _step_cache.get(key)
    if out is None:
        if len(_step_cache) >= _STEP_CACHE_CAP:
            _clear_step_cache()
        out = _step_sigset(sigs, table, action, j)
        if out is not _DEAD:
            out = _interned.setdefault(out, out)
        _step_cache[key] = out
    return out


def _step_sigset(sigs, table, action: str, j: int):
    """Evolve one basis element's signature set; _DEAD once an embedding
    is complete or has a single entry left.

    A signature is ``bytes``, one byte per remaining entry, holding that
    entry's window of slots as ``lo << 4 | hi``; so renumbering a signature
    is one ``bytes.translate`` (``_reindex``), and so is each side of the
    matched branch's clamp, through the lazily built ``_TABLES``.

    Every window lies in 1..s, the slot count before the letter, and
    ``_reindex`` maps each window in 1..s that stays non-empty into
    1..s_new, the count after it; so no window needs clamping to s_new.
    ``_feasible`` fails on an empty window, so it alone screens them.  A
    signature enters a set only when feasible, and only ``f`` can make a
    renumbered one infeasible: ``l`` and ``r`` keep the windows, and ``m``
    maps a non-decreasing choice of slots to one again, slot j to slot j."""
    out = set()
    # v sits between these slot indices of the new configuration
    if action in ("f", "r"):
        j_left, j_right = j - 1, j
    else:  # l, m
        j_left, j_right = j, j + 1
    cap_hi = _TABLES["hi", j_left]
    raise_lo = _TABLES["lo", j_right]
    for sig in sigs:
        ns = _reindex(sig, action, j)
        if action != "f" or _feasible(ns):
            out.add(ns)
        t = table[len(sig)]
        w = sig[t]
        if w >> 4 <= j <= w & 15:
            # v matches entry t: the entries left of it go left of v, the
            # entries right of it right of v
            matched = ns[:t].translate(cap_hi) + ns[t + 1:].translate(raise_lo)
            if len(matched) > 1:
                if _feasible(matched):
                    out.add(matched)
            elif all(x >> 4 <= x & 15 for x in matched):
                # complete, or the entry left is b's largest value and its
                # window a non-empty slot interval: every accepted
                # completion puts a value larger than all decided ones there
                return _DEAD
    return _dominance_prune(out)


class Automaton:
    """Deterministic automaton over insertion-encoding letters; transitions
    absent from the maps lead to an implicit dead sink."""

    __slots__ = ("initial", "accepts", "transitions")

    def __init__(self, initial: int, accepts: frozenset[int], transitions: list[dict[str, int]]):
        self.initial = initial
        self.accepts = accepts
        self.transitions = transitions  # index = state, key = str(letter)

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def count_words(self, n: int) -> list[int]:
        """Accepted-word counts by length 0..n, by dynamic programming."""
        targets = [tuple(t.values()) for t in self.transitions]
        counts = []
        # dist[q]: the number of words of the current length leading to q
        dist = [0] * len(targets)
        dist[self.initial] = 1
        for _ in range(n + 1):
            counts.append(sum(dist[q] for q in self.accepts))
            nxt = [0] * len(targets)
            for q, c in enumerate(dist):
                if c:
                    for target in targets[q]:
                        nxt[target] += c
            dist = nxt
        return counts


# the most slots a build may open; no campaign class needs more than 3
SLOT_CAP = 8
# each action's letter names for slots 1..SLOT_CAP, the transition keys
_LETTER_NAMES = {a: [str(IELetter(a, j)) for j in range(1, SLOT_CAP + 1)] for a in ACTIONS}


def build_automaton(spec: ClassSpec) -> Automaton:
    """Minimal deterministic automaton whose accepted words are exactly the
    insertion encodings of the members of ``spec``.

    Raises :class:`NotRegular` when the class has no regular insertion
    encoding and :class:`SlotBoundExceeded` when a live state would open
    more than ``SLOT_CAP`` slots.  A window reaches ``SLOT_CAP + 1`` and
    must fit in the 4 bits of a packed window, so a ``SLOT_CAP`` above 14
    raises ``ValueError``.
    """
    if SLOT_CAP + 1 > 15:
        raise ValueError("SLOT_CAP %d does not fit windows in 4 bits; at most 14" % SLOT_CAP)
    if not has_regular_insertion_encoding(spec):
        raise NotRegular("class admits unbounded vertical alternations")
    basis = spec.sorted_basis()
    tables = [_next_entry_tables(b) for b in basis]

    def step(state, action: str, j: int):
        s, sets = state
        new_sets = []
        for sigs, table in zip(sets, tables):
            stepped = _cached_step(sigs, table, action, j)
            if stepped is _DEAD:
                return None
            new_sets.append(stepped)
        return (s + _SLOT_DELTA[action], tuple(new_sets))

    live_cache: dict = {}
    # per state, the successors under f_1, f_2, ... that ``live`` took
    fills: dict = {}

    def live(state) -> bool:
        """A state can reach acceptance iff some way of filling each open
        slot with a single value avoids the basis: deleting surplus values
        from any accepted completion leaves one value per slot.  So only
        fill letters need exploring, and slot count strictly decreases.
        ``step`` has already cut every state holding a signature with one
        entry left, so this decides only states whose signatures all have
        two or more entries."""
        if state[0] == 0:
            return True
        if state not in live_cache:
            live_cache[state] = False  # placeholder; recursion cannot cycle
            taken = fills[state] = []
            for j in range(1, state[0] + 1):
                t = step(state, "f", j)
                taken.append(t)
                if t is not None and live(t):
                    live_cache[state] = True
                    break
        return live_cache[state]

    initial = (1, tuple(frozenset({b"\x11" * len(b)}) for b in basis))
    ids = {initial: 0}
    transitions: list[dict[str, int]] = [{}]
    queue = [initial]
    while queue:
        state = queue.pop()
        s = state[0]
        here = transitions[ids[state]]
        taken = fills.get(state, ())
        for action in ACTIONS:
            names = _LETTER_NAMES[action]
            for j in range(1, s + 1):
                if action == "f" and j <= len(taken):
                    target = taken[j - 1]
                else:
                    target = step(state, action, j)
                if target is None:
                    continue
                k = ids.get(target)
                if k is None:
                    # every state with an id but the initial one was live
                    # when it got it; a dead initial state leaves a lone
                    # state after minimisation whatever enters it
                    if not live(target):
                        continue
                    if target[0] > SLOT_CAP:
                        raise SlotBoundExceeded(
                            "the insertion encoding exceeds the %d-slot limit" % SLOT_CAP
                        )
                    k = ids[target] = len(ids)
                    transitions.append({})
                    queue.append(target)
                here[names[j - 1] if j <= len(names) else str(IELetter(action, j))] = k
    accepts = frozenset(i for st, i in ids.items() if st[0] == 0)
    return _minimize(Automaton(0, accepts, transitions))


def _minimize(aut: Automaton) -> Automaton:
    """Moore partition refinement with an implicit dead sink; states
    equivalent to the sink (including non-coaccessible ones) are dropped."""
    n = aut.num_states
    alphabet = sorted({a for t in aut.transitions for a in t})
    DEAD = -1
    block = [1 if q in aut.accepts else 0 for q in range(n)]
    dead_block = 0  # the sink is non-accepting
    while True:
        signature = {}
        for q in range(n):
            sig = (
                block[q],
                tuple(
                    block[aut.transitions[q][a]] if a in aut.transitions[q] else DEAD
                    for a in alphabet
                ),
            )
            signature[q] = sig
        dead_sig = (dead_block, (DEAD,) * len(alphabet))
        relabel = {}
        for q in range(n):
            relabel.setdefault(signature[q], len(relabel))
        new_dead = relabel.setdefault(dead_sig, len(relabel))
        new_block = [relabel[signature[q]] for q in range(n)]
        if new_block == block and new_dead == dead_block:
            break
        block, dead_block = new_block, new_dead
    keep = sorted({b for b in block if b != dead_block})
    remap = {b: i for i, b in enumerate(keep)}
    if block[aut.initial] == dead_block:
        # class contains nothing but possibly the empty permutation; keep a
        # lone initial state with no transitions
        return Automaton(0, frozenset(), [{}])
    transitions: list[dict[str, int]] = [{} for _ in keep]
    for q in range(n):
        b = block[q]
        if b == dead_block:
            continue
        for a, target in aut.transitions[q].items():
            tb = block[target]
            if tb != dead_block:
                transitions[remap[b]][a] = remap[tb]
    accepts = frozenset(remap[block[q]] for q in aut.accepts if block[q] != dead_block)
    return Automaton(remap[block[aut.initial]], accepts, transitions)


def _berlekamp_massey(s: list[int]) -> tuple[list[int], int]:
    """Length L and connection polynomial C (ascending, C[0] != 0, padded
    to L + 1 coefficients) of the shortest linear recurrence
    sum_i C[i] s[n - i] = 0 (n >= L) that generates ``s`` (Massey 1969).

    Integer form: where the field algorithm subtracts d/b times x^m B from
    C, this one scales C by b and subtracts d x^m B, then divides out the
    content, so every quantity stays an integer and no fraction is built.

    >>> _berlekamp_massey([1, 1, 2, 3, 5, 8])
    ([1, -1, -1], 2)
    """
    C, B = [1], [1]
    L, m, b = 0, 1, 1
    for n in range(len(s)):
        d = sum(C[i] * s[n - i] for i in range(min(len(C), n + 1)))
        if d == 0:
            m += 1
            continue
        T = C
        C = [b * c for c in C] + [0] * max(0, len(B) + m - len(C))
        for i, c in enumerate(B):
            C[i + m] -= d * c
        g = math.gcd(*C)
        C = [c // g for c in C]
        if 2 * L <= n:
            L, B, b, m = n + 1 - L, T, d, 1
        else:
            m += 1
    return (C + [0] * L)[: L + 1], L


def gf_from_automaton(aut: Automaton) -> RationalFunction:
    """Generating function of the class: 1 (empty permutation) plus the
    length generating function of the accepted words.

    It is read off the counts of lengths 0..2N + 2, N = ``aut.num_states``,
    which fix it for all n.  With A the transfer matrix and u, v the
    initial and accepting indicator vectors, G = 1 + u^T (I - xA)^(-1) v,
    so by Cramer's rule G = P/D with D = det(I - xA) and deg P, deg D <= N:
    the counts satisfy a linear recurrence of length at most N + 1.  Two
    recurrences of lengths L1 and L2 that agree on L1 + L2 terms generate
    the same sequence, so the shortest recurrence of the 2N + 3 counts,
    which Berlekamp–Massey returns with its length L <= N + 1 and its
    connection polynomial Q, generates every count: G = (Q G mod x^L) / Q.
    ``RationalFunction`` is canonical (coprime, with normalized content and
    sign), so the result does not depend on how it was found.
    """
    s = aut.count_words(2 * aut.num_states + 2)
    s[0] += 1
    Q, L = _berlekamp_massey(s)
    P = [sum(Q[i] * s[k - i] for i in range(k + 1)) for k in range(L)]
    return RationalFunction(IntPolynomial(P), IntPolynomial(Q))


def class_gf(spec: ClassSpec) -> RationalFunction:
    """Generating function counting members of ``spec`` by length."""
    return gf_from_automaton(build_automaton(spec))


def si_gf(f: RationalFunction) -> RationalFunction:
    """Generating function of sum indecomposable members, valid for sum
    closed classes: g = 1 - 1/f."""
    P, Q = f.num, f.den
    if not (P.coeffs and P.coeffs[0] == Q.coeffs[0] != 0):
        raise ValueError("class generating function must have constant term 1")
    # f = P/Q gives g = (P - Q)/P.  f is reduced, so gcd(P - Q, P) =
    # gcd(Q, P) = 1 and the contents of P - Q and P are coprime; and
    # P(0) = Q(0) > 0.  So the pair is canonical as it stands, and no gcd
    # is taken; f = 1 gives g = 0, which the full constructor normalizes
    D = P - Q
    if D.is_zero():
        return RationalFunction(D, P)
    return RationalFunction._reduced(D, P)


_MAX_PERIOD = 12


def eventual_period(f: RationalFunction) -> tuple[list[int], int]:
    """Smallest period P <= _MAX_PERIOD with f * (1 - x^P) polynomial,
    together with the coefficient prefix that determines the whole series
    (everything beyond it repeats with period P).  Raises if none exists.

    f is in lowest terms, so f * (1 - x^P) is a polynomial iff f.den divides
    1 - x^P; that polynomial has degree deg num + P - deg den."""
    for P in range(1, _MAX_PERIOD + 1):
        if f.den.divides(IntPolynomial([1] + [0] * (P - 1) + [-1])):
            D = f.num.degree + P - f.den.degree
            return f.series(max(D, 0) + P), P
    raise ValueError("series is not eventually periodic with period <= %d" % _MAX_PERIOD)


def coefficients_bounded(f: RationalFunction, bound: int) -> bool:
    """True iff every power-series coefficient of ``f`` is <= bound, decided
    exactly via eventual periodicity."""
    prefix, _ = eventual_period(f)
    return all(c <= bound for c in prefix)
