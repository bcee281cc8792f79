import pytest
from test_acceptance import XI_WITNESS_BASIS

from permgrowth import insertion
from permgrowth.search import _classes_with_prefix
from permgrowth.classes import (
    census,
    embeds_in_alternation,
    has_regular_insertion_encoding,
    member,
    orbit_key,
    spec_from_strs,
)
from permgrowth.insertion import (
    IELetter,
    NotRegular,
    SlotBoundExceeded,
    build_automaton,
    class_gf,
    coefficients_bounded,
    decode,
    encode,
    eventual_period,
    gf_from_automaton,
    si_gf,
)
from permgrowth.perms import (
    ALTERNATION_KINDS,
    all_permutations,
    contains,
    parse_permutation,
    vertical_alternation,
)
from permgrowth.polynomials import IntPolynomial, RationalFunction

# the counts that start every class search-112344 examines
SEARCH_112344_PREFIX = (1, 1, 2, 3, 4, 4)


def test_encode_decode_examples():
    p = parse_permutation("3 1 4 6 2 5")
    assert decode(encode(p)) == p
    assert len(encode(p)) == len(p)


@pytest.mark.parametrize("action, slot", [("x", 1), ("F", 2), ("f", 0), ("m", -1)])
def test_ie_letter_rejects_an_unknown_action_or_slot(action, slot):
    with pytest.raises(ValueError):
        IELetter(action, slot)


def test_ie_letter_orders_by_action_then_slot_and_round_trips_its_text():
    letters = [IELetter(a, j) for a in "rmlf" for j in (3, 1, 2)]
    ordered = sorted(letters)
    assert [(x.action, x.slot) for x in ordered] == sorted((a, j) for a in "flmr" for j in (1, 2, 3))
    assert IELetter("f", 2) < IELetter("l", 1) < IELetter("l", 2)
    for x in letters:
        action, _, slot = str(x).partition("_")
        assert IELetter(action, int(slot)) == x
    assert str(IELetter("m", 12)) == "m_12"


def test_encode_decode_all_to_length_6():
    for n in range(1, 7):
        for p in all_permutations(n):
            assert decode(encode(p)) == p


def test_regularity_detector():
    # bounded alternations in the class: regular
    assert has_regular_insertion_encoding(
        spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1")
    )
    # Av(321) contains arbitrarily long parallel alternations
    assert not has_regular_insertion_encoding(spec_from_strs("3 2 1"))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_split_rule_matches_the_alternation_probe(n):
    # the value split decides what containment in a long alternation does
    for p in all_permutations(n):
        for kind in ALTERNATION_KINDS:
            probe = vertical_alternation(2 * n + 4, kind)
            assert embeds_in_alternation(p, kind) == contains(p, probe), (str(p), kind)


def test_build_automaton_rejects_irregular_class():
    with pytest.raises(NotRegular):
        build_automaton(spec_from_strs("3 2 1"))


@pytest.mark.parametrize(
    "basis",
    [
        ("2 3 1", "4 3 1 2", "4 3 2 1"),
        ("3 2 1", "3 4 1 2", "4 1 2 3"),
        ("2 3 1", "3 1 2"),
        ("3 2 1", "2 3 4 1", "3 4 1 2", "5 1 2 3 4", "2 5 1 3 6 4"),
    ],
)
def test_class_gf_matches_census(basis):
    spec = spec_from_strs(*basis)
    f = class_gf(spec)
    c = census(spec, 10)
    assert f.series(10) == c.member_counts
    g = si_gf(f)
    assert g.series(10)[1:] == c.si_sequence()


def _certificate_specs():
    yield from _classes_with_prefix(SEARCH_112344_PREFIX)
    yield spec_from_strs("1")
    yield spec_from_strs("1 2")
    yield spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1")  # the Fibonacci class
    yield spec_from_strs(*XI_WITNESS_BASIS)


def test_gf_from_automaton_is_certified_past_the_terms_it_reads():
    # the g.f. is read from 2N + 3 word counts; its series must go on to
    # agree with the automaton, and with an independent census
    for spec in _certificate_specs():
        aut = build_automaton(spec)
        gf = gf_from_automaton(aut)
        n = 3 * aut.num_states + 5
        assert gf.series(n) == [1] + aut.count_words(n)[1:], spec
        assert class_gf(spec).series(10) == census(spec, 10).member_counts, spec
    x = IntPolynomial([0, 1])
    one = IntPolynomial([1])
    assert class_gf(spec_from_strs("1")) == RationalFunction(one, one)
    assert class_gf(spec_from_strs("1 2")) == RationalFunction(one, one - x)


def test_si_gf_needs_no_gcd():
    # si_gf builds (P - Q)/P from f = P/Q with no gcd taken; the full
    # constructor, which takes one, must give the same pair.  Av(1) is among
    # the specs: its f = 1 gives g = 0, which the full constructor builds
    for spec in _certificate_specs():
        f = class_gf(spec)
        g = si_gf(f)
        reduced = RationalFunction(f.num - f.den, f.num)
        assert (g.num, g.den) == (reduced.num, reduced.den), spec
    g = si_gf(class_gf(spec_from_strs("1")))
    assert g.num.is_zero() and g.den == IntPolynomial([1])


@pytest.mark.parametrize(
    "num, den",
    [([2], [1, -1]), ([0, 1], [1]), ([], [1]), ([1], [0, 1]), ([-1], [1, 1])],
)
def test_si_gf_rejects_a_constant_term_other_than_one(num, den):
    f = RationalFunction(IntPolynomial(num), IntPolynomial(den))
    with pytest.raises(ValueError, match="constant term 1"):
        si_gf(f)


def test_berlekamp_massey_finds_the_shortest_recurrence():
    assert insertion._berlekamp_massey([1, 1, 2, 3, 5, 8, 13, 21]) == ([1, -1, -1], 2)
    # 1/(1 - 2x) needs a scaled update: the first discrepancy is 1, then 2
    Q, L = insertion._berlekamp_massey([1, 2, 4, 8, 16, 32])
    assert L == 1 and Q[1] == -2 * Q[0]
    # x^3: length 4, longer than the connection polynomial 1
    assert insertion._berlekamp_massey([0, 0, 0, 1, 0, 0, 0, 0]) == ([1, 0, 0, 0, 0], 4)


def test_si_gf_periodic_class():
    spec = spec_from_strs(
        "3 2 1", "2 3 4 1", "3 4 1 2", "5 1 2 3 4", "2 5 1 3 6 4"
    )
    g = si_gf(class_gf(spec))
    prefix, period = eventual_period(g)
    assert prefix[1:10] == [1, 1, 2, 3, 4, 4, 5, 4, 5]
    assert period == 2
    assert coefficients_bounded(g, 5)
    assert not coefficients_bounded(g, 4)


def test_eventual_period_rejects_growing_series():
    g = si_gf(class_gf(spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1")))
    with pytest.raises(ValueError):
        eventual_period(g)  # Fibonacci growth is not eventually periodic


@pytest.mark.parametrize(
    "basis",
    [
        ("2 3 1", "4 3 1 2", "4 3 2 1"),  # the Fibonacci class
        ("3 2 1", "3 4 1 2", "4 1 2 3", "2 3 4 5 1", "3 1 4 6 2 5"),  # from search-112344
        ("1 4 3 2", "1 2 3 4 5", "1 3 5 2 4"),  # opens 7 or 8 slots
        ("1 2 3 4", "3 2 5 4 1"),  # needs exactly SLOT_CAP slots
    ],
)
def test_automaton_accepts_exactly_the_encodings_of_members(basis):
    spec = spec_from_strs(*basis)
    aut = build_automaton(spec)
    for n in range(1, 8):
        for p in all_permutations(n):
            state = aut.initial
            for letter in encode(p):
                state = aut.transitions[state].get(str(letter))
                if state is None:  # the implicit dead sink
                    break
            assert (state in aut.accepts) == member(spec, p), str(p)


def pack(sig):
    """A signature of (lo, hi) windows as the kernel's bytes, lo << 4 | hi."""
    return bytes(lo << 4 | hi for lo, hi in sig)


def unpack(sig):
    return tuple((w >> 4, w & 15) for w in sig)


def step_on_tuples(sigs, table, action, j):
    """``_step_sigset`` on a set of tuple signatures, packed on the way in
    and unpacked on the way out."""
    out = insertion._step_sigset(frozenset(map(pack, sigs)), table, action, j)
    return out if out is insertion._DEAD else frozenset(map(unpack, out))


def test_one_entry_left_kills_the_state():
    b = parse_permutation("1 2")
    table = insertion._next_entry_tables(b)
    sigs = frozenset({((1, 1), (1, 1))})
    # 1 matched with a slot on its right, which must hold a larger value
    assert step_on_tuples(sigs, table, "r", 1) is insertion._DEAD
    # 1 matched with a slot only on its left: the window of 2 empties, and
    # the unmatched signature stays
    assert step_on_tuples(sigs, table, "l", 1) == sigs


def test_a_class_needing_exactly_slot_cap_slots_builds(monkeypatch):
    spec = spec_from_strs("1 2 3 4", "3 2 5 4 1")
    aut = build_automaton(spec)
    assert aut.num_states == 454
    assert gf_from_automaton(aut).series(10) == census(spec, 10).member_counts
    monkeypatch.setattr(insertion, "SLOT_CAP", insertion.SLOT_CAP - 1)
    with pytest.raises(SlotBoundExceeded):
        build_automaton(spec)


def test_a_slot_cap_past_four_bit_windows_raises(monkeypatch):
    # a window reaches SLOT_CAP + 1, and a packed window holds 4 bits
    spec = spec_from_strs("3 2 1", "3 4 1 2", "4 1 2 3")
    aut = build_automaton(spec)
    monkeypatch.setattr(insertion, "SLOT_CAP", 14)
    assert build_automaton(spec).transitions == aut.transitions
    monkeypatch.setattr(insertion, "SLOT_CAP", 15)
    with pytest.raises(ValueError, match="4 bits"):
        build_automaton(spec)


def test_search_112344_builds_stay_within_their_work():
    # a deterministic guard in place of a timing test: cutting states whose
    # embeddings have one entry left keeps the steps these builds cache near
    # 3 727 (11 178 without the cut), and the automata stay the same size
    insertion._clear_step_cache()
    states = sum(build_automaton(spec).num_states for spec in _classes_with_prefix(SEARCH_112344_PREFIX))
    assert len(insertion._step_cache) <= 4000
    assert states == 1968
    insertion._clear_step_cache()


def test_search_112344_classes_share_one_si_gf_per_orbit():
    # the campaign builds one automaton per orbit_key and checks each
    # class's 1,1,2,3,4,4 prefix on its orbit's g.f.; here each class is
    # censused afresh and its own g.f. compared exactly with its orbit's first
    first = {}
    for spec in _classes_with_prefix(SEARCH_112344_PREFIX):
        assert census(spec, 6).si_sequence() == [1, 1, 2, 3, 4, 4], spec
        g = si_gf(class_gf(spec))
        assert first.setdefault(orbit_key(spec), g) == g, spec
    assert len(first) == 51


def test_automaton_deterministic_and_minimal_smoke(monkeypatch):
    spec = spec_from_strs("3 2 1", "3 4 1 2", "4 1 2 3")
    aut = build_automaton(spec)
    # rebuilt automata agree state-for-state (construction is canonical)
    aut2 = build_automaton(spec)
    assert aut.num_states == aut2.num_states
    assert aut.transitions == aut2.transitions
    # a slot past the prebuilt letter names, as under a raised SLOT_CAP,
    # is named by IELetter itself
    monkeypatch.setattr(insertion, "_LETTER_NAMES", {a: [] for a in insertion.ACTIONS})
    assert build_automaton(spec).transitions == aut.transitions
    # automaton word counts equal the class counts (the empty permutation
    # is accounted for in the generating function, not the automaton)
    assert aut.count_words(8)[1:] == census(spec, 8).member_counts[1:]


def test_step_cache_cannot_change_an_automaton(monkeypatch):
    specs = [
        spec_from_strs("3 2 1", "3 4 1 2", "4 1 2 3"),
        # a search-112344 class that reaches a count of 5
        spec_from_strs("3 2 1", "3 4 1 2", "4 1 2 3", "2 3 4 5 1", "3 1 4 6 2 5"),
    ]
    with monkeypatch.context() as m:
        m.setattr(insertion, "_cached_step", insertion._step_sigset)
        uncached = [build_automaton(spec) for spec in specs]
    fresh = []
    for spec in specs:
        insertion._clear_step_cache()
        fresh.append(build_automaton(spec))
    # the second build of the first class reads steps that both earlier
    # builds cached
    insertion._clear_step_cache()
    for k in (0, 1, 0):
        aut = build_automaton(specs[k])
        for ref in (fresh[k], uncached[k]):
            assert aut.initial == ref.initial
            assert aut.accepts == ref.accepts
            assert aut.transitions == ref.transitions
        assert len(insertion._step_cache) <= insertion._STEP_CACHE_CAP
    # a cap small enough to clear the cache many times within one build
    monkeypatch.setattr(insertion, "_STEP_CACHE_CAP", 64)
    insertion._clear_step_cache()
    aut = build_automaton(specs[1])
    assert aut.transitions == uncached[1].transitions
    assert len(insertion._step_cache) <= 64
    insertion._clear_step_cache()


def test_reindex_keeps_windows_within_the_new_slot_count():
    # why _step_sigset never clamps a window to the new slot count s_new
    for s in range(1, 9):
        for action, delta in (("f", -1), ("l", 0), ("r", 0), ("m", 1)):
            for j in range(1, s + 1):
                for lo in range(1, s + 1):
                    for hi in range(lo, s + 1):
                        ((new_lo, new_hi),) = unpack(insertion._reindex(pack(((lo, hi),)), action, j))
                        if new_lo <= new_hi:
                            assert 1 <= new_lo and new_hi <= s + delta, (s, action, j, lo, hi)
