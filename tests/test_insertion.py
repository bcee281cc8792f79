import pytest

from permgrowth import insertion
from permgrowth.classes import census, member, spec_from_strs
from permgrowth.insertion import (
    NotRegular,
    build_automaton,
    class_gf,
    coefficients_bounded,
    decode,
    encode,
    eventual_period,
    si_gf,
)
from permgrowth.classes import has_regular_insertion_encoding
from permgrowth.perms import all_permutations, parse_permutation


def test_encode_decode_examples():
    p = parse_permutation("3 1 4 6 2 5")
    assert decode(encode(p)) == p
    assert len(encode(p)) == len(p)


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


def test_automaton_deterministic_and_minimal_smoke():
    spec = spec_from_strs("3 2 1", "3 4 1 2", "4 1 2 3")
    aut = build_automaton(spec)
    # rebuilt automata agree state-for-state (construction is canonical)
    aut2 = build_automaton(spec)
    assert aut.num_states == aut2.num_states
    assert aut.transitions == aut2.transitions
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
                        new_lo, new_hi = insertion._reindex((lo, hi), action, j)
                        if new_lo <= new_hi:
                            assert 1 <= new_lo and new_hi <= s + delta, (s, action, j, lo, hi)
