import pytest

from permgrowth.classes import (
    CENSUS_BOUND,
    census,
    compute_basis,
    member,
    parse_basis_text,
    spec_from_strs,
)
from permgrowth.perms import all_permutations, contains, parse_permutation


def test_basis_minimization():
    # 4321 contains 321 and is dropped; order does not matter
    a = spec_from_strs("3 2 1", "4 3 2 1", "2 1 4 3")
    b = spec_from_strs("2 1 4 3", "3 2 1")
    assert a.sorted_basis() == b.sorted_basis()
    assert [str(p) for p in a.sorted_basis()] == ["3 2 1", "2 1 4 3"]


def test_parse_basis_text():
    spec = parse_basis_text("3 2 1\n\n# comment lines are ignored\n3 4 1 2\n")
    assert [str(p) for p in spec.sorted_basis()] == ["3 2 1", "3 4 1 2"]


def test_member_matches_brute_force():
    spec = spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1")
    basis = spec.sorted_basis()
    for n in range(0, 6):
        for p in all_permutations(n):
            expected = not any(contains(b, p) for b in basis)
            assert member(spec, p) == expected


def test_census_av321_catalan():
    c = census(spec_from_strs("3 2 1"), 8)
    assert c.member_counts == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    # every non-empty 321-avoider of length n-1 extends, so SI counts track
    # the Catalan numbers one step behind
    assert c.si_sequence() == [1, 1, 2, 5, 14, 42, 132, 429]


def test_census_fibonacci_class():
    c = census(spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1"), 9)
    assert c.member_counts == [1, 1, 2, 5, 12, 29, 70, 169, 408, 985]
    assert c.si_sequence() == [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_census_av_everything():
    c = census(spec_from_strs("1"), 5)
    assert c.member_counts == [1, 0, 0, 0, 0, 0]
    assert c.si_sequence() == [0] * 5


def test_census_levels_and_si_members():
    c = census(spec_from_strs("3 2 1", "3 4 1 2", "4 1 2 3"), 5)
    assert c.si_sequence() == [1, 1, 2, 3, 5]
    assert [str(p) for p in c.si_members(3)] == ["2 3 1", "3 1 2"]


def test_census_bound_guard():
    with pytest.raises(ValueError):
        census(spec_from_strs("3 2 1"), CENSUS_BOUND + 1)


def test_si_sequence_helper():
    assert census(spec_from_strs("3 2 1", "2 3 1"), 6).si_sequence() == [1, 1, 1, 1, 1, 1]


def test_compute_basis_round_trip():
    # sum closed classes; the last basis element has the bound's length
    for strs in (
        ("3 1 2", "4 3 2 1", "2 3 4 5 6 7 1"),
        ("2 3 1", "4 3 1 2", "4 3 2 1"),
        ("3 2 1", "3 4 1 2", "4 1 2 3", "2 3 4 5 1", "3 1 4 6 2 5"),
    ):
        spec = spec_from_strs(*strs)
        got = compute_basis(lambda p: member(spec, p), 7)
        assert got == set(spec.sorted_basis())


def test_compute_basis_degenerate_oracles():
    # rejecting the empty permutation yields the empty-permutation basis
    assert {len(b) for b in compute_basis(lambda p: False, 4)} == {0}
    # rejecting everything non-empty yields the singleton basis
    got = compute_basis(lambda p: len(p) == 0, 4)
    assert [str(b) for b in got] == ["1"]
    # accepting everything yields no basis elements up to the bound
    assert compute_basis(lambda p: True, 4) == set()


def test_compute_basis_catches_an_oracle_that_is_not_downward_closed():
    # rejects only length 3: its one-point extensions must be rejected too
    with pytest.raises(ValueError, match="downward closure at 2 3 4 1"):
        compute_basis(lambda p: len(p) != 3, 6)


def test_extended_specs():
    base = spec_from_strs("3 2 1")
    bigger = base.extended([parse_permutation("3 4 1 2")])
    assert [str(p) for p in bigger.sorted_basis()] == ["3 2 1", "3 4 1 2"]
