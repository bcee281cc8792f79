import pytest

from permgrowth import classes
from permgrowth.classes import (
    CENSUS_BOUND,
    ClassSpec,
    census,
    compute_basis,
    member,
    orbit_key,
    parse_basis_text,
    spec_from_strs,
)
from permgrowth.perms import Permutation, all_permutations, contains, parse_permutation


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


def test_census_member_bound(monkeypatch):
    # Av(321) has 5 members of length 3 and 14 of length 4
    monkeypatch.setattr(classes, "MEMBER_BOUND", 5)
    assert census(spec_from_strs("3 2 1"), 3).member_counts == [1, 1, 2, 5]
    with pytest.raises(ValueError, match="census level 4 exceeds 5 members"):
        census(spec_from_strs("3 2 1"), 4)


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


def test_compute_basis_catches_an_oracle_that_is_not_sum_closed():
    # Av(321, 2143) holds 21 but not 21 + 21; its SI members alone would
    # give the basis of another class
    spec = spec_from_strs("3 2 1", "2 1 4 3")
    with pytest.raises(ValueError, match="not sum closed: it rejects 2 1 4 3"):
        compute_basis(lambda p: member(spec, p), 6)


def test_compute_basis_walks_to_length_17():
    # a long walk: one SI member a length, with entries up to 17
    spec = spec_from_strs("2 3 1", "3 1 2")
    assert compute_basis(lambda p: member(spec, p), 17) == set(spec.basis)


def test_extended_specs():
    base = spec_from_strs("3 2 1")
    bigger = base.extended([parse_permutation("3 4 1 2")])
    assert [str(p) for p in bigger.sorted_basis()] == ["3 2 1", "3 4 1 2"]


def _inverse(spec):
    return ClassSpec(p.inverse() for p in spec.basis)


def _reverse_complement(spec):
    return ClassSpec(Permutation(len(p) + 1 - v for v in reversed(p)) for p in spec.basis)


@pytest.mark.parametrize(
    "basis",
    [
        ("2 3 1", "4 3 1 2", "4 3 2 1"),  # the Fibonacci class
        ("3 2 1", "3 4 1 2", "4 1 2 3", "2 3 4 5 1", "3 1 4 6 2 5"),  # from search-112344
        ("1 4 3 2", "1 2 3 4 5", "1 3 5 2 4"),
        ("1 3 2",),  # its own inverse
    ],
)
def test_orbit_key_is_shared_by_the_four_images(basis):
    spec = spec_from_strs(*basis)
    images = [spec, _inverse(spec), _reverse_complement(spec), _reverse_complement(_inverse(spec))]
    key = orbit_key(spec)
    assert all(orbit_key(image) == key for image in images)
    # the key is the sorted basis of one of the images
    assert key in {tuple(sorted(image.basis)) for image in images}


def test_orbit_key_separates_classes_with_different_counts():
    # 2 3 1 and 1 3 2 give the same counts, but no symmetry of the two
    # maps one onto the other, so they lie in different orbits
    assert orbit_key(spec_from_strs("2 3 1")) != orbit_key(spec_from_strs("1 3 2"))
