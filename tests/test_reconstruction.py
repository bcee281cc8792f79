from itertools import combinations

import pytest

from permgrowth.perms import (
    children,
    increasing_oscillation,
    parse_permutation,
)
from permgrowth.reconstruction import (
    is_increasing_oscillation,
    k1_members,
    k_bounded_members,
    k_class,
    reconstruct_from_k,
    sum_indecomposables,
    verify_reconstruction,
    verify_taper,
)


def P(text):
    return parse_permutation(text)


def test_k_class_examples():
    assert k_class(P("2 1")) == 1
    assert k_class(P("3 2 1")) == 1
    assert k_class(increasing_oscillation(6)) == 2
    assert k_class(P("3 1 4 6 2 5")) > 2


def test_k1_members_match_brute_force():
    for n in (4, 5, 6):
        expected = {p for p in sum_indecomposables(n) if k_class(p) == 1}
        assert k1_members(n) == expected
        assert len(expected) == 3


def test_is_increasing_oscillation():
    for n in range(3, 9):
        assert is_increasing_oscillation(increasing_oscillation(n, True))
        assert is_increasing_oscillation(increasing_oscillation(n, False))
    assert not is_increasing_oscillation(P("3 2 1"))
    assert not is_increasing_oscillation(P("3 1 4 6 2 5"))


def test_reconstruct_round_trip_length_6():
    for p in sum_indecomposables(6):
        verdict = reconstruct_from_k(children(p), 6)
        assert p in verdict.matches
        # ambiguity only for the oscillation pair
        if verdict.tag == "oscillation_pair":
            assert all(is_increasing_oscillation(q) for q in verdict.matches)
        else:
            assert verdict.tag == "unique"


def test_reconstruct_from_k_guards():
    # each input passes every guard but the one named in the match
    with pytest.raises(ValueError, match="length >= 5"):
        reconstruct_from_k([P("2 3 1")], 4)
    with pytest.raises(ValueError, match="empty"):
        reconstruct_from_k([], 5)
    with pytest.raises(ValueError, match="n - 1"):
        reconstruct_from_k([P("2 3 4 1")], 6)
    with pytest.raises(ValueError, match="not sum indecomposable"):
        reconstruct_from_k([P("2 3 4 1"), P("2 1 4 3")], 5)  # 2143 = 21 + 21


def test_reconstruct_from_k_no_match():
    # found by brute force: each is a child of 5 2 3 4 1, whose K-set also
    # holds others, and no sum indecomposable permutation of length 5 has
    # exactly these two
    kset = frozenset((P("2 3 4 1"), P("4 1 2 3")))
    assert all(children(p) != kset for p in sum_indecomposables(5))
    verdict = reconstruct_from_k(kset, 5)
    assert verdict.tag == "no_match"
    assert verdict.matches == ()


def test_verify_reconstruction_counts():
    report = verify_reconstruction(5)
    assert report.passed
    assert report.checked == 71


def test_k_bounded_members_match_brute_force():
    for n in range(1, 8):
        for m in range(5):
            expected = sorted(
                p for p in sum_indecomposables(n) if k_class(p) <= m
            )
            assert k_bounded_members(n, m) == expected


def test_verify_taper_argument_guards():
    with pytest.raises(ValueError):
        verify_taper(3, 2)
    with pytest.raises(ValueError):
        verify_taper(6, 6)


def test_verify_taper_matches_brute_force():
    # independent exhaustive enumeration over the restricted pool,
    # covering both passing and failing parameter choices
    for n, m in ((5, 3), (4, 3), (5, 4), (4, 4)):
        pool = k_bounded_members(n, m - 1)
        ksets = {p: children(p) for p in pool}
        expected = set()
        for combo in combinations(sorted(pool), m):
            union = set()
            for p in combo:
                union |= ksets[p]
            if len(union) < m:
                expected.add(combo)
        report = verify_taper(n, m)
        assert set(report.failures) == expected
        assert report.checked == len(pool)


