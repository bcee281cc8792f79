from itertools import combinations

import pytest

from permgrowth import perms, reconstruction
from permgrowth.perms import (
    all_permutations,
    children,
    increasing_oscillation,
    is_sum_indecomposable,
    parse_permutation,
)
from permgrowth.reconstruction import (
    is_increasing_oscillation,
    k_bounded_members,
    verify_reconstruction,
    verify_taper,
)


def P(text):
    return parse_permutation(text)


def test_is_increasing_oscillation():
    # true for the two oscillations of each length and for no other sum
    # indecomposable permutation
    for n in range(1, 8):
        oscillations = {increasing_oscillation(n), increasing_oscillation(n, primary=False)}
        for p in filter(is_sum_indecomposable, all_permutations(n)):
            assert is_increasing_oscillation(p) == (p in oscillations), p
    assert is_increasing_oscillation(increasing_oscillation(8))
    assert is_increasing_oscillation(increasing_oscillation(8, primary=False))
    assert not is_increasing_oscillation(P("3 1 4 6 2 5"))


def test_verify_reconstruction_counts():
    report = verify_reconstruction(5)
    assert report.passed
    assert report.checked == 71


@pytest.mark.parametrize("n", [5, 6, 7])
def test_verify_reconstruction_confirms_every_digest_collision(n, monkeypatch):
    # with one id for every member all candidates share a digest, and the
    # deletion side alone must give the same verdict
    expected = verify_reconstruction(n)
    monkeypatch.setattr(perms, "member_id", lambda t: 0)
    assert verify_reconstruction(n) == expected


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_verify_reconstruction_finds_the_oscillation_pair(n, monkeypatch):
    # the one collision the theorem allows, once it is not excused
    monkeypatch.setattr(reconstruction, "is_increasing_oscillation", lambda p: False)
    pair = tuple(sorted((increasing_oscillation(n, True), increasing_oscillation(n, False))))
    assert verify_reconstruction(n).failures == (pair,)


@pytest.mark.slow
def test_verify_reconstruction_length_9():
    report = verify_reconstruction(9)
    assert report.passed
    assert report.checked == 273343


def test_k_bounded_members_match_brute_force():
    for n in range(1, 8):
        si = [p for p in all_permutations(n) if is_sum_indecomposable(p)]
        for m in range(5):
            expected = sorted(p for p in si if len(children(p)) <= m)
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


