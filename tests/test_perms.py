import pytest

from permgrowth.perms import (
    ALTERNATION_KINDS,
    Permutation,
    all_permutations,
    children,
    contains,
    direct_sum,
    increasing_oscillation,
    inversion_graph,
    is_sum_indecomposable,
    member_id,
    next_si_level,
    parse_permutation,
    skew_sum,
    standardize,
    vertical_alternation,
)
from permgrowth.constructions import spike_member


def P(text):
    return parse_permutation(text)


def test_parse_and_str_round_trip():
    for text in ("1", "2 1", "3 1 4 6 2 5", "10 1 2 3 4 5 6 7 8 9"):
        assert str(P(text)) == text


def test_parse_rejects_non_permutations():
    for bad in ("1 1", "0 1", "2 4 3"):
        with pytest.raises(ValueError):
            P(bad)


def test_standardize():
    assert standardize([17, 3, 9]) == P("3 1 2")
    assert standardize([]) == Permutation(())


def test_order_is_length_then_lex_for_all_four_operators():
    # bytes compares bytewise; every operator must agree with the one order
    perms = [p for n in range(5) for p in all_permutations(n)]
    for a in perms:
        for b in perms:
            ka, kb = (len(a), tuple(a)), (len(b), tuple(b))
            assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb), (a, b)


def test_a_permutation_is_its_entry_string():
    p = P("2 4 1 3")
    assert p == bytes((2, 4, 1, 3)) and hash(p) == hash(bytes((2, 4, 1, 3)))
    assert bytes((2, 4, 1, 3)) in {p} and p in {bytes((2, 4, 1, 3))}


def test_contains_basics():
    assert contains(P("2 1"), P("3 1 2"))
    assert not contains(P("1 2 3"), P("3 2 1"))
    assert contains(P("2 3 1"), P("3 5 1 4 2"))
    # every permutation contains itself and the singleton
    w = P("3 1 4 6 2 5")
    assert contains(w, w)
    assert contains(P("1"), w)


def test_sum_indecomposable_counts():
    # 1, 1, 3, 13, 71 at lengths 1..5
    got = [
        sum(1 for p in all_permutations(n) if is_sum_indecomposable(p))
        for n in range(1, 6)
    ]
    assert got == [1, 1, 3, 13, 71]


def test_sum_indecomposable_matches_inversion_graph_connectivity():
    for n in range(1, 7):
        for p in all_permutations(n):
            g = inversion_graph(p)
            assert is_sum_indecomposable(p) == g.is_connected()


def _si_level(n):
    return {bytes(p) for p in all_permutations(n) if is_sum_indecomposable(p)}


def _k(t):
    # the K-set on the deletion side, independent of the step
    return {bytes(c) for c in children(Permutation(t))}


def _checked_step(level):
    """The step's candidates, each checked against its children in
    ``level``: the count, and the sum mod 2^64 of their ids."""
    step = {}
    for c, count, digest in next_si_level(level):
        assert c not in step
        kids = _k(c) & level
        assert count == len(kids)
        assert digest == sum(map(member_id, kids)) % 2**64
        step[c] = (count, digest)
    return step


def test_next_si_level_gives_every_si_permutation_with_its_k_set():
    counts = []
    for n in range(2, 8):
        step = _checked_step(_si_level(n - 1))
        assert set(step) == _si_level(n)
        counts.append(len(step))
    assert counts == [1, 3, 13, 71, 461, 3447]


def test_next_si_level_on_a_restricted_level():
    # the members of K^(2): at most two sum indecomposable children
    for n in range(3, 8):
        level = {t for t in _si_level(n - 1) if len(_k(t)) <= 2}
        step = _checked_step(level)
        assert set(step) == {c for c in _si_level(n) if _k(c) & level}


def test_next_si_level_refuses_a_step_past_255_entries():
    # one sum indecomposable string of 255 entries: its step would make
    # strings of 256, which no byte string of entries can hold
    level = {bytes([255]) + bytes(range(1, 255))}
    assert all(map(is_sum_indecomposable, level))
    with pytest.raises(ValueError):
        next(next_si_level(level))


def test_direct_sum_and_components_round_trip():
    a, b, c = P("2 3 1"), P("1"), P("2 1")
    s = direct_sum(direct_sum(a, b), c)
    assert s == P("2 3 1 4 6 5")
    assert [standardize(s[i:j]) for i, j in ((0, 3), (3, 4), (4, 6))] == [a, b, c]
    assert not is_sum_indecomposable(s)
    assert is_sum_indecomposable(skew_sum(b, b))


def test_children_of_increasing():
    # 12 is the only child of 123, and it is sum decomposable
    assert children(P("1 2 3")) == frozenset()
    assert children(P("2 3 1")) == frozenset({P("2 1")})


def test_increasing_oscillation_closed_form():
    assert increasing_oscillation(1) == P("1")
    assert increasing_oscillation(2) == P("2 1")
    # 1 and 21 are their own inverses, so the two types coincide there
    assert increasing_oscillation(1, primary=False) == P("1")
    assert increasing_oscillation(2, primary=False) == P("2 1")
    assert increasing_oscillation(3, primary=True) == P("2 3 1")
    assert increasing_oscillation(3, primary=False) == P("3 1 2")
    assert increasing_oscillation(7) == P("2 4 1 6 3 7 5")
    # sum indecomposable, and the inversion graph is a path (max degree 2)
    for n in range(3, 12):
        for primary in (True, False):
            o = increasing_oscillation(n, primary)
            assert is_sum_indecomposable(o)
            g = inversion_graph(o)
            assert all(g.degree(v) <= 2 for v in range(1, n + 1))


def test_split_end_members_form_an_antichain():
    ws = [spike_member(n) for n in (7, 9, 11, 13)]
    for w in ws:
        assert is_sum_indecomposable(w)
    for i, a in enumerate(ws):
        for b in ws[i + 1:]:
            assert not contains(a, b)
            assert not contains(b, a)


def test_vertical_alternations():
    for kind in ALTERNATION_KINDS:
        for n in (4, 6, 8):
            v = vertical_alternation(n, kind)
            assert len(v) == n
            # odd-position entries separated from even-position entries
            odd = set(v[0::2])
            even = set(v[1::2])
            assert max(odd) < min(even) or min(odd) > max(even)
