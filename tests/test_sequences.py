import random
import re

import pytest

from permgrowth.algebraics import AlgebraicNumber, compare, xi
from permgrowth.classes import census
from permgrowth.insertion import class_gf, si_gf
from permgrowth.perms import (
    all_permutations,
    contains,
    is_sum_indecomposable,
)
from permgrowth.constructions import NARROW, WIDE, _selection_oracle
from permgrowth.sequences import (
    MAX_COUNTS,
    SumSequence,
    class_gf_of_sequence,
    classify,
    dominates,
    gf_of_sequence,
    growth_rate_of_sequence,
    is_legal,
    position_vs_xi,
    realize,
)
from fractions import Fraction


def S(text):
    return SumSequence.parse(text)


def test_canonical_form():
    assert S("1,1,2,3,4,4,(4)") == S("1,1,2,3,(4)")
    assert S("1,1,2,5,2,1,0,0") == S("1,1,2,5,2,1")
    assert S("1,(5,4,5,4)") == S("1,(5,4)")
    assert str(S("1,1,2,3,(4)")) == "1,1,2,3,(4)"
    assert S(str(S("1,1,2,3,4,4,(5,4)"))) == S("1,1,2,3,4,4,(5,4)")


def test_terms():
    s = S("1,1,2,3,(5,4)")
    assert s.terms(9) == [1, 1, 2, 3, 5, 4, 5, 4, 5]
    assert S("1,1").terms(4) == [1, 1, 0, 0]


def test_parse_accepts_spaces_and_the_zero_sequence():
    assert S(" 1 , 1 ,2, ( 3 , 4 ) ") == S("1,1,2,(3,4)")
    assert S("(1)") == SumSequence([], (1,))
    assert S("") == S("  ") == SumSequence([])


@pytest.mark.parametrize(
    "text",
    ["1,,2", "1,", ",1", "1,1,2,,(3)", ",(3)", "1,1,(2,)", "1,(,2)", "1,()", "()", "1 (2)"],
)
def test_parse_rejects_empty_fields_and_a_missing_separator(text):
    # 1,,2 read as 1,2 would move every later count down one length
    with pytest.raises(ValueError):
        S(text)


def test_parse_reads_at_most_max_counts():
    ones = ["1"] * MAX_COUNTS
    assert S(",".join(ones)).terms(MAX_COUNTS) == [1] * MAX_COUNTS
    assert S(",".join(ones[1:]) + ",(1)") == S("(1)")
    for text in (",".join(ones + ["1"]), ",".join(ones) + ",(1)"):
        with pytest.raises(ValueError, match="at most"):
            S(text)


def test_rejects_negative_counts():
    with pytest.raises(ValueError):
        SumSequence([1, -1])


def test_is_legal_frozen_cases():
    # note 1,1,2,6 and 1,1,3,14 pass the raw legality caps; counting
    # arguments rule them out only at classification time
    legal = ["1,1,3", "1,1,2,5", "1,(1)", "1,1,3,13,71", "1,1,2,3,(4)", "",
             "1,1,2,6", "1,1,3,14"]
    illegal = ["2", "1,2", "0,1", "1,1,4",
               "1,1,1,2",      # drop to 1 at length >= 3 is permanent
               "1,1,2,2,3",    # drop to 2 at length >= 4 is permanent
               "1,1,3,3,3,4"]  # drop to 3 at length >= 5 is permanent
    for text in legal:
        assert is_legal(S(text)), text
    for text in illegal:
        assert not is_legal(S(text)), text


def test_dominates():
    # dominates(r, t) holds when r sits below t pointwise
    assert dominates(S("1,1,2,3,(4)"), S("1,1,3,5,(5)"))
    assert not dominates(S("1,1,3,5,(5)"), S("1,1,2,3,(4)"))
    assert dominates(S("1,1,2"), S("1,1,2"))
    assert dominates(S("1,1,2"), S("1,1,3"))
    assert dominates(S("1,1,2,3"), S("1,1,2,(3)"))
    assert not dominates(S("1,1,2,(3)"), S("1,1,2,3"))


def test_gf_of_sequence():
    # all-ones counts: g = x / (1 - x)
    g = gf_of_sequence(S("1,(1)"))
    assert g.series(6) == [0, 1, 1, 1, 1, 1, 1]
    # the class generating function is 1 / (1 - g)
    f = class_gf_of_sequence(S("1,(1)"))
    assert f.series(8) == [1, 1, 2, 4, 8, 16, 32, 64, 128]


def test_growth_rate_of_sequence():
    two = AlgebraicNumber.from_rational(Fraction(2))
    assert compare(growth_rate_of_sequence(S("1,(1)")), two) == 0
    assert compare(growth_rate_of_sequence(S("1,1,2,3,(4)")), xi()) == 0
    assert compare(growth_rate_of_sequence(S("1,1,2,4,3,3,2,1")), xi()) == 0


def test_position_vs_xi():
    assert position_vs_xi(growth_rate_of_sequence(S("1,(1)"))) == "below_xi"
    assert position_vs_xi(growth_rate_of_sequence(S("1,1,2,3,(4)"))) == "equal_xi"
    assert position_vs_xi(growth_rate_of_sequence(S("1,1,3,5,(5)"))) == "above_xi"


def test_classify_finds_the_growth_rate_without_factoring(monkeypatch):
    from permgrowth import factoring

    def refuse(p):
        raise AssertionError("classify factored %s" % p)

    monkeypatch.setattr(factoring, "irreducible_factors", refuse)
    verdict = classify(SumSequence([1] * 64))
    assert (verdict.realizable, verdict.position) == ("yes", "below_xi")
    assert verdict.to_dict()["growth"] == "2.000000"


CLASSIFY_CASES = [
    # (sequence, legal, realizable, reason fragment, position)
    ("1,1,2,3,(4)", True, "yes", "wide", "equal_xi"),
    ("1,(1)", True, "yes", "wide", "below_xi"),
    ("1,1,2,4,5", True, "yes", "wide", "above_xi"),
    ("1,1,2,5,2,1", True, "yes", "wide", "below_xi"),
    ("1,1,2,3,4,4,5,(4)", True, "yes", "narrow", "above_xi"),
    ("1,1,2,3,4,4,4,5,(4)", True, "no", "even-indexed", "above_xi"),
    ("1,1,2,3,4,4,5,1,1", True, "no", "consecutive entries equal to 1", "below_xi"),
    ("1,1,2,3,4,4,5,6,(4)", True, "no", "outside the characterized region", "above_xi"),
    ("1,1,3,5,(5)", True, "no", "outside the characterized region", "above_xi"),
    ("1,1,2,6", True, "no", "at most 5", "below_xi"),
    ("1,1,2,3,6", True, "no", "an entry above 5 before any entry equal to 5", "below_xi"),
    ("0", True, "yes", "empty selection", None),
    ("2,1", False, "no", "illegal", None),
    ("1,2", False, "no", "illegal", None),
]


@pytest.mark.parametrize("text,legal,realizable,fragment,position", CLASSIFY_CASES)
def test_classify_frozen_cases(text, legal, realizable, fragment, position):
    v = classify(S(text))
    assert v.legal == legal
    assert v.realizable == realizable
    assert fragment in (v.reason or "")
    assert v.position == position


def test_classify_verdict_serializes():
    doc = classify(S("1,1,2,3,(4)")).to_dict()
    assert doc["realizable"] == "yes"
    assert doc["growth"] == "2.305224"


@pytest.mark.parametrize(
    "text,check_to",
    [
        ("1,1,2,3,(4)", 9),
        ("1,1,2,5,2,1", 9),
        ("1,1,2,3,4,5", 9),
        ("1,(1)", 9),
        ("1,1,2,3,4,3,1", 10),
    ],
)
def test_realize_census_reproduces_sequence(text, check_to):
    s = S(text)
    r = realize(s)
    assert census(r.spec, check_to).si_sequence() == s.terms(check_to)


@pytest.mark.parametrize(
    "i,size,longest", [(0, 11, 8), (2, 10, 10), (4, 11, 12), (6, 12, 14)]
)
def test_realize_table2_family_exactly(i, size, longest):
    # the table-2 family 1,1,2,3,4^i,5,4,2, whose growth rates fall to xi;
    # the g.f. identity checks the class at every length, not up to a census
    s = SumSequence([1, 1, 2, 3] + [4] * i + [5, 4, 2])
    spec = realize(s).spec
    assert si_gf(class_gf(spec)) == gf_of_sequence(s)
    assert (len(spec.basis), max(map(len, spec.basis))) == (size, longest)


# levels 1..8 of the two realization constructions, most reusable first
WIDE_LEVELS = [
    [(1,)],
    [(2, 1)],
    [(2, 3, 1), (3, 2, 1), (3, 1, 2)],
    [(2, 3, 4, 1), (3, 2, 4, 1), (2, 4, 3, 1), (3, 4, 2, 1), (4, 3, 2, 1)],
    [(2, 3, 4, 5, 1), (3, 2, 4, 5, 1), (2, 4, 3, 5, 1), (2, 3, 5, 4, 1), (3, 2, 5, 4, 1)],
    [(2, 3, 4, 5, 6, 1), (3, 2, 4, 5, 6, 1), (2, 4, 3, 5, 6, 1), (2, 3, 5, 4, 6, 1),
     (2, 3, 4, 6, 5, 1)],
    [(2, 3, 4, 5, 6, 7, 1), (3, 2, 4, 5, 6, 7, 1), (2, 4, 3, 5, 6, 7, 1), (2, 3, 5, 4, 6, 7, 1)],
    [(2, 3, 4, 5, 6, 7, 8, 1), (3, 2, 4, 5, 6, 7, 8, 1), (2, 4, 3, 5, 6, 7, 8, 1),
     (2, 3, 5, 4, 6, 7, 8, 1)],
]
NARROW_LEVELS = [
    [(1,)],
    [(2, 1)],
    [(2, 3, 1), (3, 1, 2)],
    [(2, 4, 1, 3), (3, 1, 4, 2), (2, 3, 4, 1)],
    [(2, 4, 1, 5, 3), (3, 1, 5, 2, 4), (2, 3, 5, 1, 4), (3, 1, 4, 5, 2)],
    [(2, 4, 1, 6, 3, 5), (3, 1, 5, 2, 6, 4), (2, 3, 5, 1, 6, 4), (2, 4, 1, 5, 6, 3)],
    [(2, 4, 1, 6, 3, 7, 5), (3, 1, 5, 2, 7, 4, 6), (2, 3, 5, 1, 7, 4, 6), (3, 1, 5, 2, 6, 7, 4)],
    [(2, 4, 1, 6, 3, 8, 5, 7), (3, 1, 5, 2, 7, 4, 8, 6), (2, 3, 5, 1, 7, 4, 8, 6),
     (2, 4, 1, 6, 3, 7, 8, 5)],
]


@pytest.mark.parametrize(
    "construction,levels,template",
    [(WIDE, WIDE_LEVELS, "1,1,3,5,5,5,(4)"), (NARROW, NARROW_LEVELS, "1,1,2,3,(4)")],
    ids=["wide", "narrow"],
)
def test_construction_levels_and_templates(construction, levels, template):
    assert [[tuple(p) for p in construction.level(n)] for n in range(1, 9)] == levels
    assert str(construction.template()) == template


@pytest.mark.parametrize("construction", [WIDE, NARROW], ids=["wide", "narrow"])
def test_selection_oracle_agrees_with_embedding_search(construction):
    # the oracle reads the SI patterns of the selections and chains off SI
    # children alone; on SI permutations it must answer as containment does
    chains = [chain for _, chain in construction.chains]
    chain_min = construction.chain_min
    for upto in (2, 4):
        levels = {n: construction.level(n)[:2] for n in range(1, upto + 1)}
        for active in (chains[:1], chains[1:]):
            oracle = _selection_oracle(levels, active, chain_min)
            flat = [q for level in levels.values() for q in level]
            for k in range(1, 7):
                texts = flat + [chain(max(chain_min, 2 * k + 6)) for chain in active]
                for p in filter(is_sum_indecomposable, all_permutations(k)):
                    assert oracle(p) == any(contains(p, q) for q in texts), (upto, p)


@pytest.mark.slow
def test_realize_narrow_spike():
    s = S("1,1,2,3,4,4,5,4,2")
    r = realize(s)
    assert r.kind == "narrow"
    assert si_gf(class_gf(r.spec)) == gf_of_sequence(s)
    # the classes built for these count a second 5 four lengths after the
    # first (at 11 and 13), past a census to 10; realize refuses them
    for text in ("1,1,2,3,4,4,5,(4)", "1,1,2,3,4,4,4,4,5,(4)"):
        with pytest.raises(ValueError, match=re.escape(text)):
            realize(S(text))


def _random_realizable(rng):
    # sample inside the wide-template domination region, support <= 10
    caps = [1, 1, 3, 5, 5, 5] + [4] * 4
    length = rng.randint(2, 10)
    prefix = [min(caps[i], rng.randint(1, 5)) for i in range(length)]
    prefix[0] = prefix[1] = 1
    tail = (prefix[-1],) if rng.random() < 0.5 and length >= 6 else ()
    s = SumSequence(prefix, tail)
    return s if classify(s).realizable == "yes" else None


@pytest.mark.slow
def test_realize_random_samples():
    rng = random.Random(112344)
    seen = set()
    checked = 0
    while checked < 30:
        s = _random_realizable(rng)
        if s is None or s in seen:
            continue
        seen.add(s)
        checked += 1
        r = realize(s)
        assert census(r.spec, 10).si_sequence() == s.terms(10), str(s)


def test_census_sequences_are_legal():
    # sum indecomposable count sequences of actual classes are legal
    from permgrowth.classes import spec_from_strs

    for basis in (
        ("3 2 1",),
        ("2 3 1", "4 3 1 2", "4 3 2 1"),
        ("3 2 1", "3 4 1 2", "4 1 2 3"),
    ):
        seq = census(spec_from_strs(*basis), 8).si_sequence()
        assert is_legal(SumSequence(seq))
