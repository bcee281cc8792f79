import json
from fractions import Fraction
from itertools import combinations

import pytest

from permgrowth import campaigns, classes, insertion
from permgrowth.algebraics import XI_POLY, family_roots, growth_polynomial, largest_real_root, xi
from permgrowth.campaigns import run_campaign
from permgrowth.classes import ClassSpec, census, orbit_key, spec_from_strs
from permgrowth.insertion import class_gf
from permgrowth.polynomials import IntPolynomial, RationalFunction
from permgrowth.sequences import SumSequence, growth_rate_of_sequence, realize


def test_unknown_campaign_raises():
    with pytest.raises(ValueError):
        run_campaign("bogus")


def test_recon_verify_report():
    report = run_campaign("recon-verify", {"n": 5})
    assert report.passed
    assert report.campaign == "recon-verify"
    assert report.parameters == {"n": 5}
    assert report.artifacts["checked"] == 71
    assert report.artifacts["collisions"] == []
    doc = json.loads(report.to_json())
    assert set(doc) == {"campaign", "parameters", "claim", "status", "artifacts"}
    assert doc["status"] == "pass"


def test_reports_are_byte_identical_across_runs():
    a = run_campaign("recon-verify", {"n": 5}).to_json()
    b = run_campaign("recon-verify", {"n": 5}).to_json()
    assert a == b
    c = run_campaign("accumulation").to_json()
    d = run_campaign("accumulation").to_json()
    assert c == d


def test_taper_verify_default_pairs():
    report = run_campaign("taper-verify")
    assert report.passed
    results = report.artifacts["results"]
    assert [(r["n"], r["m"]) for r in results] == [(4, 2), (5, 3), (6, 4)]
    assert all(r["violations"] == [] for r in results)


def test_search_1123_extends_a_short_census():
    # at length 6 some classes still look bounded (counts 1,1,2,3,4,5); the
    # exact series runs on to the later count above 5, so the search
    # branches on them as it does with longer reported counts
    report = run_campaign("search-1123", {"census_len": 6})
    assert report.passed
    assert report.parameters == {"census_len": 6}
    assert report.artifacts["classes_visited"] == 178
    assert report.artifacts["classes_expanded"] == 37
    assert report.artifacts["counterexamples"] == []


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_search_1123_decides_each_class_on_its_gf(monkeypatch):
    # one g.f. for each of the 68 symmetry classes of the 215 classes;
    # besides the 3 censuses to 4 that seed the search, a census runs to the
    # branch length or to 7 on every class
    calls, lengths = {}, []
    _counting(monkeypatch, insertion, "class_gf", calls)
    original = classes.census

    def census(spec, max_len):
        lengths.append(max_len)
        return original(spec, max_len)

    monkeypatch.setattr(classes, "census", census)
    report = run_campaign("search-1123")
    assert report.passed
    assert calls == {"class_gf": 68}
    assert len(lengths) == 218 and max(lengths) == 7


def test_search_1123_raises_when_the_census_disagrees(monkeypatch):
    original = classes.census

    def census(spec, max_len):
        c = original(spec, max_len)
        c.si_counts[-1] += 1
        return c

    monkeypatch.setattr(classes, "census", census)
    with pytest.raises(AssertionError, match="disagrees with census"):
        run_campaign("search-1123")


def test_search_1123_checks_each_class_against_its_orbit_gf(monkeypatch):
    # merging every class into one orbit hands most classes a g.f. that is
    # not theirs, and their own census catches it
    monkeypatch.setattr(classes, "orbit_key", lambda spec: ())
    with pytest.raises(AssertionError, match="disagrees with census"):
        run_campaign("search-1123")


def test_first_count_above():
    x = IntPolynomial([0, 1])
    one_minus_x = IntPolynomial([1, -1])
    assert campaigns._first_count_above(RationalFunction(x, one_minus_x), 5) is None
    assert campaigns._first_count_above(RationalFunction(IntPolynomial([0, 6]), one_minus_x), 5) == 1
    # the Fibonacci counts 1,1,2,3,5,8 have no period, so the series decides
    fibonacci = RationalFunction(x, IntPolynomial([1, -1, -1]))
    assert campaigns._first_count_above(fibonacci, 5) == 6
    # period 13 is past the longest period tried, and the series stays <= 5
    with pytest.raises(ValueError):
        campaigns._first_count_above(RationalFunction(IntPolynomial([1]), IntPolynomial([1] + [0] * 12 + [-1])), 5)


def test_search_1123_has_no_fallback_for_a_class_without_gf(monkeypatch):
    def class_gf(spec):
        raise insertion.NotRegular("no regular insertion encoding")

    monkeypatch.setattr(insertion, "class_gf", class_gf)
    with pytest.raises(insertion.NotRegular):
        run_campaign("search-1123")


def test_search_112344_builds_one_gf_per_orbit(monkeypatch):
    # the only censuses are the enumeration's three, of Av(r) to length 3,
    # as every other class inherits its parent's level; each of the 51
    # orbits of the 173 classes under inverse and reverse-complement gets
    # one g.f., and each of the 6 distinct g.f.s one eventual period
    calls = {}
    _counting(monkeypatch, classes, "census", calls)
    _counting(monkeypatch, insertion, "class_gf", calls)
    _counting(monkeypatch, insertion, "eventual_period", calls)
    report = run_campaign("search-112344")
    assert report.passed
    assert report.artifacts["classes_examined"] == 173
    assert calls == {"census": 3, "class_gf": 51, "eventual_period": 6}
    # the two classes that reach 5 are inverses, so they share one orbit
    a, b = (spec_from_strs(*e["basis"]) for e in report.artifacts["classes_with_five"])
    assert spec_from_strs(*(str(p.inverse()) for p in a.basis)) == b
    assert orbit_key(a) == orbit_key(b)


def _classes_with_prefix_from_scratch(prefix):
    # the enumeration with a census from length 0 for every class and a
    # minimised basis for every extension
    level = [spec_from_strs(r) for r in ("2 3 1", "3 1 2", "3 2 1")]
    for n in range(4, len(prefix) + 1):
        deeper = []
        for spec in level:
            si = census(spec, n).si_members(n)
            if len(si) >= prefix[n - 1]:
                for drop in combinations(si, len(si) - prefix[n - 1]):
                    child = spec.extended(drop)
                    assert ClassSpec._of_antichain(spec.basis.union(drop)).basis == child.basis
                    deeper.append(child)
        level = deeper
    return sorted(level, key=lambda spec: [str(p) for p in spec.sorted_basis()])


@pytest.mark.parametrize("prefix,count", [
    ((1, 1, 2, 3), 30),
    ((1, 1, 2, 3, 4), 43),
    ((1, 1, 2, 3, 4, 4), 173),
])
def test_classes_with_prefix_match_a_from_scratch_enumeration(prefix, count):
    # each class inherits its parent's level and takes its basis unminimised
    got = campaigns._classes_with_prefix(prefix)
    assert len(got) == count
    assert [spec.basis for spec in got] == [spec.basis for spec in _classes_with_prefix_from_scratch(prefix)]
    for spec in got:
        assert ClassSpec(spec.basis).basis == spec.basis  # an antichain


def test_search_112344_checks_the_prefix_on_the_gf(monkeypatch):
    # the Fibonacci class's sum indecomposable counts begin 1,1,2,3,5,8
    fibonacci = spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1")
    monkeypatch.setattr(campaigns, "_classes_with_prefix", lambda prefix: [fibonacci])
    with pytest.raises(AssertionError, match="wrong prefix"):
        run_campaign("search-112344")


def test_taper_verify_looks_up_the_subset_size():
    report = run_campaign("taper-verify", {"n": 5})
    assert report.passed
    assert report.parameters == {"n": 5, "m": 3}


def test_accumulation_campaign():
    report = run_campaign("accumulation")
    assert report.passed
    roots = [float(r) for r in report.artifacts["roots"]]
    assert len(roots) == 10
    assert roots == sorted(roots, reverse=True)
    assert report.artifacts["final_gap_below_1e-3"] is True


def test_census_campaign():
    spec = spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1")
    report = run_campaign("census", {"spec": spec, "max_len": 8})
    assert report.passed
    assert report.artifacts["si_counts"] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert report.to_csv().splitlines()[0] == "length,members,sum_indecomposable"


def test_census_campaign_requires_basis():
    with pytest.raises(ValueError):
        run_campaign("census")


def test_growth_rate_campaign_from_basis():
    spec = spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1")
    report = run_campaign("growth-rate", {"spec": spec})
    assert report.passed
    # member counts grow like (1 + sqrt(2))^n
    assert report.artifacts["growth"] == "2.414214"
    assert report.artifacts["position"] == "above_xi"
    assert report.artifacts["polynomial"] == "-1 - 2x + x^2"


def test_growth_rate_campaign_from_sequence():
    report = run_campaign(
        "growth-rate", {"seq": SumSequence.parse("1,1,2,3,(4)")}
    )
    assert report.passed
    assert report.artifacts["growth"] == "2.305224"
    assert report.artifacts["position"] == "equal_xi"


def test_reports_do_not_depend_on_how_far_roots_were_narrowed():
    # roots are memoized and refined in place, so a run may find its roots
    # already narrowed by earlier calls; every verdict and printed digit is
    # exact, so the report is the same from fresh or narrowed roots
    seq = SumSequence.parse("1,1,2,3,(4)")
    witness = realize(SumSequence([1, 1, 2, 4, 3, 3, 2, 1])).spec
    runs = (
        ("growth-rate", {"seq": seq}, lambda: [growth_rate_of_sequence(seq)]),
        ("growth-rate", {"spec": witness},
         lambda: [largest_real_root(growth_polynomial(class_gf(witness)))]),
        ("accumulation", {},
         lambda: family_roots([(XI_POLY * IntPolynomial([1, 1])).shift(2 * i + 1)
                               - IntPolynomial([1]) for i in range(1, 11)], XI_POLY, 1)[0]),
    )
    for name, params, roots in runs:
        largest_real_root.cache_clear()
        fresh = run_campaign(name, params).to_json()
        for root in [xi()] + roots():
            root.refine(Fraction(1, 10**30))
        assert run_campaign(name, params).to_json() == fresh


def test_growth_rate_campaign_rejects_ambiguity():
    spec = spec_from_strs("3 2 1")
    with pytest.raises(ValueError):
        run_campaign("growth-rate", {"spec": spec, "seq": SumSequence([1, 1])})
    with pytest.raises(ValueError):
        run_campaign("growth-rate")


def test_classify_campaign():
    report = run_campaign("classify", {"seq": SumSequence.parse("1,1,2,3,(4)")})
    assert report.passed
    assert report.artifacts["realizable"] == "yes"
    assert report.artifacts["growth"] == "2.305224"


def test_table_campaign_carries_csv():
    report = run_campaign("table1", {"max_index": 6})
    assert report.passed
    assert report.artifacts["rows"] == 11
    header = report.to_csv().splitlines()[0]
    assert header == "table,family,assignment,sequence,polynomial,growth,position"


def test_report_without_csv_artifact_refuses_csv():
    report = run_campaign("recon-verify", {"n": 5})
    with pytest.raises(ValueError):
        report.to_csv()
