import json
from fractions import Fraction

import pytest

from permgrowth.algebraics import XI_POLY, family_roots, growth_polynomial, largest_real_root, xi
from permgrowth.campaigns import run_campaign
from permgrowth.classes import spec_from_strs
from permgrowth.insertion import class_gf
from permgrowth.polynomials import IntPolynomial
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
    # at census length 6 some classes still look bounded (counts
    # 1,1,2,3,4,5); their exact series shows the later count above 5, so
    # the search branches on them as it does with a longer census
    report = run_campaign("search-1123", {"census_len": 6})
    assert report.passed
    assert report.parameters == {"census_len": 6}
    assert report.artifacts["classes_visited"] == 178
    assert report.artifacts["classes_expanded"] == 37
    assert report.artifacts["counterexamples"] == []


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
         lambda: family_roots(XI_POLY * IntPolynomial([1, 1]), IntPolynomial([-1]),
                              lambda i: 2 * i + 1, range(1, 11))),
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
