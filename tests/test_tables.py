import pytest

from permgrowth.algebraics import XI_POLY
from permgrowth.polynomials import IntPolynomial
from permgrowth.sequences import SumSequence, is_legal
from permgrowth.tables import (
    MAX_INDEX,
    TABLES,
    _parse,
    _strip_trivial,
    entries_to_csv,
    table_rows,
    verify_table,
)


def test_table_one_row_count():
    entries = table_rows(1)
    assert len(entries) == 11
    assert all(e.table == 1 for e in entries)


def test_table_one_first_row_is_threshold_polynomial():
    by_family = {e.family: e for e in table_rows(1)}
    e = by_family["1,1,2,4,3,3,2,1"]
    assert e.polynomial == XI_POLY
    assert e.position == "at"
    assert e.sequence == SumSequence.parse("1,1,2,4,3,3,2,1")


def test_every_row_has_one_domain_per_parameter():
    # a spare domain would pass unseen: zip drops it and the dedup hides
    # the repeated instances
    for which, rows in TABLES.items():
        for row in rows:
            _, _, names = _parse(row.family)
            assert len(names) == len(row.params), (which, row.family)
            for values in row.params:
                assert values, (which, row.family)
                assert all(0 <= v <= MAX_INDEX for v in values), (which, row.family)


def test_strip_trivial_removes_x_and_x_minus_and_plus_one():
    x, xm1, xp1 = IntPolynomial([0, 1]), IntPolynomial([-1, 1]), IntPolynomial([1, 1])
    core = XI_POLY * IntPolynomial([1, 0, 1])
    p = IntPolynomial([-3]) * x * x * xm1 * xm1 * xp1 * core
    assert _strip_trivial(p) == core
    assert _strip_trivial(xp1 * xp1 * xm1 * 2) == IntPolynomial([1])
    assert _strip_trivial(IntPolynomial([-2, 4])) == IntPolynomial([-1, 2])


def test_all_table_sequences_are_legal():
    for which in TABLES:
        for e in table_rows(which, max_index=4):
            assert is_legal(e.sequence), (which, e.family)


def test_rows_sorted_by_growth():
    for which in TABLES:
        growths = [e.growth for e in table_rows(which, max_index=4)]
        assert growths == sorted(growths)


def test_verify_table_report_shape():
    result = verify_table(1, max_index=4)
    assert set(result) == {"table", "checked", "rows", "problems", "passed"}
    assert result["rows"] == table_rows(1, 4)
    assert result["table"] == 1
    assert result["passed"] is True
    assert result["problems"] == []
    assert result["checked"] == 11


def test_entries_to_csv_format():
    text = entries_to_csv(table_rows(1))
    lines = text.splitlines()
    assert lines[0] == "table,family,assignment,sequence,polynomial,growth,position"
    assert len(lines) == 12
    assert text.endswith("\n")
    import csv
    import io

    rows = list(csv.reader(io.StringIO(text)))
    # fixed rows carry an empty assignment column
    assert rows[1][2] == ""
    assert rows[1][0] == "1"
    assert rows[1][6] in {"at", "above", "below"}


@pytest.mark.parametrize("which", [2, 3, 4])
def test_parameterized_tables_verify_at_low_index(which):
    # at index 5 the convergence tolerance is not checked for families whose
    # last listed index is 6; order and side still are
    result = verify_table(which, max_index=5)
    assert result["passed"], result["problems"]
    assert result["checked"] > 0


@pytest.mark.parametrize(
    "which,max_index",
    [(3, k) for k in range(7)] + [(4, k) for k in range(4)],
)
def test_tables_below_xi_verify_at_every_index(which, max_index):
    # a valid index narrows the check; it never makes it fail
    result = verify_table(which, max_index=max_index)
    assert result["passed"], result["problems"]
    if which == 3:
        # kappa, the first accumulation point from below, at every index
        assert any(e.family == "1,1,2^inf" for e in result["rows"])


def test_verify_table_reports_each_kind_of_failure(monkeypatch):
    from permgrowth import tables

    true_1134 = next(row for row in tables.TABLES[1] if row.family == "1,1,3,4").poly({})
    family = "1,1,2,3,4^i,8"
    converging = next(row for row in tables.TABLES[2] if row.family == family)
    monkeypatch.setattr(tables, "TABLES", {1: (
        tables._fixed("1,2", XI_POLY, "at"),
        tables._fixed("1,1,3,4", XI_POLY, "above"),
        tables._fixed("1,1,3,4", true_1134, "below"),
        tables.RowTemplate(family, converging.params, converging.poly, "below",
                           limit=converging.limit),
    )})
    result = verify_table(1, max_index=1)
    assert result["passed"] is False
    assert result["checked"] == 5
    assert sorted(result["problems"]) == sorted([
        "1,2 []: sequence 1,2 is illegal",
        "1,1,3,4 []: stated polynomial disagrees with the sequence",
        "1,1,3,4 []: root is not below xi",
        "%s [('i', 0)]: root is not below xi" % family,
        "%s [('i', 1)]: root is not below xi" % family,
        "%s: family roots do not move strictly toward the limit" % family,
    ])
