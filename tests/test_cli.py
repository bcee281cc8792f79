import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permgrowth
from permgrowth import campaigns, cli
from permgrowth.cli import main
from permgrowth.perms import ALTERNATION_KINDS, vertical_alternation
from permgrowth.sequences import SumSequence, realize


def test_pass_exit_code_and_json_output(capsys):
    assert main(["recon-verify", "--max-len", "5"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["artifacts"]["checked"] == 71
    # timing goes to stderr only, so stdout stays machine-readable
    assert "wall time" in err
    assert "wall time" not in out
    # the package import is timed too, on the same line as the run
    assert "(import " in err.splitlines()[-1]


def test_fail_exit_code(capsys):
    assert main(["xi-basis"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "fail"
    assert doc["artifacts"]["quoted_matches_claim"] is False


def test_accumulation_family_that_misses_its_gap_fails(monkeypatch, capsys):
    # the last root lies 1.9e-10 above xi, so a gap of 1e-11 is not met; a
    # broken condition is a failed claim, not a usage error
    monkeypatch.setattr(campaigns, "_ACCUMULATION_GAP", "1/100000000000")
    assert main(["accumulation"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "fail"
    assert doc["artifacts"]["final_gap_below_1e-3"] is False
    assert doc["artifacts"]["problem"] == "family roots do not approach the limit"


def test_classify_via_seq_flag(capsys):
    assert main(["classify", "--seq", "1,1,2,3,(4)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["artifacts"]["realizable"] == "yes"
    assert doc["artifacts"]["growth"] == "2.305224"


def test_out_file_and_csv_format(tmp_path, capsys):
    target = tmp_path / "table1.csv"
    assert main(["table1", "--format", "csv", "--out", str(target)]) == 0
    out, _ = capsys.readouterr()
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "table,family,assignment,sequence,polynomial,growth,position"
    assert len(lines) == 12


def test_census_with_basis_file(tmp_path, capsys):
    basis = tmp_path / "basis.txt"
    basis.write_text("# Fibonacci counts\n2 3 1\n4 3 1 2\n4 3 2 1\n")
    assert main(["census", "--basis", str(basis), "--max-len", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["artifacts"]["si_counts"] == [1, 1, 2, 3, 5, 8, 13, 21]


def test_usage_errors_exit_2(tmp_path, capsys):
    basis = tmp_path / "basis.txt"
    basis.write_text("2 3 1\n")
    # excludes nothing, so level n would hold all n! permutations
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    # regular, but its insertion encoding needs more slots than the limit
    alternations = tmp_path / "alternations.txt"
    alternations.write_text("".join("%s\n" % vertical_alternation(18, k) for k in ALTERNATION_KINDS))
    # longer than the 255 entries an entry string holds
    long = tmp_path / "long.txt"
    long.write_text(" ".join(map(str, range(1, 301))) + "\n")
    cases = [
        ["census"],
        ["classify"],
        ["growth-rate"],
        ["growth-rate", "--seq", "2,1"],  # illegal sequence
        ["classify", "--seq", "1,,2"],  # an empty field would shift later counts
        ["classify", "--seq", ",".join(["1"] * 65)],  # above MAX_COUNTS
        ["taper-verify", "--max-len", "7"],
        ["recon-verify", "--max-len", "11"],  # above RECON_BOUND
        ["census", "--basis", "/nonexistent/file"],
        ["census", "--basis", str(long), "--max-len", "5"],
        # an --out path that cannot be written
        ["accumulation", "--out", str(tmp_path / "missing" / "x.json")],
        ["accumulation", "--out", str(tmp_path)],
        # options the campaign does not take
        ["accumulation", "--max-len", "4"],
        ["classify", "--seq", "1,1,2", "--max-len", "9"],
        ["census", "--basis", str(basis), "--seq", "1"],
        ["search-112344", "--max-len", "3"],
        # values out of the campaign's range
        ["table1", "--max-len", "-3"],
        ["table1", "--max-len", "7"],  # no family index above 6
        ["census", "--basis", str(basis), "--max-len", "-2"],
        ["census", "--basis", str(basis), "--max-len", "0"],
        ["xi-basis", "--max-len", "8"],  # the claim has 9 terms
        # above the census bound
        ["census", "--basis", str(basis), "--max-len", "15"],
        ["census", "--basis", str(empty), "--max-len", "11"],  # above MEMBER_BOUND
        ["search-1123", "--max-len", "15"],
        ["xi-basis", "--max-len", "15"],
        ["recon-verify", "--max-len", "4"],
        ["taper-verify", "--max-len", "3"],
        ["growth-rate", "--basis", str(alternations)],
    ]
    errors = []
    for argv in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:"), argv
        errors.append(err)
    assert "error: census --max-len must be 1..14\n" in errors
    assert "error: census level 9 exceeds 250000 members\n" in errors
    assert "error: a sequence has at most 64 counts\n" in errors
    assert "8-slot limit" in err
    too_long = [e for e in errors if "at most 255 entries" in e]
    assert len(too_long) == 1 and "bytes" not in too_long[0]
    # no campaign takes an isolation width: every digit is exactly rounded
    with pytest.raises(SystemExit) as exc:
        main(["accumulation", "--eps", "1/3"])
    assert exc.value.code == 2


def test_bad_out_is_refused_before_the_campaign_runs(monkeypatch, tmp_path, capsys):
    def run_campaign(*args):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "run_campaign", run_campaign)
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["accumulation", "--out", str(target)]) == 2, target
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: [Errno "), target


def test_csv_is_refused_before_a_campaign_without_csv_runs(monkeypatch, capsys):
    def runner(**kwargs):
        raise AssertionError("the campaign ran")

    entry = campaigns.REGISTRY["accumulation"]
    monkeypatch.setitem(campaigns.REGISTRY, "accumulation", entry._replace(runner=runner))
    assert main(["accumulation", "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: campaign 'accumulation' has no CSV artifact\n"
    assert {name for name, c in campaigns.REGISTRY.items() if c.csv} == {
        "census", "table1", "table2", "table3", "table4"
    }


def test_unknown_campaign_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-campaign"])
    assert exc.value.code == 2


def test_deterministic_output_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["accumulation", "--out", str(a)]) == 0
    assert main(["accumulation", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv,golden", [
    (["census", "--basis", "FIBONACCI", "--max-len", "10"], "census-fibonacci-10"),
    (["search-112344"], "search-112344"),
])
def test_reports_do_not_depend_on_the_hash_seed(tmp_path, argv, golden):
    # bytes hash with a per-process seed, so sets of permutations iterate in
    # a different order in each process; the report must not
    basis = tmp_path / "fibonacci.txt"
    basis.write_text("2 3 1\n4 3 1 2\n4 3 2 1\n")
    argv = [str(basis) if a == "FIBONACCI" else a for a in argv]
    expected = (Path(__file__).parent / "golden" / ("%s.json" % golden)).read_bytes()
    src = os.path.dirname(os.path.dirname(permgrowth.__file__))
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-m", "permgrowth.cli"] + argv, env=env, capture_output=True)
        assert run.returncode == 0 and run.stdout == expected, seed


def test_cli_import_loads_neither_numpy_nor_sympy(tmp_path):
    # the program imports no numpy, and growth rates factor their
    # polynomials without sympy, so the calls that classify a sequence or a
    # class never load it
    witness = realize(SumSequence([1, 1, 2, 4, 3, 3, 2, 1])).spec.sorted_basis()
    basis = tmp_path / "xi_witness.txt"
    basis.write_text("".join("%s\n" % p for p in witness))
    calls = [
        ["classify", "--seq", "1,1,2,3,4,4,4,4,4,6,3"],
        ["growth-rate", "--seq", "1,1,2,2,(1)"],
        ["growth-rate", "--basis", str(basis)],
    ]
    code = (
        "import contextlib, io, sys, permgrowth.cli\n"
        "print(sorted({'numpy', 'sympy'} & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [permgrowth.cli.main(argv) for argv in %r]\n"
        "print(codes, 'sympy' in sys.modules)\n" % (calls,)
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(permgrowth.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n[0, 0, 0] False\n"
