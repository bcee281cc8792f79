"""Each campaign report, byte for byte against its committed golden file.

A golden file holds ``run_campaign(name, params).to_json()`` plus the
newline the CLI prints after it.  To regenerate one after a deliberate
change, write that text to ``tests/golden/<file>.json`` and record why.
"""

from pathlib import Path

import pytest

from permgrowth.campaigns import run_campaign
from permgrowth.classes import spec_from_strs

GOLDEN_DIR = Path(__file__).parent / "golden"

# golden file name -> (campaign, parameters)
GOLDEN = {
    "search-112344": ("search-112344", {}),
    "xi-basis": ("xi-basis", {}),
    "accumulation": ("accumulation", {}),
    "recon-verify": ("recon-verify", {}),
    "recon-verify-8": ("recon-verify", {"n": 8}),
    "taper-verify": ("taper-verify", {}),
    "table1": ("table1", {}),
    "table2": ("table2", {}),
    "table3": ("table3", {}),
    "table4": ("table4", {}),
    # 33 of the 37 branch nodes report counts past 6, to their first above 5
    "search-1123-census6": ("search-1123", {"census_len": 6}),
    "search-1123-census7": ("search-1123", {"census_len": 7}),
    "search-1123": ("search-1123", {}),
    # a sum closed class (the Fibonacci class) and one that is not
    "census-fibonacci-10": ("census", {"spec": spec_from_strs("2 3 1", "4 3 1 2", "4 3 2 1"), "max_len": 10}),
    "census-321-2143-10": ("census", {"spec": spec_from_strs("3 2 1", "2 1 4 3"), "max_len": 10}),
}


@pytest.mark.parametrize("golden", sorted(GOLDEN))
def test_report_matches_golden(golden):
    name, params = GOLDEN[golden]
    expected = (GOLDEN_DIR / ("%s.json" % golden)).read_bytes()
    assert (run_campaign(name, params).to_json() + "\n").encode() == expected


def test_every_golden_file_is_checked():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(GOLDEN)
