"""Reproducible verification campaigns behind the command-line front end.

Each campaign recomputes one published-style result and returns a
``CampaignReport`` whose JSON serialization is byte-identical across runs
for fixed parameters.  Wall time is never part of the payload; the CLI
prints it to stderr.

``REGISTRY`` is the one table of campaigns: each entry holds the name, the
claim, the runner and the inputs the runner takes.  A runner returns the
report's parameters, whether the claim held, and the artifacts;
``run_campaign`` adds the name and the claim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Any, Callable, NamedTuple, Optional

from .algebraics import (
    XI_POLY,
    compare,
    family_roots,
    growth_polynomial,
    largest_real_root,
    xi,
)
from .classes import ClassSpec, census, spec_from_strs
from .insertion import class_gf, eventual_period, si_gf
from .polynomials import IntPolynomial
from .reconstruction import RECON_BOUND, verify_reconstruction, verify_taper
from .sequences import (
    SumSequence,
    classify,
    growth_rate_of_sequence,
    is_legal,
    position_vs_xi,
    realize,
)
from . import tables


@dataclass
class CampaignReport:
    campaign: str
    parameters: dict
    claim: str
    status: str  # "pass" | "fail"
    artifacts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(
            {
                "campaign": self.campaign,
                "parameters": self.parameters,
                "claim": self.claim,
                "status": self.status,
                "artifacts": self.artifacts,
            },
            indent=2,
            sort_keys=True,
        )

    def to_csv(self) -> str:
        csv = self.artifacts.get("csv")
        if csv is None:
            raise ValueError("campaign %r has no CSV artifact" % self.campaign)
        return csv


_SI3 = ("2 3 1", "3 1 2", "3 2 1")


def _basis_key(spec: ClassSpec) -> tuple:
    return tuple(str(p) for p in spec.sorted_basis())


def _initial_1123() -> list[ClassSpec]:
    out = []
    for r3 in _SI3:
        base = spec_from_strs(r3)
        si4 = census(base, 4).si_members(4)
        for pair in combinations(sorted(si4), 2):
            out.append(base.extended(pair))
    return sorted(out, key=_basis_key)


# how far the series of a sum indecomposable g.f. with no period <= 12 is
# searched for a count above 5; such a g.f. grows in every class seen so far
_SERIES_HORIZON = 60


def _first_count_above(g, bound: int) -> Optional[int]:
    """Least n whose coefficient in ``g`` exceeds ``bound``, or None when no
    coefficient does."""
    try:
        counts, _ = eventual_period(g)  # every later coefficient repeats one of these
    except ValueError:
        counts = g.series(_SERIES_HORIZON)
        if max(counts) <= bound:
            raise
    return next((n for n, v in enumerate(counts) if v > bound), None)


def run_search_1123(census_len: int = 10):
    """Replay the branching search over classes whose sum indecomposable
    counts begin 1,1,2,3: branch on the first count of 5 whenever a larger
    count follows it, verify bounded counts on every leaf via the insertion
    encoding, and fail on any count above 5 with no 5 before it.  A class
    whose census to ``census_len`` stays at most 5 but whose exact series
    later exceeds 5 has its census extended to that length first."""
    queue = _initial_1123()
    seen: set[tuple] = set()
    visited: list[dict] = []
    counterexamples: list[dict] = []
    leaves = 0
    while queue:
        spec = queue.pop(0)
        key = _basis_key(spec)
        if key in seen:
            continue
        seen.add(key)
        c = census(spec, census_len)
        seq = c.si_sequence()
        leaf = max(seq, default=0) <= 5
        if leaf:
            g = si_gf(class_gf(spec))
            over = _first_count_above(g, 5)
            if over is not None:
                leaf = False
                c = census(spec, over)
                seq = c.si_sequence()
            # over > census_len when the engines agree; check the whole census
            if g.series(len(seq))[1:] != seq:
                raise AssertionError(
                    "insertion encoding disagrees with census for %s" % (key,)
                )
        five_at = next((n for n, v in enumerate(seq, 1) if v == 5), None)
        over_at = next((n for n, v in enumerate(seq, 1) if v > 5), None)
        entry = {"basis": list(key), "si_counts": seq}
        visited.append(entry)
        if leaf:
            leaves += 1
            entry["verdict"] = "bounded"
        elif five_at is None or over_at <= five_at:
            entry["verdict"] = "counterexample"
            counterexamples.append(entry)
        else:
            entry["verdict"] = "branch at length %d" % five_at
            for child in sorted(c.si_members(five_at)):
                queue.append(spec.extended([child]))
            queue.sort(key=_basis_key)
    visited.sort(key=lambda e: e["basis"])
    return (
        {"census_len": census_len},
        not counterexamples,
        {
            # a class counts as visited once the insertion encoding has
            # shown its counts bounded; branch nodes are expanded instead
            "classes_visited": leaves,
            "classes_expanded": len(visited) - leaves,
            "counterexamples": counterexamples,
            "classes": visited,
        },
    )


def _candidates_112344() -> list[ClassSpec]:
    """All classes with basis elements of length at most 6 whose sum
    indecomposable counts begin 1,1,2,3,4,4.  A class is determined by its
    exclusions at each length, which must leave exactly 3, 4, 4 sum
    indecomposable members at lengths 4, 5, 6."""
    found: dict[tuple, ClassSpec] = {}
    for r3 in _SI3:
        base = spec_from_strs(r3)
        si4 = sorted(census(base, 4).si_members(4))
        for drop4 in combinations(si4, len(si4) - 3):
            spec4 = base.extended(drop4)
            si5 = sorted(census(spec4, 5).si_members(5))
            if len(si5) < 4:
                continue
            for drop5 in combinations(si5, len(si5) - 4):
                spec5 = spec4.extended(drop5)
                si6 = sorted(census(spec5, 6).si_members(6))
                if len(si6) < 4:
                    continue
                for drop6 in combinations(si6, len(si6) - 4):
                    spec6 = spec5.extended(drop6)
                    found[_basis_key(spec6)] = spec6
    return [found[k] for k in sorted(found)]


def run_search_112344():
    """Examine every class with basis of length at most 6 whose sum
    indecomposable counts begin 1,1,2,3,4,4 and report which ever reach a
    count of 5."""
    specs = _candidates_112344()
    with_five = []
    for spec in specs:
        seq6 = census(spec, 6).si_sequence()
        if seq6 != [1, 1, 2, 3, 4, 4]:
            raise AssertionError("enumeration produced a wrong prefix")
        g = si_gf(class_gf(spec))
        prefix, period = eventual_period(g)
        if any(v == 5 for v in prefix[1:]):
            with_five.append(
                {
                    "basis": list(_basis_key(spec)),
                    "si_counts": prefix[1:],
                    "period": period,
                }
            )
    with_five.sort(key=lambda e: e["basis"])
    expected = {
        _basis_key(
            spec_from_strs("3 2 1", "3 4 1 2", "4 1 2 3", "2 3 4 5 1", "3 1 4 6 2 5")
        ),
        _basis_key(
            spec_from_strs("3 2 1", "2 3 4 1", "3 4 1 2", "5 1 2 3 4", "2 5 1 3 6 4")
        ),
    }
    got = {tuple(e["basis"]) for e in with_five}
    return (
        {},
        len(with_five) == 2 and got == expected,
        {
            "classes_examined": len(specs),
            "classes_with_five": with_five,
        },
    )


def run_recon_verify(n: int = 6):
    report = verify_reconstruction(n)
    return (
        {"n": n},
        report.passed,
        {
            "checked": report.checked,
            "collisions": [[str(p) for p in g] for g in report.failures],
        },
    )


# subset size m at each taper length n: the bound is proven at the first
# three pairs, which the default run checks; (11, 5) replays its failure
TAPER_SIZES = {4: 2, 5: 3, 6: 4, 11: 5}


def run_taper_verify(n: Optional[int] = None):
    pairs = tuple(TAPER_SIZES.items())[:3] if n is None else ((n, TAPER_SIZES[n]),)
    results = []
    ok = True
    for nn, mm in pairs:
        rep = verify_taper(nn, mm)
        ok = ok and rep.passed
        results.append(
            {
                "n": nn,
                "m": mm,
                "pool": rep.checked,
                "violations": [[str(p) for p in g] for g in rep.failures],
            }
        )
    return {} if n is None else {"n": n, "m": TAPER_SIZES[n]}, ok, {"results": results}


def run_table(which: int, max_index: int = 6):
    report = tables.verify_table(which, max_index)
    entries = tables.table_rows(which, max_index)
    return (
        {"max_index": max_index},
        report["passed"],
        {
            "rows": report["checked"],
            "problems": report["problems"],
            "csv": tables.entries_to_csv(entries),
        },
    )


# the class displayed alongside the threshold-attainment claim, quoted as
# stated; the campaign recomputes its actual counts rather than trusting them
XI_CLAIM_BASIS = (
    "2 3 1",
    "4 1 3 2",
    "4 2 1 3",
    "5 4 3 1 2",
    "7 6 1 2 3 4 5",
    "8 1 2 3 4 5 6 7",
    "9 8 7 6 5 4 3 2 1",
)
XI_CLAIM_SEQUENCE = (1, 1, 2, 4, 3, 3, 2, 1, 0)


def run_xi_basis(max_len: int = 12):
    """Check the quoted witness class against the claimed counts and growth
    rate, and independently realize the claimed sequence from the generic
    construction, validating that witness by census and exact root
    comparison."""
    quoted = spec_from_strs(*XI_CLAIM_BASIS)
    observed = census(quoted, max_len).si_sequence()
    claimed = list(XI_CLAIM_SEQUENCE) + [0] * (max_len - len(XI_CLAIM_SEQUENCE))
    quoted_growth = growth_rate_of_sequence(
        SumSequence(observed[: _support(observed) + 1])
    )
    quoted_ok = observed == claimed and compare(quoted_growth, xi()) == 0

    target = SumSequence(list(XI_CLAIM_SEQUENCE[:-1]))
    construction = realize(target)
    built_observed = census(construction.spec, max_len).si_sequence()
    built_growth = growth_rate_of_sequence(target)
    built_ok = built_observed == claimed and compare(built_growth, xi()) == 0

    artifacts = {
        "claimed_si_counts": claimed,
        "quoted_basis": list(XI_CLAIM_BASIS),
        "quoted_si_counts": observed,
        "quoted_growth_polynomial": str(quoted_growth.poly),
        "quoted_growth": quoted_growth.approx(6),
        "quoted_matches_claim": quoted_ok,
        "construction_basis": [str(p) for p in construction.spec.sorted_basis()],
        "construction_si_counts": built_observed,
        "construction_growth_polynomial": str(built_growth.poly),
        "construction_growth": built_growth.approx(6),
        "construction_matches_claim": built_ok,
    }
    return {"max_len": max_len}, quoted_ok and built_ok, artifacts


def _support(seq: list[int]) -> int:
    return max((n for n, v in enumerate(seq) if v), default=-1)


# the isolation width of the last root and of xi in the accumulation gap
# test; the report echoes it as its parameter "eps"
_GAP_WIDTH = Fraction(1, 10**9)


def run_accumulation():
    """Largest roots of (x^5-2x^4-x^2-x-1)(x+1)x^(2i+1) - 1 for i = 1..10:
    strictly decreasing, all above xi, with the last within 1/1000 of xi."""
    f = XI_POLY * IntPolynomial([1, 1])
    g = IntPolynomial([-1])
    roots = family_roots(f, g, lambda i: 2 * i + 1, range(1, 11))
    x = xi()
    last = roots[-1]
    last.refine(_GAP_WIDTH)
    x.refine(_GAP_WIDTH)
    close = last.hi - x.lo < Fraction(1, 1000)
    return (
        {"eps": str(_GAP_WIDTH)},
        close,
        {
            "roots": [r.approx(8) for r in roots],
            "limit": x.approx(8),
            "final_gap_below_1e-3": close,
        },
    )


def run_census(spec: ClassSpec, max_len: int = 8):
    c = census(spec, max_len)
    return (
        {"basis": [str(p) for p in spec.sorted_basis()], "max_len": max_len},
        True,
        {"csv": c.to_csv(), "si_counts": c.si_sequence()},
    )


def run_growth_rate(spec: Optional[ClassSpec] = None, seq: Optional[SumSequence] = None):
    if (spec is None) == (seq is None):
        raise ValueError("provide exactly one of a basis or a sequence")
    if spec is not None:
        poly = growth_polynomial(class_gf(spec))
        root = largest_real_root(poly)
        params = {"basis": [str(p) for p in spec.sorted_basis()]}
    else:
        if not is_legal(seq):
            raise ValueError("sequence %s is illegal" % seq)
        root = growth_rate_of_sequence(seq)
        poly = root.poly
        params = {"sequence": str(seq)}
    return (
        params,
        True,
        {
            "polynomial": str(poly),
            "growth": root.approx(6),
            "position": position_vs_xi(root),
        },
    )


def run_classify(seq: SumSequence):
    return {"sequence": str(seq)}, True, classify(seq).to_dict()


@dataclass(frozen=True)
class Param:
    """One input of a campaign: the CLI option that gives it, the runner
    keyword it feeds, the values it allows (``allowed`` says which in
    words, ``valid`` tests a value) and whether the campaign needs it."""

    option: str
    keyword: str
    allowed: str = ""
    valid: Callable[[Any], bool] = lambda value: True
    required: bool = False


def _length(keyword: str, lo: int, hi: Optional[int] = None) -> Param:
    """``--max-len`` feeding ``keyword``: an integer in lo..hi, or >= lo if hi is None."""
    allowed = "%d..%d" % (lo, hi) if hi is not None else "at least %d" % lo
    return Param("--max-len", keyword, allowed, lambda v: lo <= v and (hi is None or v <= hi))


_TABLE_INDEX = (_length("max_index", 0, tables.MAX_INDEX),)
_TAPER_LENGTH = Param(
    "--max-len", "n", "one of %s" % ", ".join(map(str, TAPER_SIZES)),
    lambda n: n in TAPER_SIZES,
)


class Campaign(NamedTuple):
    runner: Callable[..., tuple]
    params: tuple  # of Param
    claim: str


REGISTRY: dict[str, Campaign] = {
    "recon-verify": Campaign(run_recon_verify, (_length("n", 5, RECON_BOUND),),
        "sets of sum indecomposable children determine their parent, up to the one pair of same-length increasing oscillations"),
    "taper-verify": Campaign(run_taper_verify, (_TAPER_LENGTH,),
        "small sets of sum indecomposable permutations have child sets almost as large"),
    "search-1123": Campaign(run_search_1123, (_length("census_len", 1),),
        "no class whose sum indecomposable counts start 1,1,2,3 shows a count above 5 before a count of 5"),
    "search-112344": Campaign(run_search_112344, (),
        "exactly two classes with counts starting 1,1,2,3,4,4 ever reach a count of 5, and they are inverses"),
    "table1": Campaign(partial(run_table, 1), _TABLE_INDEX,
        "each listed short sequence forces a growth rate at or above the threshold constant"),
    "table2": Campaign(partial(run_table, 2), _TABLE_INDEX,
        "each listed sequence family forces growth rates converging to the threshold constant from above"),
    "table3": Campaign(partial(run_table, 3), _TABLE_INDEX,
        "each listed realizable sequence yields a growth rate below the threshold constant"),
    "table4": Campaign(partial(run_table, 4), _TABLE_INDEX,
        "each listed realizable sequence family yields growth rates converging to the threshold constant from below"),
    "xi-basis": Campaign(run_xi_basis, (_length("max_len", len(XI_CLAIM_SEQUENCE)),),
        "an explicit finitely based class realizes the sequence 1,1,2,4,3,3,2,1,0 and attains the threshold growth rate exactly"),
    "accumulation": Campaign(run_accumulation, (),
        "the explicit polynomial family has strictly decreasing largest roots accumulating at the threshold constant from above"),
    "census": Campaign(run_census, (Param("--basis", "spec", required=True), _length("max_len", 1)),
        "exact member and sum indecomposable counts of a finitely based class"),
    "growth-rate": Campaign(run_growth_rate, (Param("--basis", "spec"), Param("--seq", "seq")),
        "exact growth rate extraction for a class or sequence"),
    "classify": Campaign(run_classify, (Param("--seq", "seq", required=True),),
        "legality, realizability, and growth position of a sum indecomposable count sequence"),
}


def run_campaign(name: str, params: Optional[dict] = None) -> CampaignReport:
    """Run the campaign ``name`` of ``REGISTRY`` with ``params``, a dict of
    runner keywords.  An unknown name, a missing required input or a value
    outside its allowed range raises ValueError."""
    entry = REGISTRY.get(name)
    if entry is None:
        raise ValueError("unknown campaign %r" % name)
    params = dict(params or {})
    for p in entry.params:
        if p.keyword in params:
            if not p.valid(params[p.keyword]):
                raise ValueError("%s %s must be %s" % (name, p.option, p.allowed))
        elif p.required:
            raise ValueError("%s needs %s" % (name, p.option))
    parameters, passed, artifacts = entry.runner(**params)
    return CampaignReport(
        name, parameters, entry.claim, "pass" if passed else "fail", artifacts
    )
