"""Reproducible verification campaigns behind the command-line front end.

Each campaign recomputes one published-style result and returns a
``CampaignReport`` whose JSON serialization is byte-identical across runs
for fixed parameters.  Wall time is never part of the payload; the CLI
prints it to stderr.

``REGISTRY`` is the one table of campaigns: each entry holds the name, the
claim, the runner, the inputs the runner takes and whether the report
carries a CSV artifact.  A runner returns the report's parameters, whether
the claim held, and the artifacts; ``run_campaign`` adds the name and the
claim.  Each runner imports the modules it calls when it runs, so loading
the registry loads none of them.
"""

from __future__ import annotations

import json
from functools import partial
from importlib import import_module
from itertools import combinations
from typing import TYPE_CHECKING, Any, Callable, Collection, NamedTuple, Optional

if TYPE_CHECKING:
    from .classes import ClassSpec
    from .sequences import SumSequence


class CampaignReport:
    __slots__ = ("campaign", "parameters", "claim", "status", "artifacts")

    def __init__(self, campaign: str, parameters: dict, claim: str, status: str,
                 artifacts: Optional[dict] = None):
        self.campaign = campaign
        self.parameters = parameters
        self.claim = claim
        self.status = status  # "pass" | "fail"
        self.artifacts = {} if artifacts is None else artifacts

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
        require_csv(self.campaign)
        return self.artifacts["csv"]


_SI3 = ("2 3 1", "3 1 2", "3 2 1")


def _basis_key(spec: ClassSpec) -> tuple:
    return tuple(str(p) for p in spec.sorted_basis())


def _classes_with_prefix(prefix: tuple[int, ...]) -> list[ClassSpec]:
    """Every class with basis elements of length at most ``len(prefix)``
    whose sum indecomposable counts begin ``prefix``, which begins 1,1,2.
    Each starts at Av(r) for a sum indecomposable r of length 3; at each
    length n from 4 on, it excludes every choice of sum indecomposable
    members that leaves exactly ``prefix[n-1]`` of them.

    A child class inherits its parent's level: its members of length n are
    the parent's less the excluded set D, and ``next_level`` gives length
    n + 1, which no basis element reaches, so only Av(r) takes a census.
    D is an antichain longer than the parent's basis B, so B ∪ D needs no
    minimisation.

    >>> len(_classes_with_prefix((1, 1, 2, 3)))
    30
    """
    from .classes import ClassSpec, census, spec_from_strs
    from .perms import Permutation, is_sum_indecomposable, next_level

    # each class with its parent's members of length n - 1 and its D; the
    # classes of the last length never build their own set
    level = [(spec, census(spec, 3).levels[3], ()) for spec in map(spec_from_strs, _SI3)]
    for n in range(4, len(prefix) + 1):
        deeper = []
        for spec, members, dropped in level:
            members = set(next_level(members.difference(dropped)))
            si = sorted(Permutation._trusted(t) for t in members if is_sum_indecomposable(t))
            if len(si) >= prefix[n - 1]:
                deeper.extend((ClassSpec._of_antichain(spec.basis.union(drop)), members, drop)
                              for drop in combinations(si, len(si) - prefix[n - 1]))
        level = deeper
    return sorted((spec for spec, _, _ in level), key=_basis_key)


def _si_gf_per_orbit() -> Callable[[ClassSpec], Any]:
    """A function from a class to its sum indecomposable g.f., built once
    per ``orbit_key``.

    Inverse and reverse-complement map sum indecomposables to sum
    indecomposables, as (a⊕b)⁻¹ = a⁻¹⊕b⁻¹ and rc(a⊕b) = rc(b)⊕rc(a), and
    map Av(B) onto Av(B⁻¹) and Av(rc(B)), so the classes of one key share
    the g.f.  Each caller checks every class against it, so a wrong merge
    raises."""
    from .classes import orbit_key
    from .insertion import class_gf, si_gf

    gfs: dict[tuple, Any] = {}

    def gf(spec: ClassSpec):
        key = orbit_key(spec)
        if key not in gfs:
            gfs[key] = si_gf(class_gf(spec))
        return gfs[key]

    return gf


# how far a sum indecomposable series is read before its period is sought;
# a look-ahead only, as no verdict rests on it
_SERIES_HORIZON = 60


def _first_count_above(g, bound: int) -> Optional[int]:
    """Least n whose coefficient in ``g`` exceeds ``bound``, or None when no
    coefficient does; that needs an eventual period, else it raises."""
    from .insertion import eventual_period

    counts = g.series(_SERIES_HORIZON)
    if max(counts) <= bound:
        counts, _ = eventual_period(g)  # every later coefficient repeats one of these
    return next((n for n, v in enumerate(counts) if v > bound), None)


_CHECK_LEN = 7  # census length that checks a class the search does not branch on


def run_search_1123(census_len: int = 10):
    """Replay the branching search over classes whose sum indecomposable
    counts begin 1,1,2,3: branch on the first count of 5 whenever a larger
    count follows it, call a class bounded when no count exceeds 5, and fail
    on any count above 5 with no 5 before it.  The exact sum indecomposable
    g.f. of a class decides it for all n and gives its reported counts, to
    ``census_len`` or on to its first count above 5.  A census to the branch
    length lists a branch's children; on other classes a census to
    ``_CHECK_LEN`` checks the counts."""
    from .classes import census

    gf = _si_gf_per_orbit()
    queue = _classes_with_prefix((1, 1, 2, 3))
    seen: set[tuple] = set()
    visited: list[dict] = []
    while queue:
        spec = queue.pop()
        key = _basis_key(spec)
        if key in seen:
            continue
        seen.add(key)
        g = gf(spec)
        over = _first_count_above(g, 5)
        seq = g.series(max(census_len, over or 0))[1:]
        branch = over is not None and 5 in seq[:over]
        n = seq.index(5) + 1 if branch else min(len(seq), _CHECK_LEN)
        c = census(spec, n)
        if c.si_sequence() != seq[:n]:
            raise AssertionError("insertion encoding disagrees with census for %s" % (key,))
        if over is None:
            verdict = "bounded"
        elif branch:
            verdict = "branch at length %d" % n
            queue.extend(spec.extended([child]) for child in c.si_members(n))
        else:
            verdict = "counterexample"
        visited.append({"basis": list(key), "si_counts": seq, "verdict": verdict})
    visited.sort(key=lambda e: e["basis"])
    counterexamples = [e for e in visited if e["verdict"] == "counterexample"]
    leaves = sum(e["verdict"] == "bounded" for e in visited)
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


def run_search_112344():
    """Examine every class with basis of length at most 6 whose sum
    indecomposable counts begin 1,1,2,3,4,4 and report which ever reach a
    count of 5.  Each class's first six counts on its orbit's g.f. must be
    the ones the enumeration fixed on the levels each class inherits from
    its parent, which checks that census against the automaton."""
    from .classes import ClassSpec, spec_from_strs
    from .insertion import eventual_period

    gf = _si_gf_per_orbit()
    prefix = (1, 1, 2, 3, 4, 4)
    specs = _classes_with_prefix(prefix)
    periods: dict = {}  # one eventual period per distinct g.f.
    with_five, five_specs = [], []
    for spec in specs:
        g = gf(spec)
        if tuple(g.series(len(prefix))[1:]) != prefix:
            raise AssertionError("enumeration produced a wrong prefix")
        counts, period = periods.get(g) or periods.setdefault(g, eventual_period(g))
        if 5 in counts[1:]:
            five_specs.append(spec)
            with_five.append(
                {
                    "basis": list(_basis_key(spec)),
                    "si_counts": counts[1:],
                    "period": period,
                }
            )
    expected = {
        _basis_key(
            spec_from_strs("3 2 1", "3 4 1 2", "4 1 2 3", "2 3 4 5 1", "3 1 4 6 2 5")
        ),
        _basis_key(
            spec_from_strs("3 2 1", "2 3 4 1", "3 4 1 2", "5 1 2 3 4", "2 5 1 3 6 4")
        ),
    }
    got = {tuple(e["basis"]) for e in with_five}
    # inversion is an involution, so the order of the two does not matter
    inverses = len(five_specs) == 2 and ClassSpec(p.inverse() for p in five_specs[0].basis) == five_specs[1]
    return (
        {},
        inverses and got == expected,
        {
            "classes_examined": len(specs),
            "classes_with_five": with_five,
        },
    )


def run_recon_verify(n: int = 6):
    from .reconstruction import verify_reconstruction

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
    from .reconstruction import verify_taper

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
    from . import tables

    report = tables.verify_table(which, max_index)
    return (
        {"max_index": max_index},
        report["passed"],
        {
            "rows": report["checked"],
            "problems": report["problems"],
            "csv": tables.entries_to_csv(report["rows"]),
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
    from .algebraics import compare, xi
    from .classes import census, spec_from_strs
    from .sequences import SumSequence, growth_rate_of_sequence, realize

    quoted = spec_from_strs(*XI_CLAIM_BASIS)
    observed = census(quoted, max_len).si_sequence()
    claimed = list(XI_CLAIM_SEQUENCE) + [0] * (max_len - len(XI_CLAIM_SEQUENCE))
    quoted_growth = growth_rate_of_sequence(SumSequence(observed))
    quoted_ok = observed == claimed and compare(quoted_growth, xi()) == 0

    target = SumSequence(XI_CLAIM_SEQUENCE)
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


_ACCUMULATION_GAP = "1/1000"  # a string, so loading the registry loads no Fraction


def run_accumulation():
    """Largest roots of (x^5-2x^4-x^2-x-1)(x+1)x^(2i+1) - 1 for i = 1..10:
    strictly decreasing, all above xi, with the last within 1/1000 of xi."""
    from fractions import Fraction

    from .algebraics import GAP_WIDTH, XI_POLY, family_roots, xi
    from .polynomials import IntPolynomial

    f = XI_POLY * IntPolynomial([1, 1])  # its largest real root is xi
    polys = [f.shift(2 * i + 1) - IntPolynomial([1]) for i in range(1, 11)]
    roots, problem = family_roots(polys, XI_POLY, 1, Fraction(_ACCUMULATION_GAP))
    artifacts = {
        "roots": [r.approx(8) for r in roots],
        "limit": xi().approx(8),
        "final_gap_below_1e-3": problem is None,  # the gap is the last condition tested
    }
    if problem:
        artifacts["problem"] = problem
    # the report echoes the isolation width of the gap test as "eps"
    return {"eps": str(GAP_WIDTH)}, problem is None, artifacts


def run_census(spec: ClassSpec, max_len: int = 8):
    from .classes import census

    c = census(spec, max_len)
    return (
        {"basis": [str(p) for p in spec.sorted_basis()], "max_len": max_len},
        True,
        {"csv": c.to_csv(), "si_counts": c.si_sequence()},
    )


def run_growth_rate(spec: Optional[ClassSpec] = None, seq: Optional[SumSequence] = None):
    if (spec is None) == (seq is None):
        raise ValueError("provide exactly one of a basis or a sequence")
    from .algebraics import growth_polynomial, largest_real_root, position_vs_xi

    if spec is not None:
        from .insertion import class_gf

        poly = growth_polynomial(class_gf(spec))
        root = largest_real_root(poly)
        params = {"basis": [str(p) for p in spec.sorted_basis()]}
    else:
        from .sequences import growth_rate_of_sequence, is_legal

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
    from .sequences import classify

    return {"sequence": str(seq)}, True, classify(seq).to_dict()


class Param(NamedTuple):
    """One input of a campaign: the CLI option that gives it, the runner
    keyword it feeds, the values it allows and whether the campaign needs
    it.  ``values`` returns the allowed values, a range or a collection, or
    is None when every value is allowed; it is called only when a value is
    checked or the help is printed, so that a bound kept in the module that
    enforces it loads that module only then."""

    option: str
    keyword: str
    values: Optional[Callable[[], Collection]] = None
    required: bool = False

    def allowed(self) -> str:
        """The allowed values in words, empty when every value is allowed."""
        if self.values is None:
            return ""
        values = self.values()
        if isinstance(values, range):
            return "%d..%d" % (values.start, values[-1])
        return "one of %s" % ", ".join(map(str, values))

    def valid(self, value: Any) -> bool:
        return self.values is None or value in self.values()


def _length(keyword: str, lo: int, bound: str) -> Param:
    """``--max-len`` feeding ``keyword``: an integer from lo up to
    ``bound``, given as ``module.NAME`` of this package."""
    module, name = bound.split(".")
    return Param("--max-len", keyword,
                 lambda: range(lo, getattr(import_module("." + module, __package__), name) + 1))


_TABLE_INDEX = (_length("max_index", 0, "tables.MAX_INDEX"),)
_TAPER_LENGTH = Param("--max-len", "n", lambda: TAPER_SIZES)


class Campaign(NamedTuple):
    runner: Callable[..., tuple]
    params: tuple  # of Param
    claim: str
    csv: bool = False  # whether the report carries a CSV artifact


REGISTRY: dict[str, Campaign] = {
    "recon-verify": Campaign(run_recon_verify, (_length("n", 5, "reconstruction.RECON_BOUND"),),
        "sets of sum indecomposable children determine their parent, up to the one pair of same-length increasing oscillations"),
    "taper-verify": Campaign(run_taper_verify, (_TAPER_LENGTH,),
        "small sets of sum indecomposable permutations have child sets almost as large"),
    "search-1123": Campaign(run_search_1123, (_length("census_len", 1, "classes.CENSUS_BOUND"),),
        "no class whose sum indecomposable counts start 1,1,2,3 shows a count above 5 before a count of 5"),
    "search-112344": Campaign(run_search_112344, (),
        "exactly two classes with counts starting 1,1,2,3,4,4 ever reach a count of 5, and they are inverses"),
    "table1": Campaign(partial(run_table, 1), _TABLE_INDEX,
        "each listed short sequence forces a growth rate at or above the threshold constant", csv=True),
    "table2": Campaign(partial(run_table, 2), _TABLE_INDEX,
        "each listed sequence family forces growth rates converging to the threshold constant from above", csv=True),
    "table3": Campaign(partial(run_table, 3), _TABLE_INDEX,
        "each listed realizable sequence yields a growth rate below the threshold constant", csv=True),
    "table4": Campaign(partial(run_table, 4), _TABLE_INDEX,
        "each listed realizable sequence family yields growth rates converging to the threshold constant from below", csv=True),
    "xi-basis": Campaign(run_xi_basis, (_length("max_len", len(XI_CLAIM_SEQUENCE), "classes.CENSUS_BOUND"),),
        "an explicit finitely based class realizes the sequence 1,1,2,4,3,3,2,1,0 and attains the threshold growth rate exactly"),
    "accumulation": Campaign(run_accumulation, (),
        "the explicit polynomial family has strictly decreasing largest roots accumulating at the threshold constant from above"),
    "census": Campaign(run_census, (Param("--basis", "spec", required=True), _length("max_len", 1, "classes.CENSUS_BOUND")),
        "exact member and sum indecomposable counts of a finitely based class", csv=True),
    "growth-rate": Campaign(run_growth_rate, (Param("--basis", "spec"), Param("--seq", "seq")),
        "exact growth rate extraction for a class or sequence"),
    "classify": Campaign(run_classify, (Param("--seq", "seq", required=True),),
        "legality, realizability, and growth position of a sum indecomposable count sequence"),
}


def require_csv(name: str) -> None:
    """Raise ValueError unless the campaign ``name`` writes a CSV artifact."""
    if not REGISTRY[name].csv:
        raise ValueError("campaign %r has no CSV artifact" % name)


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
                raise ValueError("%s %s must be %s" % (name, p.option, p.allowed()))
        elif p.required:
            raise ValueError("%s needs %s" % (name, p.option))
    parameters, passed, artifacts = entry.runner(**params)
    return CampaignReport(
        name, parameters, entry.claim, "pass" if passed else "fail", artifacts
    )
