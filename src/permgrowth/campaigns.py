"""Reproducible verification campaigns behind the command-line front end.

Each campaign recomputes one published-style result and returns a
``CampaignReport`` whose JSON serialization is byte-identical across runs
for fixed parameters.  Wall time is never part of the payload; the CLI
prints it to stderr.

``REGISTRY`` is the one table of campaigns: each entry holds the name, the
claim, the runner, the inputs the runner takes and whether the report
carries a CSV artifact.  An entry names its runner as ``module.function``
of this package, next to the engine it drives: the searches in ``search``,
the constructions' ``xi-basis`` in ``constructions``, and the rest in
``reconstruction``, ``tables``, ``algebraics``, ``classes`` and
``sequences``.  A runner returns the report's parameters, whether the claim
held, and the artifacts; ``run_campaign`` loads its module, runs it and
adds the name and the claim.  So loading the registry loads no other module
of the package, and a call loads only the modules its runner uses.
"""

from __future__ import annotations

import json
from importlib import import_module
from typing import Any, Callable, Collection, NamedTuple, Optional


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


def _lookup(path: str) -> Any:
    """The object ``module.NAME`` of this package, its module loaded on
    first use.

    >>> _lookup("sequences.run_classify").__module__
    'permgrowth.sequences'
    """
    module, name = path.split(".")
    return getattr(import_module("." + module, __package__), name)


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
    return Param("--max-len", keyword, lambda: range(lo, _lookup(bound) + 1))


_TABLE_INDEX = (_length("max_index", 0, "tables.MAX_INDEX"),)
_TAPER_LENGTH = Param("--max-len", "n", lambda: _lookup("reconstruction.TAPER_SIZES"))


class Campaign(NamedTuple):
    runner: str  # module.function of this package
    params: tuple  # of Param
    claim: str
    csv: bool = False  # whether the report carries a CSV artifact
    args: tuple = ()  # positional arguments the runner takes before the params


REGISTRY: dict[str, Campaign] = {
    "recon-verify": Campaign("reconstruction.run_recon_verify", (_length("n", 5, "reconstruction.RECON_BOUND"),),
        "sets of sum indecomposable children determine their parent, up to the one pair of same-length increasing oscillations"),
    "taper-verify": Campaign("reconstruction.run_taper_verify", (_TAPER_LENGTH,),
        "small sets of sum indecomposable permutations have child sets almost as large"),
    "search-1123": Campaign("search.run_search_1123", (_length("census_len", 1, "classes.CENSUS_BOUND"),),
        "no class whose sum indecomposable counts start 1,1,2,3 shows a count above 5 before a count of 5"),
    "search-112344": Campaign("search.run_search_112344", (),
        "exactly two classes with counts starting 1,1,2,3,4,4 ever reach a count of 5, and they are inverses"),
    "table1": Campaign("tables.run_table", _TABLE_INDEX,
        "each listed short sequence forces a growth rate at or above the threshold constant", csv=True, args=(1,)),
    "table2": Campaign("tables.run_table", _TABLE_INDEX,
        "each listed sequence family forces growth rates converging to the threshold constant from above", csv=True, args=(2,)),
    "table3": Campaign("tables.run_table", _TABLE_INDEX,
        "each listed realizable sequence yields a growth rate below the threshold constant", csv=True, args=(3,)),
    "table4": Campaign("tables.run_table", _TABLE_INDEX,
        "each listed realizable sequence family yields growth rates converging to the threshold constant from below", csv=True, args=(4,)),
    "xi-basis": Campaign("constructions.run_xi_basis", (_length("max_len", len(XI_CLAIM_SEQUENCE), "classes.CENSUS_BOUND"),),
        "an explicit finitely based class realizes the sequence 1,1,2,4,3,3,2,1,0 and attains the threshold growth rate exactly"),
    "accumulation": Campaign("algebraics.run_accumulation", (),
        "the explicit polynomial family has strictly decreasing largest roots accumulating at the threshold constant from above"),
    "census": Campaign("classes.run_census", (Param("--basis", "spec", required=True), _length("max_len", 1, "classes.CENSUS_BOUND")),
        "exact member and sum indecomposable counts of a finitely based class", csv=True),
    "growth-rate": Campaign("algebraics.run_growth_rate", (Param("--basis", "spec"), Param("--seq", "seq")),
        "exact growth rate extraction for a class or sequence"),
    "classify": Campaign("sequences.run_classify", (Param("--seq", "seq", required=True),),
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
    parameters, passed, artifacts = _lookup(entry.runner)(*entry.args, **params)
    return CampaignReport(
        name, parameters, entry.claim, "pass" if passed else "fail", artifacts
    )
