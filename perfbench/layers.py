"""The layers the traced run measures, and the per-layer metrics derived
from its spans and counters.

A layer is a module of the ``permgrowth`` package (``_kernels`` belongs to
``perms``, ``cli`` to ``campaigns``).  Each target below is a function the
traced run replaces with a timing wrapper; ``work`` names what the wrapper
also reads from the function's result.
"""

from __future__ import annotations

LAYERS = (
    "perms",
    "classes",
    "reconstruction",
    "insertion",
    "polynomials",
    "algebraics",
    "sequences",
    "tables",
    "campaigns",
)

# (module, attribute path, work read from the result or None).  Besides the
# functions the per-layer metrics name, each layer's entry points are here
# so that time spent in a layer is counted as that layer's self time.
TARGETS = (
    ("perms", "contains", None),
    ("perms", "is_sum_indecomposable", None),
    ("perms", "children", None),
    ("classes", "census", "members"),
    ("classes", "compute_basis", None),
    ("reconstruction", "verify_reconstruction", None),
    ("insertion", "build_automaton", "states"),
    ("insertion", "gf_from_automaton", None),
    ("insertion", "eventual_period", None),
    ("insertion", "class_gf", None),
    ("insertion", "si_gf", None),
    ("insertion", "coefficients_bounded", None),
    ("polynomials", "poly_gcd", None),
    ("polynomials", "square_free_part", None),
    ("algebraics", "sturm_sequence", None),
    ("algebraics", "largest_real_root", None),
    ("algebraics", "compare", None),
    ("algebraics", "AlgebraicNumber.refine", None),
    ("algebraics", "growth_polynomial", None),
    ("algebraics", "family_roots", None),
    ("sequences", "growth_rate_of_sequence", None),
    ("sequences", "classify", None),
    ("sequences", "realize", None),
    ("tables", "verify_table", None),
    ("tables", "table_rows", None),
    ("tables", "entries_to_csv", None),
    ("campaigns", "run_campaign", None),
    ("cli", "main", None),
)

# objects whose constructions the counting pass counts
COUNTED = (("perms", "Permutation"), ("polynomials", "RationalFunction"))

LAYER_OF = {"_kernels": "perms", "cli": "campaigns"}


def target_name(module: str, attr: str) -> str:
    return "%s.%s" % (module, attr)


# functions a workload must reach: a traced run in which one of these
# records no call fails, so a renamed function cannot turn a metric into 0
REQUIRED = {
    "enumerate": (
        "perms.contains",
        "perms.is_sum_indecomposable",
        "perms.children",
        "classes.census",
        "reconstruction.verify_reconstruction",
        "campaigns.run_campaign",
    ),
    "algebra": (
        "polynomials.poly_gcd",
        "algebraics.sturm_sequence",
        "algebraics.largest_real_root",
        "algebraics.compare",
        "algebraics.AlgebraicNumber.refine",
        "sequences.growth_rate_of_sequence",
        "tables.verify_table",
        "tables.table_rows",
        "campaigns.run_campaign",
    ),
    "search": (
        "perms.contains",
        "perms.is_sum_indecomposable",
        "classes.census",
        "insertion.build_automaton",
        "insertion.gf_from_automaton",
        "insertion.eventual_period",
        "polynomials.poly_gcd",
        "campaigns.run_campaign",
    ),
    "queries": (
        "classes.census",
        "insertion.build_automaton",
        "insertion.gf_from_automaton",
        "algebraics.growth_polynomial",
        "sequences.growth_rate_of_sequence",
        "campaigns.run_campaign",
    ),
}

# per-layer metrics, in the order they are printed: (name, unit)
TIMED = (
    "perms.contains",
    "perms.is_sum_indecomposable",
    "perms.children",
    "classes.census",
    "insertion.build_automaton",
    "insertion.gf_from_automaton",
    "polynomials.poly_gcd",
    "algebraics.sturm_sequence",
    "algebraics.largest_real_root",
    "algebraics.compare",
    "algebraics.AlgebraicNumber.refine",
    "algebraics.growth_polynomial",
    "sequences.growth_rate_of_sequence",
)
TIME_ONLY = (
    "reconstruction.verify_reconstruction",
    "insertion.eventual_period",
    "tables.verify_table",
    "tables.table_rows",
    "campaigns.run_campaign",
)


def metric_units() -> list:
    out = [("perms.Permutation.created", "count")]
    for name in TIMED:
        out += [(name + ".calls", "count"), (name + ".s", "s")]
    out += [(name + ".s", "s") for name in TIME_ONLY]
    out += [
        ("classes.census.members", "count"),
        ("classes.census.members_per_s", "1/s"),
        ("classes.census.perms_per_member", "perms/member"),
        ("insertion.build_automaton.states", "count"),
        ("polynomials.RationalFunction.created", "count"),
    ]
    out += [(layer + ".self_s", "s") for layer in LAYERS]
    out.append(("trace.overhead_s", "s"))
    return out


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return LAYER_OF.get(module, module)


def span_totals(spans: list) -> dict:
    """Calls, summed time, work and self time from the spans of one
    operation.  Each span is a dict with ``name``, ``start``, ``end``,
    ``parent`` (the index of the enclosing span in ``spans`` or None) and
    optionally ``work``.  A span's self time is its duration minus the
    durations of the spans directly nested in it; a layer's self time sums
    the self times of its spans, so time in a nested span of another layer
    is not counted twice."""
    calls: dict = {}
    seconds: dict = {}
    work: dict = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for i, span in enumerate(spans):
        name = span["name"]
        dur = span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + dur
        if "work" in span:
            work[name] = work.get(name, 0) + span["work"]
        self_s[layer_of(name)] += dur - child_time[i]
    return {"calls": calls, "s": seconds, "work": work, "self_s": self_s}
