"""Growth rates of sum closed permutation classes.

Exact machinery for permutation containment, insertion-encoding
generating functions, algebraic growth-rate comparison, reconstruction
of permutations from their sum indecomposable children, and the
classification and realization of sum indecomposable count sequences,
together with the reproducible verification campaigns exposed by the
``permgrowth`` command.
"""

import time as _time

# the CLI reports the package import time from here
_import_started = _time.monotonic()

from .perms import (
    Permutation,
    all_permutations,
    children,
    contains,
    direct_sum,
    increasing_oscillation,
    inflate,
    is_sum_indecomposable,
    monotone_quotient,
    parse_permutation,
    skew_sum,
    standardize,
    sum_components,
)
from .polynomials import IntPolynomial, RationalFunction
from .algebraics import (
    KAPPA_POLY,
    XI_POLY,
    AlgebraicNumber,
    compare,
    family_roots,
    growth_polynomial,
    kappa,
    largest_real_root,
    xi,
)
from .classes import (
    Census,
    ClassSpec,
    census,
    compute_basis,
    member,
    parse_basis_text,
    si_sequence,
    spec_from_strs,
)
from .insertion import (
    Automaton,
    IELetter,
    NotRegular,
    SlotBoundExceeded,
    build_automaton,
    class_gf,
    decode,
    encode,
    si_gf,
)
from .reconstruction import (
    k_class,
    reconstruct_from_k,
    sum_indecomposables,
    verify_reconstruction,
    verify_taper,
)
from .sequences import (
    SumSequence,
    classify,
    dominates,
    growth_rate_of_sequence,
    is_legal,
    position_vs_xi,
    realize,
)
from .tables import enumerate_below_xi, table_rows, verify_table
from .campaigns import CampaignReport, run_campaign

__all__ = [
    "Permutation",
    "all_permutations",
    "children",
    "contains",
    "direct_sum",
    "increasing_oscillation",
    "inflate",
    "is_sum_indecomposable",
    "monotone_quotient",
    "parse_permutation",
    "skew_sum",
    "standardize",
    "sum_components",
    "IntPolynomial",
    "RationalFunction",
    "KAPPA_POLY",
    "XI_POLY",
    "AlgebraicNumber",
    "compare",
    "family_roots",
    "growth_polynomial",
    "kappa",
    "largest_real_root",
    "xi",
    "Census",
    "ClassSpec",
    "census",
    "compute_basis",
    "member",
    "parse_basis_text",
    "si_sequence",
    "spec_from_strs",
    "Automaton",
    "IELetter",
    "NotRegular",
    "SlotBoundExceeded",
    "build_automaton",
    "class_gf",
    "decode",
    "encode",
    "si_gf",
    "k_class",
    "reconstruct_from_k",
    "sum_indecomposables",
    "verify_reconstruction",
    "verify_taper",
    "SumSequence",
    "classify",
    "dominates",
    "growth_rate_of_sequence",
    "is_legal",
    "position_vs_xi",
    "realize",
    "enumerate_below_xi",
    "table_rows",
    "verify_table",
    "CampaignReport",
    "run_campaign",
]

__version__ = "1.0.0"
