"""Growth rates of sum closed permutation classes.

Exact machinery for permutation containment, insertion-encoding
generating functions, algebraic growth-rate comparison, verification that
children determine their parent, and the classification and realization
of sum indecomposable count sequences, together with the reproducible
verification campaigns exposed by the ``permgrowth`` command.

Each public name loads its module on first use, so a short command pays
only for the modules its campaign runs.
"""

import time as _time

# the CLI reports the package import time from here
_import_started = _time.monotonic()

# the public names of each module
_EXPORTS = {
    "perms": "Permutation all_permutations children contains direct_sum "
    "increasing_oscillation inflate is_sum_indecomposable parse_permutation "
    "skew_sum standardize",
    "polynomials": "IntPolynomial RationalFunction",
    "algebraics": "KAPPA_POLY XI_POLY AlgebraicNumber compare family_roots "
    "growth_polynomial largest_real_root position_vs_xi xi",
    "classes": "Census ClassSpec census compute_basis member parse_basis_text spec_from_strs",
    "insertion": "Automaton IELetter NotRegular SlotBoundExceeded build_automaton "
    "class_gf decode encode si_gf",
    "reconstruction": "verify_reconstruction verify_taper",
    "sequences": "SumSequence classify dominates growth_rate_of_sequence is_legal realize",
    "tables": "table_rows verify_table",
    "campaigns": "CampaignReport run_campaign",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)

__version__ = "1.0.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    return getattr(import_module("." + module, __name__), name)
