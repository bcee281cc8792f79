"""The two class searches: ``search-1123`` and ``search-112344``.

``_classes_with_prefix`` enumerates every class with a short basis whose sum
indecomposable counts begin a given prefix, and each search decides its
classes on their exact sum indecomposable g.f., which one insertion-encoding
automaton per orbit gives; a census cross-checks it.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:
    from .classes import ClassSpec


_SI3 = ("2 3 1", "3 1 2", "3 2 1")


def _basis_key(spec: ClassSpec) -> tuple:
    return tuple(str(p) for p in spec.sorted_basis())


def _classes_with_prefix(prefix: tuple[int, ...]) -> list[ClassSpec]:
    """Every class with basis elements of length at most ``len(prefix)``
    whose sum indecomposable counts begin ``prefix``, which begins 1,1,2.
    Each starts at Av(r) for a sum indecomposable r of length 3; at each
    length n from 4 on, it excludes every choice of sum indecomposable
    members that leaves exactly ``prefix[n-1]`` of them.

    Siblings share their parent's level.  The parent's members of length
    n - 1 take one ``next_level`` step, and a child with excluded set D keeps
    the candidates with no child in D: its basis elements are at most n - 1
    long, so those are its members of length n.  So only Av(r) takes a
    census.  D is an antichain longer than the parent's basis B, so B ∪ D
    needs no minimisation.  At the last length only the sum indecomposable
    candidates are counted, and no member set is kept.

    >>> len(_classes_with_prefix((1, 1, 2, 3)))
    30
    """
    from .classes import ClassSpec, census, spec_from_strs
    from .perms import Permutation, _delete, is_sum_indecomposable, next_level

    # each parent's members of length n - 1, with its children and their Ds
    level = [(census(spec, 3).levels[3], [(spec, ())]) for spec in map(spec_from_strs, _SI3)]
    for n in range(4, len(prefix) + 1):
        last = n == len(prefix)
        deeper = []
        for members, kids in level:
            step = next_level(members)
            if last:
                step = filter(is_sum_indecomposable, step)
            dropped = set().union(*(drop for _, drop in kids))
            # each candidate, whether it is SI, and its children that some
            # sibling excludes
            step = [(t, last or is_sum_indecomposable(t),
                     dropped.intersection(_delete(t, j) for j in range(n))) for t in step]
            for spec, drop in kids:
                kept = [(t, is_si) for t, is_si, hit in step if hit.isdisjoint(drop)]
                si = sorted(Permutation._trusted(t) for t, is_si in kept if is_si)
                if len(si) >= prefix[n - 1]:
                    deeper.append((None if last else {t for t, _ in kept}, [
                        (ClassSpec._of_antichain(spec.basis.union(d)), d)
                        for d in combinations(si, len(si) - prefix[n - 1])
                    ]))
        level = deeper
    return sorted((spec for _, kids in level for spec, _ in kids), key=_basis_key)


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
