"""The benchmark's workloads: the CLI calls each one makes, and the check
of each call's report against computations made apart from the program.

A workload is a list of operations.  Each operation is one ``permgrowth``
CLI call; its check receives the parsed JSON report and returns a list of
problems (empty when the report is right).  Program inputs depend on the
seed only in ``queries``; elsewhere the seed draws only the samples that
the checks recompute.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from typing import Callable

import references as ref

WORKLOADS = ("enumerate", "algebra", "search", "queries")

AV321 = ["3 2 1"]
FIBONACCI_CLASS = ["2 3 1", "4 3 1 2", "4 3 2 1"]
# the basis quoted for the xi witness; its true SI counts are 1,1,2,3,3,3,2,1
QUOTED_XI = [
    "2 3 1", "4 1 3 2", "4 2 1 3", "5 4 3 1 2", "7 6 1 2 3 4 5",
    "8 1 2 3 4 5 6 7", "9 8 7 6 5 4 3 2 1",
]
QUOTED_XI_SI = [1, 1, 2, 3, 3, 3, 2, 1, 0]
# the class that attains xi: SI counts 1,1,2,4,3,3,2,1
XI_WITNESS = [
    "3 1 2", "4 3 2 1", "2 3 5 4 1", "2 4 5 3 1", "3 2 5 4 1", "3 4 2 5 1",
    "3 4 5 2 1", "2 4 3 5 6 7 1", "3 2 4 5 6 7 8 1", "2 3 4 5 6 7 8 9 1",
]
# the two classes the paper names for search-112344, inverses of each other
CLASSES_112344 = (
    ["3 2 1", "3 4 1 2", "4 1 2 3", "2 3 4 5 1", "3 1 4 6 2 5"],
    ["3 2 1", "2 3 4 1", "3 4 1 2", "5 1 2 3 4", "2 5 1 3 6 4"],
)

# sequence families of the bracketing tables (a^i repeats a, a^inf is the
# periodic tail), instantiated with a seeded i in the queries workload
FAMILIES = (
    "1,1,2,3,4^i,5,3,3,3",
    "1,1,2,3,4^i,5,4,2",
    "1,1,2,3,4^i,6,3",
    "1,1,2,3,4^i,5,3,3,2,1",
    "1,1,3,2^i,1^inf",
    "1,1,2,4,2^i,1^inf",
    "1,1,2^i,1^inf",
    "1,1,2,4,3,3,1^i",
    "1,1,2,5,1^i",
)

GROWTH_TOL = 1.01e-6  # reports print growth rates to 6 decimals


@dataclass
class Op:
    key: str
    args: list
    check: Callable[[dict, "Context"], list]


class Context:
    """What the checks share within one run: the seeded generator for
    samples, sympy (imported on first use) and brute-force results."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._roots = None
        self._brute: dict = {}

    @property
    def roots(self) -> ref.Roots:
        if self._roots is None:
            self._roots = ref.Roots()
        return self._roots

    def brute(self, basis: list, n: int) -> tuple:
        key = (tuple(sorted(basis)), n)
        if key not in self._brute:
            self._brute[key] = ref.brute_counts([ref.parse_perm(b) for b in basis], n)
        return self._brute[key]


def _basis_arg(name: str, lines: list, inputs: dict) -> str:
    path = "perfbench/out/inputs/%s.txt" % name
    inputs[path] = "".join(line + "\n" for line in lines)
    return path


def _csv_counts(report: dict) -> tuple:
    rows = list(csv.DictReader(io.StringIO(report["artifacts"]["csv"])))
    return [int(r["members"]) for r in rows], [int(r["sum_indecomposable"]) for r in rows]


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append("%s: got %r, want %r" % (what, got, want))


def _status_pass(report: dict) -> list:
    return [] if report.get("status") == "pass" else ["status %r" % report.get("status")]


def _sum_closed(basis: list) -> bool:
    return all(ref.is_si(ref.parse_perm(b)) for b in basis)


def _census_check(basis: list, max_len: int, si_ref: Callable) -> Callable:
    def check(report: dict, ctx: Context) -> list:
        problems = _status_pass(report)
        members, si = _csv_counts(report)
        _expect(problems, "lengths", len(members), max_len + 1)
        _expect(problems, "si_counts", report["artifacts"]["si_counts"], si[1:])
        _expect(problems, "SI counts", si, si_ref(ctx))
        if _sum_closed(basis):
            _expect(problems, "sum closed identity", members, ref.sum_closed_members(si))
        return problems

    return check


def _recon_check(n: int) -> Callable:
    def check(report: dict, ctx: Context) -> list:
        problems = _status_pass(report)
        _expect(problems, "checked", report["artifacts"]["checked"], ref.a003319(n))
        _expect(problems, "collisions", report["artifacts"]["collisions"], [])
        return problems

    return check


def enumerate_ops(seed: int, inputs: dict) -> list:
    """Censuses with large levels and the reconstruction exhaustion: building
    permutations, inserting and deleting entries and the SI test do nearly
    all the work; no polynomial is touched."""
    quoted_len = 10
    # SI counts vanish from length 9 on: every SI permutation of length
    # n >= 2 has an SI child, so none of length 10 can avoid the basis
    # when none of length 9 does
    return [
        Op("census Av(321) 9", ["census", "--basis", _basis_arg("av321", AV321, inputs), "--max-len", "9"],
           _census_check(AV321, 9, lambda ctx: [0] + [ref.catalan(n - 1) for n in range(1, 10)])),
        Op("census fibonacci 10", ["census", "--basis", _basis_arg("fibonacci", FIBONACCI_CLASS, inputs), "--max-len", "10"],
           _census_check(FIBONACCI_CLASS, 10, lambda ctx: [0] + [ref.fibonacci(n) for n in range(1, 11)])),
        Op("census quoted-xi %d" % quoted_len,
           ["census", "--basis", _basis_arg("quoted_xi", QUOTED_XI, inputs), "--max-len", str(quoted_len)],
           _census_check(QUOTED_XI, quoted_len, lambda ctx: (
               ctx.brute(QUOTED_XI, 9)[1] + [0] * (quoted_len - 9)))),
        Op("recon-verify 8", ["recon-verify", "--max-len", "8"], _recon_check(8)),
    ]


# ---------------------------------------------------------------------------
# algebra


def _parse_sequence(text: str) -> tuple:
    head, _, rest = text.partition("(")
    prefix = [int(t) for t in head.split(",") if t.strip()]
    tail = [int(t) for t in rest.rstrip(")").split(",") if t.strip()]
    return prefix, tail


_SIDE = {"at": "equal_xi", "above": "above_xi", "below": "below_xi"}


def _root_problems(ctx: Context, what: str, coeffs: list, growth: str, side: str) -> list:
    """The largest real root of ``coeffs`` lies within GROWTH_TOL of the
    printed ``growth`` and on the stated ``side`` of xi."""
    root = ctx.roots.largest_root(coeffs)
    problems = []
    if abs(ctx.roots.value(root) - float(growth)) > GROWTH_TOL:
        problems.append("%s: growth %s, root %.9f" % (what, growth, ctx.roots.value(root)))
    _expect(problems, what + " side of xi", side, ctx.roots.side_of_xi(coeffs, root))
    return problems


def _table_check(which: int, sample: int) -> Callable:
    allowed = {"at", "above"} if which <= 2 else {"below"}

    def check(report: dict, ctx: Context) -> list:
        problems = _status_pass(report)
        _expect(problems, "problems", report["artifacts"]["problems"], [])
        rows = list(csv.DictReader(io.StringIO(report["artifacts"]["csv"])))
        _expect(problems, "rows", report["artifacts"]["rows"], len(rows))
        xi = ctx.roots.value(ctx.roots.xi)
        for row in rows:
            if row["position"] not in allowed or row["table"] != str(which):
                problems.append("row %s: table %s position %s" % (row["sequence"], row["table"], row["position"]))
            gap = float(row["growth"]) - xi
            if abs(gap) > 2 * GROWTH_TOL and (gap > 0) != (row["position"] == "above"):
                problems.append("row %s: growth %s is not %s xi" % (row["sequence"], row["growth"], row["position"]))
        for row in ctx.rng.sample(rows, min(sample, len(rows))):
            what = "table%d %s" % (which, row["sequence"])
            problems += _root_problems(ctx, what, ref.parse_poly(row["polynomial"]), row["growth"], row["position"])
            coeffs, root = ctx.roots.growth_of_sequence(*_parse_sequence(row["sequence"]))
            if abs(ctx.roots.value(root) - float(row["growth"])) > GROWTH_TOL:
                problems.append("%s: the sequence's growth is %.9f" % (what, ctx.roots.value(root)))
        return problems

    return check


def _accumulation_check(report: dict, ctx: Context) -> list:
    """The largest roots of (x^5 - 2x^4 - x^2 - x - 1)(x + 1)x^(2i+1) - 1,
    i = 1..10, by sympy: strictly decreasing, all above xi, the last within
    1e-3 of xi, and each within a unit of the 8th printed decimal."""
    problems = _status_pass(report)
    art = report["artifacts"]
    base = ref.poly_mul(list(ref.XI_COEFFS), [1, 1])
    exact = []
    for i, printed in enumerate(art["roots"], 1):
        coeffs = [-1] + [0] * (2 * i) + base
        root = ctx.roots.largest_root(coeffs)
        exact.append(root.evalf(40))
        if abs(ctx.roots.value(root) - float(printed)) > 1.01e-8:
            problems.append("root %d: printed %s, sympy %.10f" % (i, printed, ctx.roots.value(root)))
        _expect(problems, "root %d side of xi" % i, ctx.roots.side_of_xi(coeffs, root), "above")
    _expect(problems, "roots", len(exact), 10)
    if any(a <= b for a, b in zip(exact, exact[1:])):
        problems.append("roots do not strictly decrease")
    xi = ctx.roots.value(ctx.roots.xi)
    if float(exact[-1]) - xi >= 1e-3:
        problems.append("last root %s is not within 1e-3 of xi" % exact[-1])
    if abs(float(art["limit"]) - xi) > 1.01e-8:
        problems.append("limit %s" % art["limit"])
    return problems


def algebra_ops(seed: int, inputs: dict) -> list:
    """Two bracketing tables and the accumulation family: Sturm chains,
    bisection and Fraction arithmetic do nearly all the work; no
    permutation is built."""
    return [
        Op("table2 2", ["table2", "--max-len", "2"], _table_check(2, 12)),
        Op("table4 3", ["table4", "--max-len", "3"], _table_check(4, 24)),
        Op("accumulation", ["accumulation"], _accumulation_check),
    ]


# ---------------------------------------------------------------------------
# search


def _inverse_basis(basis: list) -> list:
    return sorted(" ".join(map(str, ref.inverse(ref.parse_perm(b)))) for b in basis)


def _perm_key(text: str) -> tuple:
    p = ref.parse_perm(text)
    return len(p), p


def _check_112344(report: dict, ctx: Context) -> list:
    problems = _status_pass(report)
    found = report["artifacts"]["classes_with_five"]
    want = sorted(sorted(b, key=_perm_key) for b in CLASSES_112344)
    _expect(problems, "classes with a 5", sorted(e["basis"] for e in found), want)
    if len(found) == 2:
        a, b = found
        _expect(problems, "inverse pair", _inverse_basis(a["basis"]), sorted(b["basis"]))
    for entry in found:
        n = min(len(entry["si_counts"]), 9)
        _, si = ctx.brute(entry["basis"], n)
        _expect(problems, "SI counts of %s" % entry["basis"], entry["si_counts"][:n], si[1:])
        if 5 not in entry["si_counts"]:
            problems.append("no 5 in %r" % entry["si_counts"])
    return problems


def search_ops(seed: int, inputs: dict) -> list:
    """The 1,1,2,3,4,4 class search: short censuses of hundreds of small
    classes, basis minimisation through containment, and an
    insertion-encoding automaton with g.f. elimination for each candidate.
    (search-1123 is left out: at its shortest working --max-len, 7, one call
    takes 15 to 23 s on a shared 2-core machine, too long to repeat within a
    run.)"""
    return [Op("search-112344", ["search-112344"], _check_112344)]


# ---------------------------------------------------------------------------
# queries


def _instantiate(family: str, i: int) -> tuple:
    prefix, tail = [], []
    for tok in family.split(","):
        value, _, rep = tok.partition("^")
        if rep == "inf":
            tail = [int(value)]
        else:
            prefix += [int(value)] * (i if rep == "i" else 1)
    return prefix, tail


def _legal_prefix(rng: random.Random) -> tuple:
    """A short sequence that obeys the initial caps (s1, s2 <= 1, s3 <= 3)
    and the taper rules (after a count of at most 1, 2 or 3, from length 3,
    4 or 5 on, no later count exceeds it), so it is legal by construction."""
    seq = [1, 1, rng.randint(1, 3)]
    for n in range(3, rng.randint(4, 7)):
        last, cap = seq[-1], 5
        for start, small in ((3, 1), (4, 2), (5, 3)):
            if n >= start and last <= small:
                cap = min(cap, small)
        seq.append(rng.randint(1, cap))
    return seq, ([1] if rng.random() < 0.5 else [])


def _seq_text(prefix: list, tail: list) -> str:
    text = ",".join(map(str, prefix))
    return text + (",(%s)" % ",".join(map(str, tail)) if tail else "")


def _growth_check(prefix: list, tail: list, verb: str) -> Callable:
    def check(report: dict, ctx: Context) -> list:
        problems = _status_pass(report)
        art = report["artifacts"]
        coeffs, root = ctx.roots.growth_of_sequence(prefix, tail)
        value = ctx.roots.value(root)
        if abs(float(art["growth"]) - value) > GROWTH_TOL:
            problems.append("growth %s, sympy %.9f" % (art["growth"], value))
        side = ctx.roots.side_of_xi(coeffs, root)
        _expect(problems, "position", art["position"], _SIDE[side])
        if verb == "classify":
            _expect(problems, "legal", art["legal"], True)
        else:
            stated = ctx.roots.value(ctx.roots.largest_root(ref.parse_poly(art["polynomial"])))
            if abs(stated - value) > 1e-12:
                problems.append("polynomial %s has root %.12f" % (art["polynomial"], stated))
        return problems

    return check


def _class_growth_check(basis: list, poly: list) -> Callable:
    """``poly``: the reference growth polynomial, or None to derive it from
    the brute-force SI counts, which must reach 0 by length 10."""

    def check(report: dict, ctx: Context) -> list:
        problems = _status_pass(report)
        art = report["artifacts"]
        if poly is None:
            _, si = ctx.brute(basis, 10)
            if si[-1] != 0:
                return problems + ["SI counts do not end: %r" % si]
            coeffs, root = ctx.roots.growth_of_sequence(si[1:], [])
        else:
            coeffs, root = poly, ctx.roots.largest_root(poly)
        value = ctx.roots.value(root)
        if abs(float(art["growth"]) - value) > GROWTH_TOL:
            problems.append("growth %s, reference %.9f" % (art["growth"], value))
        _expect(problems, "position", art["position"], _SIDE[ctx.roots.side_of_xi(coeffs, root)])
        stated = ref.parse_poly(art["polynomial"])
        if basis == XI_WITNESS:
            if stated not in (list(ref.XI_COEFFS), [-c for c in ref.XI_COEFFS]):
                problems.append("polynomial %s is not +-(x^5 - 2x^4 - x^2 - x - 1)" % art["polynomial"])
        elif abs(ctx.roots.value(ctx.roots.largest_root(stated)) - value) > 1e-12:
            problems.append("polynomial %s" % art["polynomial"])
        return problems

    return check


def _random_perm(rng: random.Random, n: int) -> tuple:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def _perm_text(p: tuple) -> str:
    return " ".join(map(str, p))


def _with_redundant(rng: random.Random, basis: list) -> list:
    """The basis in a seeded order plus one element that contains a basis
    element (a seeded insertion of a new maximum), which the program drops
    when it minimises the basis."""
    b = ref.parse_perm(rng.choice(basis))
    pos = rng.randint(0, len(b))
    extra = _perm_text(b[:pos] + (len(b) + 1,) + b[pos:])
    lines = basis + [extra]
    rng.shuffle(lines)
    return lines


def queries_ops(seed: int, inputs: dict) -> list:
    """A seeded batch of short CLI calls.  Interpreter start, the package
    import and the lazy sympy import take most of each call's time."""
    rng = random.Random(seed)
    ops = []
    for verb in ("classify", "growth-rate"):
        for prefix, tail in (
            _instantiate(rng.choice(FAMILIES), rng.randint(1, 5)),
            _legal_prefix(rng),
        ):
            text = _seq_text(prefix, tail)
            ops.append(Op("%s %s" % (verb, text), [verb, "--seq", text], _growth_check(prefix, tail, verb)))
    fib_poly = [-1, -2, 1]  # SI counts F_n: 1 - g = (1 - 2x - x^2)/(1 - x - x^2)
    for name, basis, poly in (
        ("xi_witness", XI_WITNESS, list(ref.XI_COEFFS)),
        rng.choice((("quoted_xi", QUOTED_XI, None), ("fibonacci", FIBONACCI_CLASS, fib_poly))),
    ):
        path = _basis_arg("growth_" + name, _with_redundant(rng, basis), inputs)
        ops.append(Op("growth-rate %s" % name, ["growth-rate", "--basis", path],
                      _class_growth_check(basis, poly)))
    for k in range(2):
        basis = set()
        while len(basis) < 2:
            basis.add(_perm_text(_random_perm(rng, 4)))
        basis = sorted(basis)
        path = _basis_arg("census_%d" % k, basis, inputs)
        ops.append(Op("census %s" % "|".join(basis), ["census", "--basis", path, "--max-len", "7"],
                      _census_check(basis, 7, lambda ctx, b=basis: ctx.brute(b, 7)[1])))
    return ops


BUILDERS = {
    "enumerate": enumerate_ops,
    "algebra": algebra_ops,
    "search": search_ops,
    "queries": queries_ops,
}


def build(workload: str, seed: int) -> tuple:
    """(operations, input files as {relative path: text})."""
    inputs: dict = {}
    return BUILDERS[workload](seed, inputs), inputs
