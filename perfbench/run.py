"""Campaign benchmark for permgrowth: time to verdict per workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each operation is a fresh
``python3 -m permgrowth.cli`` process on ``src/``, timed from spawn to exit,
one at a time.  A run repeats whole rounds of its workload's operations
until at least ``--seconds`` have been measured, then checks every report
against computations made apart from the program (``workloads.py``,
``references.py``).  ``--trace 1`` runs one untraced round, then the same
operations under ``tracer.py`` (a span pass and a counting pass), and prints
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the trace
and the operations' reports go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import selftest
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BENCH_DIR = ROOT / "perfbench"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Runner:
    """Spawns one operation process at a time and records its wall time,
    CPU time and peak resident set."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PERMGROWTH_BACKEND", None)

    def spawn(self, cmd: list) -> dict:
        out_path, err_path = OUT / "op.stdout", OUT / "op.stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_text(errors="replace"),
        }

    def cli(self, args: list) -> dict:
        return self.spawn([sys.executable, "-m", "permgrowth.cli"] + args)

    def traced(self, mode: str, op_id: str, args: list, spans_file: Path) -> dict:
        return self.spawn(
            [sys.executable, str(BENCH_DIR / "tracer.py"), mode, str(spans_file), op_id, "--"] + args
        )

    def reference(self) -> dict:
        return self.spawn([sys.executable, str(BENCH_DIR / "calibrate.py")])

    def setup_time(self) -> float:
        """Median scaled time for a fresh process to start and import
        permgrowth.cli, after one untimed import has filled the bytecode
        cache.  Each sample sits between two reference runs."""
        cmd = [sys.executable, "-c", "import permgrowth.cli"]
        self.spawn(cmd)
        refs = [self.reference()]
        samples = []
        for _ in range(SETUP_SAMPLES):
            samples.append(self.spawn(cmd))
            refs.append(self.reference())
        return statistics.median(_scaled(samples, refs, "wall"))


# the calibration program's time at the reference speed; scaled times read
# as seconds on a machine where calibrate.py takes this long
REFERENCE_S = {"wall": 0.4, "cpu": 0.4}


def _scaled(results: list, refs: list, key: str) -> list:
    """Each result's ``key`` time scaled to the reference speed by the mean
    of the two reference runs on either side of it.  On a shared machine
    the speed of the same work drifts by up to 2x over minutes and
    changes within seconds; a scaled time is steadier than a raw one."""
    return [
        res[key] * REFERENCE_S[key] / ((before[key] + after[key]) / 2)
        for res, before, after in zip(results, refs, refs[1:])
    ]


def _op_key(op: workloads.Op, inputs: dict) -> str:
    """Identifies an operation by its arguments and the text of its input
    files, so the report digest store compares like with like."""
    parts = [" ".join(op.args)] + [inputs[a] for a in op.args if a in inputs]
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


class Workload:
    def __init__(self, name: str, seed: int, runner: Runner):
        self.name = name
        self.runner = runner
        self.ops, self.inputs = workloads.build(name, seed)
        for path, text in self.inputs.items():
            (ROOT / path).parent.mkdir(parents=True, exist_ok=True)
            (ROOT / path).write_text(text)
        self.keys = [_op_key(op, self.inputs) for op in self.ops]
        self.problems: dict = {}  # op index -> list of problems
        self.attempts = [0] * len(self.ops)
        self.digests: dict = {}  # op index -> sha256 of its first report
        self.reports: dict = {}  # op index -> its first report

    def _record(self, i: int, res: dict, label: str) -> None:
        """Counts one attempt of operation ``i`` and compares its report
        with the operation's first report in this run."""
        self.attempts[i] += 1
        if res["rc"] != 0:
            tail = res["stderr"].strip().splitlines()[-1:] or [""]
            self._fail(i, "%s: exit %d: %s" % (label, res["rc"], tail[0]))
            return
        digest = hashlib.sha256(res["stdout"]).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            self._fail(i, "%s: report differs from the first run of this operation" % label)

    def _fail(self, i: int, why: str) -> None:
        self.problems.setdefault(i, []).append(why)

    def one_round(self) -> dict:
        """Every operation once, each followed by a reference run (and the
        first preceded by one)."""
        results, refs = [], [self.runner.reference()]
        for i, op in enumerate(self.ops):
            res = self.runner.cli(op.args)
            self._record(i, res, "untraced")
            if i not in self.reports and res["rc"] == 0:
                self.reports[i] = res["stdout"]
            results.append(res)
            refs.append(self.runner.reference())
        return {
            "wall": sum(r["wall"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "op_walls": [r["wall"] for r in results],
            "op_cpus": [r["cpu"] for r in results],
            "ref_walls": [r["wall"] for r in refs],
            "ref_cpus": [r["cpu"] for r in refs],
            "scaled_walls": _scaled(results, refs, "wall"),
            "scaled_cpus": _scaled(results, refs, "cpu"),
        }

    def run_rounds(self, seconds: float) -> list:
        """Whole rounds until ``seconds`` have passed, and no round that
        would likely overrun the run's deadline."""
        rounds = []
        start = time.monotonic()
        last = 0.0
        while not rounds or (
            time.monotonic() - start < seconds
            and time.monotonic() + 1.5 * last < self.runner.deadline
        ):
            begun = time.monotonic()
            rounds.append(self.one_round())
            last = time.monotonic() - begun
        return rounds

    def traced_round(self, mode: str) -> tuple:
        """One round under the tracer; returns (summed wall time, the
        lines each operation's tracer wrote)."""
        wall, lines = 0.0, []
        for i, op in enumerate(self.ops):
            op_id = "%s:%d:%s" % (self.name, i, mode)
            spans_file = OUT / ("%s.jsonl" % mode)
            res = self.runner.traced(mode, op_id, op.args, spans_file)
            self._record(i, res, mode)
            wall += res["wall"]
            if not spans_file.exists():  # the tracer died before writing
                lines.append([])
                continue
            with open(spans_file) as fh:
                lines.append([json.loads(line) for line in fh])
            spans_file.unlink()
        return wall, lines

    def check_reports(self, ctx: workloads.Context) -> None:
        store_path = OUT / "digests.json"
        store = json.loads(store_path.read_text()) if store_path.exists() else {}
        for i, op in enumerate(self.ops):
            if i not in self.reports:
                continue
            digest = hashlib.sha256(self.reports[i]).hexdigest()
            if store.setdefault(self.keys[i], digest) != digest:
                self._fail(i, "report differs from an earlier run of the same operation")
            try:
                problems = op.check(json.loads(self.reports[i]), ctx)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
            for why in problems:
                self._fail(i, why)
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True))

    @property
    def attempted(self) -> int:
        return sum(self.attempts)

    @property
    def failed(self) -> int:
        """Attempts of the operations that had any problem."""
        return sum(self.attempts[i] for i in self.problems)


def per_layer_metrics(workload: str, span_lines: list, count_lines: list, overhead: float) -> tuple:
    """(metrics, missing): per-layer metrics summed over the operations of
    a traced round, and the functions REQUIRED on this workload that
    recorded no call."""
    calls: dict = {}
    seconds: dict = {}
    work: dict = {}
    self_s = {layer: 0.0 for layer in layers.LAYERS}
    for lines in span_lines:
        totals = layers.span_totals(lines)
        for key, acc in (("calls", calls), ("s", seconds), ("work", work), ("self_s", self_s)):
            for name, value in totals[key].items():
                acc[name] = acc.get(name, 0) + value
    created: dict = {}
    census_made = census_members = 0
    for lines in count_lines:
        for rec in lines:
            if rec["counter"] == "classes.census":
                census_made += rec["created"]
                census_members += rec["members"]
            else:
                created[rec["counter"]] = created.get(rec["counter"], 0) + rec["value"]
    members = work.get("classes.census", 0)
    census_s = seconds.get("classes.census", 0.0)
    values = {
        "perms.Permutation.created": created.get("perms.Permutation.created", 0),
        "classes.census.members": members,
        "classes.census.members_per_s": members / census_s if census_s else 0.0,
        "classes.census.perms_per_member": census_made / census_members if census_members else 0.0,
        "insertion.build_automaton.states": work.get("insertion.build_automaton", 0),
        "polynomials.RationalFunction.created": created.get("polynomials.RationalFunction.created", 0),
        "trace.overhead_s": overhead,
    }
    for name in layers.TIMED:
        values[name + ".calls"] = calls.get(name, 0)
    for name in layers.TIMED + layers.TIME_ONLY:
        values[name + ".s"] = seconds.get(name, 0.0)
    for layer in layers.LAYERS:
        values[layer + ".self_s"] = self_s[layer]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.metric_units()}
    missing = [name for name in layers.REQUIRED[workload] if not calls.get(name)]
    return metrics, missing


def _selftest() -> list:
    """The references' self-test, run once per checkout and again whenever
    a file it covers changes; returns its failures."""
    digest = hashlib.sha256(b"".join(
        (BENCH_DIR / name).read_bytes() for name in ("references.py", "selftest.py", "workloads.py")
    )).hexdigest()
    marker = OUT / "selftest.ok"
    if marker.exists() and marker.read_text() == digest:
        return []
    problems = selftest.run_all()
    if not problems:
        marker.write_text(digest)
    return problems


def _per_op_median(rounds: list, key: str) -> float:
    """The sum over operations of each operation's median scaled time
    over the run's rounds."""
    return sum(statistics.median(times) for times in zip(*(r[key] for r in rounds)))


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    runner = Runner(deadline)
    wl = Workload(name, seed, runner)
    ctx = workloads.Context(seed)
    notes = _selftest()
    if not trace:
        setup = runner.setup_time()
        rounds = wl.run_rounds(seconds)
        wl.check_reports(ctx)
        metrics = {
            "wall_s": _per_op_median(rounds, "scaled_walls"),
            "cpu_s": _per_op_median(rounds, "scaled_cpus"),
            "setup_s": setup,
            "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END}
        extra = {"rounds": rounds}
    else:
        plain = wl.run_rounds(0)[0]
        span_wall, span_lines = wl.traced_round("spans")
        _, count_lines = wl.traced_round("counts")
        wl.check_reports(ctx)
        with open(OUT / ("trace-%s.jsonl" % name), "w") as fh:
            for lines in span_lines + count_lines:
                for rec in lines:
                    fh.write(json.dumps(rec) + "\n")
        metrics, missing = per_layer_metrics(name, span_lines, count_lines, span_wall - plain["wall"])
        notes += ["traced run recorded no call of %s" % m for m in missing]
        extra = {"untraced_wall": plain["wall"], "traced_wall": span_wall}
    problems = {wl.ops[i].key: p for i, p in sorted(wl.problems.items())}
    result = {
        "correct": not notes and not problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=name, seed=seed, trace=int(trace), notes=notes,
                  problems=problems, **extra)
    (OUT / ("result-%s-seed%d-trace%d.json" % (name, seed, int(trace)))).write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    for why in notes:
        print("%s: %s" % (name, why), file=sys.stderr)
    for key, whys in problems.items():
        for why in whys:
            print("%s: %s: %s" % (name, key, why), file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "permgrowth" / "cli.py").is_file():
        print("error: no permgrowth source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # the operations and the reference runs share one core, so that each
    # reference run sees the contention its neighbouring operations see
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        # each workload's run gets the 180 s limit that a single run has
        deadline = time.monotonic() + RUN_LIMIT_S
        results[name] = res = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        for metric, m in res["metrics"].items():
            print("%s %s = %r %s" % (name, metric, m["value"], m["unit"]))
        print("%s attempted = %d failed = %d correct = %s"
              % (name, res["attempted"], res["failed"], res["correct"]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (n, k): m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
