"""Run one ``permgrowth`` CLI call with the traced layers wrapped.

    python3 perfbench/tracer.py spans|counts OUT_FILE OP_ID -- CLI_ARGS...

``spans`` replaces each target of ``layers.TARGETS`` with a timing wrapper,
in every ``permgrowth`` module that binds it (the package imports names with
``from .x import y``, so patching only the defining module would miss most
calls).  ``counts`` instead counts the objects of ``layers.COUNTED`` as they
are constructed, and the permutations created inside each census; counting
is kept out of the timed pass so it does not inflate the span times.

Spans and counts are kept in memory and written to OUT_FILE as JSON lines
when the call ends.  The report goes to standard output exactly as the
untraced CLI writes it, and the exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import layers


def _resolve(module: str, attr: str):
    owner = importlib.import_module("permgrowth." + module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _rebind(original, replacement) -> int:
    """Replace ``original`` by ``replacement`` wherever a permgrowth module
    binds it; returns the number of bindings replaced."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "permgrowth" and not modname.startswith("permgrowth."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                hits += 1
    return hits


_WORK = {
    "members": lambda census: sum(census.member_counts),
    "states": lambda automaton: automaton.num_states,
}


class SpanRecorder:
    def __init__(self):
        self.spans: list = []
        self.stack: list = [None]

    def wrap(self, name: str, fn, work):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        measure = _WORK.get(work)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[sid] = (name, start, end, parent, None if measure is None else measure(result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, work in layers.TARGETS:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            wrapper = self.wrap(layers.target_name(module, attr), original, work)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
            elif not _rebind(original, wrapper):
                raise RuntimeError("no binding of %s.%s" % (module, attr))

    def lines(self, op: str):
        for sid, (name, start, end, parent, work) in enumerate(self.spans):
            rec = {"op": op, "id": sid, "name": name, "start": start, "end": end, "parent": parent}
            if work is not None:
                rec["work"] = work
            yield rec


class ConstructionCounter:
    def __init__(self):
        self.created = {}
        self.census: list = []

    def install(self) -> None:
        for module, cls_name in layers.COUNTED:
            owner, name = _resolve(module, cls_name)
            cls = getattr(owner, name)
            key = "%s.%s.created" % (module, cls_name)
            self.created[key] = 0
            cls.__init__ = self._counting(cls.__init__, key)
        owner, name = _resolve("classes", "census")
        original = getattr(owner, name)
        _rebind(original, self._census(original))

    def _counting(self, init, key):
        created = self.created

        def counting_init(obj, *args, **kwargs):
            created[key] += 1
            init(obj, *args, **kwargs)

        return counting_init

    def _census(self, census):
        created, log = self.created, self.census

        def counted_census(*args, **kwargs):
            before = created["perms.Permutation.created"]
            result = census(*args, **kwargs)
            log.append((created["perms.Permutation.created"] - before, sum(result.member_counts)))
            return result

        return counted_census

    def lines(self, op: str):
        for key, value in self.created.items():
            yield {"op": op, "counter": key, "value": value}
        for made, members in self.census:
            yield {"op": op, "counter": "classes.census", "created": made, "members": members}


def main(argv: list) -> int:
    mode, out_file, op = argv[:3]
    if argv[3] != "--":
        raise SystemExit("usage: tracer.py spans|counts OUT_FILE OP_ID -- CLI_ARGS...")
    import permgrowth.cli  # imports every module before patching

    recorder = SpanRecorder() if mode == "spans" else ConstructionCounter()
    recorder.install()
    try:
        return permgrowth.cli.main(argv[4:])
    finally:
        sys.stdout.flush()
        with open(out_file, "w") as fh:
            for rec in recorder.lines(op):
                fh.write(json.dumps(rec) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
