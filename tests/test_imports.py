"""The package loads a module on the first use of one of its names, and a
CLI call loads only the modules its campaign runs.

Run without a bytecode cache, each module a call loads is compiled again,
so a top-level import added to the front end or the registry shows up in
every short call; the subprocess checks below catch one."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import permgrowth


def test_every_exported_name_is_its_defining_module_binding():
    for name in permgrowth.__all__:
        module = importlib.import_module("permgrowth." + permgrowth._MODULE_OF[name])
        value = getattr(permgrowth, name)
        assert value is vars(module)[name], name
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from permgrowth import *", namespace)
    for name in permgrowth.__all__:
        assert namespace[name] is getattr(permgrowth, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        permgrowth.no_such_name
    with pytest.raises(ImportError):
        from permgrowth import no_such_name  # noqa: F401
    assert isinstance(permgrowth._import_started, float)


# runs the CLI on its arguments, if any, in a fresh interpreter and prints
# the exit code and the modules that importing the CLI and the call added
_PROBE = (
    "import contextlib, io, sys\n"
    "before = set(sys.modules)\n"
    "import permgrowth.cli\n"
    "argv = sys.argv[1:]\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = permgrowth.cli.main(argv) if argv else 0\n"
    "print(code, *sorted(set(sys.modules) - before))\n"
)


def _added(argv: list, code: str = "0") -> set:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(permgrowth.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", _PROBE] + argv, env=env, capture_output=True, text=True, check=True
    )
    exit_code, *modules = run.stdout.split()
    assert exit_code == code, (argv, run.stderr)
    return set(modules)


def _loaded(added: set) -> set:
    """The permgrowth modules among those a call added, without the package
    prefix."""
    return {m[len("permgrowth."):] for m in added if m.startswith("permgrowth.")}


def test_cli_import_loads_only_the_registry():
    assert _loaded(_added([])) == {"campaigns", "cli"}


def test_cli_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, a large share of
    # the start-up of every short call
    assert not _added([]) & {"dataclasses", "inspect"}


# the modules that only the searches, the printed growth factors and the
# realization constructions need
_ON_DEMAND = {"search", "factoring", "constructions"}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (
            ["census", "--basis", "BASIS", "--max-len", "7"],
            {"tables", "sequences", "algebraics", "polynomials", "insertion", "reconstruction"} | _ON_DEMAND,
        ),
        (
            ["classify", "--seq", "1,1,2,3,(4)"],
            {"tables", "perms", "classes", "insertion", "reconstruction", "search", "factoring"},
        ),
        (
            ["recon-verify", "--max-len", "6"],
            {"tables", "sequences", "insertion", "algebraics", "polynomials"} | _ON_DEMAND,
        ),
        (
            ["growth-rate", "--seq", "1,1,2,3,(4)"],
            {"tables", "perms", "classes", "insertion", "reconstruction", "search", "constructions"},
        ),
        (["growth-rate", "--basis", "BASIS"], {"tables", "sequences", "reconstruction", "search", "constructions"}),
        (["table2", "--max-len", "2"], {"perms", "classes", "insertion", "reconstruction"} | _ON_DEMAND),
        (["table4", "--max-len", "2"], {"perms", "classes", "insertion", "reconstruction"} | _ON_DEMAND),
        (
            ["accumulation"],
            {"tables", "sequences", "perms", "classes", "insertion", "reconstruction"} | _ON_DEMAND,
        ),
        (["search-112344"], {"tables", "sequences", "algebraics", "reconstruction", "factoring", "constructions"}),
        (
            ["taper-verify", "--max-len", "6"],
            {"tables", "sequences", "classes", "insertion", "algebraics", "polynomials"} | _ON_DEMAND,
        ),
        (["xi-basis", "--max-len", "9"], {"tables", "reconstruction", "search"}),
    ],
)
def test_a_call_loads_only_the_modules_its_campaign_runs(argv, unloaded, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("2 3 1\n4 3 1 2\n4 3 2 1\n")
    # xi-basis exits 1 by design: the quoted basis misses its claim
    added = _added([str(basis) if a == "BASIS" else a for a in argv], "1" if argv[0] == "xi-basis" else "0")
    loaded = _loaded(added)
    assert {"campaigns", "cli"} <= loaded
    assert not loaded & unloaded, loaded & unloaded
    if argv[0].startswith("table"):
        # growth floats come from exact signs, with no numpy
        assert "numpy" not in added
    if argv[0] in ("search-112344", "census"):
        # neither evaluates a polynomial at a point, and fractions loads
        # decimal, about 2 ms of start-up
        assert not added & {"fractions", "decimal"}, added & {"fractions", "decimal"}
