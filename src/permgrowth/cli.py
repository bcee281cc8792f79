"""Command-line front end.

Usage:
    permgrowth <campaign> [--max-len N] [--out FILE] [--format json|csv]
               [--basis FILE] [--seq "..."]

The campaigns, their claims and the options each one takes come from
``campaigns.REGISTRY``; ``permgrowth --help`` lists them.

Exit codes: 0 on pass, 1 on verification failure, 2 on usage error, which
includes an option the campaign does not take, a value out of its range and
an ``--out`` path that cannot be written, which is refused before the
campaign runs.
Reports are deterministic for fixed parameters; the wall time goes to
stderr, split into the import of this front end and the campaign registry,
and the run, which includes loading the modules the campaign uses.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from typing import Optional

from . import _import_started
from .campaigns import REGISTRY, require_csv, run_campaign

_import_seconds = time.monotonic() - _import_started


def _read_basis(path: str):
    from .classes import parse_basis_text

    with open(path) as fh:
        return parse_basis_text(fh.read())


def _read_seq(text: str):
    from .sequences import SumSequence

    return SumSequence.parse(text)


# the parse of each campaign input that argparse leaves as text
_PARSE = {"--basis": _read_basis, "--seq": _read_seq}


def _check_out(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise if it is a
    directory, or its directory is missing or not writable.  The file is not
    opened, so a bad path costs no campaign run and truncates nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _campaigns_help() -> str:
    lines = ["campaigns:"]
    for name, c in REGISTRY.items():
        lines.append("  %s: %s" % (name, c.claim))
        lines += ["      %s %s" % (p.option, p.allowed() or ("required" if p.required else "optional"))
                  for p in c.params]
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def format_help(self) -> str:
        # the ranges read bounds from the modules that enforce them, so the
        # campaign list is built only when the help is printed
        self.epilog = _campaigns_help()
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permgrowth",
        description="reproducible verification campaigns for growth rates of sum closed permutation classes",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("campaign", choices=list(REGISTRY))
    parser.add_argument("--max-len", type=int, default=None,
                        help="length bound / table index bound / taper length")
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--basis", default=None,
                        help="basis file, one permutation per line")
    parser.add_argument("--seq", default=None,
                        help='sum indecomposable count sequence, e.g. "1,1,2,3,(4)"')
    return parser


def _campaign_params(args) -> dict:
    """Runner keywords from the options given; an option the campaign does
    not take raises ValueError."""
    taken = {p.option: p for p in REGISTRY[args.campaign].params}
    params: dict = {}
    for option in ("--max-len", "--basis", "--seq"):
        value = getattr(args, option[2:].replace("-", "_"))
        if value is not None:
            if option not in taken:
                raise ValueError("%s takes no %s" % (args.campaign, option))
            params[taken[option].keyword] = _PARSE.get(option, lambda v: v)(value)
    return params


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        params = _campaign_params(args)
        if args.format == "csv":
            require_csv(args.campaign)
        if args.out:
            _check_out(args.out)
        report = run_campaign(args.campaign, params)
        text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    run = time.monotonic() - started
    print("wall time: %.3fs (import %.3fs, run %.3fs)" % (_import_seconds + run, _import_seconds, run),
          file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
