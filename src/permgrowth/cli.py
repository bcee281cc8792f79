"""Command-line front end.

Usage:
    permgrowth <campaign> [--max-len N] [--eps E] [--out FILE]
               [--format json|csv] [--basis FILE] [--seq "..."]

The campaigns, their claims and the options each one takes come from
``campaigns.REGISTRY``; ``permgrowth --help`` lists them.

Exit codes: 0 on pass, 1 on verification failure, 2 on usage error, which
includes an option the campaign does not take and a value out of its range.
Reports are deterministic for fixed parameters; the wall time, split into
package import and run, goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from . import _import_started
from .campaigns import REGISTRY, run_campaign
from .classes import parse_basis_text
from .sequences import SumSequence

_import_seconds = time.monotonic() - _import_started


def _parse_eps(text: str) -> Fraction:
    try:
        if "/" in text:
            return Fraction(text)
        return Fraction(Decimal(text))
    except (ValueError, ArithmeticError) as exc:
        raise argparse.ArgumentTypeError("bad eps %r" % text) from exc


def _read_basis(path: str):
    with open(path) as fh:
        return parse_basis_text(fh.read())


# the parse of each campaign input that argparse leaves as text
_PARSE = {"--basis": _read_basis, "--seq": SumSequence.parse}


def _campaigns_help() -> str:
    lines = ["campaigns:"]
    for name, c in REGISTRY.items():
        lines.append("  %s: %s" % (name, c.claim))
        lines += ["      %s %s" % (p.option, p.allowed or ("required" if p.required else "optional"))
                  for p in c.params]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permgrowth",
        description="reproducible verification campaigns for growth rates of sum closed permutation classes",
        epilog=_campaigns_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("campaign", choices=list(REGISTRY))
    parser.add_argument("--max-len", type=int, default=None,
                        help="length bound / table index bound / taper length")
    parser.add_argument("--eps", type=_parse_eps, default=None,
                        help="root isolation width (rational or decimal)")
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
    for option in ("--max-len", "--eps", "--basis", "--seq"):
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
        report = run_campaign(args.campaign, params)
        text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    run = time.monotonic() - started
    print("wall time: %.3fs (import %.3fs, run %.3fs)" % (_import_seconds + run, _import_seconds, run),
          file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
