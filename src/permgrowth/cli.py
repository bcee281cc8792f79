"""Command-line front end.

Usage:
    permgrowth <campaign> [--max-len N] [--eps E] [--out FILE]
               [--format json|csv] [--basis FILE] [--seq "..."]

Campaigns: recon-verify, taper-verify, search-1123, search-112344,
table1..table4, xi-basis, accumulation, census, growth-rate, classify.

Exit codes: 0 on pass, 1 on verification failure, 2 on usage error.
Reports are deterministic for fixed parameters; wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .campaigns import CampaignReport, run_campaign
from .classes import parse_basis_text
from .sequences import SumSequence

CAMPAIGNS = (
    "recon-verify",
    "taper-verify",
    "search-1123",
    "search-112344",
    "table1",
    "table2",
    "table3",
    "table4",
    "xi-basis",
    "accumulation",
    "census",
    "growth-rate",
    "classify",
)

# taper verification is only meaningful at the proven (length, subset size)
# pairs; --max-len selects the length
_TAPER_M = {4: 2, 5: 3, 6: 4, 11: 5}


def _parse_eps(text: str) -> Fraction:
    try:
        if "/" in text:
            return Fraction(text)
        return Fraction(Decimal(text))
    except (ValueError, ArithmeticError) as exc:
        raise argparse.ArgumentTypeError("bad eps %r" % text) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permgrowth",
        description="reproducible verification campaigns for growth rates of sum closed permutation classes",
    )
    parser.add_argument("campaign", choices=CAMPAIGNS)
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
    params: dict = {}
    name = args.campaign
    if args.basis is not None:
        with open(args.basis) as fh:
            params["spec"] = parse_basis_text(fh.read())
    if args.seq is not None:
        params["seq"] = SumSequence.parse(args.seq)
    if args.eps is not None:
        params["eps"] = args.eps
    if args.max_len is not None:
        if name == "recon-verify":
            params["n"] = args.max_len
        elif name == "taper-verify":
            if args.max_len not in _TAPER_M:
                raise ValueError(
                    "taper-verify supports lengths %s" % sorted(_TAPER_M)
                )
            params["n"] = args.max_len
            params["m"] = _TAPER_M[args.max_len]
        elif name.startswith("table"):
            params["max_index"] = args.max_len
        elif name == "search-1123":
            params["census_len"] = args.max_len
        else:
            params["max_len"] = args.max_len
    if name == "census" and "spec" not in params:
        raise ValueError("census needs --basis")
    if name == "classify" and "seq" not in params:
        raise ValueError("classify needs --seq")
    if name == "growth-rate" and ("spec" in params) == ("seq" in params):
        raise ValueError("growth-rate needs exactly one of --basis or --seq")
    return params


def _render(report: CampaignReport, fmt: str) -> str:
    if fmt == "csv":
        return report.to_csv()
    return report.to_json() + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        params = _campaign_params(args)
        report = run_campaign(args.campaign, params)
        text = _render(report, args.format)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(
        "wall time: %.3fs" % (time.monotonic() - started),
        file=sys.stderr,
    )
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
