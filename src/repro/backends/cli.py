"""CLI for the backend registry: ``python -m repro backends ...``.

* ``backends list`` — every registered backend with caps at a glance;
* ``backends conform [--backend NAME ...]`` — run the conformance deck
  and exit non-zero on any contract violation (the CI smoke job).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..cliargs import backend_arg
from .conformance import run_all
from .registry import get, names


def _cmd_list(args: argparse.Namespace) -> int:
    for name in names():
        b = get(name)
        print(f"{name:16s} {b.display:20s} {b.description}")
    return 0


def _cmd_conform(args: argparse.Namespace) -> int:
    which: Optional[List[str]] = args.backend or None
    outcomes = run_all(which)
    failed = [o for o in outcomes if o.status == "fail"]
    for o in outcomes:
        mark = {"pass": "ok  ", "skip": "skip", "fail": "FAIL"}[o.status]
        line = f"[{mark}] {o.backend:16s} {o.check}"
        if o.detail:
            line += f"  ({o.detail})"
        print(line)
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed"
          + (f", {len(failed)} FAILED" if failed else ""))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro backends",
        description="allocator-backend registry tools",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_list = sub.add_parser("list", help="list registered backends")
    p_list.set_defaults(fn=_cmd_list)

    p_conform = sub.add_parser(
        "conform", help="run the conformance deck against backends"
    )
    p_conform.add_argument(
        "--backend", action="append", type=backend_arg, metavar="NAME",
        help="restrict to this backend (repeatable; default: all)",
    )
    p_conform.set_defaults(fn=_cmd_conform)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
