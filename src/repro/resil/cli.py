"""``python -m repro resil`` — the fault-injection / resilience CLI.

Usage::

    python -m repro resil run                   # placements + deck
    python -m repro resil run --workers 4       # shard the cases
    python -m repro resil run --scenario churn  # restrict scenarios
    python -m repro resil run --case 'storm:1:site=tbuddy.split,p=0.5'
    python -m repro resil replay 'storm:1:site=tbuddy.split,p=0.5,max=8'
    python -m repro resil list                  # sites, kinds, deck

``run`` runs every single-fault placement of each scenario, then the
hand-written deck, and prints one certificate per scenario.  Every case
runs a verify scenario under a deterministic fault plan and must pass
the post-fault recovery assertions (quiescent ``host_checkpoint``,
pressure-gauge/tree agreement, no lost supply).  ``run`` executes each
case twice and compares the fault traces byte-for-byte; ``replay``
re-executes one case and prints its full fault trace.  Exit status is
0 iff every case passed.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..cliargs import workers_arg
from ..verify.runner import SCENARIOS
from .plan import SITES
from .runner import (
    DECK,
    FAIL_SITES,
    ResilResult,
    ResilSpec,
    kinds_injected,
    placements,
    run_case,
    run_deck,
)


def _certify(placed: List[ResilSpec], results: List[ResilResult]) -> None:
    """One line per scenario over its single-fault placements (results
    come back in deck order, placements first)."""
    ran = results[:len(placed)]
    for name in dict.fromkeys(spec.scenario for spec in placed):
        k = sum(spec.scenario == name for spec in placed)
        ok = sum(r.ok for r in ran if r.spec.scenario == name)
        tally = f"all {k}" if ok == k else f"{ok} of {k}"
        print(f"{name}: {tally} single-fault placements recover")


def _report(results: List[ResilResult], elapsed: float) -> int:
    failures = [r for r in results if not r.ok]
    kinds = kinds_injected(results)
    total = sum(r.n_injected for r in results)
    summary = ", ".join(f"{k}: {v}" for k, v in kinds.items()) or "none"
    print(f"\n{total} faults injected across {len(results)} case(s) "
          f"({summary})")
    if not failures:
        print(f"all {len(results)} cases recovered ({elapsed:.1f}s)")
        return 0
    print(f"{len(failures)} failing case(s):")
    for res in failures:
        print(res.describe())
        print(f"  replay: python -m repro resil replay '{res.spec.replay}'")
    print(f"({elapsed:.1f}s)")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro resil",
        description="Deterministic fault injection: verify scenarios run "
                    "under replayable fault plans with post-fault recovery "
                    "assertions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the placements and the deck")
    p_run.add_argument(
        "--scenario", action="append", choices=sorted(SCENARIOS),
        metavar="NAME", default=None,
        help="run only a scenario's placements and deck cases (repeatable)",
    )
    p_run.add_argument(
        "--case", action="append", metavar="SPEC", default=None,
        help="run explicit case(s) 'scenario:seed:fault-plan' instead of "
             "the placements and the deck (repeatable)",
    )
    p_run.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first failing case",
    )
    p_run.add_argument(
        "--workers", type=workers_arg, default=1, metavar="N",
        help="shard the cases across N worker processes (0 = one per "
             "CPU; default 1 = serial); results merge in deck order and "
             "are identical to a serial run",
    )

    p_replay = sub.add_parser(
        "replay", help="re-execute one case and print its fault trace"
    )
    p_replay.add_argument(
        "spec", metavar="SPEC",
        help="case spec 'scenario:seed:fault-plan' (as printed by run)",
    )

    sub.add_parser("list", help="print fault sites, kinds, and the deck")

    args = parser.parse_args(argv)

    if args.command == "list":
        print("fault sites:")
        for site, (kind, desc) in sorted(SITES.items()):
            print(f"  {site:18s} {kind:10s} {desc}")
        print(f"\ndeck ({len(DECK)} cases; `run` adds every single-fault "
              f"placement of {', '.join(FAIL_SITES)}):")
        for spec in DECK:
            print(f"  {spec.replay}")
        return 0

    t0 = time.time()
    if args.command == "replay":
        try:
            spec = ResilSpec.parse(args.spec)
        except ValueError as e:
            parser.error(str(e))
        print(f"replaying {spec.replay} ...")
        res = run_case(spec, replay_check=True)
        print(res.describe())
        if res.trace:
            print("fault trace:")
            for line in res.trace.splitlines():
                print(f"  {line}")
        print(f"({time.time() - t0:.1f}s)")
        return 0 if res.ok else 1

    # run
    placed: List[ResilSpec] = []
    if args.case:
        if args.scenario:
            parser.error("--case and --scenario cannot be combined: "
                         "a --case spec names its own scenario")
        try:
            deck = [ResilSpec.parse(s) for s in args.case]
        except ValueError as e:
            parser.error(str(e))
    else:
        scenarios = [n for n in SCENARIOS
                     if not args.scenario or n in args.scenario]
        placed = [spec for name in scenarios for spec in placements(name)]
        deck = placed + [s for s in DECK if s.scenario in scenarios]
    print(f"resil: running {len(deck)} case(s)")
    results = run_deck(deck, fail_fast=args.fail_fast, log=print,
                       workers=args.workers)
    _certify(placed, results)
    return _report(results, time.time() - t0)


if __name__ == "__main__":  # pragma: no cover - python -m repro resil is the entry
    sys.exit(main())
