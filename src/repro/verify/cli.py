"""``python -m repro verify`` — the concurrency-verification CLI.

Usage::

    python -m repro verify                    # default sweep
    python -m repro verify --smoke            # reduced CI sweep
    python -m repro verify --seeds 8          # more seeds
    python -m repro verify --scenario churn   # restrict scenarios
    python -m repro verify --workers 4        # shard the grid
    python -m repro verify --replay 'storm:3:atomic_latency=4,jitter=512'
    python -m repro verify --replay ... --shrink
    python -m repro verify explore --budget 64      # coverage-guided
    python -m repro verify explore --compare-deck   # vs random deck

The sweep runs every scenario under every (seed, perturbation) pair
with the race checker attached and invariant/leak checkpoints enabled.
Each failure prints a replay triple; ``--replay`` re-executes exactly
that schedule, and ``--shrink`` bisects the perturbation set down to a
minimal reproducer.  Exit status is 0 iff every case passed.

``explore`` swaps the fixed grid for the coverage-guided engine
(:mod:`repro.verify.explore`): schedule-state digests steer the case
budget toward unvisited interleavings, and coverage is reported as
distinct schedules visited.  Explorer failures print the same replay
triples (the steering decision rides in the ``steer`` knob).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..cliargs import backend_arg, int_at_least, workers_arg
from .perturbation import DEFAULT_DECK, SMOKE_DECK
from .runner import SCENARIOS, CaseResult, CaseSpec, sweep, run_case
from .shrink import shrink_case


def _report_failures(failures: List[CaseResult], do_shrink: bool) -> None:
    print(f"\n{len(failures)} failing case(s):")
    for res in failures:
        print(res.describe())
        print(f"  replay: python -m repro verify --replay '{res.spec.replay}'")
    if do_shrink and failures:
        first = failures[0]
        if first.spec.perturbation:
            print(f"\nshrinking {first.spec.replay} ...")
            minimal = shrink_case(first.spec, log=print)
            print(f"minimal reproducer: python -m repro verify "
                  f"--replay '{minimal.replay}'")


def main_explore(argv: Optional[List[str]] = None) -> int:
    """``python -m repro verify explore`` — coverage-guided exploration."""
    from .explore import deck_coverage, explore

    parser = argparse.ArgumentParser(
        prog="python -m repro verify explore",
        description="Coverage-guided schedule exploration: steer the case "
                    "budget toward unvisited interleavings using scheduler "
                    "state digests; report distinct schedules visited.",
    )
    parser.add_argument(
        "--budget", type=int_at_least(1), default=64, metavar="N",
        help="number of cases to explore (default 64)",
    )
    parser.add_argument(
        "--scenario", action="append", choices=sorted(SCENARIOS),
        metavar="NAME", default=None,
        help=f"restrict to a scenario (repeatable); "
             f"default all: {', '.join(sorted(SCENARIOS))}",
    )
    parser.add_argument(
        "--backend", type=backend_arg, metavar="NAME", default="ours",
        help="allocator backend to explore (default 'ours')",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="K",
        help="master seed for the steering RNG (default 0); coverage and "
             "failures are deterministic in (budget, scenarios, seed)",
    )
    parser.add_argument(
        "--workers", type=workers_arg, default=1, metavar="N",
        help="shard each steering batch across N worker processes "
             "(0 = one per CPU; default 1); the explored sequence is "
             "identical at any worker count",
    )
    parser.add_argument(
        "--min-coverage", type=int_at_least(0), default=0, metavar="S",
        help="fail (exit 1) when fewer than S distinct schedules were "
             "visited — the CI floor that keeps the explorer honest",
    )
    parser.add_argument(
        "--compare-deck", action="store_true",
        help="also run the random DEFAULT_DECK grid at the same budget "
             "with the same coverage metric, and print both",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="shrink the first protocol failure to a minimal reproducer",
    )
    parser.add_argument(
        "--fail-on-budget", action="store_true",
        help="treat event-budget exhaustions as failures (default: "
             "reported but non-fatal — the livelock guard tripping is a "
             "budget artifact, not a protocol violation)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-case progress lines",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    log = None if args.quiet else print
    print(f"explore: coverage-guided, budget {args.budget} case(s), "
          f"master seed {args.seed}")
    report = explore(
        scenarios=args.scenario, budget=args.budget, backend=args.backend,
        master_seed=args.seed, workers=args.workers, log=log,
    )
    print()
    print(report.describe())
    if args.compare_deck:
        print(f"\ndeck: random DEFAULT_DECK grid at the same budget "
              f"({args.budget} case(s))")
        baseline = deck_coverage(
            scenarios=args.scenario, budget=args.budget,
            backend=args.backend, workers=args.workers, log=log,
        )
        print()
        print(baseline.describe())
    if args.shrink and report.failures:
        first = report.failures[0]
        if first.spec.perturbation:
            print(f"\nshrinking {first.spec.replay} ...")
            minimal = shrink_case(first.spec, log=print)
            print(f"minimal reproducer: python -m repro verify "
                  f"--replay '{minimal.replay}'")
    elapsed = time.time() - t0
    status = 0
    if report.failures:
        status = 1
    if args.fail_on_budget and report.budget_failures:
        status = 1
    if report.distinct_schedules < args.min_coverage:
        print(f"\ncoverage floor missed: {report.distinct_schedules} "
              f"distinct schedule(s) < required {args.min_coverage}")
        status = 1
    print(f"({elapsed:.1f}s)")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explore":
        return main_explore(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Deterministic concurrency verification: schedule "
                    "fuzzing over allocator torture scenarios with race "
                    "detection and invariant checkpoints.",
    )
    parser.add_argument(
        "--seeds", type=int_at_least(1), default=4, metavar="N",
        help="number of scheduler seeds to sweep (default 4)",
    )
    parser.add_argument(
        "--seed-start", type=int, default=0, metavar="K",
        help="first seed of the sweep (default 0)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced perturbation deck and 2 seeds (CI smoke budget)",
    )
    parser.add_argument(
        "--scenario", action="append", choices=sorted(SCENARIOS),
        metavar="NAME", default=None,
        help=f"restrict to a scenario (repeatable); "
             f"default all: {', '.join(sorted(SCENARIOS))}",
    )
    parser.add_argument(
        "--backend", type=backend_arg, metavar="NAME", default="ours",
        help="allocator backend to sweep (a repro.backends registry "
             "name; default 'ours')",
    )
    parser.add_argument(
        "--replay", metavar="SPEC", default=None,
        help="replay one failing case: 'scenario[@backend]:seed:"
             "perturbation' (as printed by a failing sweep)",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="after a failure, bisect the perturbation set to a minimal "
             "reproducer",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop the sweep at the first failing case",
    )
    parser.add_argument(
        "--workers", type=workers_arg, default=1, metavar="N",
        help="shard the sweep grid across N worker processes "
             "(0 = one per CPU; default 1 = serial); results are merged "
             "in canonical grid order and identical to a serial sweep",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    if args.replay is not None:
        try:
            spec = CaseSpec.parse(args.replay)
        except ValueError as e:
            parser.error(str(e))
        print(f"replaying {spec.replay} ...")
        res = run_case(spec)
        print(res.describe())
        if res.ok:
            print(f"({time.time() - t0:.1f}s)")
            return 0
        _report_failures([res], args.shrink)
        print(f"({time.time() - t0:.1f}s)")
        return 1

    if args.smoke:
        deck = SMOKE_DECK
        n_seeds = min(args.seeds, 2) if args.seeds != 4 else 2
    else:
        deck = DEFAULT_DECK
        n_seeds = args.seeds
    seeds = range(args.seed_start, args.seed_start + n_seeds)
    names = args.scenario or sorted(SCENARIOS)
    n_cases = len(seeds) * len(deck) * len(names)
    print(f"verify: sweeping {len(seeds)} seed(s) x {len(deck)} "
          f"perturbation(s) x {len(names)} scenario(s) = {n_cases} cases")
    results = sweep(seeds, deck=deck, scenarios=names,
                    fail_fast=args.fail_fast, log=print,
                    workers=args.workers, backend=args.backend)
    failures = [r for r in results if not r.ok]
    elapsed = time.time() - t0
    if not failures:
        print(f"\nall {len(results)} cases passed ({elapsed:.1f}s)")
        return 0
    _report_failures(failures, args.shrink)
    print(f"({elapsed:.1f}s)")
    return 1


if __name__ == "__main__":  # pragma: no cover - python -m repro verify is the entry
    sys.exit(main())
