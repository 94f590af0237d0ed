"""``python -m repro verify`` — the concurrency-verification CLI.

Usage::

    python -m repro verify                          # 64-case budget
    python -m repro verify --budget 200 --workers 4
    python -m repro verify --scenario storm --shrink
    python -m repro verify --min-coverage 40        # CI coverage floor
    python -m repro verify --replay 'storm:3:atomic_latency=4,jitter=512'
    python -m repro verify --replay ... --shrink

The command runs the coverage-guided explorer
(:mod:`repro.verify.explore`): every case runs a torture scenario with
the race checker attached and invariant/leak checkpoints enabled, and
scheduler state digests steer the case budget toward unvisited
interleavings.  Coverage is reported as distinct schedules visited.
Each failure prints a replay triple (the steering decision rides in the
``steer`` knob); ``--replay`` re-executes exactly that schedule, and
``--shrink`` bisects the first failure's perturbation set down to a
minimal reproducer.  Exit status is 0 iff no case broke a protocol
check and the ``--min-coverage`` floor held; event-budget trips are
reported but non-fatal.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..cliargs import backend_arg, int_at_least, workers_arg
from .explore import explore
from .runner import SCENARIOS, CaseResult, CaseSpec, run_case
from .shrink import shrink_case


def _shrink(failure: CaseResult) -> None:
    if failure.spec.perturbation:
        print(f"\nshrinking {failure.spec.replay} ...")
        minimal = shrink_case(failure.spec, log=print)
        print(f"minimal reproducer: python -m repro verify "
              f"--replay '{minimal.replay}'")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Deterministic concurrency verification: coverage-"
                    "guided schedule exploration over allocator torture "
                    "scenarios with race detection and invariant "
                    "checkpoints; reports distinct schedules visited.",
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
        help="allocator backend to explore (a repro.backends registry "
             "name; default 'ours')",
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
        "--replay", metavar="SPEC", default=None,
        help="replay one failing case: 'scenario[@backend]:seed:"
             "perturbation' (as printed by a failing run)",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="shrink the first protocol failure to a minimal reproducer",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-case progress lines",
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
        if not res.ok and args.shrink:
            _shrink(res)
        print(f"({time.time() - t0:.1f}s)")
        return 0 if res.ok else 1

    print(f"verify: coverage-guided exploration, budget {args.budget} "
          f"case(s), master seed {args.seed}")
    report = explore(
        scenarios=args.scenario, budget=args.budget, backend=args.backend,
        master_seed=args.seed, workers=args.workers,
        log=None if args.quiet else print,
    )
    print()
    print(report.describe())
    if args.shrink and report.failures:
        _shrink(report.failures[0])
    status = 0 if report.ok else 1
    if report.distinct_schedules < args.min_coverage:
        print(f"\ncoverage floor missed: {report.distinct_schedules} "
              f"distinct schedule(s) < required {args.min_coverage}")
        status = 1
    print(f"({time.time() - t0:.1f}s)")
    return status


if __name__ == "__main__":  # pragma: no cover - python -m repro verify is the entry
    sys.exit(main())
