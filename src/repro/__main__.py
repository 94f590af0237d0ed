"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro fig5          # Figure 5: bulk vs counting semaphores
    python -m repro fig6          # Figure 6: RCU delegation speedup
    python -m repro fig7          # Figure 7: allocator rate by size
    python -m repro ablation_buddy       # DESIGN.md design-choice
    python -m repro ablation_collective  # ablations
    python -m repro shootout      # cross-allocator comparison
    python -m repro shootout@ours+cuda   # ... over any backend roster
    python -m repro all           # every registered case in sequence
        # Any `perf` case runs this way (`perf run --help` lists them):
        # its full tier, once, printing the bench's own table.

    python -m repro fig5 --trace out.json   # + structured tracing
        # (any case, `resil` and `shootout@b1+b2` included): writes
        # Chrome trace-event JSON (open in chrome://tracing or
        # https://ui.perfetto.dev) and prints the telemetry summary
        # (semaphore wait histograms, top stall words, SM occupancy).

    python -m repro verify        # concurrency verification: coverage-
        # guided schedule exploration (digest-steered case budget,
        # coverage = distinct schedules visited) + race detection +
        # replay and shrink (see `verify --help`).

    python -m repro perf run      # benchmark suite -> BENCH_*.json artifact
    python -m repro perf compare  # regression gate over the trajectory
    python -m repro perf profile  # host hotspots + simulator telemetry
        # (see `perf --help` and docs in repro.perf)

    python -m repro resil run     # fault injection: verify scenarios
        # under deterministic fault plans with post-fault recovery
        # assertions and byte-for-byte trace replay (see `resil --help`).
        # `resil` alone, or with only `--trace PATH`, is the perf case.

    python -m repro backends list     # registered allocator backends
    python -m repro backends conform  # conformance deck over backends
        # (the shared contract every backend must satisfy; see
        # DESIGN.md §11 and `backends --help`).

    python -m repro workloads list    # workload zoo: scenario families
    python -m repro workloads gen     # generate a recorded trace (JSONL)
    python -m repro workloads replay  # replay a trace on any backend(s)
        # (multi-tenant Zipfian contention, diurnal bursts, recorded
        # request streams; see DESIGN.md §12 and `workloads --help`).

    python -m repro serve run     # allocator-as-a-service over TCP:
    python -m repro serve bench   # admission control + episode batching
    python -m repro serve record  # + socket load generation and ledger
        # reconciliation (see DESIGN.md §13 and `serve --help`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext


def _load_cli(module_name: str):
    """Import ``repro.<module>.cli`` and return its ``main``."""
    import importlib

    return importlib.import_module(f".{module_name}.cli", __package__).main


#: subsystems owning their own argument surface: first argv token ->
#: (cli module, one-line description for --help).  Dispatch happens
#: before the experiment parser ever sees the argv.
_SUBSYSTEMS = {
    "verify": ("verify", "schedule exploration + race detection + replay"),
    "perf": ("perf", "benchmark suite, regression gate, profiling"),
    "resil": ("resil", "fault injection with recovery assertions"),
    "backends": ("backends", "allocator-backend registry + conformance"),
    "workloads": ("workloads", "workload zoo: generate + replay traces"),
    "serve": ("serve", "allocator-as-a-service: admission + batching"),
}


def _is_case_run(argv) -> bool:
    """Whether ``argv`` is a case followed by at most ``--trace PATH``."""
    if len(argv) > 1 and not (len(argv) == 3 and argv[1] == "--trace"):
        return False
    from .perf.suite import CASES

    return argv[0] in CASES


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A name that is both a subsystem and a case (`resil`) runs the case
    # when nothing but `--trace PATH` follows it; with anything else
    # (`resil run`, `resil --help`) the subsystem owns the command line.
    if argv and argv[0] in _SUBSYSTEMS and not _is_case_run(argv):
        module_name, _ = _SUBSYSTEMS[argv[0]]
        return _load_cli(module_name)(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the PPoPP'19 allocator paper's evaluation "
                    "on the simulator.",
        epilog="subsystems (each owns its own flags; see "
               "`python -m repro <name> --help`): "
               + "; ".join(f"{name} — {desc}"
                           for name, (_, desc) in sorted(_SUBSYSTEMS.items())),
    )
    from .perf.suite import CASES, UnknownCase, resolve_case
    from .sim.trace import Tracer, tracing

    parser.add_argument(
        "target",
        metavar="CASE",
        help="experiment to run at its full tier: a registered case ("
             + ", ".join(CASES) + "), 'shootout@b1+b2' or 'all'",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable structured tracing: write Chrome trace-event JSON "
             "to PATH and print a telemetry summary",
    )
    args = parser.parse_args(argv)
    try:
        cases = (list(CASES.values()) if args.target == "all"
                 else [resolve_case(args.target)])
    except UnknownCase as e:
        parser.error(e.args[0])

    tracer = None
    if args.trace is not None:
        # Fail on an unwritable path now, not after minutes of simulation.
        try:
            with open(args.trace, "w"):
                pass
        except OSError as e:
            parser.error(f"--trace: cannot write {args.trace}: {e}")
        tracer = Tracer()

    with tracing(tracer) if tracer is not None else nullcontext():
        for case in cases:
            print(f"=== {case.name} " + "=" * (60 - len(case.name)))
            print(f"{case.description} (seed {case.seed}):")
            t0 = time.time()
            result = case.result("full")
            print(result.table())
            print(f"    ({time.time() - t0:.1f}s wall)\n")

    if tracer is not None:
        tracer.write_chrome_trace(args.trace)
        print(tracer.summary())
        print(f"\nChrome trace written to {args.trace} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # so a closed reader is seen here, not at exit
    except BrokenPipeError:
        # The reader closed early (`... | head -1`).  Point stdout at
        # devnull so the interpreter's exit flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
