"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro fig5          # Figure 5: bulk vs counting semaphores
    python -m repro fig6          # Figure 6: RCU delegation speedup
    python -m repro fig7          # Figure 7: allocator rate by size
    python -m repro ablations     # DESIGN.md design-choice ablations
    python -m repro shootout      # cross-allocator comparison
    python -m repro fragmentation # fragmentation-over-time study
    python -m repro all           # everything above in sequence

    python -m repro fig5 --trace out.json   # + structured tracing:
        # writes Chrome trace-event JSON (open in chrome://tracing or
        # https://ui.perfetto.dev) and prints the telemetry summary
        # (semaphore wait histograms, top stall words, SM occupancy).

    python -m repro verify        # concurrency verification: schedule
        # fuzzing + race detection + replay (see `verify --help`).
    python -m repro verify explore # coverage-guided schedule exploration:
        # digest-steered case budget, coverage = distinct schedules
        # visited (see `verify explore --help`).

    python -m repro perf run      # benchmark suite -> BENCH_*.json artifact
    python -m repro perf compare  # regression gate over the trajectory
    python -m repro perf profile  # host hotspots + simulator telemetry
        # (see `perf --help` and docs in repro.perf)

    python -m repro resil run     # fault injection: verify scenarios
        # under deterministic fault plans with post-fault recovery
        # assertions and byte-for-byte trace replay (see `resil --help`).

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
import sys
import time

from .bench import ablations, fig5, fig6, fig7, fragmentation, shootout

_TARGETS = {
    "fig5": fig5.main,
    "fig6": fig6.main,
    "fig7": fig7.main,
    "ablations": ablations.main,
    "shootout": shootout.main,
    "fragmentation": fragmentation.main,
}

#: targets whose ``main`` accepts a tracer
_TRACEABLE = frozenset({"fig5", "fig6", "fig7"})


def _load_cli(module_name: str):
    """Import ``repro.<module>.cli`` and return its ``main``."""
    import importlib

    return importlib.import_module(f".{module_name}.cli", __package__).main


#: subsystems owning their own argument surface: first argv token ->
#: (cli module, one-line description for --help).  Dispatch happens
#: before the experiment parser ever sees the argv.
_SUBSYSTEMS = {
    "verify": ("verify", "schedule fuzzing + race detection + replay"),
    "perf": ("perf", "benchmark suite, regression gate, profiling"),
    "resil": ("resil", "fault injection with recovery assertions"),
    "backends": ("backends", "allocator-backend registry + conformance"),
    "workloads": ("workloads", "workload zoo: generate + replay traces"),
    "serve": ("serve", "allocator-as-a-service: admission + batching"),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBSYSTEMS:
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
    parser.add_argument(
        "target",
        choices=sorted(_TARGETS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable structured tracing (fig5/fig6/fig7): write Chrome "
             "trace-event JSON to PATH and print a telemetry summary",
    )
    args = parser.parse_args(argv)
    targets = sorted(_TARGETS) if args.target == "all" else [args.target]

    tracer = None
    if args.trace is not None:
        if not (_TRACEABLE & set(targets)):
            parser.error(
                f"--trace supports {', '.join(sorted(_TRACEABLE))} "
                f"(got {args.target})"
            )
        # Fail on an unwritable path now, not after minutes of simulation.
        try:
            with open(args.trace, "w"):
                pass
        except OSError as e:
            parser.error(f"--trace: cannot write {args.trace}: {e}")
        from .sim.trace import Tracer

        tracer = Tracer()

    for name in targets:
        print(f"=== {name} " + "=" * (60 - len(name)))
        t0 = time.time()
        if tracer is not None and name in _TRACEABLE:
            _TARGETS[name](tracer=tracer)
        else:
            _TARGETS[name]()
        print(f"    ({time.time() - t0:.1f}s wall)\n")

    if tracer is not None:
        tracer.write_chrome_trace(args.trace)
        print(tracer.summary())
        print(f"\nChrome trace written to {args.trace} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
