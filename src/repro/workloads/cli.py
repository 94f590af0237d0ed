"""``python -m repro workloads`` — generate, inspect and replay traces.

Usage::

    python -m repro workloads list            # families + parameters
    python -m repro workloads gen --family multi_tenant_zipf --seed 1 \\
        --out /tmp/mt.jsonl --param events=200 --param tenants=8
    python -m repro workloads replay /tmp/mt.jsonl            # on 'ours'
    python -m repro workloads replay /tmp/mt.jsonl \\
        --backend ours --backend cuda --workers 2             # shootout
    python -m repro workloads replay /tmp/mt.jsonl --lanes 2 --seed 3

``gen`` writes a validated ``repro.workloads/1`` JSONL trace; ``replay``
validates the file, then replays it on each requested backend (sharded
across processes with ``--workers``, results merged in roster order)
and prints throughput plus the per-tenant QoS table.  Replay is
deterministic: the same trace, backend and seed yield byte-identical
virtual metrics and tenant counters on every run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..backends import pool_error
from ..bench.reporting import si
from ..cliargs import int_at_least, workers_arg
from ..par.pool import map_sharded
from . import families
from .replay import ReplayReport, replay
from .trace import TraceError, dump, load, validate


def _parse_param(raw: str):
    """``key=value`` -> (key, typed value).

    Comma-separated integers become a tuple (size classes); otherwise
    int, then float, then bare string.
    """
    if "=" not in raw:
        raise argparse.ArgumentTypeError(
            f"--param wants key=value (got {raw!r})")
    key, value = raw.split("=", 1)
    if "," in value:
        try:
            return key, tuple(int(v) for v in value.split(",") if v)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--param {key}: comma lists must be integers (got {value!r})")
    for cast in (int, float):
        try:
            return key, cast(value)
        except ValueError:
            continue
    return key, value


def _cmd_list(args) -> int:
    for name in sorted(families.FAMILIES):
        fam = families.FAMILIES[name]
        print(f"{name}")
        print(f"  {fam.description}")
        for key in sorted(fam.defaults):
            print(f"    --param {key}={fam.defaults[key]!r}")
    return 0


def _cmd_gen(args) -> int:
    params = dict(p for p in (args.param or []))
    try:
        trace = families.generate(args.family, args.seed, **params)
    except (KeyError, ValueError, TraceError) as e:
        print(f"workloads gen: {e}", file=sys.stderr)
        return 2
    summary = validate(trace)
    dump(trace, args.out)
    print(f"wrote {args.out}: family {trace.family}, seed {trace.seed}, "
          f"{summary['events']} events ({summary['mallocs']} mallocs / "
          f"{summary['frees']} frees) across {trace.tenants} tenant(s), "
          f"{summary['duration']} virtual cycles")
    if summary["live_at_end"]:
        print(f"note: {summary['live_at_end']} allocation(s) never freed — "
              "replays of this trace end with memory still handed out")
    return 0


def _replay_one(job) -> ReplayReport:
    """Module-level shard worker: (path, backend, seed, lanes, pool)."""
    path, backend, seed, lanes, pool = job
    return replay(load(path), backend=backend, seed=seed,
                  lanes_per_tenant=lanes, pool=pool)


def _cmd_replay(args) -> int:
    try:
        trace = load(args.trace)
    except TraceError as e:
        print(f"workloads replay: {e}", file=sys.stderr)
        return 2
    summary = validate(trace)
    roster = args.backend or ["ours"]
    for backend in roster:
        why = pool_error(backend, args.pool)
        if why is not None:
            print(f"workloads replay: argument --pool: {why}",
                  file=sys.stderr)
            return 2
    print(f"replaying {args.trace}: {summary['events']} events, "
          f"{trace.tenants} tenant(s), lanes/tenant {args.lanes}, "
          f"seed {args.seed}, backend(s): {', '.join(roster)}")
    jobs = [(args.trace, b, args.seed, args.lanes, args.pool)
            for b in roster]
    t0 = time.time()
    reports = map_sharded(_replay_one, jobs, workers=args.workers,
                          log=print, label=lambda j: j[1])
    for rep in reports:
        totals = rep.totals
        print(f"\n== {rep.backend} ==")
        print(f"  {si(rep.ops_per_s)} ops/s over {rep.cycles} virtual "
              f"cycles; overall failure rate {totals.failure_rate:.1%}, "
              f"fairness {rep.fairness():.3f}")
        print("  " + rep.table().replace("\n", "\n  "))
    print(f"\n({time.time() - t0:.1f}s wall)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro workloads",
        description="Workload zoo: generate parameterized allocation "
                    "traces and replay them against registered backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="registered workload families "
                                         "and their parameters")
    p_list.set_defaults(func=_cmd_list)

    p_gen = sub.add_parser("gen", help="generate a trace file from a family")
    p_gen.add_argument("--family", required=True,
                       choices=sorted(families.FAMILIES),
                       help="workload family to generate from")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="generator seed (default 0)")
    p_gen.add_argument("--out", required=True, metavar="PATH",
                       help="output trace path (JSONL)")
    p_gen.add_argument("--param", action="append", type=_parse_param,
                       metavar="KEY=VALUE",
                       help="override a family parameter (repeatable; "
                            "see `workloads list`)")
    p_gen.set_defaults(func=_cmd_gen)

    p_rep = sub.add_parser("replay", help="replay a trace against "
                                          "backend(s)")
    p_rep.add_argument("trace", metavar="TRACE", help="trace file to replay")
    p_rep.add_argument("--backend", action="append", metavar="NAME",
                       default=None,
                       help="backend to drive (repeatable; registry names "
                            "from `python -m repro backends list`; "
                            "default: ours)")
    p_rep.add_argument("--seed", type=int, default=0,
                       help="scheduler seed (default 0)")
    p_rep.add_argument("--lanes", type=int_at_least(1), default=1, metavar="N",
                       help="simulated lanes per tenant (default 1)")
    p_rep.add_argument("--pool", type=int_at_least(1), default=1 << 20,
                       metavar="BYTES",
                       help="backend heap size (default 1 MiB)")
    p_rep.add_argument("--workers", type=workers_arg, default=1, metavar="N",
                       help="shard the backend roster across N processes "
                            "(0 = one per CPU; default 1 = serial)")
    p_rep.set_defaults(func=_cmd_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
