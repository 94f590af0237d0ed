"""``python -m repro serve`` — run, benchmark and record the service.

Usage::

    python -m repro serve run --backend ours --quota 65536
        # long-lived service on an ephemeral loopback port (prints the
        # address); Ctrl-C to stop and print the final snapshot

    python -m repro serve bench --backend ours --backend cuda \\
        --events 150 --reconcile
        # per backend: boot an in-process server, replay a generated
        # (or --trace) workload through the socket load generator, and
        # check client ledgers against the server snapshot; with
        # --reconcile also against a direct `workloads replay` of the
        # same trace.  Exit nonzero on any protocol error or mismatch —
        # this is the CI serve-smoke gate.

    python -m repro serve record --out served.jsonl --events 160
        # drive a generated workload through the deterministic feeder
        # with a TraceRecorder attached: the served session itself
        # becomes a replayable workload-zoo trace (this is how the
        # bundled serve_small.jsonl fixture was produced)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..backends import pool_error
from ..bench.reporting import si
from ..cliargs import backend_arg, int_at_least, positive_float
from ..workloads import families, replay as direct_replay
from ..workloads.trace import TraceError, TraceRecorder, dump, load, validate
from . import bench, loadgen
from .engine import ServeEngine
from .server import BATCH_MAX, ServeServer


def _build_trace(args):
    """Trace from --trace PATH, else generated from the family knobs."""
    if args.trace is not None:
        return load(args.trace)
    return families.generate(args.family, args.seed,
                             events=args.events, tenants=args.tenants)


def _cmd_run(args) -> int:
    engine = ServeEngine(backend=args.backend, pool=args.pool,
                         seed=args.seed, quota_bytes=args.quota)
    server = ServeServer(engine, host=args.host, port=args.port,
                         batch_max=args.batch_max)
    host, port = server.start()
    quota = "unlimited" if args.quota is None else si(args.quota) + "B"
    print(f"serving backend {engine.backend_name!r} on {host}:{port} "
          f"(quota/tenant {quota}, batch_max {args.batch_max}); "
          "Ctrl-C to stop")
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    if server.error is not None:
        print(f"serve run: the event loop died: {server.error!r}",
              file=sys.stderr)
        return 1
    snap = engine.snapshot()
    print(f"\nserved {snap['requests']} request(s) in {snap['episodes']} "
          f"episode(s), {snap['cycles']} virtual cycles; "
          f"protocol errors {server.protocol_errors}")
    return 0


#: the ledger fields the server sees: a free the client skips after a
#: failed malloc never reaches it, so only the client (and a direct
#: replay) counts ``n_free_skipped``
SERVER_FIELDS = ("n_malloc", "n_malloc_failed", "n_free",
                 "bytes_requested", "bytes_served")
REPLAY_FIELDS = ("n_malloc", "n_malloc_failed", "n_free", "n_free_skipped",
                 "bytes_requested", "bytes_served")


def _check_ledgers(label: str, report: loadgen.LoadReport, ledgers,
                   fields) -> List[str]:
    """Client ledgers vs reference ``ledgers`` (tenant -> stats), field
    by field."""
    problems: List[str] = []
    for t in sorted(set(report.tenants) | set(ledgers)):
        client = report.tenants.get(t)
        want = ledgers.get(t)
        if client is None or want is None:
            problems.append(f"  MISMATCH tenant {t} present on only one side")
            continue
        for f in fields:
            got, ref = getattr(client, f), getattr(want, f)
            if got != ref:
                problems.append(
                    f"  MISMATCH [{label}] tenant {t} {f}: {got} != {ref}")
    return problems


def _cmd_bench(args) -> int:
    try:
        trace = _build_trace(args)
    except (KeyError, ValueError, TraceError) as e:
        print(f"serve bench: {e}", file=sys.stderr)
        return 2
    summary = validate(trace)
    roster = args.backend or ["ours"]
    print(f"serve bench: {summary['events']} events, {trace.tenants} "
          f"tenant(s), seed {args.seed}, backend(s): {', '.join(roster)}")
    failures = 0
    for backend in roster:
        engine = ServeEngine(backend=backend, pool=args.pool,
                             seed=args.seed, quota_bytes=args.quota)
        server = ServeServer(engine, batch_max=args.batch_max)
        t0 = time.time()
        with server as (host, port):
            report = loadgen.run(trace, host, port,
                                 cycles_per_second=args.cps)
        wall = time.time() - t0
        totals = report.totals()
        print(f"\n== {engine.backend_name} ==")
        print(f"  {report.sessions} session(s), "
              f"{totals.n_malloc + totals.n_free} request(s) in "
              f"{engine.episodes} episode(s); {engine.sched.now} virtual "
              f"cycles, {wall:.2f}s wall")
        print(f"  latency p50/p99: {engine.latency_percentile(50)}/"
              f"{engine.latency_percentile(99)} cycles; causes "
              f"{dict(sorted(engine.causes.items())) or '{}'}")
        problems = _check_ledgers("server", report, engine.stats,
                                  SERVER_FIELDS)
        if args.reconcile:
            ref = direct_replay(trace, backend=backend, seed=args.seed,
                                pool=args.pool)
            problems += _check_ledgers("replay", report, ref.tenants,
                                       REPLAY_FIELDS)
        if server.protocol_errors:
            problems.append(
                f"  {server.protocol_errors} protocol error(s) on the wire")
        if problems:
            failures += 1
            print("  FAIL")
            print("\n".join(problems))
        else:
            checked = "server snapshot" + (
                " + direct replay" if args.reconcile else "")
            print(f"  OK — ledgers reconcile with {checked}, "
                  "0 protocol errors")
    return 1 if failures else 0


def _cmd_record(args) -> int:
    try:
        source = _build_trace(args)
    except (KeyError, ValueError, TraceError) as e:
        print(f"serve record: {e}", file=sys.stderr)
        return 2
    recorder = TraceRecorder(
        "served_session", args.seed, source.tenants,
        {"source_family": args.family, "source_seed": args.seed,
         "events": args.events, "tenants": args.tenants,
         "backend": args.backend, "batch_max": args.batch_max,
         "pool": args.pool},
    )
    engine = ServeEngine(backend=args.backend, pool=args.pool,
                         seed=args.seed, quota_bytes=args.quota,
                         recorder=recorder)
    fed = bench.feed_trace(engine, source, batch_max=args.batch_max)
    served = recorder.trace()
    summary = validate(served)
    dump(served, args.out)
    print(f"wrote {args.out}: served session of {summary['events']} "
          f"event(s) ({summary['mallocs']} mallocs / {summary['frees']} "
          f"frees) across {served.tenants} tenant(s), {fed.episodes} "
          f"episode(s), {summary['duration']} virtual cycles")
    if engine.causes:
        print(f"note: {dict(sorted(engine.causes.items()))} — failed "
              "requests are absent from the recorded trace")
    return 0


def _port(raw: str) -> int:
    """``type=`` of ``--port``: a TCP port, 0..65535 (0 = ephemeral)."""
    value = int_at_least(0)(raw)
    if value > 65535:
        raise argparse.ArgumentTypeError(f"must be <= 65535 (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Allocator-as-a-service front end: admission control "
                    "+ episode batching over any registered backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p, *, single_backend: bool) -> None:
        if single_backend:
            p.add_argument("--backend", type=backend_arg, default="ours",
                           metavar="NAME",
                           help="backend to serve (default: ours)")
        else:
            p.add_argument("--backend", action="append", type=backend_arg,
                           metavar="NAME", default=None,
                           help="backend(s) to bench (repeatable; "
                                "default: ours)")
        p.add_argument("--pool", type=int_at_least(1), default=1 << 20,
                       metavar="BYTES",
                       help="backend heap size (default 1 MiB)")
        p.add_argument("--seed", type=int, default=0,
                       help="scheduler/generator seed (default 0)")
        p.add_argument("--quota", type=int_at_least(0), default=None,
                       metavar="BYTES",
                       help="per-tenant outstanding-byte quota "
                            "(default: unlimited)")
        p.add_argument("--batch-max", type=int_at_least(1),
                       default=BATCH_MAX, metavar="N",
                       help=f"max requests per episode (default {BATCH_MAX})")

    def _traffic(p) -> None:
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="replay this workload-zoo trace instead of "
                            "generating one")
        p.add_argument("--family", default="multi_tenant_zipf",
                       choices=sorted(families.FAMILIES),
                       help="family to generate traffic from "
                            "(default multi_tenant_zipf)")
        p.add_argument("--events", type=int_at_least(1), default=200,
                       metavar="N",
                       help="generated trace length (default 200)")
        p.add_argument("--tenants", type=int_at_least(1), default=4,
                       metavar="N",
                       help="generated tenant count (default 4)")

    p_run = sub.add_parser("run", help="serve a backend over TCP until "
                                       "interrupted")
    _common(p_run, single_backend=True)
    p_run.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_run.add_argument("--port", type=_port, default=0,
                       help="bind port (default 0 = ephemeral)")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="socket load generation + "
                                           "ledger reconciliation")
    _common(p_bench, single_backend=False)
    _traffic(p_bench)
    p_bench.add_argument("--cps", type=positive_float, default=None,
                         metavar="CYCLES_PER_SEC",
                         help="pace sends: virtual-cycle gaps become "
                              "wall-clock gaps at this rate "
                              "(default: flat out)")
    p_bench.add_argument("--reconcile", action="store_true",
                         help="also check ledgers against a direct "
                              "(non-service) replay of the trace")
    p_bench.set_defaults(func=_cmd_bench)

    p_rec = sub.add_parser("record", help="record a served session as a "
                                          "workload-zoo trace")
    _common(p_rec, single_backend=True)
    _traffic(p_rec)
    p_rec.add_argument("--out", required=True, metavar="PATH",
                       help="output trace path (JSONL)")
    p_rec.set_defaults(func=_cmd_record)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    roster = ([args.backend] if isinstance(args.backend, str)
              else args.backend or ["ours"])
    for backend in roster:
        why = pool_error(backend, args.pool)
        if why is not None:
            print(f"serve {args.command}: argument --pool: {why}",
                  file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
