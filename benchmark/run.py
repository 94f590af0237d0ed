#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 benchmark/run.py                        # all four workloads
    python3 benchmark/run.py --workload alloc_churn --seed 3
    python3 benchmark/run.py --workload serve_socket --trace 1
    python3 benchmark/run.py --workload sync_cohort --repeat 10

Each run prints every metric by name with its unit, checks the
program's outputs, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or
its ``per_layer`` metrics (``--trace 1``).  The exit code is nonzero when
any check fails.  Work per run is a fixed number of passes or requests
derived from ``--seconds``, so two commits measured with the same
arguments do identical work.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("alloc_churn", "sync_cohort", "serve_socket", "verify_explore")
DECK_PARTS = ("fig7", "shootout", "ablation_buddy", "fig5", "fig6",
              "lockstep", "ablation_collective")
#: host seconds a deck or explore pass takes at the seed state on a
#: 2-vCPU virtual machine, reference kernel runs included; turns
#: ``--seconds`` into a fixed pass count
NOMINAL_PASS_S = 3.0
#: closed-loop requests per second at the seed state, same purpose
NOMINAL_SERVE_RPS = 12000.0
#: closed-loop rounds per serve measurement chunk
CHUNK_ROUNDS = 3
COLD_STARTS = 5


def _bootstrap() -> None:
    """Put the checkout's ``src`` first on the path; outside a checkout
    there is nothing to measure."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: {src}/repro not found; run from a checkout")
    sys.path.insert(0, str(src))


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def pct(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def iqr_frac(values: List[float]) -> float:
    """Quartile distance over the median, with the default method of
    ``statistics.quantiles``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


class Result:
    """One workload run: checks, metrics and the human report."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.checks: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.lines: List[str] = []
        self.layers: dict = {"workload": workload}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0

    def say(self, line: str) -> None:
        self.lines.append(line)


# ----------------------------------------------------------------------
# set-up time: fresh interpreters importing the workload and building
# its inputs
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int, smoke: bool) -> None:
    import passes

    if workload in passes.DECKS:
        passes.DECKS[workload][0](seed, smoke)
    else:
        passes.prepare_explore(seed, smoke)
    print("ready", flush=True)


def cold_starts(workload: str, seed: int, smoke: bool) -> List[float]:
    """Seconds of each cold start, at nominal host speed."""
    import reference

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    times, refs = [], [reference.seconds()]
    for _ in range(COLD_STARTS):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        line = proc.stdout.readline()
        times.append(perf_counter() - t0)
        proc.communicate(timeout=60)
        refs.append(reference.seconds())
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed for {workload}")
    return [reference.scaled([t], refs[i:i + 2])
            for i, t in enumerate(times)]


# ----------------------------------------------------------------------
# per-layer rows shared by every workload
# ----------------------------------------------------------------------
def _span_names() -> List[str]:
    import layers

    names = [n for n, *_ in layers.SYNC_SPANS + layers.CORE_SPANS]
    return names + [f"backends.{b}.malloc" for b in layers.BACKENDS]


def device_rows(spans, host_s: float, scale: float) -> Dict[str, float]:
    """calls (per pass), self-time share and virtual cycles per span."""
    import layers

    out = {}
    for name in _span_names():
        s = spans.get(name) or layers.Span()
        out[f"{name}.calls"] = s.calls * scale
        out[f"{name}.self_pct"] = 100.0 * s.self_s / host_s
        out[f"{name}.vcycles_mean"] = s.vcycles_mean
        if name in layers.FAILABLE:
            out[f"{name}.failed"] = s.failed * scale
    return out


def zero_rows(prefixes) -> Dict[str, float]:
    """Rows of a layer this workload never enters."""
    spec = _spec()
    return {m["name"]: 0.0 for m in spec["per_layer"]
            if m["name"].startswith(tuple(prefixes))}


def span_table(spans) -> List[str]:
    rows = [f"  {'span':<38} {'calls':>9} {'total_s':>9} {'self_s':>9} "
            f"{'vcycles':>9} {'failed':>6}"]
    for name in sorted(spans):
        s = spans[name]
        rows.append(f"  {name:<38} {s.calls:>9} {s.total_s:>9.4f} "
                    f"{s.self_s:>9.4f} {s.vcycles_mean:>9.1f} {s.failed:>6}")
    return rows


# ----------------------------------------------------------------------
# pass-based workloads: alloc_churn, sync_cohort, verify_explore
# ----------------------------------------------------------------------
def pass_seed(seed: int, i: int) -> int:
    """Seed of pass ``i``: every pass of a run simulates other inputs, so
    a run's medians average over inputs instead of resting on one."""
    return seed * 100 + i


def _run_pass(workload: str, seed: int, smoke: bool, level: str):
    import layers
    import passes
    import reference

    if workload in passes.DECKS:
        make_parts, judge = passes.DECKS[workload]
        parts = make_parts(seed, smoke)
        run = lambda: passes.run_deck_pass(  # noqa: E731
            parts, judge, reference.seconds)
    else:
        run = lambda: passes.run_explore_pass(  # noqa: E731
            seed, smoke, reference.seconds)
    rec = layers.Recorder()
    # garbage of the previous pass is collected here, not inside this one
    gc.collect()
    with layers.instrument(rec, level):
        res = run()
    res.spans = rec.export()
    return res


def _identity(res) -> Optional[tuple]:
    """The pass's virtual metrics plus its event and cycle counts."""
    if res.virtual is None:
        return None
    counts = res.spans["counts"]
    return (tuple(sorted(res.virtual.items())), counts.get("sim.events"),
            counts.get("sim.cycles"))


def run_pass_workload(workload: str, seed: int, seconds: int, trace: bool,
                      smoke: bool) -> Result:
    import layers
    import passes

    r = Result(workload)
    procs = passes.EXPLORE_WORKERS if workload == "verify_explore" else 1
    n = 2 if smoke else max(3, round(seconds / NOMINAL_PASS_S))
    if not trace:
        starts = cold_starts(workload, pass_seed(seed, 0), smoke)
        r.metrics["setup_s"] = statistics.median(starts)
    # a smoke-size warm-up runs the lazy set-up of every code path; the
    # last timed pass repeats pass 0's inputs, which pins determinism
    warm = _run_pass(workload, pass_seed(seed, 0), True, "run")
    seeds = [pass_seed(seed, i) for i in range(n - 1)] + [pass_seed(seed, 0)]
    timed = [_run_pass(workload, s, smoke, "run") for s in seeds]
    for p in [warm] + timed:
        for name, ok in p.checks.items():
            r.check(name, ok)
        r.attempted += p.attempted
        r.failed += p.failed
    ident = _identity(timed[0])
    r.check("virtual.repeats_exactly",
            ident is not None and _identity(timed[-1]) == ident)
    r.attempted += 1

    scaled = [p.scaled_s for p in timed]
    events = [p.spans["counts"].get("sim.events", 0) for p in timed]
    if procs > 1:
        # the latency a user waits for: one explore case, scaled like
        # the pass that ran it
        items = [x * p.scaled_s / p.wall_s for p in timed
                 for x in p.spans["samples"].get("par.item", [])]
    else:
        # a deck user waits for the whole pass (a deck's Scheduler.run
        # calls are too unlike for their median to hold still: it hops
        # between two backends' runs from seed to seed)
        items = scaled
    r.metrics.update({
        "pass_s": statistics.median(scaled),
        "rate_per_s": statistics.median(
            e / s for e, s in zip(events, scaled)),
        "p50_ms": 1e3 * statistics.median(items)})
    r.say(f"  {n} timed passes (seeds " + ", ".join(map(str, seeds))
          + ") after a smoke-size warm-up")
    r.say("  walls  " + " ".join(f"{p.wall_s:.3f}" for p in timed) + " s")
    r.say("  scaled " + " ".join(f"{s:.3f}" for s in scaled)
          + " s at nominal host speed")
    r.say("  reference kernel " + " ".join(
        f"{1e3 * statistics.median(p.refs):.0f}" for p in timed)
        + " ms (median per pass)")
    r.say(f"  rate_per_s counts simulated events per scaled second; p50 "
          f"over {len(items)} "
          + ("explore cases (p90 "
             f"{1e3 * pct(items, 90):.1f} ms)" if procs > 1 else "passes"))
    virtual = timed[0].virtual or {}
    for name, value in sorted(virtual.items()):
        r.say(f"  virt.{name} = {value:.6g}")
    r.say(f"  virt.events = {events[0]}  virt.cycles = "
          f"{timed[0].spans['counts'].get('sim.cycles', 0)}  "
          f"(seed {pass_seed(seed, 0)})")

    if not trace:
        return r

    untraced = []
    for p in timed:
        run_span = p.spans["spans"].get("sim.run", [0, 0.0])
        map_span = p.spans["spans"].get("par.map_sharded", [0, 0.0])
        counts = p.spans["counts"]
        untraced.append({
            "wall": p.wall_s, "run_calls": run_span[0],
            "run_s": run_span[1], "events": counts.get("sim.events", 0),
            "cycles": counts.get("sim.cycles", 0),
            "traced": counts.get("sim.traced_events", 0),
            "items": counts.get("par.items", 0),
            "map_calls": map_span[0], "map_s": map_span[1],
            "item_s": sum(p.spans["samples"].get("par.item", [])),
            "parts": p.parts})
    med = lambda f: statistics.median(f(u) for u in untraced)  # noqa: E731
    traced = _run_pass(workload, pass_seed(seed, 0), smoke, "full")
    for name, ok in traced.checks.items():
        r.check(name, ok)
    r.check("trace.virtual_matches_untraced", _identity(traced) == ident)
    r.attempted += traced.attempted + 1
    r.failed += traced.failed
    spans = layers.spans_of(traced.spans)
    m = zero_rows(("serve.", "loadgen."))
    m.update({
        "sim.run.calls": med(lambda u: u["run_calls"]),
        "sim.run.pct": med(lambda u: 100 * u["run_s"] / (u["wall"] * procs)),
        "sim.events": med(lambda u: u["events"]),
        "sim.ns_per_event": med(lambda u: 1e9 * u["run_s"] / u["events"]),
        "sim.cycles": med(lambda u: u["cycles"]),
        "sim.traced_pct": med(lambda u: 100 * u["traced"] / u["events"]),
        "bench.harness_s": med(lambda u: u["wall"] - u["run_s"] / procs),
    })
    for part in DECK_PARTS:
        m[f"bench.{part}.pct"] = med(
            lambda u: 100 * u["parts"].get(part, 0.0) / u["wall"])
    m.update(device_rows(spans, traced.wall_s * procs, 1.0))
    case = spans.get("verify.run_case") or layers.Span()
    checker = spans.get("verify.checker") or layers.Span()
    m.update({
        "verify.run_case.calls": case.calls,
        "verify.checker.self_pct":
            100 * checker.self_s / (traced.wall_s * procs),
        "par.map_sharded.calls": med(lambda u: u["map_calls"]),
        "par.items": med(lambda u: u["items"]),
        "par.overhead_pct": med(
            lambda u: 100 * (u["map_s"] - u["item_s"] / procs) / u["map_s"]
            if u["map_s"] else 0.0),
        # the same inputs untraced: pass 0
        "trace.overhead_ratio": traced.scaled_s / timed[0].scaled_s,
        "virt.alloc_ops_per_s": virtual.get("alloc_ops_per_s", 0.0),
        "virt.speedup_gmean": virtual.get("speedup_gmean", 0.0),
        "virt.schedules": virtual.get("schedules", 0),
    })
    r.metrics = m
    names = list(timed[0].parts)
    r.say("  untraced passes, host seconds: wall = parts = Scheduler.run "
          "+ harness")
    r.say("  " + " ".join(f"{k:>10.10}" for k in
                          ["wall", *names, "sim.run", "harness"]))
    for u in untraced:
        row = [u["wall"], *(u["parts"][k] for k in names),
               u["run_s"] / procs, u["wall"] - u["run_s"] / procs]
        r.say("  " + " ".join(f"{x:>10.3f}" for x in row))
    r.say(f"  traced pass {traced.wall_s:.3f}s:")
    r.lines += span_table(spans)
    r.layers.update({
        "untraced": untraced,
        "traced": {"wall_s": traced.wall_s, "parts": traced.parts,
                   "data": traced.spans}})
    return r


# ----------------------------------------------------------------------
# serve_socket
# ----------------------------------------------------------------------
def _serve_session(r: Result, server, client, seed: int, phases):
    """Run ``phases`` (``(kind, requests, name)``) on one server, check
    its ledger, stop it.  Returns ``({name: Phase}, session seconds)``,
    or ``(None, 0)`` when the session broke."""
    import reference
    import serve

    stream = serve.Stream(serve.make_trace(seed))
    out = {}
    session_s = 0.0
    try:
        for kind, n, name in phases:
            ref0, cpu0, t0 = (reference.seconds(), server.cpu_s(),
                              perf_counter())
            phase = out[name] = (
                client.open_loop(stream, n, serve.RATE, name)
                if kind == "open" else
                client.closed_loop(stream, n, serve.INFLIGHT, name))
            session_s += perf_counter() - t0
            phase.server_cpu_s = server.cpu_s() - cpu0
            phase.refs = [ref0, reference.seconds()]
        snap = client.stats()
        r.check("serve.stats_request_count_matches_client",
                snap.get("requests") == client.sent)
    except (TimeoutError, ConnectionError, OSError) as exc:
        r.check(f"serve.session_completed ({type(exc).__name__}: {exc})",
                False)
        out, session_s = None, 0.0
    finally:
        client.close()
        server.stop()
    r.attempted += client.sent + client.skipped
    r.failed += client.declined + client.errors + len(client.inflight)
    r.check("serve.zero_protocol_errors_or_malformed_replies",
            client.errors == 0)
    r.check("serve.zero_declined_requests", client.declined == 0)
    return out, session_s


def run_serve(seed: int, seconds: int, trace: bool, smoke: bool) -> Result:
    """Every server gets closed-loop rounds after a closed-loop warm-up
    (a fresh server runs its first rounds slow); the last one also runs
    the open loop first.  The measured rounds run in chunks with the
    reference kernel timed between them, so each chunk's server CPU is
    scaled by the host speed of its own seconds; the median over the
    chunks of five cold-started servers averages out what differs
    between server processes."""
    import layers
    import reference
    import serve

    r = Result("serve_socket")
    OUT.mkdir(exist_ok=True)
    log = OUT / "serve-stderr.log"
    size = 256 if smoke else serve.ROUND
    warm_rounds = 1 if smoke else 3
    n_open = 400 if smoke else int(serve.RATE * seconds / 2)
    servers = 1 if trace else COLD_STARTS
    rounds = 2 if smoke else -(-round(
        NOMINAL_SERVE_RPS * seconds / 2 / size) // servers)
    chunks = -(-(rounds + 1) // CHUNK_ROUNDS)
    closed = [("closed", warm_rounds * size, "closed-warmup")] + [
        ("closed", CHUNK_ROUNDS * size, f"closed-{j}") for j in range(chunks)]
    opening = [("open", 200 if smoke else int(serve.RATE), "open-warmup"),
               ("open", n_open, "open")]

    level = "run" if trace else None
    dump = OUT / f"serve-run-{seed}.json"
    boots, walls, costs = [], [], []
    for i in range(servers):
        ref0, t0 = reference.seconds(), perf_counter()
        server = serve.Server(ROOT, seed, log, level=level, dump=dump)
        client = serve.Client(server.address)
        boots.append(reference.scaled([perf_counter() - t0],
                                      [ref0, reference.seconds()]))
        last = i == servers - 1
        out, session_s = _serve_session(r, server, client, seed,
                                        opening + closed if last else closed)
        if out is None:
            return r
        for j in range(chunks):
            phase = out[f"closed-{j}"]
            walls += serve.round_walls(phase, size)
            costs.append(reference.scaled(
                [phase.server_cpu_s / CHUNK_ROUNDS], phase.refs))
    r.check("serve.closed_loop_rounds", len(walls) > 0)
    r.check("serve.server_cpu_measured", min(costs) > 0)
    if not trace:
        r.metrics["setup_s"] = statistics.median(boots)
    open_ = out["open"]
    late = [x * 1e3 for x in open_.late]
    late_p50, late_p99 = pct(late, 50), pct(late, 99)
    r.check(f"loadgen.late_p50_ms <= {serve.LATE_P50_LIMIT_S * 1e3:g}",
            late_p50 <= serve.LATE_P50_LIMIT_S * 1e3)
    r.check(f"loadgen.late_p99_ms <= {serve.LATE_P99_LIMIT_S * 1e3:g}",
            late_p99 <= serve.LATE_P99_LIMIT_S * 1e3)
    lat = [x for x, _ in open_.latencies]
    # the server's CPU per round, not the round's wall: at saturation the
    # two differ by the host's scheduling of the server's and the client's
    # threads, which moved the round wall more than the CPU
    pass_s = statistics.median(costs)
    round_s = statistics.median(walls)
    r.metrics.update({
        "pass_s": pass_s, "rate_per_s": size / pass_s,
        "p50_ms": 1e3 * pct(lat, 50)})
    r.say(f"  open loop {n_open} requests at {serve.RATE:g}/s: latency "
          f"p50 {1e3 * pct(lat, 50):.2f} ms, p90 {1e3 * pct(lat, 90):.2f} "
          f"ms, p99 {1e3 * pct(lat, 99):.2f} ms ({len(lat)} samples)")
    r.say(f"  generator lateness p50 {late_p50:.3f} ms, p99 "
          f"{late_p99:.3f} ms, max "
          f"{max(late):.3f} ms; in flight max {open_.inflight_max}")
    r.say(f"  closed loop, {serve.INFLIGHT} in flight, on {servers} "
          f"server(s): {len(walls)} rounds of {size} after "
          f"{warm_rounds} warm-up rounds each; median wall {round_s:.4f} s "
          f"= {size / round_s:.0f} req/s")
    r.say(f"  server CPU per round at nominal host speed, {chunks} chunks "
          f"of {CHUNK_ROUNDS} rounds per server: "
          + " ".join(f"{c:.4f}" for c in costs) + " s")
    if not trace:
        return r

    with open(dump) as f:
        untraced = json.load(f)
    dump_full = OUT / f"serve-full-{seed}.json"
    server = serve.Server(ROOT, seed, log, level="full", dump=dump_full)
    client = serve.Client(server.address)
    traced_rounds = 2 if smoke else 4
    tout, traced_s = _serve_session(
        r, server, client, seed,
        [closed[0], ("closed", (traced_rounds + 1) * size, "closed")])
    if tout is None:
        return r
    twalls = serve.round_walls(tout["closed"], size)
    with open(dump_full) as f:
        full = json.load(f)

    spans_u = layers.spans_of(untraced)
    spans_f = layers.spans_of(full)
    counts = untraced["counts"]
    requests = counts.get("serve.requests", 0)
    per_pass = size / requests
    run_u = spans_u.get("sim.run") or layers.Span()
    exec_by_ep = dict(untraced["samples"].get("serve.exec", []))
    waits, execs = [], []
    for latency, episode in open_.latencies:
        e = exec_by_ep.get(episode, 0.0)
        execs.append(e)
        waits.append(latency - e)
    m = zero_rows(("bench.", "verify.", "par.", "virt."))
    m.update({
        "sim.run.calls": run_u.calls * per_pass,
        "sim.run.pct": 100 * run_u.total_s / session_s,
        "sim.events": counts.get("sim.events", 0) * per_pass,
        "sim.ns_per_event": 1e9 * run_u.total_s / counts["sim.events"],
        "sim.cycles": counts.get("sim.cycles", 0) * per_pass,
        "sim.traced_pct": 100 * counts.get("sim.traced_events", 0)
        / counts["sim.events"],
        "bench.harness_s": (session_s - run_u.total_s) * per_pass,
    })
    full_requests = full["counts"].get("serve.requests", 1)
    m.update(device_rows(spans_f, traced_s, size / full_requests))
    submit_u = spans_u.get("serve.submit") or layers.Span()
    submit_f = spans_f.get("serve.submit") or layers.Span()
    adm = spans_f.get("serve.admission") or layers.Span()
    proto = spans_f.get("serve.protocol") or layers.Span()
    fscale = size / full_requests
    m.update({
        "serve.episodes": len(exec_by_ep) * per_pass,
        "serve.batch_mean": requests / submit_u.calls,
        "serve.submit.self_pct": 100 * submit_f.self_s / traced_s,
        "serve.exec_pct": 100 * sum(execs) / sum(lat),
        "serve.admission.calls": adm.calls * fscale,
        "serve.admission.self_pct": 100 * adm.self_s / traced_s,
        "serve.admission.rejects":
            full["counts"].get("serve.admission.rejects", 0) * fscale,
        "serve.protocol.calls": proto.calls * fscale,
        "serve.protocol.self_pct": 100 * proto.self_s / traced_s,
        "loadgen.inflight_max": open_.inflight_max,
        "trace.overhead_ratio": statistics.median(twalls) / round_s,
    })
    r.metrics = m
    r.say(f"  wait ms p50 {1e3 * pct(waits, 50):.2f} p99 "
          f"{1e3 * pct(waits, 99):.2f}; exec ms p50 "
          f"{1e3 * pct(execs, 50):.2f} p99 {1e3 * pct(execs, 99):.2f}")
    r.say(f"  traced closed loop: round median "
          f"{statistics.median(twalls):.4f} s:")
    r.lines += span_table(spans_f)
    r.layers.update({"untraced": untraced, "traced": full,
                     "session_s": session_s, "traced_s": traced_s})
    return r


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def run_workload(workload: str, args) -> Result:
    if workload == "serve_socket":
        return run_serve(args.seed, args.seconds, args.trace, args.smoke)
    return run_pass_workload(workload, args.seed, args.seconds, args.trace,
                             args.smoke)


def emit(r: Result, trace: bool) -> dict:
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    complete = True
    for m in wanted:
        if m["name"] not in r.metrics:
            complete = False
            continue
        metrics[m["name"]] = {"value": r.metrics[m["name"]],
                              "unit": m["unit"]}
    r.check("all metrics measured", complete)
    print(f"== {r.workload} ==")
    for line in r.lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, ok in r.checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    if trace:
        OUT.mkdir(exist_ok=True)
        r.layers["metrics"] = r.metrics
        with open(OUT / f"layers-{r.workload}.json", "w") as f:
            json.dump(r.layers, f, indent=1, default=str)
    return {"correct": r.correct, "attempted": max(1, r.attempted),
            "failed": r.failed, "metrics": metrics}


def repeat(args) -> int:
    """Run each workload ``--repeat`` times, seeds S, S+1, ..., as fresh
    processes; report each metric's median and quartile spread, and flag
    a spread wider than the metric's bound."""
    spec = _spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    summary = {}
    for workload in ([args.workload] if args.workload else WORKLOADS):
        runs = []
        for i in range(args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(args.trace))]
            if args.smoke:
                cmd.append("--smoke")
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=900)
            last = (out.stdout.strip().splitlines() or ["{}"])[-1]
            res = json.loads(last) if last.startswith("{") else {}
            if out.returncode != 0 or not res.get("correct", False):
                ok = False
                print(f"  seed {args.seed + i}: exit {out.returncode}")
                for line in (out.stdout + out.stderr).splitlines():
                    if "FAIL" in line or "Error" in line:
                        print("   " + line)
            runs.append(res.get("metrics", {}))
        print(f"== {workload}: {args.repeat} runs ==")
        rows = summary[workload] = {}
        for m in declared:
            name, bound = m["name"], m.get("bound")
            values = [run[name]["value"] for run in runs if name in run]
            if not values:
                continue
            med = statistics.median(values)
            spread = iqr_frac(values) if len(values) > 1 else 0.0
            flag = (" SPREAD>BOUND" if bound is not None and spread > bound
                    else "")
            rows[name] = {"median": med, "iqr_frac": spread,
                          "bound": bound, "values": values}
            print(f"  {name:<40} median {med:<12.6g} iqr/median "
                  f"{spread:7.2%}" + (f"  bound {bound:.0%}" if bound
                                      else "") + flag)
    print(json.dumps({"correct": ok, "repeat": args.repeat,
                      "summary": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="target measured seconds per run; sets the "
                             "fixed pass and request counts")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N runs per workload; median and IQR per metric")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0
    if args.repeat:
        return repeat(args)
    results = {}
    for workload in ([args.workload] if args.workload else WORKLOADS):
        results[workload] = emit(run_workload(workload, args), args.trace)
    if args.workload:
        line = results[args.workload]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
