"""Structured tracing and synchronization telemetry for the simulator.

The paper's contributions are *contention* phenomena — hot semaphore
words, threads parked on barriers while holding SM residency, delegated
RCU barriers — and a single throughput number hides all of them.  This
module provides an opt-in :class:`Tracer` that the scheduler and every
sync primitive report into:

* **Timeline** — per-thread Chrome ``trace_event`` records (memory-op
  complete events, park/unpark spans on barriers and warp rendezvous,
  lock-held spans, RCU grace periods, per-SM residency counters) that
  load directly in ``chrome://tracing`` / Perfetto.
* **Telemetry** — aggregate statistics that survive even when the
  timeline is capped: per-word atomic serialization stalls, semaphore
  wait-time and lock wait/hold-time histograms, RCU grace-period
  latencies, collective group widths, per-SM occupancy-over-time.

Usage::

    from repro.sim import DeviceMemory, Scheduler, Tracer

    tracer = Tracer()
    sched = Scheduler(mem, tracer=tracer)
    sched.launch(kernel, grid, block)
    sched.run()
    tracer.write_chrome_trace("out.json")   # open in chrome://tracing
    print(tracer.summary())                 # plain-text telemetry tables

Code that builds its own schedulers (any bench or perf case) is traced
inside ``with tracing(tracer):``, which every ``Scheduler`` picks up.

One tracer may observe several consecutive schedulers (as the benches
do when sweeping configurations); each run is shifted onto a common
timeline, and :meth:`Tracer.begin_run` labels the next run.

Overhead: :meth:`Scheduler.run <repro.sim.scheduler.Scheduler.run>`
is one loop that binds the tracer's hooks once per run.  **A hook bound
to ``None`` is skipped**, and with no tracer every hook is ``None``:
the loop then pays one ``traced`` test per memory op and one
``atomic_issued is not None`` test per atomic issue, and device-side
primitives pay one ``ctx.trace`` attribute test per call.  With a
tracer, the loop pays per memory op an ``is not None`` test for each of
``op_executed``, ``mem_op`` and (atomics only) ``atomic_issued``, plus
one ``th.clock`` write.  ``mem_op`` is ``None`` here, ``atomic_issued``
is ``None`` on the race checker, and ``op_executed`` counts as ``None``
when ``timeline`` is off (the loop then keeps the latest completion time
in a local and folds it in once per run).  A subclass that needs a hook
overrides it with a method; one that does not read a hook's telemetry
sets it to ``None``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import ops as _ops

__all__ = ["Histogram", "Tracer", "active", "tracing"]


class Histogram:
    """Power-of-two-bucketed histogram of non-negative integer samples.

    Bucket ``b`` holds values whose bit length is ``b`` (``0``, ``1``,
    ``2-3``, ``4-7``, ...), which gives compact log-scale tables for
    quantities spanning many orders of magnitude (spin waits of 0 to
    millions of cycles).
    """

    __slots__ = ("buckets", "n", "total", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.n = 0
        self.total = 0
        self.max = 0

    def add(self, value: int) -> None:
        b = int(value).bit_length()
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.n += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def rows(self) -> List[Tuple[str, int]]:
        """``(range_label, count)`` rows for non-empty buckets, ascending."""
        out = []
        for b in sorted(self.buckets):
            if b <= 1:
                label = str(b)
            else:
                label = f"{1 << (b - 1)}-{(1 << b) - 1}"
            out.append((label, self.buckets[b]))
        return out


class Tracer:
    """Opt-in structured tracing + telemetry sink for scheduler runs.

    Parameters
    ----------
    timeline:
        Record per-event Chrome trace records.  Aggregate telemetry is
        collected regardless.
    max_timeline_events:
        Cap on stored timeline events (memory bound for long benches).
        Once hit, further events only increment :attr:`dropped_events`;
        aggregates are unaffected.
    """

    #: Per-memory-op verification hook.  ``None`` on the base tracer so
    #: the scheduler's run loop skips the call entirely; subclasses
    #: that need word-level visibility (``repro.verify.RaceChecker``)
    #: override it with a method ``mem_op(th, op, t, result)`` receiving
    #: the full op tuple (opcode, byte address, operands) and the op's
    #: result.  Fires exactly once per executed load, store and atomic.
    mem_op = None

    def __init__(self, timeline: bool = True,
                 max_timeline_events: int = 500_000) -> None:
        self.timeline = timeline
        self.max_timeline_events = max_timeline_events
        self.events: List[dict] = []
        self.dropped_events = 0
        # -- aggregate telemetry ---------------------------------------
        self.op_counts: Dict[int, int] = {}
        #: word index -> [atomic op count, total serialization stall cycles]
        self.word_stats: Dict[int, List[int]] = {}
        self.sem_wait = Histogram()
        self.sem_outcomes: Dict[str, int] = {}
        self.lock_wait = Histogram()
        self.lock_hold = Histogram()
        self.collective_width = Histogram()
        self.rcu_grace: List[int] = []
        self.rcu_full = 0
        self.rcu_delegated = 0
        #: (run index, sm) -> [(ts, resident block count)]
        self.sm_occupancy: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self.runs: List[dict] = []
        # -- live state ------------------------------------------------
        self._sched: Any = None
        self._run = -1
        self._next_label: Optional[str] = None
        self._offset = 0     # shifts the current run onto the global timeline
        self._hi = 0         # latest timestamp observed (global timeline)
        self._sms: set = set()
        self._cost_model: Optional[dict] = None
        self._counts_seen: Dict[int, int] = {}
        self._held: Dict[Tuple[int, int], int] = {}   # (tid, addr) -> acquire ts

    # ------------------------------------------------------------------
    # Run lifecycle (scheduler-driven)
    # ------------------------------------------------------------------
    def begin_run(self, label: str) -> None:
        """Label the next scheduler attached to this tracer."""
        self._next_label = label

    def _attach(self, scheduler) -> None:
        """Bind to a scheduler (called by ``Scheduler.__init__``)."""
        self._sched = scheduler
        self._run += 1
        self._offset = self._hi
        self._counts_seen = {}
        self._sms.update(range(scheduler.device.num_sms))
        self._cost_model = scheduler.cost_model.as_dict()
        label = self._next_label or f"run{self._run}"
        self._next_label = None
        self.runs.append({"label": label, "t0": self._offset, "t1": None})
        if self.timeline:
            self._emit({"name": "run", "ph": "i", "cat": "run", "s": "g",
                        "ts": self._offset, "pid": 0, "tid": 0,
                        "args": {"label": label}})

    def run_finished(self, report) -> None:
        """Fold a completed run's op counts into the telemetry."""
        for code, n in report.op_counts.items():
            delta = n - self._counts_seen.get(code, 0)
            if delta:
                self.op_counts[code] = self.op_counts.get(code, 0) + delta
        self._counts_seen = dict(report.op_counts)
        if self.runs:
            self.runs[-1]["t1"] = self._hi

    # ------------------------------------------------------------------
    # Scheduler hooks (hot path — called only when a tracer is attached)
    # ------------------------------------------------------------------
    def _note(self, ts: int) -> None:
        if ts > self._hi:
            self._hi = ts

    def _emit(self, ev: dict) -> None:
        self._note(ev["ts"] + ev.get("dur", 0))
        if len(self.events) < self.max_timeline_events:
            self.events.append(ev)
        else:
            self.dropped_events += 1

    def op_executed(self, th, code: int, t: int, dur: int) -> None:
        """A memory op executed at ``t``, its result ready after ``dur``.

        The scheduler calls it only while :attr:`timeline` is on; without
        a timeline it notes the run's latest completion time itself."""
        self._emit({"name": _ops.OP_NAMES.get(code, f"op{code}"),
                    "ph": "X", "cat": "op", "ts": t + self._offset,
                    "dur": dur, "pid": th.ctx.sm, "tid": th.tid})

    def atomic_issued(self, waddr: int, stall: int) -> None:
        """An atomic reserved its word's service slot, ``stall`` cycles late.

        Feeds :attr:`word_stats`; a subclass that never reads it sets
        this hook to ``None`` and the scheduler skips the call."""
        st = self.word_stats.get(waddr)
        if st is None:
            self.word_stats[waddr] = [1, stall]
        else:
            st[0] += 1
            st[1] += stall

    def parked(self, th, kind: str, t: int) -> None:
        ts = t + self._offset
        self._note(ts)
        if self.timeline:
            self._emit({"name": kind, "ph": "B", "cat": "sync", "ts": ts,
                        "pid": th.ctx.sm, "tid": th.tid})

    def unparked(self, th, kind: str, t: int) -> None:
        ts = t + self._offset
        self._note(ts)
        if self.timeline:
            self._emit({"name": kind, "ph": "E", "cat": "sync", "ts": ts,
                        "pid": th.ctx.sm, "tid": th.tid})

    def block_dispatched(self, blk, t: int, resident: int) -> None:
        self._occupancy(blk.sm, t, resident)

    def block_retired(self, blk, t: int, resident: int) -> None:
        self._occupancy(blk.sm, t, resident)

    def _occupancy(self, sm: int, t: int, resident: int) -> None:
        ts = t + self._offset
        self._note(ts)
        self.sm_occupancy.setdefault((self._run, sm), []).append((ts, resident))
        if self.timeline:
            self._emit({"name": "resident_blocks", "ph": "C", "cat": "sm",
                        "ts": ts, "pid": sm,
                        "args": {"blocks": resident}})

    # ------------------------------------------------------------------
    # Device-side hooks (called by sync primitives through ``ctx.trace``)
    # ------------------------------------------------------------------
    def now(self, ctx) -> int:
        """Current virtual time of the calling device thread.

        A thread resumed by a memory op runs at the op's completion
        time, which the run loop writes to its clock; every other resume
        (dispatch, sleep, yield, park release) happens at the bucket
        time ``_now``, which no earlier clock exceeds."""
        sched = self._sched
        clock = sched._threads[ctx.tid].clock
        now = sched._now
        return clock if clock > now else now

    def lock_acquired(self, ctx, addr: int, t0: int) -> None:
        """A lock at ``addr`` was acquired; the attempt started at ``t0``."""
        t1 = self.now(ctx)
        self.lock_wait.add(t1 - t0)
        self._held[(ctx.tid, addr)] = t1

    def lock_released(self, ctx, addr: int) -> None:
        t1 = self.now(ctx)
        t0 = self._held.pop((ctx.tid, addr), None)
        if t0 is None:
            return  # acquired before the tracer attached; no span to close
        self.lock_hold.add(t1 - t0)
        if self.timeline:
            self._emit({"name": f"lock@{addr:#x}", "ph": "X", "cat": "lock",
                        "ts": t0 + self._offset, "dur": t1 - t0,
                        "pid": ctx.sm, "tid": ctx.tid})

    def sem_waited(self, ctx, addr: int, t0: int, outcome: str) -> None:
        """A semaphore ``wait`` finished; it started at ``t0``.

        ``outcome`` tags the triage result (``acquired``, ``batch`` for a
        bulk-semaphore batch promise, ``grower`` for a counting-semaphore
        batch allocator).
        """
        t1 = self.now(ctx)
        wait = t1 - t0
        self.sem_wait.add(wait)
        self.sem_outcomes[outcome] = self.sem_outcomes.get(outcome, 0) + 1
        if self.timeline and wait > 0:
            self._emit({"name": f"sem_wait@{addr:#x}", "ph": "X",
                        "cat": "sem", "ts": t0 + self._offset, "dur": wait,
                        "pid": ctx.sm, "tid": ctx.tid,
                        "args": {"outcome": outcome}})

    def collective_joined(self, ctx, width: int) -> None:
        """A collective acquire converged with ``width`` participants."""
        self.collective_width.add(width)

    def rcu_grace_period(self, ctx, t_flip: int, t_drained: int,
                         domain=None) -> None:
        """A full RCU barrier's grace period: epoch flip to reader drain.

        ``domain`` identifies the :class:`~repro.sync.rcu.RCU` instance;
        verification subclasses use it to scope deferred-reclamation
        quarantines per domain."""
        self.rcu_full += 1
        self.rcu_grace.append(t_drained - t_flip)
        if self.timeline:
            self._emit({"name": "rcu_grace", "ph": "X", "cat": "rcu",
                        "ts": t_flip + self._offset,
                        "dur": t_drained - t_flip,
                        "pid": ctx.sm, "tid": ctx.tid})

    # ------------------------------------------------------------------
    # List / reclamation attach points (no-ops here; RaceChecker uses
    # them to track RCU quarantines)
    # ------------------------------------------------------------------
    def list_removed(self, ctx, dlist, node: int) -> None:
        """``node`` is about to be unlinked from ``dlist`` (writer lock
        held by the caller)."""

    def list_inserted(self, ctx, dlist, node: int) -> None:
        """``node`` is about to be (re-)linked into ``dlist``."""

    def rcu_delegation(self, ctx) -> None:
        """A conditional RCU barrier returned immediately (delegated)."""
        self.rcu_delegated += 1
        if self.timeline:
            self._emit({"name": "rcu_delegated", "ph": "i", "cat": "rcu",
                        "s": "t", "ts": self.now(ctx) + self._offset,
                        "pid": ctx.sm, "tid": ctx.tid})

    # ------------------------------------------------------------------
    # Derived telemetry
    # ------------------------------------------------------------------
    @property
    def named_op_counts(self) -> Dict[str, int]:
        """Op counts keyed by opcode name
        (see :func:`repro.sim.ops.named_counts`)."""
        return _ops.named_counts(self.op_counts)

    def top_stall_words(self, n: int = 10) -> List[Tuple[int, int, int]]:
        """Top-``n`` atomic targets by total serialization stall.

        Returns ``(byte_address, atomic_ops, total_stall_cycles)`` rows —
        the simulator-wide ranking of contention points.  Equal stall
        totals tie-break on the address, deterministically.
        """
        if n < 0:
            # a negative slice bound would silently drop the coldest words
            raise ValueError(f"n must be >= 0 (got {n})")
        top = sorted(self.word_stats.items(),
                     key=lambda kv: (-kv[1][1], kv[0]))[:n]
        return [(waddr << 3, ops_n, stall) for waddr, (ops_n, stall) in top]

    def occupancy_stats(self) -> List[Tuple[str, int, int, float, int]]:
        """Per-(run, SM) residency: ``(run_label, sm, peak, mean, span)``.

        ``mean`` is the time-weighted mean resident-block count over the
        SM's active span (first to last residency change).
        """
        out = []
        for (run, sm), samples in sorted(self.sm_occupancy.items()):
            label = self.runs[run]["label"] if run < len(self.runs) else str(run)
            peak = max(r for _, r in samples)
            span = samples[-1][0] - samples[0][0]
            if span > 0:
                area = sum(
                    samples[i][1] * (samples[i + 1][0] - samples[i][0])
                    for i in range(len(samples) - 1)
                )
                mean = area / span
            else:
                mean = float(samples[-1][1])
            out.append((label, sm, peak, mean, span))
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The run as a Chrome ``trace_event`` JSON object.

        Timestamps are virtual GPU *cycles* (the viewer will display
        them as microseconds; only relative spans are meaningful).
        """
        meta = [
            {"name": "process_name", "ph": "M", "pid": sm,
             "args": {"name": f"SM {sm}"}}
            for sm in sorted(self._sms)
        ]
        return {
            "traceEvents": meta + self.events,
            "displayTimeUnit": "ms",
            "otherData": {
                "time_unit": "virtual GPU cycles",
                "cost_model": self._cost_model,
                "runs": self.runs,
                "dropped_events": self.dropped_events,
            },
        }

    def write_chrome_trace(self, path: str) -> str:
        """Write :meth:`chrome_trace` JSON to ``path``; returns ``path``."""
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)
        return path

    def summary(self, top: int = 10) -> str:
        """Plain-text telemetry tables (see ``bench.reporting``)."""
        from ..bench.reporting import trace_summary

        return trace_summary(self, top=top)


#: the tracer of the innermost open :func:`tracing` block
_active: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The innermost open :func:`tracing` block's tracer, else ``None``."""
    return _active


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Attach ``tracer`` to every ``Scheduler`` built inside the block
    that is not handed a tracer of its own.  Blocks nest."""
    global _active
    outer, _active = _active, tracer
    try:
        yield tracer
    finally:
        _active = outer
