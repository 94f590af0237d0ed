"""Event-driven SIMT scheduler.

Threads are Python generators; every op they yield is executed atomically
at the thread's virtual time, and ops execute in global virtual-time
order, so interleavings are realistic *and* reproducible given a seed.

Three hardware behaviours the reproduction depends on are modeled here:

1. **Same-word atomic serialization.**  Each 8-byte word has an
   availability time; an atomic that finds its word busy is rescheduled
   to the word's availability time.  A hot semaphore/lock word therefore
   caps throughput at ``1 / atomic_service`` ops per cycle — the
   contention wall the paper designs around.

2. **Block residency.**  Each SM runs at most ``max_resident_blocks``
   blocks; queued blocks start only when a resident block's threads have
   *all* finished.  Threads blocked on barriers or spinning on RCU
   barriers therefore hold SM resources and delay queued blocks — the
   effect RCU delegation (paper §4.2.1, Fig. 6) exists to mitigate.

3. **Warp convergence.**  ``ops.warp_converge()`` parks a lane until
   either every live lane of its warp is parked/done, or a small
   convergence window expires; the lanes parked on the op then resume
   together with the converged mask — the simulator's ``__activemask()``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from types import GeneratorType as Generator
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from . import ops as _ops
from .cost_model import DEFAULT_COST_MODEL, CostModel
from .device import DEFAULT_DEVICE, GPUDevice, ThreadCtx
from .errors import DeadlockError, EventBudgetExceeded, InvalidOp, LaunchError
from .memory import DeviceMemory
from .trace import Tracer, active as active_tracer

# Thread states
_ST_READY = 0
_ST_BARRIER = 1
_ST_CONV = 2

#: how a timer entry folds into ``state_digest`` (timers are queued
#: under negative ids; the digest sees them all as this one value)
_TIMER = -1

#: effective event budget when ``run(max_events=None)`` — one compare
#: per event against a huge int beats a per-event ``is not None`` test
_NO_BUDGET = 1 << 62

#: Convergence window (cycles): lanes of a warp that request convergence
#: within this window of the first requester converge together even if
#: other lanes of the warp are still running.
WARP_CONV_WINDOW = 96

#: Default event interval between ``schedule_probe`` firings.
PROBE_EVERY = 512

#: Cycle window of the deterministic per-thread ``steer`` dispatch
#: offset (prime, so thread phases do not alias the warp stagger).
STEER_WINDOW = 61

# FNV-1a constants for the schedule digest
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_TIMER_BITS = _TIMER & _MASK64


class _Thread:
    __slots__ = (
        "tid", "gen", "send", "ctx", "state", "clock", "pending", "inbox",
        "block", "warp", "retval", "park_time", "finish_time",
    )

    def __init__(self, tid: int, gen, ctx: ThreadCtx, block: "_Block", warp: "_Warp"):
        self.tid = tid
        self.gen = gen
        # bound ``gen.send`` — the run loop calls it once per event, and
        # reading one slot beats an attribute lookup plus a method bind
        self.send = gen.send
        self.ctx = ctx
        self.state = _ST_READY
        self.clock = 0        # last memory-op completion (traced runs only)
        self.pending = None   # op to execute at next pop
        self.inbox = None     # value to send at next resume when no pending op
        self.block = block
        self.warp = warp
        self.retval = None
        self.park_time = 0
        self.finish_time = -1  # virtual completion time; -1 while live


class _Block:
    __slots__ = ("bid", "sm", "threads", "n_live", "barrier_waiters", "dispatched")

    def __init__(self, bid: int, sm: int):
        self.bid = bid
        self.sm = sm
        self.threads: List[_Thread] = []
        self.n_live = 0
        self.barrier_waiters: List[int] = []
        self.dispatched = False


class _Warp:
    __slots__ = ("n_unparked", "conv_waiters", "conv_keys",
                 "conv_gen", "conv_timer_gen", "sync_waiters", "bcast_values")

    def __init__(self):
        # Lanes neither parked (barrier/convergence) nor finished — the
        # lanes that block a pending warp_converge.  Maintained at every
        # state transition so the convergence check is O(1), not an
        # O(warp_size) state scan per park.
        self.n_unparked = 0
        self.conv_waiters: List[int] = []
        # tid -> match key for lanes that parked via ops.warp_match
        self.conv_keys: Dict[int, object] = {}
        # Generation counter: a convergence-window timer only fires for
        # the convergence round it was armed for.
        self.conv_gen = 0
        self.conv_timer_gen = -1
        # mask -> list of parked tids (for ops.warp_sync / warp_broadcast)
        self.sync_waiters: Dict[frozenset, List[int]] = {}
        # mask -> broadcast payloads contributed so far
        self.bcast_values: Dict[frozenset, list] = {}


def _add_note(exc: BaseException, note: str) -> None:
    """``exc.add_note(note)`` on every supported Python: 3.10 lacks
    ``add_note``, so the note goes onto ``__notes__`` by hand."""
    if hasattr(exc, "add_note"):
        exc.add_note(note)
    else:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


def _instant_thread(retval):
    """Wrap a non-generator kernel result as an instantly-finishing thread."""
    return retval
    yield  # pragma: no cover - makes this function a generator


@dataclass
class SimReport:
    """Result of a completed simulation run."""

    cycles: int
    events: int
    n_threads: int
    op_counts: Dict[int, int] = field(default_factory=dict)
    cost_model: CostModel = DEFAULT_COST_MODEL

    @property
    def named_op_counts(self) -> Dict[str, int]:
        """The human-readable view of :attr:`op_counts`
        (see :func:`repro.sim.ops.named_counts`)."""
        return _ops.named_counts(self.op_counts)

    @property
    def seconds(self) -> float:
        """Virtual wall time of the run."""
        return self.cost_model.seconds(self.cycles)

    def throughput(self, n_ops: int) -> float:
        """Ops per virtual second, for ``n_ops`` completed during the run."""
        return self.cost_model.throughput(n_ops, self.cycles)


class LaunchHandle:
    """Handle to one kernel launch; exposes per-thread return values.

    The handle holds its own threads: the scheduler forgets a thread
    once it finishes, so a handle's results outlive the scheduler's
    table, and dropping the handle frees them.
    """

    def __init__(self, threads: List[_Thread]):
        self._threads = threads

    @property
    def n_threads(self) -> int:
        return len(self._threads)

    @property
    def tids(self) -> List[int]:
        """Scheduler-global thread ids of this launch, in lane order.

        Thread ids are global and monotonic across launches on a reused
        scheduler, so kernels that index per-launch state by lane must
        subtract ``tids[0]`` from ``ctx.tid`` rather than use it raw.
        """
        return [th.tid for th in self._threads]

    @property
    def results(self) -> List[Any]:
        """Per-thread kernel return values (valid after ``run()``)."""
        return [th.retval for th in self._threads]

    @property
    def finish_times(self) -> List[int]:
        """Per-thread virtual completion times (valid after ``run()``;
        ``-1`` for threads still live).  Service-style harnesses derive
        per-request latency from these: ``finish - launch_now``."""
        return [th.finish_time for th in self._threads]


class Scheduler:
    """Deterministic discrete-event scheduler over a :class:`DeviceMemory`.

    Typical use::

        mem = DeviceMemory(1 << 20)
        sched = Scheduler(mem, seed=42)
        h = sched.launch(kernel, grid=4, block=128, args=(arg0, arg1))
        report = sched.run()
        print(report.cycles, h.results[:4])

    Multiple launches may be queued before ``run()``; they share the
    device and execute concurrently (as separate grids on one GPU).  For
    dependent phases, call ``run()`` between launches — the scheduler can
    be reused and virtual time keeps advancing monotonically.
    """

    def __init__(
        self,
        memory: DeviceMemory,
        device: GPUDevice = DEFAULT_DEVICE,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        dispatch_jitter: int = 0,
        fault_injector: object = None,
        steer: int = 0,
        schedule_probe: Optional[Callable[[tuple], None]] = None,
        probe_every: int = PROBE_EVERY,
    ) -> None:
        # Hostile knobs fail here, at construction, with pointed errors.
        # Accepting them used to defer the failure into the run loop
        # (negative dispatch_jitter asks randrange for an empty range on
        # the first dispatched block) or, worse, silently change
        # behavior (probe_every < 1 degrades to probing every event;
        # negative steer feeds undocumented phase math).
        if dispatch_jitter < 0:
            raise ValueError(
                f"dispatch_jitter must be >= 0 (got {dispatch_jitter}): a "
                "negative jitter window would ask randrange for an empty "
                "range at block dispatch"
            )
        if steer < 0:
            raise ValueError(
                f"steer must be >= 0 (got {steer}): steering salts are "
                "non-negative integers (0 = the historical schedule)"
            )
        if schedule_probe is not None and probe_every < 1:
            raise ValueError(
                f"probe_every must be >= 1 when a schedule_probe is "
                f"attached (got {probe_every}): anything smaller silently "
                "degrades to probing every event"
            )
        self.memory = memory
        self.device = device
        self.cost_model = cost_model
        self.seed = seed
        # Extra per-thread start-time jitter (cycles).  Schedule fuzzing
        # (repro.verify) sweeps this to perturb which interleavings a
        # given seed explores; 0 keeps the historical dispatch pattern.
        self.dispatch_jitter = dispatch_jitter
        # Steering salt: a deterministic per-(steer, tid) dispatch-phase
        # offset in [0, STEER_WINDOW).  Unlike ``dispatch_jitter`` it
        # consumes no RNG draws, so two runs differing only in ``steer``
        # execute identical per-thread instruction streams under shifted
        # start phases — the schedule-exploration engine's cheapest
        # independent scheduling axis.  0 (the default) is a no-op and
        # preserves every historical schedule byte-for-byte.
        self.steer = steer
        # Schedule observation hook: when set, ``probe(state_digest())``
        # fires every ``probe_every`` events, traced or not.  The
        # probe only observes — it must not touch scheduler or memory
        # state — so attaching one never changes virtual metrics.
        self.schedule_probe = schedule_probe
        self.probe_every = probe_every
        self._rng = random.Random(seed)
        # Live threads, indexed by tid: a finished thread's slot is
        # reset to None (its LaunchHandle keeps the thread), so a
        # long-lived scheduler holds one empty slot per thread it ran,
        # not the thread.  A list beats a dict of live tids in the run
        # loops' per-event lookup.  Thread, block and warp ids stay
        # global and monotonic: the next tid is the table's length, and
        # the counters below hand out the others.
        self._threads: List[Optional[_Thread]] = []
        self._n_blocks = 0
        self._n_warps = 0
        # The event queue: a heap of distinct pending times, and each
        # time's FIFO list of thread ids.  Timers are negative ids with
        # their callbacks in ``_timers``.  ``_drained`` is the consumed
        # prefix of the bucket at ``_now`` while a probe reads the
        # digest mid-drain (0 otherwise).
        self._times: List[int] = []
        self._buckets: Dict[int, List[int]] = {}
        self._timers: Dict[int, Callable[[int], None]] = {}
        self._next_timer = -1
        self._drained = 0
        self._word_avail: Dict[int, int] = {}
        self._sm_queues: List[Deque[_Block]] = [
            deque() for _ in range(device.num_sms)
        ]
        self._sm_resident: List[int] = [0] * device.num_sms
        self._now = 0
        self._events = 0
        # Per-opcode event counts, indexed by opcode.  A flat list is
        # measurably cheaper than a dict in the hot loop; zero entries
        # are dropped when the counts are exposed as a dict.
        self._op_counts: List[int] = [0] * _ops.N_OPCODES
        self._live_threads = 0
        self._next_block_sm = 0
        # Precompiled dispatch tables (the hot loop indexes these by
        # opcode instead of walking if/elif chains).
        # 1) binary atomics: opcode -> bound DeviceMemory method taking
        #    (addr, operand); CAS/load/store have distinct arities or
        #    latencies and keep dedicated branches.
        tab: List[Any] = [None] * _ops.N_OPCODES
        tab[_ops.OP_ADD] = memory.add_word
        tab[_ops.OP_EXCH] = memory.exch_word
        tab[_ops.OP_AND] = memory.and_word
        tab[_ops.OP_OR] = memory.or_word
        tab[_ops.OP_XOR] = memory.xor_word
        tab[_ops.OP_MAX] = memory.max_word
        tab[_ops.OP_MIN] = memory.min_word
        self._atomic_exec = tab
        # 2) parking/control ops: opcode -> handler(th, op_tuple, t).
        self._park_dispatch: Dict[int, Callable] = {
            _ops.OP_BARRIER: self._op_barrier,
            _ops.OP_WARP_CONV: self._op_warp_conv,
            _ops.OP_WARP_SYNC: self._op_warp_sync,
            _ops.OP_WARP_MATCH: self._op_warp_match,
            _ops.OP_WARP_BCAST: self._op_warp_bcast,
            _ops.OP_FAULT: self._op_fault,
        }
        # structured tracing/telemetry (opt-in, here or by an open
        # tracing() block; run() binds every hook to None without one)
        if tracer is None:
            tracer = active_tracer()
        self.tracer = tracer
        if tracer is not None:
            tracer._attach(self)
        # deterministic fault injection (opt-in; see repro.resil).  The
        # injector is handed to every ThreadCtx so device code can gate
        # its fault_point probes on `ctx.fault is not None`.
        self.fault_injector = fault_injector

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: Callable[..., Any],
        grid: int,
        block: int,
        args: tuple = (),
    ) -> LaunchHandle:
        """Queue a 1-D kernel launch of ``grid`` blocks x ``block`` threads.

        ``kernel(ctx, *args)`` is called once per thread; it may be a
        generator function (the normal case) or a plain function (the
        thread then completes instantly with the function's return
        value).
        """
        for v in (grid, block):
            if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
                raise LaunchError(
                    f"bad launch configuration grid={grid!r} block={block!r}: "
                    "both must be positive ints"
                )
        if block > self.device.max_threads_per_block:
            raise LaunchError(
                f"block of {block} threads exceeds device limit "
                f"{self.device.max_threads_per_block}"
            )
        warp_size = self.device.warp_size
        nthreads = grid * block
        launched: List[_Thread] = []
        for b in range(grid):
            sm = self._next_block_sm
            self._next_block_sm = (self._next_block_sm + 1) % self.device.num_sms
            blk = _Block(self._n_blocks, sm)
            self._n_blocks += 1
            warp: Optional[_Warp] = None
            for t in range(block):
                tid = len(self._threads)
                if t % warp_size == 0:
                    warp = _Warp()
                    self._n_warps += 1
                assert warp is not None
                ctx = ThreadCtx(
                    tid=tid,
                    block=blk.bid,
                    tid_in_block=t,
                    lane=t % warp_size,
                    warp=self._n_warps - 1,
                    sm=sm,
                    nthreads=nthreads,
                    block_dim=block,
                    rng_seed=(self.seed << 20) ^ (tid * 0x9E3779B9),
                    trace=self.tracer,
                    fault=self.fault_injector,
                )
                gen = kernel(ctx, *args)
                if not isinstance(gen, Generator):
                    gen = _instant_thread(gen)
                th = _Thread(tid, gen, ctx, blk, warp)
                self._threads.append(th)
                blk.threads.append(th)
                warp.n_unparked += 1
                launched.append(th)
            blk.n_live = block
            self._sm_queues[sm].append(blk)
            self._live_threads += block
        self._dispatch_ready_blocks(self._now)
        return LaunchHandle(launched)

    def _dispatch_ready_blocks(self, t: int) -> None:
        for sm in range(self.device.num_sms):
            q = self._sm_queues[sm]
            while q and self._sm_resident[sm] < self.device.max_resident_blocks:
                blk = q.popleft()
                self._sm_resident[sm] += 1
                self._dispatch_block(blk, t)

    def _dispatch_block(self, blk: _Block, t: int) -> None:
        blk.dispatched = True
        warp_size = self.device.warp_size
        # Dispatch cost is charged uniformly — including for blocks
        # dispatched at virtual time 0, which used to start for free and
        # skewed small-grid timings.
        start = t + self.cost_model.block_dispatch
        if self.tracer is not None:
            self.tracer.block_dispatched(blk, start, self._sm_resident[blk.sm])
        extra = self.dispatch_jitter
        steer = self.steer
        for th in blk.threads:
            tid = th.tid
            # Stagger warps slightly so launches do not start in perfect
            # lockstep; deterministic given the seed.
            jitter = (th.ctx.tid_in_block // warp_size) * 2 + self._rng.randrange(4)
            if extra:
                jitter += self._rng.randrange(extra)
            if steer:
                # Arithmetic (not RNG) so the draw streams above stay
                # untouched: mix (steer, tid) and fold into the window.
                x = ((tid + 1) * 0x9E3779B97F4A7C15) ^ (steer * 0xC2B2AE3D27D4EB4F)
                jitter += ((x ^ (x >> 29)) & _MASK64) % STEER_WINDOW
            self._push(start + jitter, tid)

    # ------------------------------------------------------------------
    # Event queue
    # ------------------------------------------------------------------
    def _push(self, t: int, tid: int) -> None:
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [tid]
            heappush(self._times, t)
        else:
            bucket.append(tid)

    def _push_timer(self, t: int, fn: Callable[[int], None]) -> None:
        tid = self._next_timer
        self._next_timer = tid - 1
        self._timers[tid] = fn
        self._push(t, tid)

    def _push_group(self, t: int, tids: Sequence[int]) -> None:
        """Reschedule a released cohort — every tid at the same ``t``.

        The barrier / warp-sync / convergence handlers release whole
        groups at one timestamp.  Entries keep push order, so the
        schedule is identical to per-tid :meth:`_push` calls.
        """
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = list(tids)
            heappush(self._times, t)
        else:
            bucket.extend(tids)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> SimReport:
        """Run until all launched threads finish; returns a report.

        ``max_events`` bounds the number of scheduler events (a livelock
        guard for tests); exceeding it raises :class:`EventBudgetExceeded`,
        a :class:`DeadlockError`.  A negative budget is a caller error
        and raises :class:`ValueError` before any event runs.

        One loop runs every scheduler, traced or not.  The queue drains
        a timestamp at a time: pop the earliest pending time, then run
        its FIFO bucket with a plain ``for``.  An entry pushed at that
        same time while it drains (a handler's release, a timer, a
        zero-cost step) is appended to the bucket, and the list iterator
        reaches it in push order; a cohort of N events therefore costs
        one heap pop, not N.  Pushes are inlined (an append to an
        existing bucket, or a new bucket plus one heap push), dispatch
        indexes precompiled tables instead of if/elif chains, and the
        event count stays in a local, synchronized back to the instance
        for the probe and in the ``finally``.  ``_now`` is written once
        per bucket, so the park, finish and timer helpers read the
        current time without a per-event sync.

        The tracer's hooks are bound once per run, and **a hook bound to
        ``None`` is skipped**; with no tracer every hook is ``None``.
        ``mem_op`` is ``None`` on the plain :class:`Tracer`,
        ``atomic_issued`` on the race checker (which never reads
        ``word_stats``), and ``op_executed`` is bound only when the
        tracer records a timeline.  Without a timeline its one effect is
        noting the op's completion time; a local running max replaces
        it, folded into the tracer once in the ``finally``, so the
        tracer's latest timestamp (each run's ``t1``, the next run's
        offset) stays exact even after a budget trip.  A traced run
        writes ``th.clock`` on a memory-op resume only, where the thread
        resumes at the op's completion time; every other resume happens
        at the bucket time ``_now``, and :meth:`Tracer.now` returns the
        later of the two.  The tracer-off path pays one ``traced`` test
        per memory op and one ``atomic_hook`` test per atomic issue.
        Virtual results (cycles, events, op counts, memory effects,
        thread return values and the digest stream a ``schedule_probe``
        sees) are identical under every tracer binding, pinned by the
        loop-parity tests; only host wall time differs.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(
                f"max_events must be >= 0 or None (got {max_events}): a "
                "negative budget would trip on the first event and read "
                "as a livelock"
            )
        cm = self.cost_model
        mem = self.memory
        times = self._times
        buckets = self._buckets
        bucket_get = buckets.get
        timers = self._timers
        threads = self._threads
        word_avail = self._word_avail
        word_avail_get = word_avail.get
        counts = self._op_counts
        atomic_service = cm.atomic_service
        atomic_latency = cm.atomic_latency
        load_latency = cm.load_latency
        store_latency = cm.store_latency
        step_cost = cm.step_cost
        yield_cost = cm.yield_cost
        load_word = mem.load_word
        store_word = mem.store_word
        cas_word = mem.cas_word
        atomic_exec = self._atomic_exec
        park_get = self._park_dispatch.get
        _pop = heappop
        _push = heappush
        budget = max_events if max_events is not None else _NO_BUDGET
        probe = self.schedule_probe
        probe_every = self.probe_every
        tracer = self.tracer
        traced = tracer is not None
        if traced:
            mem_hook = tracer.mem_op
            atomic_hook = tracer.atomic_issued
            op_hook = tracer.op_executed if tracer.timeline else None
        else:
            mem_hook = atomic_hook = op_hook = None

        OP_SLEEP = _ops.OP_SLEEP
        OP_LOAD = _ops.OP_LOAD
        OP_CAS = _ops.OP_CAS
        OP_MIN = _ops.OP_MIN
        OP_YIELD = _ops.OP_YIELD

        events = base = self._events
        next_probe = events + probe_every if probe is not None else _NO_BUDGET
        t = self._now
        bucket = None
        hi = 0  # latest memory-op completion time (traced, no timeline)
        try:
            while times:
                t = _pop(times)
                self._now = t
                bucket = buckets[t]
                base = events
                for tid in bucket:
                    events += 1
                    if events > budget:
                        raise EventBudgetExceeded(
                            f"exceeded event budget {max_events} "
                            f"({self._live_threads} threads still live)"
                        )
                    if events >= next_probe:
                        next_probe = events + probe_every
                        # Observation only: the probe may not mutate
                        # scheduler or memory state.
                        self._drained = events - base
                        probe(self.state_digest())
                    if tid < 0:
                        timers.pop(tid)(t)
                        continue
                    th = threads[tid]
                    op = th.pending
                    resume_at = t
                    if op is not None:
                        code = op[0]
                        counts[code] += 1
                        if code >= OP_CAS:      # an atomic (OP_CAS..OP_MIN)
                            if code != OP_CAS:
                                result = atomic_exec[code](op[1], op[2])
                            else:
                                result = cas_word(op[1], op[2], op[3])
                            resume_at = t + atomic_latency
                        elif code == OP_LOAD:
                            result = load_word(op[1])
                            resume_at = t + load_latency
                        else:                   # OP_STORE (the only other pending op)
                            store_word(op[1], op[2])
                            resume_at = t + store_latency
                            result = None
                        th.pending = None
                        if traced:
                            th.clock = resume_at
                            if op_hook is not None:
                                op_hook(th, code, t, resume_at - t)
                            elif resume_at > hi:
                                hi = resume_at
                            if mem_hook is not None:
                                mem_hook(th, op, t, result)
                    else:
                        result = th.inbox
                        th.inbox = None

                    # Resume the generator and classify its next op.
                    try:
                        nxt = th.send(result)
                    except StopIteration as stop:
                        th.retval = stop.value
                        self._finish_thread(th, resume_at)
                        continue
                    except Exception as exc:
                        _add_note(
                            exc,
                            f"raised in device thread tid={th.tid} "
                            f"block={th.ctx.block} lane={th.ctx.lane} "
                            f"at cycle {resume_at}",
                        )
                        raise
                    if type(nxt) is not tuple or not nxt:
                        raise InvalidOp(
                            f"device thread {th.tid} yielded {nxt!r}; expected an "
                            "op tuple from repro.sim.ops"
                        )
                    code = nxt[0]
                    if OP_LOAD <= code <= OP_MIN:
                        # Memory op: execute at its own event.  Atomics
                        # reserve the target word's next free service slot
                        # at issue time (FIFO memory-controller queue), so
                        # same-word contention serializes in O(1) events/op.
                        th.pending = nxt
                        at = resume_at + step_cost
                        if code >= OP_CAS:
                            waddr = nxt[1] >> 3
                            avail = word_avail_get(waddr, 0)
                            if avail > at:
                                at = avail
                            word_avail[waddr] = at + atomic_service
                            if atomic_hook is not None:
                                # serialization stall: how long the word's
                                # FIFO queue pushed this atomic past its
                                # issue slot
                                atomic_hook(waddr, at - resume_at - step_cost)
                    elif code == OP_SLEEP:
                        counts[OP_SLEEP] += 1
                        at = resume_at + step_cost + nxt[1]
                    elif code == OP_YIELD:
                        counts[OP_YIELD] += 1
                        at = resume_at + yield_cost
                    else:
                        handler = park_get(code)
                        if handler is None:
                            raise InvalidOp(
                                f"device thread {th.tid} yielded unknown op {nxt!r}"
                            )
                        counts[code] += 1
                        handler(th, nxt, resume_at)
                        continue
                    b = bucket_get(at)
                    if b is None:
                        buckets[at] = [tid]
                        _push(times, at)
                    else:
                        b.append(tid)
                del buckets[t]
            bucket = None
        finally:
            # Keep instance state coherent when an exception unwinds
            # mid-bucket: drop the consumed prefix (the raising event
            # included) and requeue whatever the bucket still holds.
            self._drained = 0
            if bucket is not None:
                del bucket[:events - base]
                if bucket:
                    _push(times, t)
                else:
                    del buckets[t]
            self._events = events
            if traced:
                tracer._note(hi + tracer._offset)
        return self._finish_report()

    def _finish_report(self) -> SimReport:
        """Common run epilogue: drain check, report, tracer fold-in."""
        if self._live_threads:
            parked = sum(
                1 for th in self._threads
                if th is not None and th.state in (_ST_BARRIER, _ST_CONV)
            )
            raise DeadlockError(
                f"event queue drained with {self._live_threads} live threads "
                f"({parked} parked on barriers/convergence)"
            )
        report = SimReport(
            cycles=self._now,
            events=self._events,
            n_threads=len(self._threads),
            op_counts={c: n for c, n in enumerate(self._op_counts) if n},
            cost_model=self.cost_model,
        )
        if self.tracer is not None:
            self.tracer.run_finished(report)
        return report

    # ------------------------------------------------------------------
    # Park/control op handlers (dispatch-table targets)
    # ------------------------------------------------------------------
    def _op_barrier(self, th: _Thread, nxt: tuple, t: int) -> None:
        self._park_barrier(th, t)

    def _op_warp_conv(self, th: _Thread, nxt: tuple, t: int) -> None:
        self._park_conv(th, t)

    def _op_warp_sync(self, th: _Thread, nxt: tuple, t: int) -> None:
        self._park_warp_sync(th, nxt[1], t)

    def _op_warp_match(self, th: _Thread, nxt: tuple, t: int) -> None:
        th.warp.conv_keys[th.tid] = nxt[1]
        self._park_conv(th, t)

    def _op_warp_bcast(self, th: _Thread, nxt: tuple, t: int) -> None:
        self._park_warp_sync(th, nxt[1], t, payload=nxt[2])

    def _op_fault(self, th: _Thread, nxt: tuple, t: int) -> None:
        # Fault-injection probe: ask the attached injector whether this
        # (site, occurrence) fires.  Fail-type faults resume with "fail"
        # so the site takes its failure arm; stall-type faults charge
        # the injected delay to the thread's clock and resume with None.
        inj = self.fault_injector
        outcome, delay = (
            inj.decide(th.tid, nxt[1], nxt[2], t)
            if inj is not None else (None, 0)
        )
        th.inbox = outcome
        self._push(t + self.cost_model.step_cost + delay, th.tid)

    # ------------------------------------------------------------------
    # Thread completion, barriers, convergence
    # ------------------------------------------------------------------
    def _finish_thread(self, th: _Thread, t: int) -> None:
        # The thread leaves the scheduler: only its LaunchHandle still
        # reads it, for ``retval`` and ``finish_time``, so everything
        # else it holds (generator, ctx and its rng, block, warp) goes.
        self._threads[th.tid] = None
        th.finish_time = t
        self._live_threads -= 1
        blk = th.block
        blk.n_live -= 1
        warp = th.warp
        warp.n_unparked -= 1
        th.gen = th.send = th.ctx = th.block = th.warp = None
        self._maybe_release_barrier(blk, t)
        self._maybe_release_conv(warp, t)
        if blk.n_live == 0:
            self._retire_block(blk, t)

    def _retire_block(self, blk: _Block, t: int) -> None:
        self._sm_resident[blk.sm] -= 1
        if self.tracer is not None:
            self.tracer.block_retired(blk, t, self._sm_resident[blk.sm])
        # Fill *every* freed residency slot, not just one — the SM may
        # have more than one slot open by the time a block retires.
        # (_dispatch_block charges the dispatch latency itself.)
        q = self._sm_queues[blk.sm]
        while q and self._sm_resident[blk.sm] < self.device.max_resident_blocks:
            nxt = q.popleft()
            self._sm_resident[blk.sm] += 1
            self._dispatch_block(nxt, t)

    def _park_barrier(self, th: _Thread, t: int) -> None:
        th.state = _ST_BARRIER
        th.park_time = t
        th.warp.n_unparked -= 1
        blk = th.block
        blk.barrier_waiters.append(th.tid)
        if self.tracer is not None:
            self.tracer.parked(th, "barrier", t)
        self._maybe_release_barrier(blk, t)
        self._maybe_release_conv(th.warp, t)

    def _maybe_release_barrier(self, blk: _Block, t: int) -> None:
        if not blk.barrier_waiters or len(blk.barrier_waiters) < blk.n_live:
            return
        release = (
            max(self._threads[tid].park_time for tid in blk.barrier_waiters)
            + self.cost_model.barrier_cost
        )
        tracer = self.tracer
        for tid in blk.barrier_waiters:
            w = self._threads[tid]
            w.state = _ST_READY
            w.inbox = None
            w.warp.n_unparked += 1
            if tracer is not None:
                tracer.unparked(w, "barrier", release)
        self._push_group(release, blk.barrier_waiters)
        blk.barrier_waiters.clear()

    def _park_conv(self, th: _Thread, t: int) -> None:
        th.state = _ST_CONV
        th.park_time = t
        warp = th.warp
        warp.n_unparked -= 1
        warp.conv_waiters.append(th.tid)
        if self.tracer is not None:
            self.tracer.parked(th, "warp_converge", t)
        if warp.conv_timer_gen != warp.conv_gen:
            warp.conv_timer_gen = warp.conv_gen
            gen = warp.conv_gen
            self._push_timer(
                t + WARP_CONV_WINDOW,
                lambda now, w=warp, g=gen: self._conv_window_expired(w, g, now),
            )
        self._maybe_release_conv(warp, t)

    def _conv_window_expired(self, warp: _Warp, gen: int, t: int) -> None:
        if warp.conv_gen != gen:
            return  # this convergence round already released
        if warp.conv_waiters:
            self._release_conv(warp, t)

    def _park_warp_sync(self, th: _Thread, mask: frozenset, t: int,
                        payload=_ops.NO_PAYLOAD) -> None:
        warp = th.warp
        if th.ctx.lane not in mask:
            raise InvalidOp(
                f"thread {th.tid} (lane {th.ctx.lane}) called warp_sync with a "
                f"mask {sorted(mask)} that does not include its own lane"
            )
        th.state = _ST_CONV
        th.park_time = t
        warp.n_unparked -= 1
        waiters = warp.sync_waiters.setdefault(mask, [])
        waiters.append(th.tid)
        if self.tracer is not None:
            self.tracer.parked(th, "warp_sync", t)
        if payload is not _ops.NO_PAYLOAD:
            warp.bcast_values.setdefault(mask, []).append((th.ctx.lane, payload))
        if len(waiters) == len(mask):
            threads = self._threads
            payloads = warp.bcast_values.pop(mask, None)
            # warp_sync resumes with the mask; warp_broadcast resumes
            # with the single source lane's payload (falsy values and
            # None included — absence is the NO_PAYLOAD sentinel, not
            # None, so they are distinguishable).
            if payloads is None:
                result = mask
            elif len(payloads) > 1:
                lanes = sorted(lane for lane, _ in payloads)
                raise InvalidOp(
                    f"warp_broadcast on mask {sorted(mask)} received payloads "
                    f"from lanes {lanes}; exactly one source lane may "
                    "contribute a value"
                )
            else:
                result = payloads[0][1]
            release = (
                max(threads[tid].park_time for tid in waiters)
                + self.cost_model.warp_conv_cost
            )
            tracer = self.tracer
            for tid in waiters:
                w = threads[tid]
                w.state = _ST_READY
                w.inbox = result
                if tracer is not None:
                    tracer.unparked(w, "warp_sync", release)
            warp.n_unparked += len(waiters)
            self._push_group(release, waiters)
            del warp.sync_waiters[mask]
        else:
            # A lane waiting on an explicit mask is parked; it may unblock
            # a pending warp_converge of the remaining lanes.
            self._maybe_release_conv(warp, t)

    def _maybe_release_conv(self, warp: _Warp, t: int) -> None:
        if warp.conv_waiters and not warp.n_unparked:
            # no lane still running; the converged set is complete
            self._release_conv(warp, t)

    def _release_conv(self, warp: _Warp, t: int) -> None:
        threads = self._threads
        mask = frozenset(threads[tid].ctx.lane for tid in warp.conv_waiters)
        release = (
            max(threads[tid].park_time for tid in warp.conv_waiters)
            + self.cost_model.warp_conv_cost
        )
        release = max(release, t)
        keys = warp.conv_keys
        tracer = self.tracer
        _MISSING = object()
        for tid in warp.conv_waiters:
            w = threads[tid]
            w.state = _ST_READY
            key = keys.get(tid, _MISSING)
            if key is _MISSING:
                # plain warp_converge: the full converged mask
                w.inbox = mask
            else:
                # warp_match: only the converged lanes with an equal key
                w.inbox = frozenset(
                    threads[o].ctx.lane
                    for o in warp.conv_waiters
                    if keys.get(o, _MISSING) == key
                )
            if tracer is not None:
                tracer.unparked(w, "warp_converge", release)
        warp.n_unparked += len(warp.conv_waiters)
        self._push_group(release, warp.conv_waiters)
        warp.conv_waiters.clear()
        warp.conv_keys.clear()
        warp.conv_gen += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state_digest(self) -> tuple:
        """Cheap deterministic digest of the instantaneous scheduler
        state: ``(digest, contended)``.

        ``digest`` is a 64-bit FNV-style fold over the *abstract*
        schedule state — live-thread count, the pending-event multiset
        as ``(time - now, tid)`` pairs, the parked-thread set (barrier /
        convergence waiters), and the contended sync words (words whose
        atomic-service slot lies in the future) together with their
        current memory values.  ``contended`` is the number of such
        words — a same-word convoy-depth proxy the exploration engine
        uses as its "interesting state" signal (bulk-semaphore renege
        storms, TBuddy lock convoys and RCU grace windows all manifest
        as hot contended words).

        Multiset folds are commutative sums, *not* ordered folds, so
        the digest reads the abstract state, not how the queue happens
        to hold it.  Mid-run (a probe) the bucket being drained counts
        only its unconsumed suffix: the consumed prefix, the current
        event included, has already run.  Timers fold as ``_TIMER``
        whatever their queue id.  Everything folded is an int, so the
        digest is stable across processes and platforms — no reliance
        on ``hash()``.
        """
        now = self._now
        h = _FNV_OFFSET
        h = ((h ^ (self._live_threads & _MASK64)) * _FNV_PRIME) & _MASK64
        # pending-event multiset as (time - now, tid) pairs (a sum, so
        # masked once at the end)
        acc = 0
        for t, bucket in self._buckets.items():
            if t == now and self._drained:
                bucket = bucket[self._drained:]
            e0 = ((_FNV_OFFSET ^ ((t - now) & _MASK64)) * _FNV_PRIME) & _MASK64
            for tid in bucket:
                acc += ((e0 ^ (tid if tid >= 0 else _TIMER_BITS)) * _FNV_PRIME) & _MASK64
        acc &= _MASK64
        h = ((h ^ acc) * _FNV_PRIME) & _MASK64
        # parked threads (barrier / convergence waiters)
        acc = 0
        for th in self._threads:
            if th is None:
                continue
            st = th.state
            if st == _ST_BARRIER or st == _ST_CONV:
                e = _FNV_OFFSET
                e = ((e ^ th.tid) * _FNV_PRIME) & _MASK64
                e = ((e ^ st) * _FNV_PRIME) & _MASK64
                acc = (acc + e) & _MASK64
        h = ((h ^ acc) * _FNV_PRIME) & _MASK64
        # contended sync words + their values
        load_word = self.memory.load_word
        acc = 0
        contended = 0
        for waddr, avail in self._word_avail.items():
            if avail > now:
                contended += 1
                e = _FNV_OFFSET
                e = ((e ^ waddr) * _FNV_PRIME) & _MASK64
                e = ((e ^ ((avail - now) & _MASK64)) * _FNV_PRIME) & _MASK64
                e = ((e ^ (load_word(waddr << 3) & _MASK64)) * _FNV_PRIME) & _MASK64
                acc = (acc + e) & _MASK64
        h = ((h ^ acc) * _FNV_PRIME) & _MASK64
        h = ((h ^ contended) * _FNV_PRIME) & _MASK64
        return (h, contended)

    @property
    def now(self) -> int:
        """Current virtual time (cycles)."""
        return self._now

    @property
    def live_threads(self) -> int:
        return self._live_threads
