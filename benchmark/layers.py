"""Layer spans recorded from outside the program under test.

The benchmark never edits ``src/``.  It measures each layer by wrapping
that layer's public functions at run time, inside :func:`instrument`,
and restores every original on exit.  Two levels exist:

``run``
    Only the harness boundaries: ``Scheduler.run`` (host time, events
    and simulated cycles per call), ``repro.par.pool.map_sharded`` (item
    time measured inside the worker) and ``ServeEngine.submit`` (episode
    host time).  A deck pass makes a few dozen such calls, so this level
    costs nothing measurable; the timed passes run under it.
``full``
    Adds the device-side layers (sync primitives, allocator core,
    baseline backends), the verify checker and the serve front end, and
    attaches a plain :class:`~repro.sim.trace.Tracer` to every scheduler
    built without one, so each wrapper can read the calling thread's
    virtual clock through ``ctx.trace.now(ctx)``.  Only the single
    traced pass runs under it.

Device code runs as generators that the scheduler resumes one op at a
time, so a device-side span accumulates host time per resume, not from
call to return: that is the host time the layer itself costs.  A span's
self time is its host time minus the host time of the spans nested in
it.  Spans are kept per thread (the serve front end is multi-threaded)
and merged on export.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import weakref
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

#: device-side spans: (span name, module, class, method); ``vcycles`` is
#: read for each of them
SYNC_SPANS = (
    ("sync.bulk_semaphore.wait", "repro.sync.bulk_semaphore", "BulkSemaphore", "wait"),
    ("sync.bulk_semaphore.signal", "repro.sync.bulk_semaphore", "BulkSemaphore", "signal"),
    ("sync.counting_semaphore.wait", "repro.sync.counting_semaphore", "CountingSemaphore", "wait"),
    ("sync.rcu.read_lock", "repro.sync.rcu", "RCU", "read_lock"),
    ("sync.rcu.synchronize", "repro.sync.rcu", "RCU", "synchronize"),
    ("sync.rcu.synchronize_conditional", "repro.sync.rcu", "RCU", "synchronize_conditional"),
    ("sync.spinlock.lock", "repro.sync.spinlock", "SpinLock", "lock"),
    ("sync.collective.lock_warp", "repro.sync.collective", "CollectiveMutex", "lock_warp"),
)
CORE_SPANS = (
    ("core.allocator.malloc", "repro.core.allocator", "ThroughputAllocator", "malloc"),
    ("core.allocator.malloc_coalesced", "repro.core.allocator", "ThroughputAllocator", "malloc_coalesced"),
    ("core.allocator.free", "repro.core.allocator", "ThroughputAllocator", "free"),
    ("core.ualloc.malloc", "repro.core.ualloc", "UAlloc", "malloc"),
    ("core.ualloc.free", "repro.core.ualloc", "UAlloc", "free"),
    ("core.tbuddy.alloc", "repro.core.tbuddy", "TBuddy", "alloc"),
    ("core.tbuddy.free", "repro.core.tbuddy", "TBuddy", "free"),
)
#: the malloc entry points whose NULL returns count as ``.failed``
FAILABLE = ("core.allocator.malloc", "core.allocator.malloc_coalesced",
            "core.ualloc.malloc")
#: baseline backends wrapped through the handle ``Backend.build`` returns
#: (the paper allocator's own entry points are the ``core`` spans)
BACKENDS = ("cuda", "xmalloc", "scatteralloc", "bump", "lock-buddy",
            "hostbased")
#: verify checker hooks whose host time is ``verify.checker``
CHECKER_HOOKS = ("mem_op", "list_removed", "list_inserted",
                 "rcu_grace_period", "quiesce")
#: serve front-end functions; the protocol module is looked up by the
#: server at call time, so module attributes can be replaced
PROTOCOL_FUNCS = ("decode_line", "parse_hello", "parse_request", "encode")

_NULL = (1 << 64) - 1  # DeviceMemory.NULL

#: the recorder of the current :func:`instrument` block.  Forked worker
#: processes reach it through this module, because the item wrapper
#: handed to ``map_sharded`` is pickled by reference.
_active: Optional["Recorder"] = None


class Span:
    """Accumulated statistics of one named span."""

    __slots__ = ("calls", "total_s", "self_s", "vcycles", "vcalls", "failed")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.vcycles = 0
        self.vcalls = 0
        self.failed = 0

    def as_list(self) -> list:
        return [self.calls, self.total_s, self.self_s, self.vcycles,
                self.vcalls, self.failed]

    def add_list(self, values: list) -> None:
        self.calls += values[0]
        self.total_s += values[1]
        self.self_s += values[2]
        self.vcycles += values[3]
        self.vcalls += values[4]
        self.failed += values[5]

    @property
    def vcycles_mean(self) -> float:
        return self.vcycles / self.vcalls if self.vcalls else 0.0


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "samples")

    def __init__(self) -> None:
        #: one ``[child host seconds]`` cell per open span
        self.stack: List[list] = []
        self.spans: Dict[str, Span] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, list] = {}


class Recorder:
    """In-memory span, counter and sample store."""

    def __init__(self) -> None:
        #: the owning process; a forked worker's copy sees another pid
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def count(self, name: str, value: float) -> None:
        counts = self.state().counts
        counts[name] = counts.get(name, 0) + value

    def sample(self, name: str, value) -> None:
        self.state().samples.setdefault(name, []).append(value)

    def export(self) -> dict:
        """Every thread's data merged into one JSON-safe dict."""
        out: dict = {"spans": {}, "counts": {}, "samples": {}}
        with self._lock:
            states = list(self._states)
        for st in states:
            _merge_into(out, {
                "spans": {k: v.as_list() for k, v in st.spans.items()},
                "counts": st.counts, "samples": st.samples})
        return out

    def merge(self, data: dict) -> None:
        """Fold an :meth:`export` (e.g. from a worker) into this thread."""
        st = self.state()
        for name, values in data["spans"].items():
            span = st.spans.get(name)
            if span is None:
                span = st.spans[name] = Span()
            span.add_list(values)
        for name, value in data["counts"].items():
            st.counts[name] = st.counts.get(name, 0) + value
        for name, values in data["samples"].items():
            st.samples.setdefault(name, []).extend(values)


def _merge_into(out: dict, data: dict) -> None:
    for name, values in data["spans"].items():
        have = out["spans"].get(name)
        out["spans"][name] = (list(values) if have is None
                              else [a + b for a, b in zip(have, values)])
    for name, value in data["counts"].items():
        out["counts"][name] = out["counts"].get(name, 0) + value
    for name, values in data["samples"].items():
        out["samples"].setdefault(name, []).extend(values)


def spans_of(data: dict) -> Dict[str, Span]:
    """Rebuild :class:`Span` objects from an :meth:`Recorder.export`."""
    out = {}
    for name, values in data["spans"].items():
        span = out[name] = Span()
        span.add_list(values)
    return out


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _close(st: _ThreadState, span: Span, cell: list, dt: float) -> None:
    st.stack.pop()
    span.total_s += dt
    span.self_s += dt - cell[0]
    if st.stack:
        st.stack[-1][0] += dt


def _span(rec: Recorder, name: str) -> Span:
    spans = rec.state().spans
    span = spans.get(name)
    if span is None:
        span = spans[name] = Span()
    return span


def timed_call(rec: Recorder, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
    """Wrap a plain function: one span per call, call to return.
    ``after(args, result, seconds)`` runs once the call returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = rec.state()
        span = _span(rec, name)
        cell = [0.0]
        st.stack.append(cell)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            _close(st, span, cell, dt)
            span.calls += 1
        if after is not None:
            after(args, result, dt)
        return result

    return wrapper


def timed_gen(rec: Recorder, name: str, fn: Callable, ctx_arg: int,
              failed: Optional[Callable] = None) -> Callable:
    """Wrap a device-side generator function.

    The wrapper drives the original generator itself, so it can time
    each resume and read the virtual clock (``ctx.trace.now(ctx)``) at
    call and at return.  Sent values, thrown exceptions and ``close``
    pass through unchanged: the simulation cannot tell it is there.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ctx = args[ctx_arg]
        tracer = ctx.trace
        v0 = tracer.now(ctx) if tracer is not None else None
        gen = fn(*args, **kwargs)
        span = _span(rec, name)
        span.calls += 1
        st = rec.state()  # a scheduler resumes its threads from one thread
        send, throw = None, None
        while True:
            cell = [0.0]
            st.stack.append(cell)
            t0 = perf_counter()
            try:
                op = gen.send(send) if throw is None else gen.throw(throw)
            except StopIteration as stop:
                _close(st, span, cell, perf_counter() - t0)
                result = stop.value
                break
            except BaseException:
                _close(st, span, cell, perf_counter() - t0)
                raise
            _close(st, span, cell, perf_counter() - t0)
            try:
                send, throw = (yield op), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                send, throw = None, exc
        if v0 is not None:
            span.vcycles += tracer.now(ctx) - v0
            span.vcalls += 1
        if failed is not None and failed(result):
            span.failed += 1
        return result

    return wrapper


def wrap(rec: Recorder, name: str, fn: Callable, ctx_arg: int = 1,
         failed: Optional[Callable] = None) -> Callable:
    """Wrap a device-side entry point, generator or not: a later version
    of the program may turn one into a plain function."""
    if inspect.isgeneratorfunction(fn):
        return timed_gen(rec, name, fn, ctx_arg, failed)
    return timed_call(rec, name, fn)


class TimedItem:
    """``map_sharded`` work-function wrapper, pickled by reference.

    Returns ``(result, item seconds, spans)``: the time is measured in
    the process that ran the item, and a forked worker ships the spans
    its item recorded back with the result."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item):
        rec = _active
        in_worker = rec is not None and os.getpid() != rec.pid
        if in_worker:
            rec.reset()
        t0 = perf_counter()
        result = self.fn(item)
        seconds = perf_counter() - t0
        return result, seconds, rec.export() if in_worker else None


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
class _Patches:
    """Attribute replacements, undone in reverse order.

    A wrapped name that a later version of the program no longer has is
    skipped: its span then reads zero instead of the benchmark failing."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, obj, attr: str, make: Callable) -> None:
        """Replace ``obj.attr`` with ``make(original)``."""
        original = vars(obj).get(attr)
        if original is None:
            return
        self._undo.append((obj, attr, original))
        setattr(obj, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


def _install_run_level(rec: Recorder, p: _Patches) -> None:
    from repro.par import pool
    from repro.serve.engine import ServeEngine
    from repro.sim.scheduler import Scheduler

    seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def after_run(args, report, seconds):
        sched = args[0]
        events0, cycles0 = seen.get(sched, (0, 0))
        seen[sched] = (report.events, report.cycles)
        events = report.events - events0
        rec.count("sim.events", events)
        rec.count("sim.cycles", report.cycles - cycles0)
        if sched.tracer is not None:
            rec.count("sim.traced_events", events)
        rec.sample("sim.run", seconds)

    p.set(Scheduler, "run", lambda fn: timed_call(rec, "sim.run", fn,
                                                  after=after_run))

    def timed_map(orig_map):
        def map_sharded(fn, items, *args, **kwargs):
            out = orig_map(TimedItem(fn), items, *args, **kwargs)
            for _, seconds, spans in out:
                rec.sample("par.item", seconds)
                if spans is not None:
                    rec.merge(spans)
            rec.count("par.items", len(out))
            return [result for result, _, _ in out]

        return timed_call(rec, "par.map_sharded", map_sharded)

    p.set(pool, "map_sharded", timed_map)

    def after_submit(args, outcomes, seconds):
        episodes = {o.episode for o in outcomes if o.episode is not None}
        for episode in episodes:
            rec.sample("serve.exec", [episode, seconds])
        rec.count("serve.requests", len(outcomes))

    p.set(ServeEngine, "submit", lambda fn: timed_call(
        rec, "serve.submit", fn, after=after_submit))


def _install_full_level(rec: Recorder, p: _Patches) -> None:
    import importlib

    from repro.backends.registry import Backend
    from repro.serve import admission, protocol
    from repro.sim.scheduler import Scheduler
    from repro.sim.trace import Tracer
    from repro.verify import race

    # the package re-exports a function under the module's name
    explore = importlib.import_module("repro.verify.explore")

    for name, module, cls, method in SYNC_SPANS + CORE_SPANS:
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None:
            continue
        failed = (lambda addr: addr == _NULL) if name in FAILABLE else None
        p.set(owner, method, lambda fn, name=name, failed=failed: wrap(
            rec, name, fn, failed=failed))

    def with_tracer(orig_init):
        signature = inspect.signature(orig_init)

        @functools.wraps(orig_init)
        def init(self, *args, **kwargs):
            bound = signature.bind_partial(self, *args, **kwargs)
            if bound.arguments.get("tracer") is None:
                kwargs["tracer"] = Tracer(timeline=False)
            orig_init(self, *args, **kwargs)

        return init

    p.set(Scheduler, "__init__", with_tracer)

    def wrapping_build(orig_build):
        @functools.wraps(orig_build)
        def build(self, *args, **kwargs):
            handle = orig_build(self, *args, **kwargs)
            if handle.name in BACKENDS:
                handle.malloc = wrap(rec, f"backends.{handle.name}.malloc",
                                     handle.malloc, ctx_arg=0)
            return handle

        return build

    p.set(Backend, "build", wrapping_build)

    p.set(explore, "run_case", lambda fn: timed_call(rec, "verify.run_case",
                                                     fn))
    for hook in CHECKER_HOOKS:
        p.set(race.RaceChecker, hook,
              lambda fn: timed_call(rec, "verify.checker", fn))

    def after_admit(args, cause, seconds):
        if cause is not None:
            rec.count("serve.admission.rejects", 1)

    for method in ("admit_malloc", "admit_free"):
        p.set(admission.AdmissionController, method,
              lambda fn: timed_call(rec, "serve.admission", fn,
                                    after=after_admit))
    for fn_name in PROTOCOL_FUNCS:
        p.set(protocol, fn_name,
              lambda fn: timed_call(rec, "serve.protocol", fn))


@contextmanager
def instrument(rec: Recorder, level: str) -> Iterator[Recorder]:
    """Install the ``level`` wrappers for the duration of the block."""
    global _active
    if level not in ("run", "full"):
        raise ValueError(f"unknown instrumentation level {level!r}")
    patches = _Patches()
    with ExitStack() as stack:
        stack.callback(patches.restore)
        _install_run_level(rec, patches)
        if level == "full":
            _install_full_level(rec, patches)
        _active = rec
        try:
            yield rec
        finally:
            _active = None
