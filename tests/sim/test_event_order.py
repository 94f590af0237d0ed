"""Golden schedules: the scheduler's event order, pinned to values.

The loop-parity tests compare the run loop's tracer bindings with each
other, so a reordering every binding shares passes them.  These tests
pin the order itself, under each binding.  Every expected value below was recorded from the
scheduler as it stood before the event queue became time-bucketed; a
change to the queue must reproduce them exactly.

The microkernels are tie-heavy on purpose: the ordering rule that
matters is the one *within* a timestamp (events run in push order,
timers included), and it shows only where many events share one.
Atomics issued right after a cohort wakes reserve their word's service
slots in drain order, so the fetched values record that order in the
results.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.sim import DeviceMemory, Scheduler, ops
from repro.sim.cost_model import CostModel
from repro.sim.errors import EventBudgetExceeded
from repro.sim.trace import Tracer
from repro.verify.race import RaceChecker

#: every hook binding of the one run loop, keyed by the tracer that
#: selects it; "fast" is the unbound binding (no tracer)
LOOPS = {
    "fast": lambda: None,
    "traced": Tracer,
    "traced-no-timeline": lambda: Tracer(timeline=False),
    "race-checker": RaceChecker,
}

#: probe interval: prime, so probes land at varied offsets inside cohorts
PROBE_EVERY = 7

#: zero step and yield costs: ``sleep(0)``, ``cpu_yield`` and a free
#: atomic slot all reschedule a thread at the timestamp being drained
ZERO_STEP = CostModel(step_cost=0, yield_cost=0)


def _fp(obj) -> str:
    """A short, process-stable fingerprint of a plain-data value."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# microkernels: build(s, mem) launches and returns a result extractor
# ----------------------------------------------------------------------
def _barrier_cohorts(s, mem):
    """Two barrier cohorts per block, released at one time each; the
    first atomic after each release is issued in drain order."""
    order = mem.host_alloc(16)

    def kernel(ctx):
        yield ops.sleep(ctx.tid % 3)
        yield ops.syncthreads()
        first = yield ops.atomic_add(order, 1)
        yield ops.sleep(0)
        yield ops.sleep(ctx.tid % 5)
        yield ops.syncthreads()
        second = yield ops.atomic_add(order + 8, 1)
        return (first, second)

    h = s.launch(kernel, 2, 64)
    return lambda: h.results


def _conv_window_collision(s, mem):
    """Four lanes park on ``warp_converge`` at once; the rest keep
    stepping, so the convergence-window timer fires at a timestamp where
    running lanes also resume.  The lanes it releases were parked long
    before, so ``_release_conv`` clamps their release to the timer's own
    timestamp: a push at the time being drained."""
    order = mem.host_alloc(8)

    def kernel(ctx):
        if ctx.lane >= 4:
            for _ in range(30 + ctx.lane % 5):
                yield ops.sleep(ctx.lane % 3)
        mask = yield ops.warp_converge()
        old = yield ops.atomic_add(order, 1)
        return (len(mask), min(mask), old)

    h = s.launch(kernel, 1, 64)
    return lambda: h.results


def _zero_cost_pushes(s, mem):
    """With zero step and yield costs, ``sleep(0)``, ``cpu_yield`` and a
    free atomic slot push the thread back onto the timestamp being
    drained, behind the cohort it was released with."""
    words = mem.host_alloc(8 * 4)

    def kernel(ctx):
        got = []
        for i in range(3):
            yield ops.syncthreads()
            yield ops.sleep(0)
            yield ops.cpu_yield()
            got.append((yield ops.atomic_add(words + 8 * ((ctx.tid + i) % 4), 1)))
        return tuple(got)

    h = s.launch(kernel, 2, 32)
    return lambda: h.results


def _multi_launch_reuse(s, mem):
    """A reused scheduler: the second launch's cohorts start where the
    first run left virtual time."""
    word = mem.host_alloc(8)

    def kernel(ctx):
        yield ops.syncthreads()
        old = yield ops.atomic_add(word, 1)
        yield ops.sleep(ctx.tid % 3)
        return old

    h1 = s.launch(kernel, 2, 32)
    r1 = s.run()
    mid = (r1.cycles, r1.events, s.now, tuple(h1.results))
    h2 = s.launch(kernel, 2, 32)
    return lambda: (mid, tuple(h2.results))


SCENARIOS = {
    "barrier_cohorts": (_barrier_cohorts, {}),
    "conv_window_collision": (_conv_window_collision, {}),
    "zero_cost_pushes": (_zero_cost_pushes, {"cost_model": ZERO_STEP}),
    "multi_launch_reuse": (_multi_launch_reuse, {}),
}

#: scenario -> (cycles, events, op counts, results fingerprint,
#: probe count, digest-stream fingerprint)
GOLDEN = {
    "barrier_cohorts": (
        1244, 1024, [(0, 384), (4, 256), (11, 256)],
        "0c352e455ea47c86", 146, "437166d29daa1274"),
    "conv_window_collision": (
        645, 1986, [(0, 1790), (4, 64), (12, 64)],
        "409b526d99701328", 283, "a467a2f55489deb5"),
    "zero_cost_pushes": (
        783, 832, [(0, 192), (4, 192), (11, 192), (13, 192)],
        "960255fec4b3aa38", 118, "df31ec01988d4c20"),
    "multi_launch_reuse": (
        1342, 512, [(0, 128), (4, 128), (11, 128)],
        "79dd72ee88bc110c", 72, "d15d95f091d9472d"),
}


def _outcome(build, make_tracer, **kw):
    mem = DeviceMemory(1 << 16)
    digests: list = []
    s = Scheduler(mem, seed=3, tracer=make_tracer(),
                  schedule_probe=digests.append, probe_every=PROBE_EVERY, **kw)
    extract = build(s, mem)
    report = s.run()
    return (report.cycles, report.events, sorted(report.op_counts.items()),
            _fp(extract()), len(digests), _fp(digests))


@pytest.mark.parametrize("loop", list(LOOPS))
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_golden_schedule(scenario, loop):
    build, kw = SCENARIOS[scenario]
    assert _outcome(build, LOOPS[loop], **kw) == GOLDEN[scenario]


def test_conv_timer_releases_at_the_drained_timestamp():
    # The collision scenario's premise: the window timer fires at a
    # timestamp other events share, and its release lands on it.
    mem = DeviceMemory(1 << 16)
    seen = []
    s = Scheduler(mem, seed=3, schedule_probe=lambda d: seen.append(s.now),
                  probe_every=1)
    group = s._push_group
    releases = []

    def spy(t, tids):
        releases.append((t, s.now, len(tids)))
        group(t, tids)

    s._push_group = spy
    _conv_window_collision(s, mem)
    s.run()
    clamped = [t for t, now, _ in releases if t == now]
    assert clamped, "no release landed on the timestamp being drained"
    assert all(seen.count(t) > 1 for t in clamped)


# ----------------------------------------------------------------------
# runs cut short mid-cohort
# ----------------------------------------------------------------------
#: budgets that trip inside the first barrier cohort of
#: :func:`_barrier_cohorts`, with the wreckage each leaves
BUDGET_GOLDEN = {
    257: ((4433404166072368874, 1), 128, 259),
    306: ((13605614391313022056, 1), 128, 259),
    320: ((13935857912460226752, 1), 128, 259),
    381: ((14688986173969460840, 1), 128, 259),
}


def _event_times():
    """Virtual time of every event of the barrier-cohort run, in order."""
    mem = DeviceMemory(1 << 16)
    times = []
    s = Scheduler(mem, seed=3, schedule_probe=lambda d: times.append(s.now),
                  probe_every=1)
    _barrier_cohorts(s, mem)
    s.run()
    return times


def test_budgets_land_mid_cohort():
    times = _event_times()
    for budget in BUDGET_GOLDEN:
        # the tripping event (number budget + 1) shares its timestamp
        # with events on both sides of it
        assert times[budget - 1] == times[budget] == times[budget + 1]


@pytest.mark.parametrize("loop", list(LOOPS))
def test_budget_trip_mid_cohort(loop):
    for budget, expected in BUDGET_GOLDEN.items():
        mem = DeviceMemory(1 << 16)
        s = Scheduler(mem, seed=3, tracer=LOOPS[loop]())
        _barrier_cohorts(s, mem)
        with pytest.raises(EventBudgetExceeded):
            s.run(max_events=budget)
        assert (s.state_digest(), s.live_threads, s.now) == expected, budget


#: thread that raises right after the first barrier release, mid-drain
RAISER = 37

EXCEPTION_GOLDEN = ((5942754274525818668, 1), 128, 259)


@pytest.mark.parametrize("loop", list(LOOPS))
def test_device_exception_mid_cohort(loop):
    mem = DeviceMemory(1 << 16)
    order = mem.host_alloc(8)

    def kernel(ctx):
        yield ops.sleep(ctx.tid % 3)
        yield ops.syncthreads()
        if ctx.tid == RAISER:
            raise RuntimeError("boom")
        yield ops.atomic_add(order, 1)

    s = Scheduler(mem, seed=3, tracer=LOOPS[loop]())
    s.launch(kernel, 2, 64)
    with pytest.raises(RuntimeError, match="boom") as ei:
        s.run()
    notes = getattr(ei.value, "__notes__", [])
    assert any(f"tid={RAISER} " in n for n in notes)
    assert (s.state_digest(), s.live_threads, s.now) == EXCEPTION_GOLDEN
