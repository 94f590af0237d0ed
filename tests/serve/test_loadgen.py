"""The replay load generator, reconciled against ground truth.

The acceptance bar: loadgen replaying the bundled ``mt_small`` trace
over a real socket produces per-tenant ledgers identical to a direct
(in-process, closed-loop) :func:`repro.workloads.replay.replay` of the
same trace — the open system and the closed system must tell the same
accounting story.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
import types

import pytest

from repro.serve import loadgen
from repro.serve import server as server_mod
from repro.serve.engine import ServeEngine
from repro.serve.server import ServeServer
from repro.workloads.replay import replay
from repro.workloads.trace import (OP_FREE, OP_MALLOC, Trace, TraceEvent,
                                    load_bundled)

POOL = 4 << 20  # ample: zero failures make ledger equality exact
LEDGER_FIELDS = ("n_malloc", "n_malloc_failed", "n_free", "n_free_skipped",
                 "bytes_requested", "bytes_served")


def _serve(trace, cycles_per_second=None, **engine_kw):
    engine_kw.setdefault("backend", "ours")
    engine_kw.setdefault("pool", POOL)
    engine_kw.setdefault("seed", 0)
    srv = ServeServer(ServeEngine(**engine_kw))
    with srv as (host, port):
        report = loadgen.run(trace, host, port,
                             cycles_per_second=cycles_per_second)
    return srv, report


class TestReplayReconciliation:
    def test_mt_small_ledgers_match_direct_replay(self):
        trace = load_bundled("mt_small")
        srv, report = _serve(trace)
        assert srv.protocol_errors == 0
        assert report.sessions == trace.tenants
        direct = replay(trace, backend="ours", seed=0, pool=POOL)
        assert set(report.tenants) == set(direct.tenants)
        for t, st in report.tenants.items():
            ref = direct.tenants[t]
            for f in LEDGER_FIELDS:
                assert getattr(st, f) == getattr(ref, f), (t, f)

    def test_client_ledger_matches_server_ledger(self):
        trace = load_bundled("mt_small")
        srv, report = _serve(trace)
        server_stats = srv.engine.stats
        assert set(report.tenants) == set(server_stats)
        for t, st in report.tenants.items():
            ref = server_stats[t]
            # the server never sees client-side skipped frees, so every
            # field but n_free_skipped is comparable
            for f in ("n_malloc", "n_malloc_failed", "n_free",
                      "bytes_requested", "bytes_served"):
                assert getattr(st, f) == getattr(ref, f), (t, f)

    def test_latencies_are_reported_per_request(self):
        trace = load_bundled("mt_small")
        _, report = _serve(trace)
        t = report.totals()
        # one latency per completed request (failed ones carry none)
        assert len(report.latencies) == t.n_malloc - t.n_malloc_failed \
            + t.n_free
        assert all(lat > 0 for lat in report.latencies)
        assert report.wall_seconds > 0


class TestQuotaUnderLoad:
    def test_tight_quota_rejections_reach_the_client(self):
        trace = load_bundled("mt_small")
        srv, report = _serve(trace, quota_bytes=2 << 10)
        assert srv.protocol_errors == 0
        assert report.causes.get("quota", 0) > 0
        # client and server agree on the rejection count exactly
        assert report.totals().n_malloc_failed == \
            srv.engine.totals().n_malloc_failed
        # skipped frees mirror failed mallocs for a balanced trace
        assert report.totals().n_free_skipped == \
            report.totals().n_malloc_failed

    def test_server_check_passes_despite_client_skipped_frees(self):
        # Regression: `serve bench` compared the client's
        # n_free + n_free_skipped with the server's, but a free the
        # client skips after a failed malloc never reaches the server,
        # so every failed malloc read as a ledger mismatch.
        from repro.serve.cli import SERVER_FIELDS, _check_ledgers

        def _check_against_server(report, engine):
            return _check_ledgers("server", report, engine.stats,
                                  SERVER_FIELDS)

        trace = load_bundled("mt_small")
        srv, report = _serve(trace, quota_bytes=2 << 10)
        assert report.totals().n_free_skipped > 0
        assert _check_against_server(report, srv.engine) == []
        # a genuinely corrupted client ledger is still caught
        tenant = min(report.tenants)
        report.tenants[tenant].n_free += 1
        problems = _check_against_server(report, srv.engine)
        assert len(problems) == 1
        assert f"tenant {tenant} n_free:" in problems[0]


class _FakeClock:
    """Deterministic monotonic clock: only the loop's paced waits move it,
    and every one of them overshoots."""

    def __init__(self, overshoot: float):
        self.now = 0.0
        self.overshoot = overshoot

    def monotonic(self) -> float:
        return self.now


def _selectors_on(clock: _FakeClock):
    """A ``selectors`` namespace for loadgen whose short (paced) waits
    run on ``clock``: a wait no ready socket ends advances the clock by
    the wait plus its overshoot.  Long waits (for replies, bounded by
    ``REPLY_TIMEOUT``) block on the real sockets and leave it alone."""

    class Selector(selectors.DefaultSelector):
        def select(self, timeout=None):
            ready = super().select(0)
            if ready or timeout > 1.0:
                return ready or super().select(timeout)
            clock.now += timeout + clock.overshoot
            return []

    return types.SimpleNamespace(DefaultSelector=Selector,
                                 EVENT_READ=selectors.EVENT_READ,
                                 EVENT_WRITE=selectors.EVENT_WRITE)


def _trace(events):
    return Trace(family="test", seed=0, tenants=1, events=events)


class TestPacing:
    def test_pacing_anchors_to_an_absolute_schedule(self, monkeypatch):
        # Regression: pacing slept per-event deltas, so every sleep's
        # overshoot (and all send/wait time in between) accumulated —
        # under a clock that overshoots each wait by 50ms, a 40-event
        # stream drifted ~2s behind its own schedule.  Anchored to t0,
        # the drift is bounded by a single overshoot regardless of
        # stream length.
        overshoot = 0.05
        clock = _FakeClock(overshoot)
        cps = 1000.0
        events = [TraceEvent(op=OP_MALLOC, id=i, tenant=0, time=i * 100,
                             size=8) for i in range(40)]
        # loadgen's own names only: the server keeps the real ones
        monkeypatch.setattr(loadgen, "_time", clock)
        monkeypatch.setattr(loadgen, "selectors", _selectors_on(clock))
        _, report = _serve(_trace(events), cycles_per_second=cps)
        assert report.tenants[0].n_malloc == 40
        # the last send is the last thing to move the clock
        span = (events[-1].time - events[0].time) / cps
        assert clock.now >= span, "pacing did not pace at all"
        assert clock.now <= span + 3 * overshoot, (
            f"paced stream drifted {clock.now - span:.3f}s past its "
            f"schedule: per-delta sleeps are accumulating overshoot"
        )

    def test_paced_run_accounts_identically(self):
        trace = load_bundled("serve_small")
        _, flat = _serve(trace)
        srv = ServeServer(ServeEngine(backend="ours", pool=POOL, seed=0))
        with srv as (host, port):
            paced = loadgen.run(trace, host, port,
                                cycles_per_second=10_000_000)
        assert srv.protocol_errors == 0
        for t, st in flat.tenants.items():
            ref = paced.tenants[t]
            for f in LEDGER_FIELDS:
                assert getattr(st, f) == getattr(ref, f), (t, f)


def _one_session_server(serve_session):
    """A loopback listener whose first session ``serve_session(conn,
    release)`` handles on a thread; returns (port, stop).  The handler
    holds the socket open until ``release`` is set, which ``stop`` does."""
    lst = socket.create_server(("127.0.0.1", 0))
    release = threading.Event()

    def accept():
        conn, _ = lst.accept()
        with conn:
            serve_session(conn, release)

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()

    def stop():
        release.set()
        thread.join(5.0)
        lst.close()
        assert not thread.is_alive()

    return lst.getsockname()[1], stop


_HELLO_OK = b'{"ok": true, "op": "hello"}\n'
_MALLOC_THEN_FREE = _trace([
    TraceEvent(op=OP_MALLOC, id=0, tenant=0, time=0, size=8),
    TraceEvent(op=OP_FREE, id=0, tenant=0, time=1),
])


class TestWedgedReader:
    def test_silent_server_after_bye_is_a_session_error(self, monkeypatch):
        # Regression: the post-bye wait ignored its timeout, so a server
        # that answered every request (bye included) and then went
        # silent without closing reported the session clean.
        monkeypatch.setattr(loadgen, "REPLY_TIMEOUT", 0.2)

        def answer_then_wedge(conn, release):
            for line in conn.makefile("rb"):
                msg = json.loads(line)
                if msg["op"] == "hello":
                    conn.sendall(_HELLO_OK)
                elif msg["op"] == "bye":
                    conn.sendall(b'{"ok": true, "op": "bye"}\n')
                    break
                else:
                    reply = {"ok": True, "req": msg["req"], "addr": 4096,
                             "latency": 1}
                    conn.sendall(json.dumps(reply).encode() + b"\n")
            release.wait(5.0)                  # wedge: no close

        port, stop = _one_session_server(answer_then_wedge)
        try:
            with pytest.raises(RuntimeError, match="wedged"):
                loadgen.run(_MALLOC_THEN_FREE, "127.0.0.1", port)
        finally:
            stop()


class TestHostileReplies:
    def test_malformed_reply_fails_at_once(self, monkeypatch):
        # Regression: a reply that was not JSON killed the reply-reader
        # thread without a word, and the run reported "server hung or
        # died" only after REPLY_TIMEOUT.
        monkeypatch.setattr(loadgen, "REPLY_TIMEOUT", 2.0)

        def hello_then_garbage(conn, release):
            conn.makefile("rb").readline()
            conn.sendall(_HELLO_OK + b"not json\n")
            release.wait(5.0)

        port, stop = _one_session_server(hello_then_garbage)
        t0 = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="not json"):
                loadgen.run(_MALLOC_THEN_FREE, "127.0.0.1", port)
        finally:
            stop()
        assert time.monotonic() - t0 < 1.0

    def test_protocol_error_reply_fails_at_once(self):
        # Regression: a protocol-error reply was counted and the run then
        # waited out REPLY_TIMEOUT (30 s) for the reply the request was
        # owed.  The server echoes the request's id; the client fails at
        # once, naming the tenant and the id.
        def hello_then_protocol_error(conn, release):
            reader = conn.makefile("rb")
            reader.readline()                      # hello
            conn.sendall(_HELLO_OK)
            req = json.loads(reader.readline())["req"]
            reply = {"ok": False, "error": "protocol", "req": req,
                     "detail": "'malloc': size must be >= 1 (got 0)"}
            conn.sendall(json.dumps(reply).encode() + b"\n")
            release.wait(5.0)

        port, stop = _one_session_server(hello_then_protocol_error)
        t0 = time.monotonic()
        try:
            with pytest.raises(RuntimeError,
                               match=r"tenant 0 .*protocol error on req 0"):
                loadgen.run(_MALLOC_THEN_FREE, "127.0.0.1", port)
        finally:
            stop()
        assert time.monotonic() - t0 < 1.0


class TestOneLoop:
    def test_run_starts_no_thread(self, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        srv, _ = _serve(load_bundled("mt_small"))
        assert started == ["serve-loop"]  # the server's; none of loadgen's
        assert srv.protocol_errors == 0

    def test_keeps_reading_while_it_sends(self, monkeypatch):
        # The server drops a session once MAX_UNSENT reply bytes wait on
        # it, so a client that runs far ahead of its replies must read
        # them as it goes: one tenant, 600 mallocs before its first free.
        monkeypatch.setattr(server_mod, "MAX_UNSENT", 4 << 10)
        n = 600
        events = [TraceEvent(op=OP_MALLOC, id=i, tenant=0, time=i, size=16)
                  for i in range(n)]
        events += [TraceEvent(op=OP_FREE, id=i, tenant=0, time=n + i)
                   for i in range(n)]
        trace = _trace(events)
        srv, report = _serve(trace)
        assert srv.protocol_errors == 0
        direct = replay(trace, backend="ours", seed=0, pool=POOL)
        for f in LEDGER_FIELDS:
            assert getattr(report.tenants[0], f) == \
                getattr(direct.tenants[0], f), f
            if f != "n_free_skipped":
                assert getattr(report.tenants[0], f) == \
                    getattr(srv.engine.stats[0], f), f
