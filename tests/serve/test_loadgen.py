"""The replay load generator, reconciled against ground truth.

The acceptance bar: loadgen replaying the bundled ``mt_small`` trace
over a real socket produces per-tenant ledgers identical to a direct
(in-process, closed-loop) :func:`repro.workloads.replay.replay` of the
same trace — the open system and the closed system must tell the same
accounting story.
"""

from __future__ import annotations

import socket
import threading

from repro.serve import loadgen
from repro.serve.engine import ServeEngine
from repro.serve.server import ServeServer
from repro.workloads.replay import TenantStats, replay
from repro.workloads.trace import OP_MALLOC, TraceEvent, load_bundled

POOL = 4 << 20  # ample: zero failures make ledger equality exact
LEDGER_FIELDS = ("n_malloc", "n_malloc_failed", "n_free", "n_free_skipped",
                 "bytes_requested", "bytes_served")


def _serve(trace, **engine_kw):
    engine_kw.setdefault("backend", "ours")
    engine_kw.setdefault("pool", POOL)
    engine_kw.setdefault("seed", 0)
    srv = ServeServer(ServeEngine(**engine_kw), batch_window=0.002,
                      batch_max=32)
    with srv as (host, port):
        report = loadgen.run(trace, host, port)
    return srv, report


class TestReplayReconciliation:
    def test_mt_small_ledgers_match_direct_replay(self):
        trace = load_bundled("mt_small")
        srv, report = _serve(trace)
        assert report.protocol_errors == 0
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
        assert report.protocol_errors == 0
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
        from repro.serve.cli import _check_against_server

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
    """Deterministic monotonic clock whose every sleep overshoots."""

    def __init__(self, overshoot: float):
        self.now = 0.0
        self.overshoot = overshoot
        self.sleeps: list = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds + self.overshoot


def _session_shell(events, cps):
    """A _TenantSession with the wire stubbed out: only pacing runs."""
    sess = object.__new__(loadgen._TenantSession)
    sess.stats = TenantStats()
    sess.cps = cps
    sess.events = events
    sess.lock = threading.Lock()
    sess.report = loadgen.LoadReport()
    done = loadgen._Future()
    done.resolve({"ok": False, "cause": "stub"})
    sess._issue = lambda msg: done
    return sess


class TestPacing:
    def test_pacing_anchors_to_an_absolute_schedule(self, monkeypatch):
        # Regression: pacing slept per-event deltas, so every sleep's
        # overshoot (and all send/wait time in between) accumulated —
        # under a clock that overshoots each sleep by 50ms, a 40-event
        # stream drifted ~2s behind its own schedule.  Anchored to t0,
        # the drift is bounded by a single overshoot regardless of
        # stream length.
        overshoot = 0.05
        clock = _FakeClock(overshoot)
        monkeypatch.setattr(loadgen, "_time", clock)
        cps = 1000.0
        events = [TraceEvent(op=OP_MALLOC, id=i, tenant=0, time=i * 100,
                             size=8) for i in range(40)]
        sess = _session_shell(events, cps)
        sess._replay_events()
        span = (events[-1].time - events[0].time) / cps
        assert clock.now >= span, "pacing did not pace at all"
        assert clock.now <= span + 3 * overshoot, (
            f"paced stream drifted {clock.now - span:.3f}s past its "
            f"schedule: per-delta sleeps are accumulating overshoot"
        )

    def test_paced_run_accounts_identically(self):
        trace = load_bundled("serve_small")
        _, flat = _serve(trace)
        srv = ServeServer(ServeEngine(backend="ours", pool=POOL, seed=0),
                          batch_window=0.002, batch_max=32)
        with srv as (host, port):
            paced = loadgen.run(trace, host, port,
                                cycles_per_second=10_000_000)
        assert paced.protocol_errors == 0
        for t, st in flat.tenants.items():
            ref = paced.tenants[t]
            for f in LEDGER_FIELDS:
                assert getattr(st, f) == getattr(ref, f), (t, f)


class TestWedgedReader:
    def test_silent_server_after_bye_is_a_session_error(self, monkeypatch):
        # Regression: the post-bye reader join ignored its timeout, so a
        # server that accepted the session and then went silent without
        # closing left the reader wedged mid-recv while the session
        # reported itself clean.
        monkeypatch.setattr(loadgen, "REPLY_TIMEOUT", 0.2)
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        _, port = srv.getsockname()
        release = threading.Event()

        def hello_then_silent():
            conn, _ = srv.accept()
            rd = conn.makefile("r", encoding="utf-8", newline="\n")
            rd.readline()                      # the client's hello
            conn.sendall(b'{"ok": true}\n')    # accept the session ...
            release.wait(5.0)                  # ... then wedge: no replies,
            conn.close()                       #     no close

        server = threading.Thread(target=hello_then_silent, daemon=True)
        server.start()
        sess = loadgen._TenantSession(
            "127.0.0.1", port, 0, [], loadgen.LoadReport(),
            threading.Lock(), None)
        try:
            sess._run()
        finally:
            release.set()
            srv.close()
        assert isinstance(sess.error, RuntimeError), sess.error
        assert "reader still alive" in str(sess.error)
