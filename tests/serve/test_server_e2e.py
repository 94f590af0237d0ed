"""The socket front end, end to end over real TCP on loopback.

The acceptance bar: at least eight concurrent tenant clients against one
live server, zero protocol errors, every reply well-formed and causally
consistent; plus the failure channels — an over-quota tenant is rejected
deterministically, and malformed frames land on the protocol-error
channel without disturbing well-formed sessions.
"""

from __future__ import annotations

import json
import socket
import statistics
import threading
import time

from repro.serve import protocol
from repro.serve.engine import ServeEngine
from repro.serve.server import ServeServer


#: seconds a test client waits for one reply
REPLY_TIMEOUT = 10.0


class _Client:
    """A tiny synchronous test client (one request in flight at a time)."""

    def __init__(self, host, port, tenant):
        self.conn = socket.create_connection((host, port))
        # a reply that never comes fails the test instead of hanging it
        self.conn.settimeout(REPLY_TIMEOUT)
        self.reader = self.conn.makefile("r", encoding="utf-8", newline="\n")
        self._req = 0
        self.hello = self._rpc({"op": "hello", "proto": protocol.PROTOCOL,
                                "tenant": tenant})

    def _rpc(self, msg):
        self.conn.sendall(protocol.encode(msg))
        return json.loads(self.reader.readline())

    def request(self, op, **fields):
        msg = {"op": op, "req": self._req, **fields}
        self._req += 1
        return self._rpc(msg)

    def raw(self, line: str):
        self.conn.sendall(line.encode() + b"\n")
        return json.loads(self.reader.readline())

    def close(self):
        try:
            self._rpc({"op": "bye"})
        finally:
            self.conn.close()


def _server(**engine_kw):
    engine_kw.setdefault("backend", "ours")
    engine_kw.setdefault("pool", 4 << 20)
    engine_kw.setdefault("seed", 0)
    return ServeServer(ServeEngine(**engine_kw))


class TestSingleSession:
    def test_hello_reports_backend_and_quota(self):
        srv = _server(quota_bytes=1 << 16)
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            assert c.hello["ok"] and c.hello["proto"] == protocol.PROTOCOL
            assert c.hello["backend"].startswith("ours")
            assert c.hello["quota"] == 1 << 16
            c.close()
        assert srv.protocol_errors == 0

    def test_malloc_free_roundtrip(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=1)
            m = c.request("malloc", size=256)
            assert m["ok"] and m["addr"] > 0 and m["latency"] > 0
            f = c.request("free", addr=m["addr"])
            assert f["ok"] and "addr" not in f
            c.close()
        assert srv.engine.live_allocations == 0
        assert srv.protocol_errors == 0

    def test_stats_reflect_own_requests(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=2)
            c.request("malloc", size=64)
            s = c.request("stats")
            assert s["ok"] and s["op"] == "stats"
            assert s["tenants"]["2"]["n_malloc"] == 1
            assert s["live_allocations"] == 1
            c.close()

    def test_over_quota_tenant_deterministically_rejected(self):
        # Same request stream, two fresh servers: identical rejections.
        for _ in range(2):
            srv = _server(quota_bytes=512)
            with srv as (host, port):
                c = _Client(host, port, tenant=0)
                first = c.request("malloc", size=400)
                second = c.request("malloc", size=400)
                assert first["ok"]
                assert not second["ok"] and second["cause"] == "quota"
                # freeing makes room again — the ledger is live state
                c.request("free", addr=first["addr"])
                third = c.request("malloc", size=400)
                assert third["ok"]
                c.close()
            assert srv.protocol_errors == 0


class TestProtocolErrorChannel:
    def test_malformed_json_is_counted_and_answered(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            r = c.raw("{not json")
            assert r["error"] == "protocol" and not r["ok"]
            # the session survives: well-formed traffic still works
            m = c.request("malloc", size=64)
            assert m["ok"]
            c.close()
        assert srv.protocol_errors == 1

    def test_request_before_hello_rejected(self):
        srv = _server()
        with srv as (host, port):
            conn = socket.create_connection((host, port))
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            conn.sendall(protocol.encode({"op": "malloc", "req": 0,
                                          "size": 64}))
            r = json.loads(reader.readline())
            assert r["error"] == "protocol"
            conn.close()
        assert srv.protocol_errors == 1

    def test_protocol_error_echoes_the_request_id(self):
        # Regression: the reply to a malformed request with a valid
        # integer id carried no id, so a pipelining client could not tell
        # which request failed.
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            r = c.raw('{"op":"malloc","req":5,"size":0}')
            assert r == {"ok": False, "error": "protocol", "req": 5,
                         "detail": "'malloc': size must be >= 1 (got 0)"}
            r = c.raw('{"op":"malloc","req":6,"size":8}')
            assert r["ok"] and r["req"] == 6
            # no integer id to echo: the reply carries none
            for line in ('{"op":"malloc","req":"7","size":8}',
                         '{"op":"malloc","req":true,"size":8}',
                         '{not json'):
                r = c.raw(line)
                assert r["error"] == "protocol" and "req" not in r
            c.close()
        assert srv.protocol_errors == 4

    def test_unknown_op_rejected_in_session(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            r = c.request("realloc")
            assert r["error"] == "protocol" and "unknown op" in r["detail"]
            c.close()
        assert srv.protocol_errors == 1


class TestConcurrentTenants:
    N_TENANTS = 9  # the acceptance bar is >= 8
    OPS_EACH = 12

    def test_many_concurrent_sessions_zero_protocol_errors(self):
        srv = _server()
        errors = []

        def tenant_session(host, port, tenant):
            try:
                c = _Client(host, port, tenant)
                assert c.hello["ok"]
                addrs = []
                for i in range(self.OPS_EACH):
                    m = c.request("malloc", size=64 + 32 * tenant)
                    assert m["ok"], m
                    addrs.append(m["addr"])
                for a in addrs:
                    f = c.request("free", addr=a)
                    assert f["ok"], f
                c.close()
            except BaseException as e:  # surfaced after the join
                errors.append((tenant, e))

        with srv as (host, port):
            threads = [
                threading.Thread(target=tenant_session,
                                 args=(host, port, t), daemon=True)
                for t in range(self.N_TENANTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), "a tenant session hung"
        assert errors == []
        assert srv.protocol_errors == 0
        totals = srv.engine.totals()
        assert totals.n_malloc == self.N_TENANTS * self.OPS_EACH
        assert totals.n_malloc_failed == 0
        assert totals.n_free == self.N_TENANTS * self.OPS_EACH
        assert srv.engine.live_allocations == 0
        # every tenant got its own ledger, and they never bled together
        assert len(srv.engine.stats) == self.N_TENANTS
        for t in range(self.N_TENANTS):
            st = srv.engine.stats[t]
            assert st.bytes_requested == self.OPS_EACH * (64 + 32 * t)
            assert st.bytes_served == st.bytes_requested


class TestPipelinedSessionsInOneBatch:
    N_EACH = 10

    def test_each_session_gets_its_replies_once_in_order(self, monkeypatch):
        from repro.serve import server as server_mod

        writes = []
        real_write = server_mod._Session.write

        def recording_write(sess, data):
            writes.append((sess.tenant, data))
            real_write(sess, data)

        monkeypatch.setattr(server_mod._Session, "write", recording_write)
        srv = _server()
        real_submit = srv.engine.submit
        held, release = threading.Event(), threading.Event()

        def held_submit(batch):
            if not held.is_set():
                held.set()
                release.wait(REPLY_TIMEOUT)
            return real_submit(batch)

        srv.engine.submit = held_submit
        with srv as (host, port):
            clients = [_Client(host, port, tenant) for tenant in (0, 1)]
            # a third session's request holds the loop in an episode
            blocker = _Client(host, port, tenant=2)
            blocker.conn.sendall(protocol.encode(
                {"op": "malloc", "req": 0, "size": 64}))
            assert held.wait(REPLY_TIMEOUT)
            writes.clear()
            for tenant, c in enumerate(clients):
                burst = [{"op": "malloc", "req": i, "size": 64 + 32 * tenant}
                         for i in range(self.N_EACH)]
                burst.append({"op": "stats"})
                c.conn.sendall(b"".join(protocol.encode(m) for m in burst))
            # both bursts wait in the server's socket buffers, so the turn
            # after the held episode reads them together: one batch
            time.sleep(0.05)
            release.set()
            assert json.loads(blocker.reader.readline())["ok"]
            blocker.close()
            replies = {}
            for tenant, c in enumerate(clients):
                lines = [c.reader.readline() for _ in range(self.N_EACH + 1)]
                assert all(line.endswith("\n") and line.count("\n") == 1
                           for line in lines)
                replies[tenant] = [json.loads(line) for line in lines]
                c.close()  # its next line is the bye reply, nothing stray
        assert srv.protocol_errors == 0
        episodes = set()
        for tenant in (0, 1):
            *mallocs, stats = replies[tenant]
            assert [r["req"] for r in mallocs] == list(range(self.N_EACH))
            assert all(r["ok"] and "addr" in r for r in mallocs)
            episodes.update(r["episode"] for r in mallocs)
            assert stats["op"] == "stats" and stats["ok"]
        assert len(episodes) == 1
        # one write per session for the whole batch, stats included
        batch_writes = [(t, d) for t, d in writes
                        if t != 2 and b'"bye"' not in d]
        assert sorted(t for t, _ in batch_writes) == [0, 1]
        assert all(d.count(b"\n") == self.N_EACH + 1 for _, d in batch_writes)


class TestBatchingContract:
    def test_lone_request_runs_without_a_batching_delay(self):
        # Nothing else is pending, so the loop runs each request as soon
        # as it reads it.
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            c.conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            round_trips = []
            for _ in range(20):
                t0 = time.perf_counter()
                assert c.request("malloc", size=64)["ok"]
                round_trips.append(time.perf_counter() - t0)
            c.close()
        assert statistics.median(round_trips) < 0.0025, round_trips
        assert srv.protocol_errors == 0

    def test_line_split_across_two_sends(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            frame = protocol.encode({"op": "malloc", "req": 7, "size": 96})
            c.conn.sendall(frame[:9])
            time.sleep(0.05)
            c.conn.sendall(frame[9:])
            reply = json.loads(c.reader.readline())
            assert reply["ok"] and reply["req"] == 7
            c.close()
        assert srv.protocol_errors == 0

    def test_one_chunk_of_many_lines_spans_batches_in_order(self):
        srv = _server()  # batch_max 32
        n = 80
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            c.conn.sendall(b"".join(
                protocol.encode({"op": "malloc", "req": i, "size": 64})
                for i in range(n)))
            replies = [json.loads(c.reader.readline()) for _ in range(n)]
            c.close()
        assert [r["req"] for r in replies] == list(range(n))
        assert all(r["ok"] for r in replies)
        assert len({r["episode"] for r in replies}) >= 3
        assert srv.protocol_errors == 0

    def test_disconnect_with_pending_requests_spares_other_sessions(self):
        srv = _server()
        with srv as (host, port):
            gone, stays = _Client(host, port, 0), _Client(host, port, 1)
            burst = [{"op": "malloc", "req": i, "size": 64} for i in range(5)]
            gone.conn.sendall(b"".join(protocol.encode(m) for m in burst))
            gone.conn.close()  # no bye, no reads: its replies have no reader
            stays.conn.sendall(b"".join(protocol.encode(m) for m in burst))
            replies = [json.loads(stays.reader.readline()) for _ in burst]
            assert [r["req"] for r in replies] == list(range(5))
            assert all(r["ok"] for r in replies)
            assert stays.request("stats")["tenants"]["1"]["n_malloc"] == 5
            stays.close()
        assert srv.protocol_errors == 0


class TestHostileInput:
    def test_non_utf8_line_is_a_counted_protocol_error(self):
        srv = _server()
        with srv as (host, port):
            c = _Client(host, port, tenant=0)
            c.conn.sendall(b'{"op": "st\xffats"}\n')
            r = json.loads(c.reader.readline())
            assert r["error"] == "protocol" and "UTF-8" in r["detail"]
            # the session survives: well-formed traffic still works
            assert c.request("malloc", size=64)["ok"]
            c.close()
        assert srv.protocol_errors == 1

    def test_overlong_line_closes_only_its_session(self):
        srv = _server()
        with srv as (host, port):
            bad, good = _Client(host, port, 0), _Client(host, port, 1)
            bad.conn.sendall(b"x" * (protocol.MAX_LINE + 1))  # no newline
            r = json.loads(bad.reader.readline())
            assert r["error"] == "protocol" and "exceeds" in r["detail"]
            assert bad.reader.readline() == ""  # closed by the server
            bad.conn.close()
            assert good.request("malloc", size=64)["ok"]
            good.close()
        assert srv.protocol_errors == 1

    def test_client_that_stops_reading_stalls_no_one(self):
        # A pipelines requests and never reads: its replies fill the
        # socket buffers, then its outbound buffer, until the server
        # drops it.  B is served meanwhile, and stop() finds the loop free.
        srv = _server()
        host, port = srv.start()
        a = socket.socket()
        a.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        a.connect((host, port))
        b = _Client(host, port, tenant=1)
        flood = protocol.encode({"op": "stats"}) * 20_000

        def pipeline():
            try:
                a.sendall(protocol.encode({"op": "hello", "tenant": 0,
                                           "proto": protocol.PROTOCOL}) + flood)
            except OSError:
                pass  # the server dropped A

        threading.Thread(target=pipeline, daemon=True).start()
        time.sleep(0.5)
        assert b.request("malloc", size=64)["ok"]
        t0 = time.monotonic()
        srv.stop()
        assert time.monotonic() - t0 < 1.0
        a.close()
        b.conn.close()

    def test_stop_is_prompt_with_idle_sessions_connected(self):
        srv = _server()
        host, port = srv.start()
        clients = [_Client(host, port, t) for t in range(3)]
        t0 = time.monotonic()
        srv.stop()
        assert time.monotonic() - t0 < 1.0
        for c in clients:
            assert c.reader.readline() == ""  # the server hung up
            c.conn.close()
