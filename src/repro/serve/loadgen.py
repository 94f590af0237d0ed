"""Open-loop load generator: one socket session per trace tenant.

Replays a workload-zoo :class:`~repro.workloads.trace.Trace` against a
live :class:`~.server.ServeServer` the way real clients would: each
tenant gets its own TCP session and **pipelines** its requests (mallocs
go out without waiting for replies — open loop); replies are matched to
requests by correlation id.  Like the server, one ``selectors`` loop on
the calling thread drives every session, reading replies between sends.
The only waits are causal: a tenant parks at a ``free`` whose malloc is
unanswered (the address is in that reply) while the others go on; a
free whose malloc failed is skipped and counted, as the replayer does,
so the client ledger reconciles with both the server snapshot and a
direct :func:`repro.workloads.replay.replay` of the same trace.

``cycles_per_second`` optionally paces sends so inter-arrival gaps in
virtual cycles become wall-clock gaps (an honest open-loop arrival
process); by default the generator runs flat out.  Either way the
*accounting* is deterministic — timing moves requests between episodes,
never between outcome classes, for traces that fit admission.
"""

from __future__ import annotations

import math
import selectors
import socket
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..workloads.replay import TenantStats
from ..workloads.trace import OP_MALLOC as EV_MALLOC
from ..workloads.trace import Trace, validate
from . import protocol
from .protocol import (OP_BYE, OP_FREE, OP_HELLO, OP_MALLOC, PROTOCOL,
                       ProtocolError)

#: per-reply wait bound; loopback replies land in microseconds, so a
#: timeout means the server died — fail loudly, do not hang the suite
REPLY_TIMEOUT = 30.0

#: bytes asked of a ready socket per read
_RECV_BYTES = 1 << 16


@dataclass
class LoadReport:
    """Client-side view of one load-generation run."""

    #: client-side ledgers, same vocabulary as the replayer's
    tenants: Dict[int, TenantStats] = field(default_factory=dict)
    #: service-level failure counts by cause, from replies
    causes: Dict[str, int] = field(default_factory=dict)
    #: per-request virtual latencies reported in replies
    latencies: List[int] = field(default_factory=list)
    wall_seconds: float = 0.0
    sessions: int = 0

    def totals(self) -> TenantStats:
        return TenantStats.total(self.tenants.values())


class _Tenant:
    """One tenant's session: socket, event cursor, requests in flight."""

    def __init__(self, tenant: int, events: List, address: Tuple[str, int],
                 sel: selectors.BaseSelector, now: float):
        self.tenant = tenant
        self.events = events
        self.conn = conn = socket.create_connection(address)
        self.sel = sel
        self.stats = TenantStats()
        self.cursor = 0                       # next event to send
        self.origin: Optional[Tuple[float, int]] = None  # (wall t0, time)
        #: req (the event's index) -> (op, size, event id), until replied
        self.inflight: Dict[int, Tuple[str, int, int]] = {}
        #: malloc event id -> its reply's address (None: it failed)
        self.addrs: Dict[int, Optional[int]] = {}
        self.state = "hello"                  # -> "open" -> "bye" -> "closed"
        self.heard = now                      # last reply, or wait start
        self.buf = b""                        # bytes after the last LF
        self.out = bytearray()                # encoded frames not yet sent
        conn.setblocking(False)
        sel.register(conn, selectors.EVENT_READ, self)
        self._queue({"op": OP_HELLO, "proto": PROTOCOL, "tenant": tenant},
                    now)

    def fail(self, why: str) -> RuntimeError:
        return RuntimeError(f"tenant {self.tenant} session failed: {why}")

    def deadline(self, now: float) -> float:
        """When silence from the server becomes a failure; raises after."""
        if not self.inflight and self.state == "open":
            return math.inf
        if now > self.heard + REPLY_TIMEOUT:
            raise self.fail(f"no reply within {REPLY_TIMEOUT}s — " + (
                "server wedged without closing the session after bye"
                if self.state == "bye" else "server hung or died"))
        return self.heard + REPLY_TIMEOUT

    def _queue(self, msg: dict, now: float,
               request: Optional[Tuple[str, int, int]] = None) -> None:
        """Queue one frame; a ``request`` awaits its reply."""
        if not self.inflight:
            self.heard = now  # a reply is awaited from here on
        if request is not None:
            msg["req"] = self.cursor
            self.inflight[self.cursor] = request
        self.out += protocol.encode(msg)

    def flush(self) -> None:
        """Send what waits; watch for room only while something does."""
        try:
            del self.out[:self.conn.send(self.out)]
        except BlockingIOError:
            pass
        except OSError as e:
            raise self.fail(f"send failed: {e}") from e
        self.sel.modify(self.conn, selectors.EVENT_READ | (
            selectors.EVENT_WRITE if self.out else 0), self)

    def advance(self, now: float, cps: Optional[float]) -> float:
        """Send every due event; returns the next paced send time
        (infinite when the tenant waits on replies alone)."""
        wait = math.inf
        while self.state == "open" and self.cursor < len(self.events):
            e = self.events[self.cursor]
            # Pacing is anchored to one absolute schedule: event k is
            # due at t0 + (virtual gap from the first event) / cps, so
            # late wake-ups never accumulate into drift.
            if cps:
                if self.origin is None:
                    self.origin = (now, e.time)
                due = self.origin[0] + (e.time - self.origin[1]) / cps
                if due > now:
                    wait = due
                    break
            if e.op == EV_MALLOC:
                self.stats.n_malloc += 1
                self.stats.bytes_requested += e.size
                self._queue({"op": OP_MALLOC, "size": e.size}, now,
                            (OP_MALLOC, e.size, e.id))
            elif e.id not in self.addrs:
                break  # causal wait: the free needs its malloc's address
            else:
                addr = self.addrs.pop(e.id)
                if addr is None:
                    self.stats.n_free_skipped += 1
                else:
                    self._queue({"op": OP_FREE, "addr": addr}, now,
                                (OP_FREE, 0, e.id))
            self.cursor += 1
        if (self.state == "open" and self.cursor == len(self.events)
                and not self.inflight):
            self._queue({"op": OP_BYE}, now)
            self.state = "bye"
        if self.out:
            self.flush()
        return wait

    def read(self, report: LoadReport, now: float) -> None:
        try:
            data = self.conn.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError as e:
            raise self.fail(f"receive failed: {e}") from e
        if not data:
            if self.state != "bye":
                raise self.fail(
                    f"server closed the session with {len(self.inflight)} "
                    "request(s) unanswered")
            self.state = "closed"
            self.sel.unregister(self.conn)
            return
        self.heard = now
        *lines, self.buf = (self.buf + data).split(b"\n")
        for line in lines:
            if line.strip():
                self._on_reply(line, report)

    def _on_reply(self, line: bytes, report: LoadReport) -> None:
        try:
            reply = protocol.decode_line(line)
        except ProtocolError as e:
            raise self.fail(f"bad reply {line[:80]!r}: {e}") from None
        if self.state == "hello":
            if not reply.get("ok"):
                raise self.fail(f"hello rejected: {reply}")
            self.state = "open"
            return
        if reply.get("error") == "protocol":
            raise self.fail(f"protocol error on req {reply.get('req')}: "
                            f"{reply.get('detail')}")
        if "req" not in reply:
            return  # the bye reply
        sent = self.inflight.pop(reply["req"], None)
        if sent is None:
            raise self.fail(f"reply to no request in flight: {reply}")
        op, size, event_id = sent
        if reply.get("ok"):
            if op == OP_MALLOC:
                self.addrs[event_id] = reply["addr"]
                self.stats.bytes_served += size
            else:
                self.stats.n_free += 1
            if reply.get("latency") is not None:
                report.latencies.append(reply["latency"])
        else:
            if op == OP_MALLOC:
                self.addrs[event_id] = None
                self.stats.n_malloc_failed += 1
            cause = reply.get("cause", "unknown")
            report.causes[cause] = report.causes.get(cause, 0) + 1


def run(trace: Trace, host: str, port: int, *,
        cycles_per_second: Optional[float] = None) -> LoadReport:
    """Replay ``trace`` against a live server; one session per tenant."""
    validate(trace)
    per_tenant: Dict[int, List] = {}
    for e in trace.events:
        per_tenant.setdefault(e.tenant, []).append(e)
    report = LoadReport(sessions=len(per_tenant))
    t0 = _time.monotonic()
    tenants: List[_Tenant] = []
    with selectors.DefaultSelector() as sel:
        try:
            for t, evs in sorted(per_tenant.items()):
                tenants.append(_Tenant(t, evs, (host, port), sel,
                                       _time.monotonic()))
            live = list(tenants)
            while live:
                now = _time.monotonic()
                wake = math.inf
                for s in live:
                    due = s.advance(now, cycles_per_second)
                    wake = min(wake, due, s.deadline(now))  # raises if hung
                ready = sel.select(max(0.0, wake - now))
                now = _time.monotonic()
                for key, mask in ready:
                    if mask & selectors.EVENT_WRITE:
                        key.data.flush()
                    if mask & selectors.EVENT_READ:
                        key.data.read(report, now)
                live = [s for s in live if s.state != "closed"]
        finally:
            for s in tenants:
                s.conn.close()
    report.wall_seconds = _time.monotonic() - t0
    report.tenants = {s.tenant: s.stats for s in tenants}
    return report
