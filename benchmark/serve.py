"""serve_socket: the allocator service over real TCP sockets.

The server is ``python -m repro serve run`` in a subprocess, with its
default batching knobs.  The client is this module: one thread, one
``selectors`` loop, one TCP connection per tenant (``TCP_NODELAY``).  It
replays ``multi_tenant_zipf`` mallocs and frees, the trace repeated with
fresh ids on every lap, and sends a free only once its malloc's reply
has arrived.

The client drives two load shapes:

* an **open loop** at a fixed request rate, like independent users:
  request ``i`` is due at ``t0 + i / rate`` and its latency is timed
  from that due time, so a stall is charged to every request it delays.
  The generator's own lateness (send time minus the moment the request
  could first be sent) is recorded; a run whose median lateness exceeds
  :data:`LATE_P50_LIMIT_S`, or whose p99 lateness exceeds
  :data:`LATE_P99_LIMIT_S`, measured the client, not the server, and is
  invalid;
* a **closed loop** keeping :data:`INFLIGHT` requests outstanding, like
  callers that each wait for their reply; its completion rate is the
  service's capacity, and the server's CPU seconds over it
  (:meth:`Server.cpu_s`) its cost per request.
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

PROTOCOL = "repro.serve/1"
POOL = 4 << 20
TENANTS = 2
#: events per generated trace lap (the stream repeats it)
TRACE_EVENTS = 4000
RATE = 2000.0
INFLIGHT = 512
#: requests per closed-loop round (the serve workload's pass)
ROUND = 2048
#: lateness limits of a valid open loop.  A client that cannot keep the
#: schedule falls further behind with every request, which the median
#: shows; the p99 limit leaves room for the host, which on a loaded
#: 2-vCPU virtual machine held the client off the CPU for up to 17 ms and
#: raised the p99 from 0.2 ms to 5.7 ms
LATE_P50_LIMIT_S = 0.001
LATE_P99_LIMIT_S = 0.020
#: no reply for this long means the server is wedged
STALL_S = 30.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def make_trace(seed: int):
    from repro.workloads import families

    return families.generate("multi_tenant_zipf", seed,
                             events=TRACE_EVENTS, tenants=TENANTS)


class Stream:
    """The trace's events forever: ``(op, tenant, key, size)`` with the
    key unique per lap, so a repeated malloc is a new allocation."""

    def __init__(self, trace) -> None:
        self.events = [(e.op, e.tenant, e.id, e.size) for e in trace.events]
        self.i = 0

    def next(self) -> Tuple[str, int, tuple, int]:
        lap, j = divmod(self.i, len(self.events))
        self.i += 1
        op, tenant, eid, size = self.events[j]
        return op, tenant, (lap, eid), size


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------
class Server:
    """A ``serve run`` subprocess; ``level`` runs it under the benchmark's
    span wrappers (``serve_traced.py``), dumping them to ``dump``."""

    def __init__(self, root: Path, seed: int, log: Path,
                 level: Optional[str] = None,
                 dump: Optional[Path] = None) -> None:
        args = ["--pool", str(POOL), "--seed", str(seed)]
        if level is None:
            cmd = [sys.executable, "-u", "-m", "repro", "serve", "run", *args]
        else:
            cmd = [sys.executable, "-u", str(HERE / "serve_traced.py"),
                   level, str(dump), *args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.dumps = level is not None
        self._log = open(log, "a")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        line = self.proc.stdout.readline()
        if " on " not in line:
            self.stop()
            raise RuntimeError(f"serve run did not start (said {line!r}); "
                               f"see {log}")
        host, port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)
        self.address = (host, int(port))

    def cpu_s(self) -> float:
        """Host CPU seconds the server has used so far, all threads, user
        plus system (Linux ``/proc``)."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def stop(self) -> None:
        """Stop and wait; kill if wedged.  A server that dumps spans gets
        SIGINT (see ``serve_traced.py``); the others are terminated."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT if self.dumps
                                  else signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Per-phase client-side measurements."""

    name: str
    #: (reply seconds since due, episode) per request answered ok
    latencies: List[Tuple[float, int]] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    done_at: List[float] = field(default_factory=list)
    inflight_max: int = 0
    #: the server's host CPU seconds over the phase
    server_cpu_s: float = 0.0
    #: ``reference.seconds()`` just before and just after the phase
    refs: List[float] = field(default_factory=list)


class _Conn:
    def __init__(self, address, tenant: int) -> None:
        self.sock = socket.create_connection(address, timeout=STALL_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.tenant = tenant
        self.buf = b""

    def send(self, msg: dict) -> None:
        self.sock.sendall((json.dumps(msg) + "\n").encode())

    def lines(self) -> List[bytes]:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        return lines


class Client:
    """Single-threaded selector client speaking ``repro.serve/1``."""

    def __init__(self, address) -> None:
        self.conns = [_Conn(address, t) for t in range(TENANTS)]
        # select(2) takes microsecond timeouts; epoll rounds up to whole
        # milliseconds, which would make every paced send up to 1 ms late
        self.sel = selectors.SelectSelector()
        for c in self.conns:
            c.send({"op": "hello", "proto": PROTOCOL, "tenant": c.tenant})
            reply = self._read_one(c)
            if not (reply.get("ok") and reply.get("op") == "hello"):
                raise RuntimeError(f"hello refused: {reply}")
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        self.next_req = 0
        #: req -> (phase, op, key, due)
        self.inflight: Dict[int, tuple] = {}
        #: malloc keys awaiting a reply, and frees parked behind them
        self.pending: set = set()
        self.parked: Dict[tuple, tuple] = {}
        self.addr: Dict[tuple, int] = {}
        self.sent = 0
        self.declined = 0
        self.errors = 0
        self.skipped = 0
        self.control: List[dict] = []
        self.last_reply = perf_counter()

    @staticmethod
    def _read_one(c: _Conn) -> dict:
        while b"\n" not in c.buf:
            data = c.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            c.buf += data
        line, c.buf = c.buf.split(b"\n", 1)
        return json.loads(line)

    # -- sending --------------------------------------------------------
    def issue(self, phase: Phase, event, due: float) -> None:
        """Send one stream event (a free waits for its malloc)."""
        op, tenant, key, size = event
        if op == "malloc":
            self.pending.add(key)
            self._send(phase, tenant, {"op": "malloc", "size": size},
                       "malloc", key, due, due)
        elif key in self.pending:
            self.parked[key] = (phase, tenant, due)
        else:
            self._free(phase, tenant, key, due, due)

    def _free(self, phase: Phase, tenant: int, key, due: float,
              ready: float) -> None:
        addr = self.addr.pop(key, None)
        if addr is None:  # its malloc was declined: nothing to free
            self.skipped += 1
            return
        self._send(phase, tenant, {"op": "free", "addr": addr}, "free",
                   key, due, ready)

    def _send(self, phase: Phase, tenant: int, msg: dict, op: str, key,
              due: float, ready: float) -> None:
        req = self.next_req
        self.next_req += 1
        msg["req"] = req
        now = perf_counter()
        if not self.inflight:
            self.last_reply = now  # the stall clock starts with the wait
        self.conns[tenant].send(msg)
        self.sent += 1
        phase.late.append(now - ready)
        self.inflight[req] = (phase, op, key, due)
        if len(self.inflight) > phase.inflight_max:
            phase.inflight_max = len(self.inflight)

    # -- receiving -------------------------------------------------------
    def poll(self, timeout: float) -> None:
        for key, _ in self.sel.select(timeout):
            for line in key.data.lines():
                self._on_reply(json.loads(line))
        if self.inflight and perf_counter() - self.last_reply > STALL_S:
            raise TimeoutError(f"{len(self.inflight)} request(s) "
                               f"unanswered for {STALL_S:.0f}s")

    def _on_reply(self, msg: dict) -> None:
        now = self.last_reply = perf_counter()
        req = msg.get("req")
        entry = self.inflight.pop(req, None) if type(req) is int else None
        if entry is None:
            if msg.get("error") == "protocol" or "op" not in msg:
                self.errors += 1
            else:
                self.control.append(msg)
            return
        phase, op, key, due = entry
        phase.done_at.append(now)
        ok = msg.get("ok")
        well_formed = (
            type(ok) is bool
            and (not ok or (type(msg.get("latency")) is int
                            and type(msg.get("episode")) is int))
            and (not ok or op == "free" or type(msg.get("addr")) is int)
            and (ok or type(msg.get("cause")) is str)
        )
        if not well_formed:
            self.errors += 1
        elif not ok:
            self.declined += 1
        else:
            phase.latencies.append((now - due, msg["episode"]))
        if op == "malloc":
            self.pending.discard(key)
            if well_formed and ok:
                self.addr[key] = msg["addr"]
            parked = self.parked.pop(key, None)
            if parked is not None:
                p_phase, tenant, p_due = parked
                self._free(p_phase, tenant, key, p_due, now)

    def _wait_idle(self) -> None:
        """Block until every sent request and parked free is answered."""
        while self.inflight or self.parked:
            self.poll(1.0)

    # -- load shapes -------------------------------------------------------
    # The collector is off while load runs: the client makes no reference
    # cycles, and a full collection over the latency lists stalled the
    # generator for tens of milliseconds.
    def open_loop(self, stream: Stream, n: int, rate: float,
                  name: str) -> Phase:
        phase = Phase(name)
        t0 = perf_counter() + 0.01
        i = 0
        gc.disable()
        try:
            while i < n:
                now = perf_counter()
                while i < n and t0 + i / rate <= now:
                    self.issue(phase, stream.next(), t0 + i / rate)
                    i += 1
                if i < n:
                    self.poll(max(0.0, t0 + i / rate - perf_counter()))
            self._wait_idle()
        finally:
            gc.enable()
        return phase

    def closed_loop(self, stream: Stream, n: int, depth: int,
                    name: str) -> Phase:
        phase = Phase(name)
        i = 0
        gc.disable()
        try:
            while i < n:
                while i < n and len(self.inflight) < depth:
                    self.issue(phase, stream.next(), perf_counter())
                    i += 1
                self.poll(1.0)
            self._wait_idle()
        finally:
            gc.enable()
        return phase

    def stats(self) -> dict:
        """The server's snapshot once every request is answered."""
        self._wait_idle()
        self.conns[0].send({"op": "stats"})
        deadline = perf_counter() + STALL_S
        while not any(m.get("op") == "stats" for m in self.control):
            if perf_counter() > deadline:
                raise TimeoutError("no stats reply")
            self.poll(1.0)
        return next(m for m in self.control if m.get("op") == "stats")

    def close(self) -> None:
        for c in self.conns:
            try:
                c.send({"op": "bye"})
            except OSError:
                pass
            c.sock.close()
        self.sel.close()


def round_walls(phase: Phase, size: int = ROUND) -> List[float]:
    """Host seconds per ``size`` consecutive closed-loop completions."""
    t = phase.done_at
    return [t[k + size] - t[k] for k in range(0, len(t) - size, size)]
