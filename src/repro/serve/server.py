"""The socket front end: many tenant sessions, one deterministic engine.

Threading model (chosen so the *simulator* never sees concurrency it
cannot replay):

* an **accept thread** hands each incoming connection to a
  **session thread**;
* session threads only parse and validate — every well-formed request
  is queued; malformed input is answered inline with a protocol-error
  reply and counted;
* a single **batcher thread** owns the :class:`~.engine.ServeEngine`:
  it drains the queue into batches (up to ``batch_max`` requests or a
  ``batch_window`` of wall-clock quiet), runs one episode per batch,
  and writes each session's replies back in one write, in that
  session's request order.

So the socket layer is concurrent the way a service must be, while the
allocator, scheduler and admission ledgers are touched by exactly one
thread — batch composition depends on arrival timing (it is a real open
system), but *within* any batch the outcome is the engine's
deterministic contract.

``port=0`` binds an ephemeral port; :meth:`ServeServer.start` returns
the bound address.  The server is a context manager::

    with ServeServer(engine) as (host, port):
        ...clients connect...
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Dict, List, Optional, Tuple

from . import protocol
from .engine import ServeEngine, ServeRequest
from .protocol import OP_BYE, OP_FREE, OP_MALLOC, OP_STATS, ProtocolError


class _Session:
    """One connected client: socket, declared tenant, write lock."""

    def __init__(self, conn: socket.socket, peer: str):
        self.conn = conn
        self.peer = peer
        self.tenant: Optional[int] = None
        self._wlock = threading.Lock()

    def send(self, msg: dict) -> None:
        self.write(protocol.encode(msg))

    def write(self, data: bytes) -> None:
        """Send encoded frames whole, under the session's write lock."""
        with self._wlock:
            try:
                self.conn.sendall(data)
            except OSError:
                pass  # peer vanished; its reader will observe EOF too

    def close(self) -> None:
        try:
            self.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.conn.close()
        except OSError:
            pass


class ServeServer:
    """Newline-framed-JSON allocator service over TCP."""

    def __init__(self, engine: ServeEngine, host: str = "127.0.0.1",
                 port: int = 0, batch_window: float = 0.005,
                 batch_max: int = 64):
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1 (got {batch_max})")
        if batch_window <= 0:
            raise ValueError(
                f"batch_window must be > 0 seconds (got {batch_window})")
        self.engine = engine
        self.batch_window = batch_window
        self.batch_max = batch_max
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._queue: "queue.Queue" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._sessions: List[_Session] = []
        self._sessions_lock = threading.Lock()
        self._stop = threading.Event()
        self._lock = threading.Lock()  # protocol_errors counter
        #: malformed messages received across all sessions (the CI
        #: smoke gate: any nonzero count fails the run)
        self.protocol_errors = 0
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        if self._listener is not None:
            raise RuntimeError("server already started")
        lst = socket.create_server((self._host, self._port))
        self._listener = lst
        self.address = lst.getsockname()[:2]
        for fn, name in ((self._accept_loop, "serve-accept"),
                         (self._batch_loop, "serve-batch")):
            t = threading.Thread(target=fn, name=name, daemon=True)
            t.start()
            self._threads.append(t)
        return self.address

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._sessions_lock:
            sessions = list(self._sessions)
        for s in sessions:
            s.close()
        self._queue.put(None)  # wake the batcher
        for t in self._threads:
            t.join(timeout=5.0)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _count_protocol_error(self) -> None:
        with self._lock:
            self.protocol_errors += 1

    # ------------------------------------------------------------------
    # accept + session threads (parse/validate only)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            sess = _Session(conn, f"{peer[0]}:{peer[1]}")
            with self._sessions_lock:
                self._sessions.append(sess)
            t = threading.Thread(target=self._session_loop, args=(sess,),
                                 name=f"serve-session-{sess.peer}",
                                 daemon=True)
            t.start()
            self._threads.append(t)

    def _session_loop(self, sess: _Session) -> None:
        try:
            reader = sess.conn.makefile("r", encoding="utf-8", newline="\n")
        except OSError:
            return
        with reader:
            for line in reader:
                if self._stop.is_set():
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    msg = protocol.decode_line(line)
                    if sess.tenant is None:
                        hello = protocol.parse_hello(msg)
                        sess.tenant = hello.tenant
                        sess.send(protocol.hello_reply(
                            self.engine.backend_name,
                            self.engine.admission.quota_bytes,
                            self.batch_max,
                        ))
                        continue
                    req = protocol.parse_request(msg)
                except ProtocolError as e:
                    self._count_protocol_error()
                    sess.send(protocol.protocol_error_reply(str(e)))
                    continue
                if req.op == OP_BYE:
                    sess.send(protocol.bye_reply())
                    break
                # malloc/free/stats are serviced by the batcher thread
                self._queue.put((sess, req))
        sess.close()

    # ------------------------------------------------------------------
    # the batcher thread (sole owner of the engine)
    # ------------------------------------------------------------------
    def _batch_loop(self) -> None:
        q = self._queue
        while True:
            try:
                first = q.get(timeout=0.05)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            if first is None:
                return
            entries = [first]
            # Collect the rest of the batch: up to batch_max requests,
            # waiting at most batch_window for stragglers.
            while len(entries) < self.batch_max:
                try:
                    nxt = q.get(timeout=self.batch_window)
                except queue.Empty:
                    break
                if nxt is None:
                    self._run_batch(entries)
                    return
                entries.append(nxt)
            self._run_batch(entries)

    def _run_batch(self, entries) -> None:
        batch_entries = []
        stats_entries = []
        for sess, req in entries:
            if req.op == OP_STATS:
                stats_entries.append(sess)
            else:
                batch_entries.append((sess, req))
        # Each session's reply frames, in its request order; one write
        # per session sends them.
        frames: Dict[_Session, List[bytes]] = {}
        if batch_entries:
            batch = [
                ServeRequest(sess.tenant, req.op, size=req.size,
                             addr=req.addr)
                for sess, req in batch_entries
            ]
            outcomes = self.engine.submit(batch)
            for (sess, req), out in zip(batch_entries, outcomes):
                if out.ok:
                    reply = protocol.request_reply(
                        req.req, ok=True,
                        addr=out.addr if req.op == OP_MALLOC else None,
                        latency=out.latency, episode=out.episode,
                    )
                else:
                    reply = protocol.request_reply(
                        req.req, ok=False, cause=out.cause)
                frames.setdefault(sess, []).append(protocol.encode(reply))
        # Stats snapshots are answered after the batch they arrived
        # with, so a session that drains its replies before asking sees
        # its own requests reflected.
        if stats_entries:
            snap = self.engine.snapshot()
            snap.update({"ok": True, "op": OP_STATS})
            frame = protocol.encode(snap)
            for sess in stats_entries:
                frames.setdefault(sess, []).append(frame)
        for sess, parts in frames.items():
            sess.write(b"".join(parts))
