"""The socket front end: many tenant sessions, one deterministic engine.

One **event-loop thread** serves everything, so the simulator never
sees concurrency it cannot replay.  It runs a ``selectors`` loop over
the listener, every session socket and a wake-up socket pair that
:meth:`ServeServer.stop` writes to.  It reads whatever a ready socket
holds and splits lines with the session's own buffer; ``hello``,
``bye`` and malformed input (a counted protocol-error reply) are
answered inline, and every well-formed request joins the pending batch
stamped with the time it was read.  A batch closes when ``batch_max``
requests are pending or when the oldest has waited ``batch_window``
seconds; the loop runs one engine episode for it and writes each
session's replies in one write, in request order, ``stats`` last.

Sessions are non-blocking: replies a socket does not take wait in the
session's buffer, and a client that stops reading is dropped once
:data:`MAX_UNSENT` bytes wait, so it stalls no one.

Batch composition depends on arrival timing (it is a real open system),
but *within* any batch the outcome is the engine's deterministic
contract.  ``port=0`` binds an ephemeral port; :meth:`ServeServer.start`
returns the bound address.  The server is a context manager::

    with ServeServer(engine) as (host, port):
        ...clients connect...
"""

from __future__ import annotations

import selectors
import socket
import threading
from time import monotonic
from typing import Dict, List, Optional, Tuple

from . import protocol
from .engine import ServeEngine, ServeRequest
from .protocol import OP_BYE, OP_MALLOC, OP_STATS, ProtocolError

#: bytes asked of a ready socket per read
_RECV_BYTES = 1 << 16

#: unsent reply bytes past which a session that stopped reading is dropped
MAX_UNSENT = 16 * protocol.MAX_LINE


class _Session:
    """One connected client: socket, tenant, unsplit input, unsent output."""

    def __init__(self, conn: socket.socket, sel: selectors.BaseSelector):
        self.conn = conn
        self.sel = sel
        self.tenant: Optional[int] = None
        #: received bytes after the last newline
        self.buf = b""
        #: encoded frames the socket has not taken yet
        self.out = bytearray()
        self.open = True
        sel.register(conn, selectors.EVENT_READ, self)

    def send(self, msg: dict) -> None:
        self.write(protocol.encode(msg))

    def write(self, data: bytes) -> None:
        """Send encoded frames; what the socket does not take waits."""
        if self.open:
            self.out += data
            self.flush()

    def flush(self) -> None:
        """Send what waits; the socket has room, or a write queued it."""
        try:
            del self.out[:self.conn.send(self.out)]
        except BlockingIOError:
            pass
        except OSError:
            self.close()  # peer vanished
            return
        if len(self.out) > MAX_UNSENT:
            self.close()
        else:  # watch for room only while something waits
            self.sel.modify(self.conn, selectors.EVENT_READ | (
                selectors.EVENT_WRITE if self.out else 0), self)

    def close(self) -> None:
        if not self.open:
            return
        self.open = False
        self.sel.unregister(self.conn)
        try:
            self.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.conn.close()


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
        self._thread: Optional[threading.Thread] = None
        self._sel: Optional[selectors.BaseSelector] = None
        self._wake: Optional[socket.socket] = None
        self._stopping = False
        #: (session, request, time read) in arrival order
        self._pending: List[Tuple[_Session, protocol.Request, float]] = []
        #: malformed messages received across all sessions (the CI
        #: smoke gate: any nonzero count fails the run)
        self.protocol_errors = 0
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server already started")
        lst = socket.create_server((self._host, self._port))
        lst.setblocking(False)
        self.address = lst.getsockname()[:2]
        wake_r, self._wake = socket.socketpair()
        sel = self._sel = selectors.DefaultSelector()
        sel.register(lst, selectors.EVENT_READ)
        sel.register(wake_r, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._loop, args=(lst,),
                                        name="serve-loop", daemon=True)
        self._thread.start()
        return self.address

    def stop(self) -> None:
        if self._thread is None or self._stopping:
            return
        self._stopping = True
        try:
            self._wake.send(b"\0")
        except OSError:
            pass  # the loop has already ended and closed its side
        self._thread.join(timeout=5.0)
        self._wake.close()

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # the event loop (sole owner of the engine)
    # ------------------------------------------------------------------
    def _loop(self, lst: socket.socket) -> None:
        sel = self._sel
        pending = self._pending
        try:
            while not self._stopping:
                timeout = None
                if pending:
                    timeout = max(0.0, pending[0][2] + self.batch_window
                                  - monotonic())
                for key, events in sel.select(timeout):
                    if key.data is None:
                        if key.fileobj is lst:
                            self._accept(lst)
                    elif events & selectors.EVENT_WRITE:
                        key.data.flush()  # reads wait until it drains
                    else:
                        self._read(key.data)
                while pending and (
                        len(pending) >= self.batch_max
                        or monotonic() - pending[0][2] >= self.batch_window):
                    self._run_batch(pending[:self.batch_max])
                    del pending[:self.batch_max]
        finally:
            for key in list(sel.get_map().values()):
                if key.data is not None:
                    key.data.close()
                else:
                    key.fileobj.close()
            sel.close()

    def _accept(self, lst: socket.socket) -> None:
        try:
            conn, _ = lst.accept()
        except BlockingIOError:
            return  # the peer gave up before we got to it
        conn.setblocking(False)
        _Session(conn, self._sel)

    def _read(self, sess: _Session) -> None:
        try:
            data = sess.conn.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            sess.close()
            return
        now = monotonic()
        *lines, sess.buf = (sess.buf + data).split(b"\n")
        for line in lines:
            self._handle_line(sess, line.strip(), now)
            if not sess.open:
                return
        if len(sess.buf) > protocol.MAX_LINE:
            self._protocol_error(
                sess, f"line exceeds {protocol.MAX_LINE} bytes")
            sess.close()

    def _protocol_error(self, sess: _Session, detail: str,
                        req: Optional[int] = None) -> None:
        self.protocol_errors += 1
        sess.send(protocol.protocol_error_reply(detail, req))

    def _handle_line(self, sess: _Session, line: bytes, now: float) -> None:
        """Answer or queue one line."""
        if not line:
            return
        msg = None
        try:
            msg = protocol.decode_line(line)
            if sess.tenant is None:
                sess.tenant = protocol.parse_hello(msg).tenant
                sess.send(protocol.hello_reply(
                    self.engine.backend_name,
                    self.engine.admission.quota_bytes,
                    self.batch_max,
                ))
                return
            req = protocol.parse_request(msg)
        except ProtocolError as e:
            # Echo the request id when the line carried an integer one,
            # so the client knows which request went wrong.
            rid = msg.get("req") if msg is not None else None
            self._protocol_error(sess, str(e),
                                 rid if type(rid) is int else None)
            return
        if req.op == OP_BYE:
            sess.send(protocol.bye_reply())
            sess.close()
            return
        self._pending.append((sess, req, now))

    def _run_batch(self, entries) -> None:
        batch_entries = []
        stats_entries = []
        for sess, req, _ in entries:
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
