"""Wire protocol for the allocator service: newline-framed JSON.

One TCP connection carries one *session*.  Every message is a single
JSON object on its own line (LF-terminated, UTF-8); the protocol string
is versioned exactly like the trace and artifact schemas — a server
rejects sessions speaking a protocol it does not implement rather than
misinterpreting them.

Session shape::

    C: {"op": "hello", "proto": "repro.serve/1", "tenant": 2}
    S: {"ok": true, "op": "hello", "proto": "repro.serve/1",
        "backend": "ours (scalar)", "quota": 65536}
    C: {"op": "malloc", "req": 0, "size": 96}
    S: {"ok": true, "req": 0, "addr": 4202496, "latency": 857, "episode": 3}
    C: {"op": "free", "req": 1, "addr": 4202496}
    S: {"ok": true, "req": 1, "latency": 312, "episode": 4}
    C: {"op": "stats"}
    S: {"ok": true, "op": "stats", ...engine snapshot...}
    C: {"op": "bye"}
    S: {"ok": true, "op": "bye"}

Two failure channels, deliberately distinct:

* ``{"ok": false, "req": n, "cause": "..."}`` — the *service* declined
  the request (admission quota, pool pressure, backend NULL, free of an
  unknown or foreign address).  These are expected under load and are
  counted per cause; a load generator treats them as data.
* ``{"ok": false, "error": "protocol", "detail": "..."}`` — the *client*
  sent something malformed (bad JSON, missing field, request before
  hello, unsupported op).  These always indicate a bug; CI smoke and the
  acceptance tests fail on any nonzero count.

``req`` is a client-chosen correlation id echoed verbatim in the reply,
so clients may pipeline requests and match replies out of order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

#: protocol identifier; bump the suffix on breaking changes
PROTOCOL = "repro.serve/1"

OP_HELLO = "hello"
OP_MALLOC = "malloc"
OP_FREE = "free"
OP_STATS = "stats"
OP_BYE = "bye"

#: every op a conforming client may send
CLIENT_OPS = (OP_HELLO, OP_MALLOC, OP_FREE, OP_STATS, OP_BYE)

#: maximum accepted line length (a framing sanity bound, not a limit a
#: real request ever approaches)
MAX_LINE = 64 * 1024


class ProtocolError(ValueError):
    """The peer sent a malformed or out-of-sequence message."""


#: ``json.dumps(msg, sort_keys=True)`` builds a new encoder per call;
#: one shared encoder writes the same bytes at a quarter less cost
_ENCODER = json.JSONEncoder(sort_keys=True)


def encode(msg: dict) -> bytes:
    """One wire frame: canonical JSON (sorted keys) plus the LF."""
    return (_ENCODER.encode(msg) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one received line (the UTF-8 bytes off the wire) into a
    message object."""
    if len(line) > MAX_LINE:
        raise ProtocolError(f"line exceeds {MAX_LINE} bytes")
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ProtocolError(f"not valid UTF-8: {e}") from None
    try:
        msg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProtocolError(f"not valid JSON: {e}") from None
    if not isinstance(msg, dict):
        raise ProtocolError("message is not a JSON object")
    return msg


def _require_int(msg: dict, key: str, *, minimum: Optional[int] = None) -> int:
    value = msg.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"{msg.get('op')!r} needs integer {key!r} "
                            f"(got {value!r})")
    if minimum is not None and value < minimum:
        raise ProtocolError(f"{msg.get('op')!r}: {key} must be >= {minimum} "
                            f"(got {value})")
    return value


@dataclass(frozen=True)
class Hello:
    """A validated session-opening message."""

    tenant: int


@dataclass(frozen=True)
class Request:
    """A validated in-session request (malloc/free/stats/bye)."""

    op: str
    req: int = 0
    size: int = 0
    addr: int = 0


def parse_hello(msg: dict) -> Hello:
    """Validate the session-opening handshake."""
    if msg.get("op") != OP_HELLO:
        raise ProtocolError(
            f"expected {OP_HELLO!r} to open the session (got {msg.get('op')!r})"
        )
    proto = msg.get("proto")
    if proto != PROTOCOL:
        raise ProtocolError(
            f"unsupported protocol {proto!r}, this server speaks {PROTOCOL!r}"
        )
    return Hello(tenant=_require_int(msg, "tenant", minimum=0))


def parse_request(msg: dict) -> Request:
    """Validate one in-session request."""
    op = msg.get("op")
    if op not in CLIENT_OPS:
        raise ProtocolError(f"unknown op {op!r} "
                            f"(client ops: {', '.join(CLIENT_OPS)})")
    if op == OP_HELLO:
        raise ProtocolError("duplicate hello: the session is already open")
    if op == OP_MALLOC:
        return Request(op, req=_require_int(msg, "req", minimum=0),
                       size=_require_int(msg, "size", minimum=1))
    if op == OP_FREE:
        return Request(op, req=_require_int(msg, "req", minimum=0),
                       addr=_require_int(msg, "addr", minimum=0))
    return Request(op)


# ----------------------------------------------------------------------
# reply builders (the single source of reply shapes)
# ----------------------------------------------------------------------
def hello_reply(backend: str, quota: Optional[int], batch_max: int) -> dict:
    return {"ok": True, "op": OP_HELLO, "proto": PROTOCOL,
            "backend": backend, "quota": quota, "batch_max": batch_max}


def request_reply(req: int, *, ok: bool, addr: Optional[int] = None,
                  latency: Optional[int] = None,
                  episode: Optional[int] = None,
                  cause: Optional[str] = None) -> dict:
    out: dict = {"ok": ok, "req": req}
    if ok:
        if addr is not None:
            out["addr"] = addr
        out["latency"] = latency
        out["episode"] = episode
    else:
        out["cause"] = cause
    return out


def protocol_error_reply(detail: str, req: Optional[int] = None) -> dict:
    """A protocol error; ``req`` echoes the offending request's id when
    the line parsed to an object carrying an integer one."""
    out: dict = {"ok": False, "error": "protocol", "detail": detail}
    if req is not None:
        out["req"] = req
    return out


def bye_reply() -> dict:
    return {"ok": True, "op": OP_BYE}
