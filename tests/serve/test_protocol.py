"""Wire protocol: framing, validation, the two failure channels."""

from __future__ import annotations

import json

import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    MAX_LINE,
    PROTOCOL,
    ProtocolError,
    decode_line,
    encode,
    parse_hello,
    parse_request,
)


class TestFraming:
    def test_encode_is_one_lf_terminated_line(self):
        data = encode({"op": "bye", "ok": True})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1

    def test_encode_decode_roundtrip(self):
        msg = {"op": "malloc", "req": 3, "size": 96}
        assert decode_line(encode(msg).strip()) == msg

    def test_encode_is_canonical(self):
        # sorted keys: byte-identical frames for equal messages
        a = encode({"b": 1, "a": 2})
        b = encode({"a": 2, "b": 1})
        assert a == b

    @pytest.mark.parametrize("msg", [
        {"ok": True, "req": 7, "addr": 4202496, "latency": 857,
         "episode": 3},
        {"ok": False, "req": 0, "cause": "quota"},
        {"ok": False, "error": "protocol", "detail": "caf\u00e9 \"x\"\n"},
        {"z": [1, {"b": None, "a": 2.5}], "a": {"y": -1, "x": ""}},
    ])
    def test_encode_bytes_equal_sorted_json_dumps(self, msg):
        # the shared encoder writes exactly what json.dumps writes
        want = (json.dumps(msg, sort_keys=True) + "\n").encode("utf-8")
        assert encode(msg) == want
        assert encode(msg) == want  # and again: the encoder keeps no state

    def test_bad_json_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="not a JSON object"):
            decode_line(b"[1, 2]")

    def test_oversize_line_rejected(self):
        line = json.dumps({"op": "x" * MAX_LINE}).encode()
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_line(line)


class TestHello:
    def test_valid_hello(self):
        h = parse_hello({"op": "hello", "proto": PROTOCOL, "tenant": 4})
        assert h.tenant == 4

    def test_request_before_hello_rejected(self):
        with pytest.raises(ProtocolError, match="expected 'hello'"):
            parse_hello({"op": "malloc", "req": 0, "size": 8})

    def test_wrong_protocol_version_rejected(self):
        with pytest.raises(ProtocolError, match="unsupported protocol"):
            parse_hello({"op": "hello", "proto": "repro.serve/99",
                         "tenant": 0})

    def test_missing_tenant_rejected(self):
        with pytest.raises(ProtocolError, match="tenant"):
            parse_hello({"op": "hello", "proto": PROTOCOL})

    def test_negative_tenant_rejected(self):
        with pytest.raises(ProtocolError, match=">= 0"):
            parse_hello({"op": "hello", "proto": PROTOCOL, "tenant": -1})


class TestRequests:
    def test_malloc_needs_positive_size(self):
        with pytest.raises(ProtocolError, match=">= 1"):
            parse_request({"op": "malloc", "req": 0, "size": 0})

    def test_malloc_size_must_be_integer(self):
        with pytest.raises(ProtocolError, match="integer 'size'"):
            parse_request({"op": "malloc", "req": 0, "size": "big"})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ProtocolError, match="integer 'size'"):
            parse_request({"op": "malloc", "req": 0, "size": True})

    def test_free_needs_addr(self):
        with pytest.raises(ProtocolError, match="addr"):
            parse_request({"op": "free", "req": 1})

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request({"op": "realloc", "req": 0})

    def test_duplicate_hello_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate hello"):
            parse_request({"op": "hello", "proto": PROTOCOL, "tenant": 0})

    def test_valid_malloc_and_free(self):
        m = parse_request({"op": "malloc", "req": 7, "size": 64})
        assert (m.op, m.req, m.size) == ("malloc", 7, 64)
        f = parse_request({"op": "free", "req": 8, "addr": 4096})
        assert (f.op, f.req, f.addr) == ("free", 8, 4096)

    def test_stats_and_bye_need_no_fields(self):
        assert parse_request({"op": "stats"}).op == "stats"
        assert parse_request({"op": "bye"}).op == "bye"


class TestReplies:
    def test_ok_reply_carries_latency_and_episode(self):
        r = protocol.request_reply(5, ok=True, addr=4096, latency=100,
                                   episode=2)
        assert r == {"ok": True, "req": 5, "addr": 4096, "latency": 100,
                     "episode": 2}

    def test_failure_reply_carries_cause_not_addr(self):
        r = protocol.request_reply(5, ok=False, cause="quota")
        assert r == {"ok": False, "req": 5, "cause": "quota"}

    def test_protocol_error_reply_is_distinct_channel(self):
        r = protocol.protocol_error_reply("bad frame")
        assert r["error"] == "protocol" and not r["ok"]
        assert "cause" not in r
