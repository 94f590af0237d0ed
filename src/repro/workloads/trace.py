"""Versioned recorded-trace format for allocation request streams.

A *trace* is an ordered stream of allocation events — the realistic
input shape for an allocator serving real traffic (request logs from an
ML-serving ingest pipeline, a recorded production burst) as opposed to
the closed-loop kernels the paper measured.  The wire format is JSONL:

* line 1 is the **header** object::

      {"schema": "repro.workloads/1", "family": "multi_tenant_zipf",
       "seed": 1, "tenants": 4, "params": {...}}

* every following line is one **event** object::

      {"op": "malloc", "id": 17, "tenant": 2, "size": 96, "time": 1200}
      {"op": "free",   "id": 17, "tenant": 2, "time": 3400}

``id`` links a ``free`` to its ``malloc``; ``time`` is the virtual-cycle
arrival time and must be non-decreasing across the file (the stream is
one recorded timeline, not per-tenant clocks).  The schema string is
versioned exactly like the perf artifact's: readers reject traces whose
schema they do not speak instead of misinterpreting them.

:class:`TraceRecorder` builds valid traces incrementally (and is what a
future serving front end would log through); :func:`validate` re-checks
any loaded trace — malformed events, time regressions, frees of unknown
or already-freed ids, tenant mismatches — before a replayer touches a
backend.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

#: trace schema identifier; bump the suffix on breaking layout changes
SCHEMA = "repro.workloads/1"

OP_MALLOC = "malloc"
OP_FREE = "free"
_OPS = (OP_MALLOC, OP_FREE)


class TraceError(ValueError):
    """A recorded trace is malformed or violates the event contract."""


@dataclass(frozen=True)
class TraceEvent:
    """One allocation event.  ``size`` is meaningful for mallocs only."""

    op: str
    id: int
    tenant: int
    time: int
    size: int = 0

    def as_dict(self) -> dict:
        d = {"op": self.op, "id": self.id, "tenant": self.tenant,
             "time": self.time}
        if self.op == OP_MALLOC:
            d["size"] = self.size
        return d


@dataclass
class Trace:
    """A parsed trace: header metadata plus the validated event list."""

    family: str
    seed: int
    tenants: int
    params: Dict[str, object] = field(default_factory=dict)
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def n_mallocs(self) -> int:
        return sum(1 for e in self.events if e.op == OP_MALLOC)

    @property
    def n_frees(self) -> int:
        return sum(1 for e in self.events if e.op == OP_FREE)

    @property
    def duration(self) -> int:
        """Arrival time of the last event (0 for an empty trace)."""
        return self.events[-1].time if self.events else 0

    def header(self) -> dict:
        return {
            "schema": SCHEMA,
            "family": self.family,
            "seed": self.seed,
            "tenants": self.tenants,
            "params": dict(self.params),
        }


class TraceRecorder:
    """Builds a valid :class:`Trace` incrementally.

    Enforces the event contract *at record time* (monotonic time, valid
    tenant, malloc-before-free, no double free), so a recorder can sit
    in a live request path and the resulting file is valid by
    construction.
    """

    def __init__(self, family: str, seed: int, tenants: int,
                 params: Optional[Dict[str, object]] = None):
        if tenants < 1:
            raise TraceError(f"tenants must be >= 1 (got {tenants})")
        self._trace = Trace(family=family, seed=seed, tenants=tenants,
                            params=dict(params or {}))
        self._next_id = 0
        self._live: Dict[int, int] = {}  # id -> tenant
        self._last_time = 0

    def _check_arrival(self, op: str, time: int, tenant: int) -> None:
        if not isinstance(time, int) or time < self._last_time:
            raise TraceError(
                f"{op} at time {time}: arrival times must be "
                f"non-decreasing integers (last was {self._last_time})"
            )
        if not 0 <= tenant < self._trace.tenants:
            raise TraceError(
                f"{op}: tenant {tenant} out of range "
                f"[0, {self._trace.tenants})"
            )

    def malloc(self, tenant: int, size: int, time: int) -> int:
        """Record an allocation request; returns its fresh event id."""
        self._check_arrival(OP_MALLOC, time, tenant)
        if size < 1:
            raise TraceError(f"malloc at time {time}: size must be >= 1 "
                             f"(got {size})")
        eid = self._next_id
        self._next_id += 1
        self._trace.events.append(
            TraceEvent(OP_MALLOC, eid, tenant, time, size))
        self._live[eid] = tenant
        self._last_time = time
        return eid

    def free(self, eid: int, time: int) -> None:
        """Record the release of a previously recorded allocation."""
        tenant = self._live.get(eid)
        if tenant is None:
            raise TraceError(
                f"free of id {eid} at time {time}: id was never allocated "
                "or is already freed"
            )
        self._check_arrival(OP_FREE, time, tenant)
        self._trace.events.append(TraceEvent(OP_FREE, eid, tenant, time))
        del self._live[eid]
        self._last_time = time

    @property
    def live_ids(self) -> List[int]:
        """Ids allocated but not yet freed, in allocation order."""
        return sorted(self._live)

    def trace(self) -> Trace:
        """The recorded trace (also valid mid-recording)."""
        return self._trace


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate(trace: Trace) -> Dict[str, object]:
    """Full contract check of a trace; returns a summary dict.

    Raises :class:`TraceError` on the first violation.  The summary
    reports ``events``, ``mallocs``, ``frees``, ``live_at_end`` (ids
    never freed — nonzero means a replay ends with memory still handed
    out), ``duration`` and per-tenant malloc counts.
    """
    if trace.tenants < 1:
        raise TraceError(f"tenants must be >= 1 (got {trace.tenants})")
    live: Dict[int, int] = {}
    seen_ids = set()
    per_tenant = [0] * trace.tenants
    last_time = 0
    for i, e in enumerate(trace.events):
        where = f"event {i} (time {e.time})"
        if e.op not in _OPS:
            raise TraceError(f"{where}: unknown op {e.op!r}")
        if not isinstance(e.time, int) or e.time < last_time:
            raise TraceError(
                f"{where}: arrival times must be non-decreasing integers "
                f"(previous was {last_time})"
            )
        if not 0 <= e.tenant < trace.tenants:
            raise TraceError(
                f"{where}: tenant {e.tenant} out of range "
                f"[0, {trace.tenants})"
            )
        if e.op == OP_MALLOC:
            if e.size < 1:
                raise TraceError(f"{where}: malloc size must be >= 1 "
                                 f"(got {e.size})")
            if e.id in seen_ids:
                raise TraceError(f"{where}: malloc reuses id {e.id}")
            seen_ids.add(e.id)
            live[e.id] = e.tenant
            per_tenant[e.tenant] += 1
        else:
            owner = live.get(e.id)
            if owner is None:
                verb = ("double free" if e.id in seen_ids
                        else "free of unknown id")
                raise TraceError(f"{where}: {verb} {e.id}")
            if owner != e.tenant:
                raise TraceError(
                    f"{where}: free of id {e.id} by tenant {e.tenant}, "
                    f"but tenant {owner} allocated it"
                )
            del live[e.id]
        last_time = e.time
    return {
        "events": len(trace.events),
        "mallocs": trace.n_mallocs,
        "frees": trace.n_frees,
        "live_at_end": len(live),
        "duration": trace.duration,
        "mallocs_per_tenant": per_tenant,
    }


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def dumps(trace: Trace) -> str:
    """Canonical JSONL: header line then one sorted-key line per event."""
    lines = [json.dumps(trace.header(), sort_keys=True)]
    lines.extend(json.dumps(e.as_dict(), sort_keys=True)
                 for e in trace.events)
    return "\n".join(lines) + "\n"


def loads(text: str, *, where: str = "<string>") -> Trace:
    """Parse and :func:`validate` a JSONL trace document."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TraceError(f"{where}: empty trace file (no header line)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise TraceError(f"{where}: header is not valid JSON: {e}") from None
    if not isinstance(header, dict):
        raise TraceError(f"{where}: header line is not a JSON object")
    schema = header.get("schema")
    if schema != SCHEMA:
        raise TraceError(
            f"{where}: unsupported trace schema {schema!r}, "
            f"expected {SCHEMA!r}"
        )
    for key in ("family", "seed", "tenants"):
        if key not in header:
            raise TraceError(f"{where}: header missing key {key!r}")
    trace = Trace(
        family=str(header["family"]),
        seed=int(header["seed"]),
        tenants=int(header["tenants"]),
        params=dict(header.get("params") or {}),
    )
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as e:
            raise TraceError(
                f"{where}:{lineno}: event is not valid JSON: {e}"
            ) from None
        if not isinstance(raw, dict):
            raise TraceError(f"{where}:{lineno}: event is not a JSON object")
        try:
            trace.events.append(TraceEvent(
                op=str(raw["op"]),
                id=int(raw["id"]),
                tenant=int(raw["tenant"]),
                time=int(raw["time"]),
                size=int(raw.get("size", 0)),
            ))
        except (KeyError, TypeError, ValueError) as e:
            raise TraceError(
                f"{where}:{lineno}: malformed event {line!r}: {e}"
            ) from None
    validate(trace)
    return trace


def dump(trace: Trace, path: Union[str, Path]) -> Path:
    """Validate and write a trace file."""
    validate(trace)
    path = Path(path)
    path.write_text(dumps(trace))
    return path


def load(path: Union[str, Path]) -> Trace:
    """Read and validate a trace file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise TraceError(f"cannot read trace {path}: {e}") from None
    return loads(text, where=str(path))


#: recorded traces shipped with the package (committed fixtures: the
#: perf deck's trace-replay case and the verify/resil trace scenarios
#: replay these, so the workload is identical on every machine)
BUNDLED_DIR = Path(__file__).parent / "data"


def bundled_path(name: str = "mt_small") -> Path:
    """Path of a bundled recorded trace (no extension in ``name``)."""
    return BUNDLED_DIR / f"{name}.jsonl"


def load_bundled(name: str = "mt_small") -> Trace:
    """Load one of the recorded traces shipped with the package."""
    return load(bundled_path(name))
