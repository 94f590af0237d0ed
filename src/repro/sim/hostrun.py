"""Host-side driver for device generators.

Runs a device generator to completion against a :class:`DeviceMemory`
*without* the scheduler — no timing, no concurrency.  Valid only at
quiescence (no kernel running), e.g. for deferred-reclamation drains,
host-side garbage collection sweeps, and unit tests that exercise
device logic sequentially.

The cooperative ops (barriers, warp convergence, match, sync and
broadcast) run with single-thread semantics: a lone host driver converges
with itself and passes barriers trivially.  Sleeps, yields and fault
probes are no-ops.  Only an unknown opcode raises
:class:`~repro.sim.errors.InvalidOp`.
"""

from __future__ import annotations

from typing import Any, Generator

from . import ops
from .device import ThreadCtx
from .errors import InvalidOp
from .memory import DeviceMemory


def host_ctx(seed: int = 0, sm: int = 0) -> ThreadCtx:
    """A placeholder thread context for host-driven device code."""
    return ThreadCtx(
        tid=-1, block=-1, tid_in_block=0, lane=0, warp=0, sm=sm,
        nthreads=0, block_dim=1, rng_seed=seed,
    )


def drive(mem: DeviceMemory, gen: Generator) -> Any:
    """Execute ``gen``'s ops against ``mem``; returns the generator's
    return value."""
    try:
        op = gen.send(None)
        while True:
            op = gen.send(_exec(mem, op))
    except StopIteration as stop:
        return stop.value


def _exec(mem: DeviceMemory, op: tuple) -> Any:
    code = op[0]
    if code == ops.OP_LOAD:
        return mem.load_word(op[1])
    if code == ops.OP_STORE:
        mem.store_word(op[1], op[2])
        return None
    if code == ops.OP_CAS:
        return mem.cas_word(op[1], op[2], op[3])
    if code == ops.OP_ADD:
        return mem.add_word(op[1], op[2])
    if code == ops.OP_EXCH:
        return mem.exch_word(op[1], op[2])
    if code == ops.OP_AND:
        return mem.and_word(op[1], op[2])
    if code == ops.OP_OR:
        return mem.or_word(op[1], op[2])
    if code == ops.OP_XOR:
        return mem.xor_word(op[1], op[2])
    if code == ops.OP_MAX:
        return mem.max_word(op[1], op[2])
    if code == ops.OP_MIN:
        return mem.min_word(op[1], op[2])
    if code in (ops.OP_SLEEP, ops.OP_YIELD):
        return None
    if code == ops.OP_FAULT:
        # no injector host-side: fault probes never fire
        return None
    # Single-thread semantics for the cooperative ops: a lone host
    # driver converges with itself and passes barriers trivially.
    if code == ops.OP_WARP_CONV:
        return frozenset({0})
    if code == ops.OP_WARP_MATCH:
        return frozenset({0})
    if code == ops.OP_WARP_SYNC:
        return op[1]
    if code == ops.OP_WARP_BCAST:
        # a lone host driver is its own source; no payload resumes with
        # the mask, matching the scheduler's degenerate warp_sync case
        return op[1] if op[2] is ops.NO_PAYLOAD else op[2]
    if code == ops.OP_BARRIER:
        return None
    raise InvalidOp(f"op {op!r} cannot run host-side (no scheduler)")
