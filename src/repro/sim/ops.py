"""Device-side operation descriptors.

Device code in this package is written as Python *generator functions*.
Every interaction with shared state — loads, stores, atomics, barriers —
is expressed by ``yield``-ing a small tuple built by one of the
constructors below; the scheduler executes the tuple's effect atomically
at the thread's virtual time and ``send``-s the result back, so::

    old = yield ops.atomic_cas(addr, expected, new)
    val = yield ops.load(addr)
    yield ops.store(addr, val + 1)          # plain (racy) store
    yield ops.sleep(100)                    # burn 100 cycles
    mask = yield ops.warp_converge()        # __activemask()-style rendezvous
    yield ops.syncthreads()                 # block barrier

Composite device functions compose with ``yield from`` and may ``return``
values, exactly like CUDA ``__device__`` functions.

All word operations are on unsigned 64-bit values at 8-byte-aligned byte
addresses.  Signed quantities are stored in two's complement; see
:func:`to_signed` / :func:`to_unsigned`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

# Opcodes.  These are plain ints and the tuples plain tuples for speed:
# the scheduler dispatches on op[0] millions of times per benchmark.
OP_SLEEP = 0
OP_LOAD = 1
OP_STORE = 2
OP_CAS = 3
OP_ADD = 4
OP_EXCH = 5
OP_AND = 6
OP_OR = 7
OP_XOR = 8
OP_MAX = 9
OP_MIN = 10
OP_BARRIER = 11
OP_WARP_CONV = 12
OP_YIELD = 13
OP_WARP_SYNC = 14
OP_WARP_MATCH = 15
OP_WARP_BCAST = 16
OP_FAULT = 17

#: one past the highest opcode — sizes the scheduler's per-op dispatch
#: and count tables (which index by opcode instead of hashing dict keys
#: in the hot loop)
N_OPCODES = OP_FAULT + 1

#: opcode -> human-readable name (trace labels, :func:`named_counts`)
OP_NAMES = {
    OP_SLEEP: "sleep",
    OP_LOAD: "load",
    OP_STORE: "store",
    OP_CAS: "atomic_cas",
    OP_ADD: "atomic_add",
    OP_EXCH: "atomic_exch",
    OP_AND: "atomic_and",
    OP_OR: "atomic_or",
    OP_XOR: "atomic_xor",
    OP_MAX: "atomic_max",
    OP_MIN: "atomic_min",
    OP_BARRIER: "syncthreads",
    OP_WARP_CONV: "warp_converge",
    OP_YIELD: "cpu_yield",
    OP_WARP_SYNC: "warp_sync",
    OP_WARP_MATCH: "warp_match",
    OP_WARP_BCAST: "warp_broadcast",
    OP_FAULT: "fault_point",
}


def named_counts(op_counts: Mapping[int, int]) -> Dict[str, int]:
    """Op counts keyed by opcode *name* (``atomic_add``, ``load``, ...),
    descending by count.  Equal counts tie-break on the name so the
    ordering is deterministic, not dict-insertion-order."""
    named = [(OP_NAMES.get(k, f"op{k}"), v) for k, v in op_counts.items()]
    return dict(sorted(named, key=lambda kv: (-kv[1], kv[0])))


_MASK64 = (1 << 64) - 1


class _NoPayload:
    """Sentinel: this lane contributes no broadcast payload."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<no payload>"


#: Default ``value`` for :func:`warp_broadcast` — distinct from ``None``
#: so that any real Python object, falsy values included, can be
#: broadcast.
NO_PAYLOAD = _NoPayload()

Op = Tuple  # an op is a tuple whose first element is an opcode

# Zero-argument ops are immutable and carry no per-call state, so the
# constructors hand out module-level singletons instead of building a
# fresh tuple per yield (spin loops yield these millions of times).
_YIELD_OP = (OP_YIELD,)
_BARRIER_OP = (OP_BARRIER,)
_WARP_CONV_OP = (OP_WARP_CONV,)


def sleep(cycles: int) -> Op:
    """Advance this thread's clock by ``cycles`` without touching memory."""
    return (OP_SLEEP, cycles)


def cpu_yield() -> Op:
    """Politely yield the (virtual) core for one backoff quantum.

    Used in spin loops, mirroring ``nanosleep``/``__nanosleep`` backoff in
    the paper's CUDA implementation.
    """
    return _YIELD_OP


def load(addr: int) -> Op:
    """Load the unsigned 64-bit word at 8-byte-aligned ``addr``."""
    return (OP_LOAD, addr)


def store(addr: int, value: int) -> Op:
    """Store unsigned 64-bit ``value`` at 8-byte-aligned ``addr``.

    Plain stores are *not* serialized against atomics; racing plain
    accesses with atomics on the same word is a bug in device code, just
    as on real hardware.
    """
    return (OP_STORE, addr, value & _MASK64)


def atomic_cas(addr: int, expected: int, new: int) -> Op:
    """Atomic compare-and-swap; returns the *old* word value."""
    return (OP_CAS, addr, expected & _MASK64, new & _MASK64)


def atomic_add(addr: int, value: int) -> Op:
    """Atomic 64-bit wrapping add; returns the old value.

    Subtraction is ``atomic_add(addr, -v)`` — the value is reduced mod
    2**64, matching CUDA's unsigned wrap-around semantics.
    """
    return (OP_ADD, addr, value & _MASK64)


def atomic_sub(addr: int, value: int) -> Op:
    """Atomic 64-bit wrapping subtract; returns the old value."""
    return (OP_ADD, addr, (-value) & _MASK64)


def atomic_exch(addr: int, value: int) -> Op:
    """Atomic exchange; returns the old value."""
    return (OP_EXCH, addr, value & _MASK64)


def atomic_and(addr: int, value: int) -> Op:
    """Atomic bitwise AND; returns the old value."""
    return (OP_AND, addr, value & _MASK64)


def atomic_or(addr: int, value: int) -> Op:
    """Atomic bitwise OR; returns the old value."""
    return (OP_OR, addr, value & _MASK64)


def atomic_xor(addr: int, value: int) -> Op:
    """Atomic bitwise XOR; returns the old value."""
    return (OP_XOR, addr, value & _MASK64)


def atomic_max(addr: int, value: int) -> Op:
    """Atomic unsigned max; returns the old value."""
    return (OP_MAX, addr, value & _MASK64)


def atomic_min(addr: int, value: int) -> Op:
    """Atomic unsigned min; returns the old value."""
    return (OP_MIN, addr, value & _MASK64)


def syncthreads() -> Op:
    """Block-wide barrier.  All *live* threads of the block must arrive."""
    return _BARRIER_OP


def warp_converge() -> Op:
    """Warp-convergence rendezvous (the simulator's ``__activemask()``).

    The yielding lane parks until every live lane of its warp is either
    parked (on anything) or finished; the set of lanes parked on this op
    then resumes together.  The result sent back is a ``frozenset`` of
    the converged lane indices (0..warp_size-1), identical for every
    converged lane, from which a leader can be elected deterministically
    (``min(mask)``).
    """
    return _WARP_CONV_OP


def warp_sync(mask: frozenset) -> Op:
    """Barrier across the lanes named in ``mask`` (``__syncwarp(mask)``).

    Every lane in ``mask`` must eventually yield ``warp_sync`` with the
    *same* mask; they resume together.  A lane in the mask that exits
    without arriving deadlocks the others, as on real hardware.
    """
    return (OP_WARP_SYNC, mask)


def warp_match(key) -> Op:
    """Convergence rendezvous that groups lanes by ``key`` — the
    simulator's ``__match_any_sync()``.

    Lanes converge exactly like :func:`warp_converge`, but the mask each
    lane receives contains only the converged lanes that supplied an
    equal ``key`` (sizes, addresses, ...).  Used by the allocator's
    transparent request-coalescing path.
    """
    return (OP_WARP_MATCH, key)


def warp_broadcast(mask: frozenset, value=NO_PAYLOAD) -> Op:
    """Synchronize the lanes in ``mask`` and broadcast one lane's value
    — the simulator's ``__shfl_sync()`` (leader-to-all form).

    Every lane in ``mask`` must call this with the same mask; exactly
    one lane — the source, typically the elected leader — passes a
    ``value`` (any object, falsy values and ``None`` included).  All
    lanes receive the source's value.  More than one contributing lane
    raises :class:`~repro.sim.errors.InvalidOp`: the broadcast would
    otherwise be arrival-order dependent.  If no lane contributes, the
    call degrades to :func:`warp_sync` and resumes with the mask.
    """
    return (OP_WARP_BCAST, mask, value)


def fault_point(site: str, detail: int = 0) -> Op:
    """Fault-injection probe (see :mod:`repro.resil`).

    Device code yields this at a designated failure site — always
    guarded by ``ctx.fault is not None``, so unfaulted runs never emit
    the op.  The scheduler consults its attached fault injector and the
    op resumes with either ``None`` (no fault: proceed normally) or the
    string ``"fail"`` (take the site's failure arm).  Stall-type faults
    resume with ``None`` after the injected delay has been charged to
    the thread's virtual clock, so the site's code needs no stall
    handling of its own.

    ``detail`` is a site-specific integer (TBuddy order, node index,
    arena index ...) that fault rules may filter on — this is how a
    plan targets, e.g., NULL returns at one controlled split depth.
    """
    return (OP_FAULT, site, detail)


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned word as a two's-complement integer."""
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


def to_unsigned(value: int) -> int:
    """Mask an integer into a 64-bit unsigned word."""
    return value & _MASK64
