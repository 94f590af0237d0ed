"""Bulk semaphores — the paper's first contribution (§3.3).

A bulk semaphore packs three counters into one 64-bit word:

* ``C`` — current value: units available right now;
* ``E`` — expected: units promised by in-flight batch allocations;
* ``R`` — reserved: units claimed by threads waiting for expected units.

``wait(N, B)`` implements paper Algorithm 1's triage:

1. ``C >= N`` → take units now, return ``0``;
2. expected availability ``C + E - R < N`` → promise a new batch
   (``E += B - N``) and return ``-1``; the caller must allocate ``B``
   units, keep ``N``, and publish the rest with :meth:`fulfill` (or
   undo the promise with :meth:`renege`);
3. otherwise → reserve (``R += N``), spin until ``C >= N`` (claim) or
   ``R >= C + E`` (expectation collapsed: un-reserve and re-triage).

``signal(N, B)`` (Algorithm 2) performs ``C += N + B; E -= B``.

Implementation note (divergence from the paper's sketch): the paper
suggests updating the packed word with compare-and-swap.  A pure CAS
loop on one hot word livelocks under massive contention — each wave of
K stale CASes yields one success, collapsing throughput quadratically —
in our simulator exactly as in published GPU spinlock studies.  We
therefore express **every** transition as an unconditional
fetch-and-add with field-local deltas:

* adds/subs to distinct bit fields commute, so concurrent updates never
  need retry;
* a claim that overdraws ``C`` momentarily borrows from ``E``; the
  claimant detects it (``C``'s observed old value lands in the upper
  guard half of the field) and immediately adds the exact inverse, so
  all corruption cancels arithmetically;
* threads only *branch* on snapshots, and every misjudgment a corrupted
  snapshot can cause is benign (a spurious extra batch promise, a
  spurious re-triage) — never a phantom unit;
* batch-promise admission is made exact without CAS: the reserve's
  returned pre-state totally orders waiters, and only the thread at
  each (B - N)-unit demand boundary is designated to promise.

Semantics (including Figure 1(b)'s concurrent batch allocation) are
identical to the paper's CAS formulation.

Field widths: C:22, E:21, R:21 bits.  Legitimate ``C`` values must stay
below ``C_GUARD`` (2^21) so borrowed states are recognizable.
"""

from __future__ import annotations

from ..sim import ops
from ..sim.device import ThreadCtx, rng_randbelow
from ..sim.errors import SimError
from ..sim.memory import DeviceMemory

C_BITS = 22
E_BITS = 21
R_BITS = 21
C_SHIFT = 0
E_SHIFT = C_BITS
R_SHIFT = C_BITS + E_BITS
C_MAX = (1 << C_BITS) - 1
E_MAX = (1 << E_BITS) - 1
R_MAX = (1 << R_BITS) - 1
#: observed C at/above this is a transient borrow, not real availability
C_GUARD = 1 << (C_BITS - 1)
_MASK64 = (1 << 64) - 1
#: cap, in cycles, of the randomized exponential backoff between polls
MAX_BACKOFF = 16384


class BulkSemaphoreOverflow(SimError):
    """A bulk-semaphore counter left its field's range."""


def pack(c: int, e: int, r: int) -> int:
    """Pack (C, E, R) into a 64-bit word; raises on out-of-range fields."""
    if not (0 <= c < C_GUARD and 0 <= e <= E_MAX and 0 <= r <= R_MAX):
        raise BulkSemaphoreOverflow(f"counters out of range: C={c} E={e} R={r}")
    return (c << C_SHIFT) | (e << E_SHIFT) | (r << R_SHIFT)


def unpack(word: int) -> tuple[int, int, int]:
    """Unpack a 64-bit word into (C, E, R)."""
    return (
        (word >> C_SHIFT) & C_MAX,
        (word >> E_SHIFT) & E_MAX,
        (word >> R_SHIFT) & R_MAX,
    )


class BulkSemaphore:
    """A bulk semaphore at a device address.

    Device-side calls are generators (``yield from sem.wait(ctx, 1, 4)``).
    Host-side inspection via :attr:`counters` / :attr:`value` (valid at
    quiescence, when all transient borrows have cancelled).
    """

    __slots__ = ("mem", "addr", "_op_cache")

    def __init__(self, mem: DeviceMemory, initial: int = 0):
        self.mem = mem
        self.addr = mem.host_alloc(8)
        mem.store_word(self.addr, pack(initial, 0, 0))
        # (n, b) -> the six invariant op tuples wait() yields.  A size
        # class calls wait() with one (n, b) pair for almost every
        # malloc, so this caches the whole tuple-build preamble.
        self._op_cache: dict = {}

    # -- device side ---------------------------------------------------
    def _claim(self, n: int):
        """Fetch-and-sub claim of ``n`` units from C.  Returns True on
        success; on overdraw the exact inverse is applied immediately."""
        old = yield ops.atomic_sub(self.addr, n << C_SHIFT)
        c = (old >> C_SHIFT) & C_MAX
        if n <= c < C_GUARD:
            return True
        yield ops.atomic_add(self.addr, n << C_SHIFT)
        return False

    def wait(self, ctx: ThreadCtx, n: int, b: int):
        """Paper Algorithm 1.  Returns 0 (units acquired) or -1 (caller
        must allocate a batch of ``b`` units: it owns ``n`` of them and
        owes ``b - n`` via :meth:`fulfill`/:meth:`renege`)."""
        if n <= 0 or b < n:
            raise ValueError(f"wait requires 0 < n <= b (got n={n}, b={b})")
        tr = ctx.trace
        t0 = tr.now(ctx) if tr is not None else 0
        # Hot path: every op tuple below is invariant in (self.addr, n, b),
        # so they are built once per (n, b) and cached on the instance;
        # the unpack() calls are likewise inlined into shift/mask locals.
        addr = self.addr
        max_backoff = MAX_BACKOFF
        randbelow = rng_randbelow(ctx.rng)
        cached = self._op_cache.get((n, b))
        if cached is None:
            take = (n << C_SHIFT) + (n << R_SHIFT)
            cached = self._op_cache[(n, b)] = (
                (ops.OP_ADD, addr, (n << R_SHIFT) & _MASK64),
                (ops.OP_ADD, addr, (-(n << R_SHIFT)) & _MASK64),
                (ops.OP_LOAD, addr),
                (ops.OP_ADD, addr, (-take) & _MASK64),
                (ops.OP_ADD, addr, take & _MASK64),
                (ops.OP_ADD, addr,
                 (((b - n) << E_SHIFT) - (n << R_SHIFT)) & _MASK64),
            )
        reserve_op, unreserve_op, load_op, take_op, untake_op, promise_op = cached
        backoff = 32
        while True:
            # Reserve first.  The returned pre-state is the word's exact
            # value at our serialization point, so the triage decision is
            # totally ordered across threads: exactly one batch gets
            # promised per (b - n) units of uncovered demand — the
            # Figure 1(b) admission pattern — with no CAS anywhere.
            old = yield reserve_op
            c = (old >> C_SHIFT) & C_MAX
            e = (old >> E_SHIFT) & E_MAX
            r = (old >> R_SHIFT) & R_MAX
            if c >= C_GUARD:
                # transient borrow in flight; cannot judge — undo, retry
                yield unreserve_op
                yield (ops.OP_SLEEP, randbelow(64))
                continue
            depth = r - (c + e)  # our position past the covered demand
            if depth > -n:
                # Uncovered.  The serialized reserve order partitions the
                # uncovered demand into groups of ``b`` (each batch
                # serves its promiser's own n plus b - n fulfilled
                # units); exactly the thread at each group boundary is
                # *designated* to promise, so the promise itself can be
                # an unconditional F&A — the decision was already totally
                # ordered by the reserve.  Depth collisions under churn
                # merely over-provision; gaps are healed by the
                # collapse-exit below.  Non-designated threads back off
                # and re-triage until a promise covers them.
                # depth <= 0 means our (multi-unit) reservation straddles
                # the supply boundary — we are the first uncovered
                # thread and must promise ourselves (partial supply can
                # never grow to cover us otherwise).
                if b == n or depth <= 0 or depth % b < n:
                    yield promise_op
                    if tr is not None:
                        tr.sem_waited(ctx, addr, t0, "batch")
                    return -1
                yield unreserve_op
                yield (ops.OP_SLEEP, randbelow(backoff))
                if backoff < max_backoff:
                    backoff <<= 1
                continue
            # covered: wait for supply, then claim C and drop the
            # reservation in a single F&A
            while True:
                word = yield load_op
                c = (word >> C_SHIFT) & C_MAX
                e = (word >> E_SHIFT) & E_MAX
                r = (word >> R_SHIFT) & R_MAX
                if c >= C_GUARD:
                    yield (ops.OP_SLEEP, randbelow(64))
                    continue
                if c >= n:
                    old = yield take_op
                    oc = (old >> C_SHIFT) & C_MAX
                    if n <= oc < C_GUARD:
                        if tr is not None:
                            tr.sem_waited(ctx, addr, t0, "acquired")
                        return 0
                    yield untake_op
                elif r >= c + e:
                    break  # expectation collapsed (renege); re-triage
                yield (ops.OP_SLEEP, randbelow(backoff))
                if backoff < max_backoff:
                    backoff <<= 1
            # un-reserve, then re-triage from the top.  Reset the backoff:
            # it grew while we idled on a promise that no longer exists,
            # and the re-triage is a fresh contention episode — most
            # likely we are about to become the new designated promiser
            # ourselves, and carrying a maxed-out backoff into that role
            # would stall every waiter behind the collapsed expectation.
            yield unreserve_op
            backoff = 32

    def try_wait(self, ctx: ThreadCtx, n: int = 1):
        """Decrement ``C`` by ``n`` iff possible; returns True/False.

        Used by TBuddy merges: only a failed ``try_wait`` *guarantees*
        the buddy block cannot be taken (paper §4.1).  Gated on a
        snapshot so an empty semaphore is not churned into a borrowed
        state by every attempt.
        """
        word = yield ops.load(self.addr)
        c = (word >> C_SHIFT) & C_MAX
        if c < n or c >= C_GUARD:
            return False
        got = yield from self._claim(n)
        return got

    def signal(self, ctx: ThreadCtx, n: int, b: int = 0):
        """Paper Algorithm 2: ``C += n + b; E -= b`` in one F&A."""
        delta = (((n + b) << C_SHIFT) - (b << E_SHIFT)) & _MASK64
        yield ops.atomic_add(self.addr, delta)

    def post(self, ctx: ThreadCtx, n: int = 1):
        """Release ``n`` fresh units (plain semaphore signal)."""
        yield from self.signal(ctx, n, 0)

    def fulfill(self, ctx: ThreadCtx, k: int):
        """Publish ``k`` promised units: ``C += k; E -= k``.

        After ``wait(n, b)`` returned -1 and the batch of ``b`` was
        allocated, call ``fulfill(b - n)`` (the caller keeps ``n``)."""
        if k:
            yield from self.signal(ctx, 0, k)

    def renege(self, ctx: ThreadCtx, k: int):
        """Withdraw a promise of ``k`` units: ``E -= k`` (C unchanged).

        Call after ``wait(n, b)`` returned -1 but the batch allocation
        failed; reserved waiters will observe the shrunken expectation,
        re-triage, and take over batch allocation themselves."""
        if k:
            yield from self.signal(ctx, -k, k)

    # -- host side -----------------------------------------------------
    @property
    def counters(self) -> tuple[int, int, int]:
        """Host-side (C, E, R) snapshot (exact at quiescence)."""
        return unpack(self.mem.load_word(self.addr))

    @property
    def value(self) -> int:
        """Host-side read of ``C``."""
        return self.counters[0]
