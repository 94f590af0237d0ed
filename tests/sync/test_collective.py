"""Collective mutex: warp- and block-collective acquire/release."""

from repro.sim import DeviceMemory, Scheduler, ops
from repro.sync import CollectiveMutex


def test_warp_collective_single_acquisition_per_group(mem, run_kernel):
    cm = CollectiveMutex(mem)
    inside = mem.host_alloc(8)
    acquisitions = mem.host_alloc(8)
    violations = []

    def kernel(ctx):
        mask = yield from cm.lock_warp(ctx)
        if ctx.lane == min(mask):
            yield ops.atomic_add(acquisitions, 1)
            old = yield ops.atomic_add(inside, 1)
            if old != 0:
                violations.append(ctx.tid)  # two groups inside at once
        yield ops.sleep(20)
        if ctx.lane == min(mask):
            yield ops.atomic_sub(inside, 1)
        yield from cm.unlock_warp(ctx, mask)

    run_kernel(kernel, grid=2, block=64)  # 4 warps
    assert violations == []
    assert mem.load_word(acquisitions) == 4  # one lock per warp group
    assert mem.load_word(cm._mutex.addr) == 0  # released


def test_warp_collective_members_cooperate_by_rank(mem, run_kernel):
    cm = CollectiveMutex(mem)
    slots = mem.host_alloc(8 * 64)
    cursor = mem.host_alloc(8)

    def kernel(ctx):
        mask = yield from cm.lock_warp(ctx)
        rank = sorted(mask).index(ctx.lane)
        # each member claims slot base+rank with one shared cursor read
        if rank == 0:
            base = yield ops.atomic_add(cursor, len(mask))
            yield ops.store(slots + 8 * 63, base)  # broadcast via memory
        yield ops.warp_sync(mask)
        base = yield ops.load(slots + 8 * 63)
        yield ops.store(slots + 8 * (base + rank), ctx.tid + 1)
        yield from cm.unlock_warp(ctx, mask)

    run_kernel(kernel, grid=1, block=32)
    taken = [mem.load_word(slots + 8 * i) for i in range(32)]
    assert all(taken), "every member claimed a distinct slot"
    assert len(set(taken)) == 32


def test_block_collective(mem, run_kernel):
    cm = CollectiveMutex(mem)
    counter = mem.host_alloc(8)
    acquisitions = mem.host_alloc(8)

    def kernel(ctx):
        yield from cm.lock_block(ctx)
        if ctx.tid_in_block == 0:
            yield ops.atomic_add(acquisitions, 1)
        yield ops.atomic_add(counter, 1)
        yield from cm.unlock_block(ctx)

    run_kernel(kernel, grid=4, block=32)
    assert mem.load_word(counter) == 128
    assert mem.load_word(acquisitions) == 4
    assert mem.load_word(cm._mutex.addr) == 0  # released


def test_plain_lock_degenerate_path(mem, run_kernel):
    cm = CollectiveMutex(mem)
    shared = mem.host_alloc(8)

    def kernel(ctx):
        yield from cm.lock(ctx)
        v = yield ops.load(shared)
        yield ops.sleep(11)
        yield ops.store(shared, v + 1)
        yield from cm.unlock(ctx)

    run_kernel(kernel, grid=1, block=64)
    assert mem.load_word(shared) == 64


def test_partial_warp_groups(mem, run_kernel):
    """Lanes that skip the collective don't block the participants."""
    cm = CollectiveMutex(mem)
    done = []

    def kernel(ctx):
        if ctx.lane % 2 == 0:
            return  # non-participant
        mask = yield from cm.lock_warp(ctx)
        assert all(l % 2 == 1 for l in mask)
        yield from cm.unlock_warp(ctx, mask)
        done.append(ctx.tid)

    run_kernel(kernel, grid=1, block=32)
    assert len(done) == 16
