"""SpinLock: mutual exclusion and lock-word placement."""

from repro.sim import DeviceMemory, Scheduler, ops
from repro.sync import SpinLock


def test_mutual_exclusion_protects_read_modify_write(mem, run_kernel):
    lock = SpinLock(mem)
    shared = mem.host_alloc(8)

    def kernel(ctx):
        for _ in range(3):
            yield from lock.lock(ctx)
            v = yield ops.load(shared)
            yield ops.sleep(13)  # widen the race window
            yield ops.store(shared, v + 1)
            yield from lock.unlock(ctx)

    run_kernel(kernel, grid=4, block=32)
    assert mem.load_word(shared) == 4 * 32 * 3
    assert mem.load_word(lock.addr) == 0  # released


def test_critical_sections_never_overlap(mem, run_kernel):
    lock = SpinLock(mem)
    inside = mem.host_alloc(8)
    violations = []

    def kernel(ctx):
        yield from lock.lock(ctx)
        old = yield ops.atomic_add(inside, 1)
        if old != 0:
            violations.append(ctx.tid)
        yield ops.sleep(29)
        yield ops.atomic_sub(inside, 1)
        yield from lock.unlock(ctx)

    run_kernel(kernel, grid=2, block=64)
    assert violations == []


def test_lock_at_explicit_address():
    mem = DeviceMemory(1 << 12)
    addr = mem.host_alloc(8)
    lock = SpinLock(mem, addr=addr)
    assert lock.addr == addr

    def kernel(ctx):
        yield from lock.lock(ctx)
        yield from lock.unlock(ctx)

    s = Scheduler(mem)
    s.launch(kernel, 1, 1)
    s.run()
    assert mem.load_word(addr) == 0
