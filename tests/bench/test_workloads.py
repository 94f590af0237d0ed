"""The shared device workloads: the malloc storm and the churn kernel.

``repro.bench.workloads`` is the one definition of both shapes; fig7,
the shootout, the resil degradation bench and the verify scenarios all
launch these kernels, so their contracts are pinned here directly.
"""

from repro.backends import build_standalone
from repro.bench.workloads import churn, malloc_storm
from repro.sim import DeviceMemory, GPUDevice, Scheduler, ops

_NULL = DeviceMemory.NULL


class _Tagging:
    """A fake allocator whose address encodes who asked for what."""

    def __init__(self, fail_tids=()):
        self.fail_tids = set(fail_tids)
        self.freed = []

    def malloc(self, ctx, size):
        yield ops.sleep(1)
        if ctx.tid in self.fail_tids:
            return _NULL
        return ctx.tid * 1_000_000 + size

    def free(self, ctx, p):
        yield ops.sleep(1)
        self.freed.append(p)


def _launch(kernel, grid, block, mem=None, device=None):
    mem = mem if mem is not None else DeviceMemory(1 << 16)
    sched = Scheduler(mem, device or GPUDevice(), seed=5)
    launched = sched.launch(kernel, grid, block)
    sched.run()
    return launched


class TestMallocStorm:
    def test_one_size_gives_one_address_per_thread(self):
        device = GPUDevice(num_sms=2)
        mem, handle = build_standalone("ours", device, 1 << 20)
        kernel, out = malloc_storm(handle, 64)
        launched = _launch(kernel, 2, 32, mem, device)
        assert len(out) == 64
        assert _NULL not in out
        assert len(set(out)) == 64
        assert sorted(p for got in launched.results for p in got) \
            == sorted(out)
        handle.host_check()

    def test_several_sizes_rotate_from_the_thread_id(self):
        sizes = (16, 64, 256)
        kernel, out = malloc_storm(_Tagging(), *sizes)
        launched = _launch(kernel, 2, 4)
        for tid, got in zip(launched.tids, launched.results):
            assert got == [tid * 1_000_000 + sizes[(tid + i) % 3]
                           for i in range(3)]
        assert sorted(out) == sorted(p for got in launched.results
                                     for p in got)

    def test_failed_calls_are_recorded_as_null(self):
        kernel, out = malloc_storm(_Tagging(fail_tids={1, 2}), 8, 32)
        launched = _launch(kernel, 1, 4)
        assert launched.results[1] == launched.results[2] == [_NULL, _NULL]
        assert out.count(_NULL) == 4


class TestChurn:
    def test_one_failure_count_per_thread(self):
        fake = _Tagging(fail_tids={0, 3})
        kernel, out = churn(fake.malloc, fake.free, (8, 32), iters=5,
                            hold=10)
        _launch(kernel, 2, 4)
        assert sorted(out) == [0] * 6 + [5, 5]
        # every successful cycle frees what it got
        assert len(fake.freed) == 6 * 5

    def test_real_backend_churn_ends_leak_free(self):
        device = GPUDevice(num_sms=2)
        mem, handle = build_standalone("ours", device, 1 << 20)
        kernel, out = churn(handle.malloc, handle.free, (64,), iters=3,
                            hold=100)
        _launch(kernel, 2, 32, mem, device)
        assert out == [0] * 64
        handle.host_checkpoint(expect_leak_free=True)
