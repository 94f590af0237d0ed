"""Pay-per-touch set-up: lazily zero-filled memory, lazily seeded RNGs.

A run must pay only for the memory pages and the per-thread RNGs it
touches, and the laziness must not show: words read as zero until
written, forked workers do not see each other's writes, and every
thread draws exactly the stream an eagerly seeded ``Random`` would.
"""

from __future__ import annotations

import mmap
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sim import DeviceMemory, GPUDevice, Scheduler, ops
from repro.sim.device import ThreadCtx

SRC = str(Path(repro.__file__).resolve().parents[1])


class TestLazyMemory:
    def test_large_memory_costs_no_resident_pages(self):
        """Building 256 MiB and touching its two ends must not fault the
        rest in.  Measured in a fresh interpreter so the peak RSS is this
        memory's alone."""
        script = (
            "import resource\n"
            "from repro.sim.memory import DeviceMemory\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "mem = DeviceMemory(256 << 20)\n"
            "mem.store_word(0, 1)\n"
            "mem.store_word(mem.size - 8, 2)\n"
            "assert mem.load_word(mem.size // 2) == 0\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(after - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        grown_kib = int(out.stdout)  # ru_maxrss is in KiB on Linux
        assert grown_kib < 32 << 10

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_private(self):
        mem = DeviceMemory(1 << 16)
        mem.store_word(64, 7)
        pid = os.fork()
        if pid == 0:  # child: write, check its own view, never return
            ok = False
            try:
                mem.store_word(64, 99)
                mem.write_bytes(4096, b"child")
                ok = mem.load_word(64) == 99
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert mem.load_word(64) == 7
        assert mem.read_bytes(4096, 5) == bytes(5)

    def test_byte_helpers_cross_a_page_boundary(self):
        mem = DeviceMemory(4 * mmap.PAGESIZE)
        data = bytes(range(1, 40))
        addr = mmap.PAGESIZE - 13
        mem.write_bytes(addr, data)
        assert mem.read_bytes(addr, len(data)) == data
        assert mem.read_bytes(addr - 3, 3) == bytes(3)
        assert mem.read_bytes(addr + len(data), 3) == bytes(3)

    def test_byte_helpers_at_the_top_word(self):
        mem = DeviceMemory(1 << 12)
        top = mem.size - 8
        data = b"\x01\x02\x03\x04\x05\x06\x07\x88"
        mem.write_bytes(top, data)
        assert mem.read_bytes(top, 8) == data
        assert mem.load_word(top) == int.from_bytes(data, sys.byteorder)
        mem.store_word(top, (1 << 64) - 2)
        assert mem.read_bytes(top, 8) == ((1 << 64) - 2).to_bytes(
            8, sys.byteorder)


class _CountingRandom(random.Random):
    built = 0

    def __init__(self, *args):
        type(self).built += 1
        super().__init__(*args)


class TestLazyRng:
    def test_launch_without_draws_builds_no_random(self, monkeypatch):
        def kernel(ctx):
            yield ops.sleep(1 + ctx.tid % 3)

        sched = Scheduler(DeviceMemory(1 << 12), GPUDevice(num_sms=2),
                          seed=5)
        monkeypatch.setattr(_CountingRandom, "built", 0)
        monkeypatch.setattr(random, "Random", _CountingRandom)
        sched.launch(kernel, 2, 48)
        sched.run()
        assert _CountingRandom.built == 0

    def test_draws_match_an_eagerly_seeded_random(self):
        seed = 11
        draws = {}

        def kernel(ctx):
            yield ops.sleep(1)
            if ctx.tid % 2:  # half the threads never draw
                draws[ctx.tid] = ([ctx.rng.randrange(1000) for _ in range(8)]
                                  + [ctx.rng.random()])

        sched = Scheduler(DeviceMemory(1 << 12), GPUDevice(num_sms=2),
                          seed=seed)
        sched.launch(kernel, 2, 48)
        sched.run()
        assert len(draws) == 48
        for tid, got in draws.items():
            want = random.Random((seed << 20) ^ (tid * 0x9E3779B9))
            assert got == ([want.randrange(1000) for _ in range(8)]
                           + [want.random()])

    def test_explicit_rng_is_kept(self):
        rng = random.Random(3)
        ctx = ThreadCtx(tid=0, block=0, tid_in_block=0, lane=0, warp=0,
                        sm=0, nthreads=1, block_dim=1, rng=rng)
        assert ctx.rng is rng
        replacement = random.Random(4)
        ctx.rng = replacement
        assert ctx.rng is replacement

    def test_unseeded_default_is_random_zero(self):
        ctx = ThreadCtx(tid=9, block=0, tid_in_block=9, lane=9, warp=0,
                        sm=0, nthreads=10, block_dim=10)
        want = random.Random(0)
        assert [ctx.rng.random() for _ in range(16)] == \
               [want.random() for _ in range(16)]
        assert ctx.rng is ctx.rng

    def test_other_missing_attributes_still_raise(self):
        ctx = ThreadCtx(tid=0, block=0, tid_in_block=0, lane=0, warp=0,
                        sm=0, nthreads=1, block_dim=1)
        with pytest.raises(AttributeError, match="no_such_field"):
            ctx.no_such_field
