"""AllocatorConfig derived sizes and validation (+ properties)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import AllocatorConfig, round_up_pow2


class TestRoundUpPow2:
    @pytest.mark.parametrize("n,want", [
        (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16), (1000, 1024),
        (4096, 4096), (4097, 8192), (0, 1), (-3, 1),
    ])
    def test_cases(self, n, want):
        assert round_up_pow2(n) == want

    @given(st.integers(1, 1 << 40))
    def test_is_power_of_two_and_bounds(self, n):
        p = round_up_pow2(n)
        assert p >= n
        assert p & (p - 1) == 0
        assert p < 2 * n


class TestDefaults:
    def test_paper_constants(self):
        cfg = AllocatorConfig()
        assert cfg.page_size == 4096
        assert cfg.bin_size == 4096
        assert cfg.bin_header_size == 128
        assert cfg.tail_size == 128
        assert cfg.bins_per_chunk == 64
        assert cfg.chunk_size == 256 * 1024  # self-consistent layout
        assert cfg.chunk_order == 6
        assert cfg.n_regular_bins == 62
        assert cfg.min_alloc == 8
        assert cfg.max_ualloc_size == 2048
        assert cfg.max_bin_blocks == 512

    def test_size_classes(self):
        cfg = AllocatorConfig()
        assert cfg.size_classes == (8, 16, 32, 64, 128, 256, 512, 1024, 2048)

    def test_class_index(self):
        cfg = AllocatorConfig()
        for i, s in enumerate(cfg.size_classes):
            assert cfg.class_index(s) == i

    def test_bin_capacity_paper_values(self):
        cfg = AllocatorConfig()
        # tail-using sizes get the full 4 KB
        assert cfg.bin_capacity(8) == 512
        assert cfg.bin_capacity(16) == 256
        assert cfg.bin_capacity(128) == 32
        # larger sizes lose the 128 B header (paper: 1 KB bins hold 3)
        assert cfg.bin_capacity(256) == 15
        assert cfg.bin_capacity(512) == 7
        assert cfg.bin_capacity(1024) == 3
        assert cfg.bin_capacity(2048) == 1  # the degenerate 2 KB case

    def test_pool_size(self):
        assert AllocatorConfig(pool_order=10).pool_size == 4 << 20


class TestValidation:
    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            AllocatorConfig(page_size=3000)
        with pytest.raises(ValueError):
            AllocatorConfig(min_alloc=24)

    def test_rejects_pool_smaller_than_chunk(self):
        with pytest.raises(ValueError):
            AllocatorConfig(pool_order=3)

    def test_rejects_too_many_bins_for_tails(self):
        with pytest.raises(ValueError):
            AllocatorConfig(bins_per_chunk=128)

    def test_small_chunk_variants_allowed(self):
        cfg = AllocatorConfig(bins_per_chunk=8)
        assert cfg.chunk_size == 32 * 1024
        assert cfg.n_regular_bins == 6

    @given(bins=st.sampled_from([4, 8, 16, 32, 64]))
    def test_tail_capacity_always_sufficient(self, bins):
        cfg = AllocatorConfig(bins_per_chunk=bins)
        tails = 2 * (cfg.bin_size - cfg.bin_header_size) // cfg.tail_size
        assert cfg.n_regular_bins <= tails


class TestOrderForPool:
    """The hoisted pool-order helper every bench used to hand-roll."""

    @pytest.mark.parametrize("pool,want", [
        (4096, 0),            # exactly one page
        (8192, 1),
        (4096 << 6, 6),       # one chunk
        (1 << 20, 8),         # the benches' 1 MiB pool
        (4096 << 12, 12),
    ])
    def test_exact_on_page_power_pools(self, pool, want):
        assert AllocatorConfig.order_for_pool(pool) == want

    @pytest.mark.parametrize("pool,want", [
        (1, 0),               # sub-page request still gets a page
        (4095, 0),
        (4097, 1),            # the case the old expression under-covered
        (8193, 2),
        ((4096 << 8) + 1, 9),
    ])
    def test_rounds_up_off_boundary(self, pool, want):
        assert AllocatorConfig.order_for_pool(pool) == want
        # every one of these is a case the legacy hand-rolled expression
        # got wrong (under-covering above a page, over-covering below)
        assert (pool // 4096 - 1).bit_length() != want

    @given(pool=st.integers(1, 1 << 32))
    def test_covers_and_is_tight(self, pool):
        order = AllocatorConfig.order_for_pool(pool)
        assert 4096 << order >= pool
        assert order == 0 or 4096 << (order - 1) < pool

    def test_page_size_parameter(self):
        assert AllocatorConfig.order_for_pool(1 << 20, page_size=1 << 16) == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            AllocatorConfig.order_for_pool(0)
        with pytest.raises(ValueError):
            AllocatorConfig.order_for_pool(-4096)
        with pytest.raises(ValueError):
            AllocatorConfig.order_for_pool(4096, page_size=3000)
