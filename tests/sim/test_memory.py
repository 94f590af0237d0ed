"""Unit tests for repro.sim.memory.DeviceMemory."""

import pytest

from repro.sim import DeviceMemory, MisalignedAccess, OutOfBoundsAccess

M64 = (1 << 64) - 1


class TestConstruction:
    def test_size_rounds_up_to_words(self):
        assert DeviceMemory(9).size == 16

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            DeviceMemory(0)
        with pytest.raises(ValueError):
            DeviceMemory(-8)

    @pytest.mark.parametrize("size", [True, 8.0, "64", None])
    def test_rejects_non_int_size(self, size):
        with pytest.raises(ValueError, match="size"):
            DeviceMemory(size)

    def test_starts_zeroed(self):
        mem = DeviceMemory(64)
        assert all(mem.load_word(a) == 0 for a in range(0, 64, 8))

    def test_null_is_not_a_valid_address(self):
        mem = DeviceMemory(1 << 20)
        assert DeviceMemory.NULL > mem.size


class TestWordAccess:
    def test_store_load_roundtrip(self):
        mem = DeviceMemory(64)
        mem.store_word(8, 0xDEADBEEF)
        assert mem.load_word(8) == 0xDEADBEEF

    def test_store_masks_to_64_bits(self):
        mem = DeviceMemory(64)
        mem.store_word(0, (1 << 64) + 5)
        assert mem.load_word(0) == 5

    def test_negative_value_wraps(self):
        mem = DeviceMemory(64)
        mem.store_word(0, -1)
        assert mem.load_word(0) == M64

    @pytest.mark.parametrize("addr", [1, 2, 3, 4, 5, 6, 7, 9])
    def test_misaligned_raises(self, addr):
        mem = DeviceMemory(64)
        with pytest.raises(MisalignedAccess):
            mem.load_word(addr)

    def test_out_of_bounds_raises(self):
        mem = DeviceMemory(64)
        with pytest.raises(OutOfBoundsAccess):
            mem.load_word(64)
        with pytest.raises(OutOfBoundsAccess):
            mem.store_word(-8, 1)


class TestAtomicHelpers:
    def test_cas_success_and_failure(self):
        mem = DeviceMemory(64)
        mem.store_word(0, 7)
        assert mem.cas_word(0, 7, 9) == 7
        assert mem.load_word(0) == 9
        assert mem.cas_word(0, 7, 11) == 9  # fails, returns current
        assert mem.load_word(0) == 9

    def test_add_wraps(self):
        mem = DeviceMemory(64)
        mem.store_word(0, M64)
        assert mem.add_word(0, 2) == M64
        assert mem.load_word(0) == 1

    def test_exch(self):
        mem = DeviceMemory(64)
        mem.store_word(0, 3)
        assert mem.exch_word(0, 8) == 3
        assert mem.load_word(0) == 8

    def test_and_or_xor(self):
        mem = DeviceMemory(64)
        mem.store_word(0, 0b1100)
        assert mem.and_word(0, 0b1010) == 0b1100
        assert mem.load_word(0) == 0b1000
        assert mem.or_word(0, 0b0001) == 0b1000
        assert mem.load_word(0) == 0b1001
        assert mem.xor_word(0, 0b1111) == 0b1001
        assert mem.load_word(0) == 0b0110

    def test_max_min_unsigned(self):
        mem = DeviceMemory(64)
        mem.store_word(0, 10)
        mem.max_word(0, 4)
        assert mem.load_word(0) == 10
        mem.max_word(0, 40)
        assert mem.load_word(0) == 40
        mem.min_word(0, 7)
        assert mem.load_word(0) == 7


class TestHostAlloc:
    def test_grows_downward_aligned(self):
        mem = DeviceMemory(1 << 12)
        a = mem.host_alloc(100, align=64)
        b = mem.host_alloc(8)
        assert a % 64 == 0
        assert b + 8 <= a

    def test_exhaustion_raises(self):
        mem = DeviceMemory(64)
        with pytest.raises(OutOfBoundsAccess):
            mem.host_alloc(128)

    def test_rejects_bad_align(self):
        mem = DeviceMemory(64)
        with pytest.raises(ValueError):
            mem.host_alloc(8, align=3)
        with pytest.raises(ValueError):
            mem.host_alloc(-1)


class TestByteRanges:
    def test_write_read_roundtrip(self):
        mem = DeviceMemory(64)
        mem.write_bytes(5, b"hello")
        assert mem.read_bytes(5, 5) == b"hello"

    def test_bounds_checked(self):
        mem = DeviceMemory(64)
        with pytest.raises(OutOfBoundsAccess):
            mem.read_bytes(60, 8)
        with pytest.raises(OutOfBoundsAccess):
            mem.write_bytes(62, b"xyz")

    def test_fill_words(self):
        mem = DeviceMemory(64)
        mem.fill_words(8, 3, 0xAB)
        assert [mem.load_word(a) for a in range(0, 40, 8)] == [0, 0xAB, 0xAB, 0xAB, 0]


class TestHostileCounts:
    def test_negative_read_count_raises(self):
        mem = DeviceMemory(64)
        with pytest.raises(ValueError, match="nbytes"):
            mem.read_bytes(8, -4)

    def test_negative_fill_count_raises(self):
        mem = DeviceMemory(64)
        with pytest.raises(ValueError, match="nwords"):
            mem.fill_words(0, -3, 1)
        assert mem.load_word(0) == 0

    def test_negative_host_alloc_names_its_argument(self):
        with pytest.raises(ValueError, match="nbytes"):
            DeviceMemory(64).host_alloc(-1)

    @pytest.mark.parametrize("addr", [0, 5, 56, 60, 64])
    def test_zero_length_access_is_a_noop(self, addr):
        mem = DeviceMemory(64)
        mem.fill_words(0, 8, 0x55)
        mem.fill_words(addr, 0, 0xFF)
        mem.write_bytes(addr, b"")
        assert mem.read_bytes(addr, 0) == b""
        assert all(mem.load_word(a) == 0x55 for a in range(0, 64, 8))

    @pytest.mark.parametrize("addr", [-8, 72])
    def test_zero_length_access_outside_memory_raises(self, addr):
        mem = DeviceMemory(64)
        with pytest.raises(OutOfBoundsAccess):
            mem.fill_words(addr, 0, 1)
        with pytest.raises(OutOfBoundsAccess):
            mem.read_bytes(addr, 0)
