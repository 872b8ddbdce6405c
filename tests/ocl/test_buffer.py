"""Unit tests for device buffers and their discrete address spaces."""

import weakref

import numpy as np
import pytest

from repro.hw.memory import OutOfDeviceMemoryError
from repro.ocl.buffer import _frozen as is_frozen
from repro.ocl.buffer import frozen
from repro.ocl.platform import Platform


@pytest.fixture
def gpu(machine):
    return Platform(machine).gpu


@pytest.fixture
def cpu(machine):
    return Platform(machine).cpu


class TestBuffer:
    def test_zero_initialized(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        assert np.all(buf.array == 0)

    def test_nbytes(self, gpu):
        buf = gpu.create_buffer((8, 8), np.float64)
        assert buf.nbytes == 8 * 8 * 8

    def test_write_and_read(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        data = np.array([1, 2, 3, 4], dtype=np.float32)
        buf.write_from(data)
        out = np.zeros(4, dtype=np.float32)
        buf.read_into(out)
        assert np.array_equal(out, data)

    def test_write_casts_dtype(self, gpu):
        buf = gpu.create_buffer((2,), np.float32)
        buf.write_from(np.array([1.5, 2.5], dtype=np.float64))
        assert buf.array.dtype == np.float32

    def test_discrete_address_spaces(self, gpu, cpu):
        gpu_buf = gpu.create_buffer((4,), np.float32, name="b")
        cpu_buf = cpu.create_buffer((4,), np.float32, name="b")
        gpu_buf.write_from(np.ones(4, dtype=np.float32))
        assert np.all(cpu_buf.array == 0), "device copies must be independent"

    def test_copy_from_same_device(self, gpu):
        a = gpu.create_buffer((4,), np.float32)
        b = gpu.create_buffer((4,), np.float32)
        a.write_from(np.arange(4, dtype=np.float32))
        b.copy_from(a)
        assert np.array_equal(b.array, a.array)

    def test_copy_from_other_device_rejected(self, gpu, cpu):
        a = gpu.create_buffer((4,), np.float32)
        b = cpu.create_buffer((4,), np.float32)
        with pytest.raises(ValueError):
            b.copy_from(a)

    def test_snapshot_is_independent(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        snap = buf.snapshot()
        buf.write_from(np.ones(4, dtype=np.float32))
        assert np.all(snap == 0)

    def test_release_frees_memory(self, gpu):
        used_before = gpu.memory.used
        buf = gpu.create_buffer((1024,), np.float32)
        assert gpu.memory.used > used_before
        buf.release()
        assert gpu.memory.used == used_before

    def test_use_after_release(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        buf.release()
        with pytest.raises(RuntimeError):
            _ = buf.array

    def test_double_release_is_noop(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        buf.release()
        buf.release()

    def test_allocation_respects_capacity(self, machine):
        device = Platform(machine).gpu
        too_big = int(device.memory.capacity) + 1
        with pytest.raises(OutOfDeviceMemoryError):
            device.create_buffer((too_big,), np.uint8)

    def test_partial_region_write(self, gpu):
        buf = gpu.create_buffer((8,), np.float32)
        data = np.arange(8, dtype=np.float32)
        buf.write_from(data, region=slice(2, 5))
        assert np.array_equal(buf.array[2:5], data[2:5])
        assert np.all(buf.array[:2] == 0)


def _frozen(values, dtype=np.float32):
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class TestCopyOnWrite:
    """A buffer adopts frozen sources and copies only when written."""

    def test_full_write_of_frozen_source_shares_it(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        src = _frozen([1, 2, 3, 4])
        buf.write_from(src)
        assert np.shares_memory(buf.view, src)

    def test_write_of_writable_source_copies(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        src = np.arange(4, dtype=np.float32)
        buf.write_from(src)
        src[:] = -1
        assert np.array_equal(buf.view, [0, 1, 2, 3])

    def test_read_only_view_of_writable_base_is_copied(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        base = np.arange(4, dtype=np.float32)
        view = base.view()
        view.flags.writeable = False
        buf.write_from(view)
        base[:] = -1
        assert np.array_equal(buf.view, [0, 1, 2, 3])

    def test_dtype_cast_copies(self, gpu):
        buf = gpu.create_buffer((2,), np.float32)
        src = _frozen([1.5, 2.5], dtype=np.float64)
        buf.write_from(src)
        assert not np.shares_memory(buf.view, src)
        assert np.array_equal(buf.view, [1.5, 2.5])

    def test_array_materializes_a_private_copy(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        src = _frozen([1, 2, 3, 4])
        buf.write_from(src)
        buf.array[0] = 9
        assert not np.shares_memory(buf.view, src)
        assert np.array_equal(src, [1, 2, 3, 4])
        assert np.array_equal(buf.view, [9, 2, 3, 4])

    def test_devices_sharing_a_snapshot_stay_independent(self, gpu, cpu):
        src = _frozen([1, 2, 3, 4])
        gpu_buf = gpu.create_buffer((4,), np.float32)
        cpu_buf = cpu.create_buffer((4,), np.float32)
        gpu_buf.write_from(src)
        cpu_buf.write_from(src)
        gpu_buf.array[:] = 0
        assert np.array_equal(cpu_buf.view, [1, 2, 3, 4])
        assert np.shares_memory(cpu_buf.view, src)

    def test_partial_write_of_shared_buffer_materializes(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        src = _frozen([1, 2, 3, 4])
        buf.write_from(src)
        buf.write_from(np.zeros(4, dtype=np.float32), region=slice(0, 2))
        assert np.array_equal(buf.view, [0, 0, 3, 4])
        assert np.array_equal(src, [1, 2, 3, 4])

    def test_copy_from_shares_a_shared_source(self, gpu):
        a = gpu.create_buffer((4,), np.float32)
        b = gpu.create_buffer((4,), np.float32)
        src = _frozen([1, 2, 3, 4])
        a.write_from(src)
        b.copy_from(a)
        assert np.shares_memory(b.view, src)
        a.array[:] = 0
        assert np.array_equal(b.view, [1, 2, 3, 4])

    def test_copy_from_copies_a_private_source(self, gpu):
        a = gpu.create_buffer((4,), np.float32)
        b = gpu.create_buffer((4,), np.float32)
        a.array[:] = 5
        b.copy_from(a)
        a.array[:] = 0
        assert np.array_equal(b.view, [5, 5, 5, 5])

    def test_copy_from_private_source_into_shared_buffer(self, gpu):
        a = gpu.create_buffer((4,), np.float32)
        b = gpu.create_buffer((4,), np.float32)
        shared = _frozen([1, 2, 3, 4])
        b.write_from(shared)
        a.array[:] = 7
        b.copy_from(a)
        a.array[:] = 0
        assert np.array_equal(b.view, [7, 7, 7, 7])
        assert np.array_equal(shared, [1, 2, 3, 4])
        b.array[0] = 1
        assert np.array_equal(b.view, [1, 7, 7, 7])

    def test_snapshot_of_shared_buffer_is_the_shared_array(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        src = _frozen([1, 2, 3, 4])
        buf.write_from(src)
        snap = buf.snapshot()
        assert np.shares_memory(snap, src) and not snap.flags.writeable

    def test_snapshot_of_private_buffer_is_a_frozen_copy(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        buf.array[:] = 3
        snap = buf.snapshot()
        assert not snap.flags.writeable
        buf.array[:] = 0
        assert np.array_equal(snap, [3, 3, 3, 3])

    def test_view_is_read_only(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        with pytest.raises(ValueError, match="read-only"):
            buf.view[0] = 1
        assert np.array_equal(buf.view, [0, 0, 0, 0])

    def test_release_drops_the_shared_array(self, gpu):
        buf = gpu.create_buffer((4,), np.float32)
        src = _frozen([1, 2, 3, 4])
        buf.write_from(src)
        alive = weakref.ref(src)
        del src
        assert alive() is not None
        buf.release()
        assert alive() is None

    def test_frozen_returns_a_frozen_array_as_is(self):
        src = _frozen([1, 2, 3, 4])
        assert frozen(src) is src

    @pytest.mark.parametrize("source", [
        lambda: np.arange(4, dtype=np.float32),
        lambda: _read_only_view(np.arange(4, dtype=np.float32)),
        lambda: [0.0, 1.0, 2.0, 3.0],
        lambda: np.frombuffer(np.arange(4, dtype=np.float32).tobytes(),
                              dtype=np.float32),
    ], ids=["writable", "read-only-view-of-writable", "list", "frombuffer"])
    def test_frozen_copies_anything_not_frozen(self, source):
        src = source()
        out = frozen(src)
        assert is_frozen(out)
        assert np.array_equal(out, [0, 1, 2, 3])
        if isinstance(src, np.ndarray):
            assert not np.shares_memory(out, src)


def _read_only_view(base):
    view = base.view()
    view.flags.writeable = False
    return view


class TestUseAfterRelease:
    """Every transfer path refuses a released buffer, like ``array``."""

    @pytest.fixture
    def released(self, gpu):
        buf = gpu.create_buffer((4,), np.float32, name="gone")
        buf.write_from(np.arange(4, dtype=np.float32))
        buf.release()
        return buf

    def test_snapshot(self, released):
        with pytest.raises(RuntimeError, match="use after release of 'gone'"):
            released.snapshot()

    def test_read_into(self, released):
        out = np.zeros(4, dtype=np.float32)
        with pytest.raises(RuntimeError, match="use after release of 'gone'"):
            released.read_into(out)
        assert np.all(out == 0)

    def test_copy_from_released_source(self, gpu, released):
        dst = gpu.create_buffer((4,), np.float32)
        with pytest.raises(RuntimeError, match="use after release of 'gone'"):
            dst.copy_from(released)

    def test_copy_into_released_buffer(self, gpu, released):
        src = gpu.create_buffer((4,), np.float32)
        with pytest.raises(RuntimeError, match="use after release of 'gone'"):
            released.copy_from(src)

    def test_write_from(self, released):
        with pytest.raises(RuntimeError, match="use after release of 'gone'"):
            released.write_from(np.ones(4, dtype=np.float32))

    def test_view(self, released):
        with pytest.raises(RuntimeError, match="use after release of 'gone'"):
            _ = released.view
