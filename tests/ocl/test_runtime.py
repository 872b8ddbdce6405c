"""End-to-end tests of the single-device vendor runtime, and of the
write-buffer contract every runtime shares."""

import numpy as np
import pytest

from repro.baselines.starpu.socl import SoclRuntime
from repro.baselines.static_partition import StaticPartitionRuntime
from repro.core.runtime import FluidiCLRuntime
from repro.hw.specs import DeviceKind
from repro.ocl.buffer import Buffer
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import SingleDeviceRuntime

from tests.conftest import make_scale_kernel


def run_program(machine, kind, n=256, local=16):
    runtime = SingleDeviceRuntime(machine, kind)
    spec = make_scale_kernel(n, local)
    x = np.arange(n, dtype=np.float32)
    buf_x = runtime.create_buffer("x", (n,), np.float32)
    buf_y = runtime.create_buffer("y", (n,), np.float32)
    runtime.enqueue_write_buffer(buf_x, x)
    runtime.enqueue_nd_range_kernel(
        spec, NDRange(n, local), {"x": buf_x, "y": buf_y, "alpha": 3.0}
    )
    y = np.zeros(n, dtype=np.float32)
    runtime.enqueue_read_buffer(buf_y, y)
    runtime.finish()
    return runtime, x, y


@pytest.mark.parametrize("kind", [DeviceKind.GPU, DeviceKind.CPU])
class TestSingleDeviceRuntime:
    def test_correct_results(self, machine, kind):
        _rt, x, y = run_program(machine, kind)
        assert np.allclose(y, 3.0 * x)

    def test_time_advances(self, machine, kind):
        run_program(machine, kind)
        assert machine.now > 0

    def test_stats(self, machine, kind):
        runtime, _x, _y = run_program(machine, kind)
        assert runtime.stats.kernels_enqueued == 1
        assert runtime.stats.writes == 1
        assert runtime.stats.reads == 1


class TestVersionHandling:
    def test_multiple_versions_uses_first(self, machine):
        runtime = SingleDeviceRuntime(machine, DeviceKind.GPU)
        n = 64
        base = make_scale_kernel(n)
        alt = base.with_version("alt", base.body)
        buf_x = runtime.create_buffer("x", (n,), np.float32)
        buf_y = runtime.create_buffer("y", (n,), np.float32)
        runtime.enqueue_write_buffer(buf_x, np.ones(n, dtype=np.float32))
        runtime.enqueue_nd_range_kernel(
            [base, alt], NDRange(n, 16), {"x": buf_x, "y": buf_y, "alpha": 2.0}
        )
        y = np.zeros(n, dtype=np.float32)
        runtime.enqueue_read_buffer(buf_y, y)
        runtime.finish()
        assert np.all(y == 2.0)

    def test_empty_version_list_rejected(self, machine):
        runtime = SingleDeviceRuntime(machine, DeviceKind.GPU)
        with pytest.raises(ValueError):
            runtime._as_versions([])

    def test_mismatched_names_rejected(self, machine):
        runtime = SingleDeviceRuntime(machine, DeviceKind.GPU)
        a = make_scale_kernel(64, name="a")
        b = make_scale_kernel(64, name="b")
        with pytest.raises(ValueError):
            runtime._as_versions([a, b])


class TestDeviceChoice:
    def test_gpu_faster_for_gpu_friendly_kernel(self):
        from repro.hw.machine import build_machine

        times = {}
        for kind in (DeviceKind.GPU, DeviceKind.CPU):
            machine = build_machine()
            # gpu_eff high, cpu_eff low
            runtime = SingleDeviceRuntime(machine, kind)
            n = 64 * 256
            spec = make_scale_kernel(n, gpu_eff=0.9, cpu_eff=0.1)
            buf_x = runtime.create_buffer("x", (n,), np.float32)
            buf_y = runtime.create_buffer("y", (n,), np.float32)
            runtime.enqueue_write_buffer(buf_x, np.ones(n, dtype=np.float32))
            runtime.enqueue_nd_range_kernel(
                spec, NDRange(n, 16), {"x": buf_x, "y": buf_y, "alpha": 1.0}
            )
            runtime.finish()
            times[kind] = machine.now
        assert times[DeviceKind.GPU] < times[DeviceKind.CPU]

    def test_release_frees_buffers(self, machine):
        runtime, _x, _y = run_program(machine, DeviceKind.GPU)
        used = runtime.device.memory.used
        assert used > 0
        runtime.release()
        assert runtime.device.memory.used == 0


@pytest.mark.parametrize("make_runtime", [
    lambda m: SingleDeviceRuntime(m, DeviceKind.GPU),
    lambda m: SingleDeviceRuntime(m, DeviceKind.CPU),
    FluidiCLRuntime,
    lambda m: StaticPartitionRuntime(m, 0.5),
    SoclRuntime,
], ids=["gpu-only", "cpu-only", "fluidicl", "static-partition", "socl"])
class TestWriteBufferContract:
    """``enqueue_write_buffer`` sends the host array's contents at the call,
    whenever the transfer completes (``AbstractRuntime`` contract)."""

    def test_host_overwrite_after_call_is_not_sent(self, machine,
                                                   make_runtime):
        runtime = make_runtime(machine)
        handle = runtime.create_buffer("a", (4,), np.float32)
        host = np.arange(4, dtype=np.float32)
        runtime.enqueue_write_buffer(handle, host)
        host[:] = -1
        runtime.finish()
        out = np.zeros(4, dtype=np.float32)
        runtime.enqueue_read_buffer(handle, out)
        runtime.finish()
        assert np.array_equal(out, [0, 1, 2, 3])

    def test_frozen_host_array_is_adopted_not_copied(self, machine,
                                                     make_runtime):
        runtime = make_runtime(machine)
        handle = runtime.create_buffer("a", (4,), np.float32)
        host = np.arange(4, dtype=np.float32)
        host.flags.writeable = False
        runtime.enqueue_write_buffer(handle, host)
        runtime.finish()
        # SOCL stages every write through a copy of its own, by design
        if not isinstance(runtime, SoclRuntime):
            for mirror in _device_mirrors(handle):
                assert np.shares_memory(mirror.view, host)
        out = np.zeros(4, dtype=np.float32)
        runtime.enqueue_read_buffer(handle, out)
        runtime.finish()
        assert np.array_equal(out, [0, 1, 2, 3])


def _device_mirrors(handle):
    """Every device ``Buffer`` behind a runtime's buffer handle."""
    if isinstance(handle, Buffer):
        return [handle]
    if hasattr(handle, "copies"):
        return list(handle.copies)
    return [handle.gpu, handle.cpu]
