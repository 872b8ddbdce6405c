"""Tests for kernel argument binding and work-group body execution."""

import numpy as np
import pytest

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.kernels.transforms import plain_variant
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform

from tests.conftest import make_scale_kernel


@pytest.fixture
def platform(machine):
    return Platform(machine)


def bind(platform, spec, n=64):
    gpu = platform.gpu
    x = gpu.create_buffer((n,), np.float32, name="x")
    y = gpu.create_buffer((n,), np.float32, name="y")
    return Kernel(plain_variant(spec), {"x": x, "y": y, "alpha": 2.0}), x, y


class TestBinding:
    def test_missing_argument(self, platform):
        spec = make_scale_kernel(64)
        gpu = platform.gpu
        x = gpu.create_buffer((64,), np.float32)
        with pytest.raises(TypeError, match="missing"):
            Kernel(plain_variant(spec), {"x": x, "alpha": 1.0})

    def test_unexpected_argument(self, platform):
        spec = make_scale_kernel(64)
        kernel_args = {
            "x": platform.gpu.create_buffer((64,), np.float32),
            "y": platform.gpu.create_buffer((64,), np.float32),
            "alpha": 1.0,
            "bogus": 3,
        }
        with pytest.raises(TypeError, match="unexpected"):
            Kernel(plain_variant(spec), kernel_args)

    def test_scalar_passed_for_buffer(self, platform):
        spec = make_scale_kernel(64)
        with pytest.raises(TypeError, match="must be a Buffer"):
            Kernel(plain_variant(spec), {"x": 1.0, "y": 2.0, "alpha": 3.0})

    def test_buffer_passed_for_scalar(self, platform):
        spec = make_scale_kernel(64)
        buf = platform.gpu.create_buffer((64,), np.float32)
        with pytest.raises(TypeError, match="scalar"):
            Kernel(plain_variant(spec), {"x": buf, "y": buf, "alpha": buf})

    def test_check_device_rejects_foreign_buffers(self, platform):
        spec = make_scale_kernel(64)
        kernel, _x, _y = bind(platform, spec)
        with pytest.raises(ValueError, match="lives on"):
            kernel.check_device(platform.cpu)

    def test_buffers_mapping(self, platform):
        spec = make_scale_kernel(64)
        kernel, x, y = bind(platform, spec)
        assert kernel.buffers() == {"x": x, "y": y}


class TestBodyExecution:
    def test_run_workgroup_touches_only_its_block(self, platform):
        spec = make_scale_kernel(64, local_size=16)
        kernel, x, y = bind(platform, spec)
        x.write_from(np.ones(64, dtype=np.float32))
        kernel.run_workgroup(NDRange(64, 16), 1)
        assert np.all(y.array[16:32] == 2.0)
        assert np.all(y.array[:16] == 0)
        assert np.all(y.array[32:] == 0)

    def test_wg_seconds_respects_variant_multiplier(self, platform):
        from repro.kernels.dsl import KernelVariant

        spec = make_scale_kernel(64)
        plain = Kernel(plain_variant(spec), _dummy_args(platform, spec))
        inflated = Kernel(
            KernelVariant(spec, abort_checks=True, abort_in_loops=True,
                          unrolled=False),
            _dummy_args(platform, spec),
        )
        ratio = (
            inflated.wg_seconds(platform.gpu.spec)
            / plain.wg_seconds(platform.gpu.spec)
        )
        assert ratio == pytest.approx(spec.cost.no_unroll_penalty)


def _dummy_args(platform, spec):
    gpu = platform.gpu
    return {
        "x": gpu.create_buffer((64,), np.float32),
        "y": gpu.create_buffer((64,), np.float32),
        "alpha": 1.0,
    }


BOX_CALLS = []


def _box_body(ctx):
    c0, c1 = ctx.item_range(0)
    r0, r1 = ctx.item_range(1)
    ctx["y"][r0:r1, c0:c1] = ctx["x"][r0:r1, c0:c1] * 2.0
    BOX_CALLS.append(((r0, r1), (c0, c1)))


def _group_body(ctx):
    g = ctx.group_id
    c0, c1 = ctx.item_range(0)
    r0, r1 = ctx.item_range(1)
    ctx["y"][r0:r1, c0:c1] = ctx["x"][r0:r1, c0:c1] + g[0]
    BOX_CALLS.append(((r0, r1), (c0, c1)))


class TestRunSpan:
    """One body call per box for span-safe bodies, per group otherwise."""

    @staticmethod
    def run(platform, body, lo, hi):
        spec = KernelSpec(
            name="box", args=(buffer_arg("x"), buffer_arg("y", Intent.OUT)),
            body=body, cost=WorkGroupCost(flops=1, bytes_read=1,
                                          bytes_written=1))
        gpu = platform.gpu
        x = gpu.create_buffer((16, 16), np.float32)
        y = gpu.create_buffer((16, 16), np.float32)
        x.write_from(np.arange(256, dtype=np.float32).reshape(16, 16))
        BOX_CALLS.clear()
        Kernel(plain_variant(spec), {"x": x, "y": y}).run_span(
            NDRange((16, 16), (4, 4)), lo, hi)
        return y.array, list(BOX_CALLS)

    def test_2d_window_runs_as_three_boxes(self, platform):
        y, calls = self.run(platform, _box_body, 2, 13)  # 4 x 4 groups
        assert calls == [((0, 4), (8, 16)), ((4, 12), (0, 16)),
                         ((12, 16), (0, 4))]
        expected = np.zeros((16, 16), dtype=np.float32)
        doubled = np.arange(256, dtype=np.float32).reshape(16, 16) * 2.0
        for (r0, r1), (c0, c1) in calls:
            expected[r0:r1, c0:c1] = doubled[r0:r1, c0:c1]
        assert np.array_equal(y, expected)

    def test_group_id_body_runs_per_group(self, platform):
        _y, calls = self.run(platform, _group_body, 2, 13)
        assert len(calls) == 11
        assert calls[0] == ((0, 4), (8, 12))
