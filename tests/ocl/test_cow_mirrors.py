"""Aliasing guarantees of copy-on-write buffer mirrors.

Device buffers share one frozen host snapshot until something writes them
(``repro.ocl.buffer.Buffer``).  These tests pin what makes that safe:

* in cooperative runs no writable array is ever reachable from two
  buffers and no frozen array ever changes, so a kernel write on one front
  never shows up in another front's mirror, in a pristine original or in
  the host snapshot;
* only arguments the analyzer proves read-only get a read-only view
  (``repro.analysis.analyzer.read_only_args``);
* breaking the rule — sharing *writable* arrays — is caught by the
  differential oracle.
"""

import hashlib

import numpy as np
import pytest

import repro.core.runtime as core_runtime
from repro.analysis.analyzer import read_only_args
from repro.analysis.known_bad import KNOWN_BAD_CASES
from repro.core.merge import build_merge_kernel, merge_ndrange
from repro.core.runtime import FluidiCLRuntime
from repro.hw.cost import WorkGroupCost
from repro.hw.machine import build_machine
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.kernels.transforms import plain_variant
from repro.ocl.buffer import Buffer
from repro.ocl.kernel import Kernel
from repro.ocl.ndrange import NDRange
from repro.ocl.platform import Platform
from repro.polybench.suite import make_app

from tests.workloads import test_differential as differential


_COST = WorkGroupCost(flops=1.0, bytes_read=4.0, bytes_written=4.0)


def _root(array):
    while array.base is not None:
        array = array.base
    return array


def _digest(array) -> bytes:
    return hashlib.blake2b(array.tobytes()).digest()


class MirrorWatch:
    """Tracks every Buffer created and checks the copy-on-write invariants
    after every kernel body dispatch."""

    def __init__(self, monkeypatch):
        self.buffers = []
        #: id(root) -> (frozen root array, digest when first seen)
        self.frozen = {}
        self.checks = 0
        init, run_span = Buffer.__init__, Kernel.run_span

        def tracking_init(buf, *args, **kwargs):
            init(buf, *args, **kwargs)
            self.buffers.append(buf)

        def checked_run_span(kernel, ndrange, lo, hi):
            run_span(kernel, ndrange, lo, hi)
            self.check()

        monkeypatch.setattr(Buffer, "__init__", tracking_init)
        monkeypatch.setattr(Kernel, "run_span", checked_run_span)

    def check(self) -> None:
        self.checks += 1
        owners = {}
        for buf in self.buffers:
            if buf.released:
                continue
            root = _root(buf.view)
            if root.flags.writeable:
                other = owners.setdefault(id(root), buf)
                assert other is buf, (
                    f"{buf.name} and {other.name} share a writable array")
            elif id(root) not in self.frozen:
                self.frozen[id(root)] = (root, _digest(root))

    def final_check(self) -> None:
        self.check()
        for root, digest in self.frozen.values():
            assert _digest(root) == digest, "a frozen array changed"


@pytest.mark.parametrize("preset", ["default", "cpu+2gpu"])
@pytest.mark.parametrize("app_name,scale", [
    ("gesummv", "test"), ("syrk", "test"), ("2mm", "test"),
    ("bicg", "test"), ("gesummv", "paper"),
])
def test_kernel_writes_stay_private(monkeypatch, app_name, scale, preset):
    watch = MirrorWatch(monkeypatch)
    runtime = FluidiCLRuntime(build_machine(preset=preset))
    app = make_app(app_name, scale)
    inputs = app.fresh_inputs()
    host_copies = {name: array.copy() for name, array in inputs.items()}
    result = app.execute(runtime, inputs=inputs, check=True)
    runtime.drain()
    watch.final_check()
    assert result.correct
    assert watch.checks > 0 and watch.frozen
    for name, array in inputs.items():
        assert np.array_equal(array, host_copies[name])


def test_kernel_write_on_one_device_leaves_the_shared_snapshot(machine):
    platform = Platform(machine)
    snapshot = np.arange(8, dtype=np.float32)
    snapshot.flags.writeable = False
    gpu_buf = platform.gpu.create_buffer((8,), np.float32)
    cpu_buf = platform.cpu.create_buffer((8,), np.float32)
    gpu_buf.write_from(snapshot)
    cpu_buf.write_from(snapshot)

    def body(ctx):
        rows = ctx.rows()
        ctx["y"][rows] = ctx["y"][rows] * 2.0

    spec = KernelSpec(name="double", args=(buffer_arg("y", Intent.INOUT),),
                      body=body, cost=_COST)
    Kernel(plain_variant(spec), {"y": gpu_buf}).run_span(NDRange(8, 4), 0, 2)
    assert np.array_equal(gpu_buf.view, 2 * np.arange(8))
    assert np.array_equal(cpu_buf.view, np.arange(8))
    assert np.array_equal(snapshot, np.arange(8))
    assert np.shares_memory(cpu_buf.view, snapshot)


class TestReadOnlyArgs:
    def test_non_analyzable_body(self):
        spec = KernelSpec(name="opaque",
                          args=(buffer_arg("x"), buffer_arg("y", Intent.OUT)),
                          body=lambda ctx: None, cost=_COST)
        assert read_only_args(spec) == frozenset()

    @pytest.mark.parametrize("case", [
        c for c in KNOWN_BAD_CASES if c.expected_rule in ("FK101", "FK103",
                                                          "FK104")
    ], ids=lambda c: c.name)
    def test_contradicted_declaration_proves_nothing(self, case):
        assert read_only_args(case.spec()) == frozenset()

    def test_over_declared_write_keeps_in_args(self):
        # FK110 (a declared write the body never makes) cannot hide a write
        # to an 'in' argument; the runtime's merge kernel carries it too,
        # because its one write goes through a reshaped view
        case = next(c for c in KNOWN_BAD_CASES if c.expected_rule == "FK110")
        assert read_only_args(case.spec()) == {"x"}

    def test_suite_kernels_prove_every_in_arg(self):
        for app_name in differential.DENSE:
            for spec in make_app(app_name, "test").kernel_specs():
                ins = {a.name for a in spec.buffer_args
                       if not a.intent.is_written}
                assert read_only_args(spec) == ins, spec.name


def test_merge_kernel_views_inputs_and_materializes_output(machine):
    gpu = Platform(machine).gpu

    def shared(values):
        buf = gpu.create_buffer((8,), np.float32)
        array = np.array(values, dtype=np.float32)
        array.flags.writeable = False
        buf.write_from(array)
        return buf, array

    cpu_buf, cpu_data = shared([1, 1, 9, 9, 1, 1, 9, 9])
    orig, orig_data = shared([1] * 8)
    gpu_buf, gpu_data = shared([5] * 8)
    diffs = []
    spec = build_merge_kernel(gpu_buf.nbytes, 4, on_diff=diffs.append)
    assert read_only_args(spec) == {"cpu_buf", "orig"}
    kernel = Kernel(plain_variant(spec), {
        "cpu_buf": cpu_buf, "orig": orig, "gpu_buf": gpu_buf,
        "number_elems": 8,
    })
    kernel.run_span(merge_ndrange(8), 0, 1)
    assert np.shares_memory(cpu_buf.view, cpu_data)
    assert np.shares_memory(orig.view, orig_data)
    assert not np.shares_memory(gpu_buf.view, gpu_data)
    assert np.array_equal(gpu_buf.view, [5, 5, 9, 9, 5, 5, 9, 9])
    assert np.array_equal(gpu_data, [5] * 8)
    assert sum(diffs) == 4 * 4


def test_sharing_writable_arrays_fails_the_differential_oracle(monkeypatch):
    """Mutation: adopt *writable* sources and leave the host snapshot
    writable, so mirrors alias; the oracle must notice."""

    def aliasing_write_from(self, host_array, region=None):
        src = np.asarray(host_array, dtype=self.dtype).reshape(self.shape)
        if region is None:
            self._array = src
        else:
            self.array.reshape(-1)[region] = src.reshape(-1)[region]

    monkeypatch.setattr(Buffer, "write_from", aliasing_write_from)
    monkeypatch.setattr(core_runtime, "frozen",
                        lambda array: np.array(array, copy=True))
    oracle = differential.TestDenseAppsCooperativeVsSingle()
    failures = []
    for preset in differential.PRESETS:
        for app_name in differential.DENSE:
            try:
                oracle.test_bitwise_vs_single_devices(app_name, preset)
            except AssertionError:
                failures.append((app_name, preset))
    assert failures
