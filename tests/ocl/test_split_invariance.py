"""Split-invariance of box-dispatched kernel bodies.

A span-safe body runs one call per axis-aligned box of work-groups, and
how a flattened range is cut into boxes depends on the schedule: the
devices' windows, the waves that coalesce, the point where the fronts
meet.  The output bytes must not.  For every kernel of every app in the
extended suite that dispatches as boxes, each launch of a real
single-device run is replayed through ``Kernel.run_span`` on its
pre-launch buffer contents: once as the whole range, then as seeded
random splits (single-group and partial-row windows included), and
every buffer must come out byte-identical.

This is what catches BLAS call-shape dependence (DESIGN.md, "Span
dispatch"): a GEMM tile computed inside a larger GEMM may round
differently from the same tile computed alone.
"""

import numpy as np
import pytest

from repro.analysis.analyzer import span_dims
from repro.hw.machine import build_machine
from repro.hw.specs import DeviceKind
from repro.ocl.kernel import Kernel
from repro.ocl.runtime import SingleDeviceRuntime
from repro.polybench.suite import EXTENDED_SUITE, make_app

#: bodies that index through ``ctx.group_id`` keep per-group dispatch
PER_GROUP = {"hist_partial", "scan_upsweep", "scan_downsweep"}


def captured_launches(app_name, scale, monkeypatch):
    """``(kernel, ndrange, pre-launch buffer contents)`` per box-dispatched
    kernel, first launch of each, from a single-device GPU run."""
    launches = {}
    run_span = Kernel.run_span

    def recording(kernel, ndrange, lo, hi):
        name = kernel.spec.name
        if name not in launches and span_dims(kernel.spec) is not None:
            before = {arg: buf.array.copy()
                      for arg, buf in kernel.buffers().items()}
            launches[name] = (kernel, ndrange, before)
        run_span(kernel, ndrange, lo, hi)

    monkeypatch.setattr(Kernel, "run_span", recording)
    app = make_app(app_name, scale)
    runtime = SingleDeviceRuntime(build_machine(), DeviceKind.GPU)
    app.host_program(runtime, app.fresh_inputs())
    runtime.finish()
    monkeypatch.setattr(Kernel, "run_span", run_span)
    return list(launches.values())


def random_windows(ndrange, rng, cuts):
    """A seeded cut of ``[0, total_groups)`` into consecutive windows,
    always including a single-group window and, on 2-D ranges, a cut
    inside a row."""
    total = ndrange.total_groups
    points = set(int(c) for c in rng.integers(1, total, size=cuts))
    single = int(rng.integers(0, total))
    points |= {single, single + 1}
    row = ndrange.num_groups[0]
    if ndrange.rank > 1 and row > 1:
        points.add(int(rng.integers(0, total // row)) * row
                   + int(rng.integers(1, row)))
    edges = sorted(p for p in points if 0 < p < total)
    bounds = [0] + edges + [total]
    return list(zip(bounds[:-1], bounds[1:]))


def replay(kernel, ndrange, before, windows):
    """Run ``windows`` on a fresh copy of ``before``; returns the bytes."""
    buffers = kernel.buffers()
    for arg, data in before.items():
        buffers[arg].array[...] = data
    for lo, hi in windows:
        kernel.run_span(ndrange, lo, hi)
    return {arg: buf.array.tobytes() for arg, buf in buffers.items()}


def assert_split_invariant(app_name, scale, monkeypatch, seeds, cuts,
                           singles):
    launches = captured_launches(app_name, scale, monkeypatch)
    names = {kernel.spec.name for kernel, _, _ in launches}
    app = make_app(app_name, "test")
    assert names == {s.name for s in app.kernel_specs()} - PER_GROUP
    for kernel, ndrange, before in launches:
        total = ndrange.total_groups
        whole = replay(kernel, ndrange, before, [(0, total)])
        splits = [random_windows(ndrange, np.random.default_rng(seed), cuts)
                  for seed in seeds]
        if singles:
            splits.append([(g, g + 1) for g in range(total)])
        for windows in splits:
            got = replay(kernel, ndrange, before, windows)
            for arg, want in whole.items():
                assert got[arg] == want, (
                    f"{app_name}/{kernel.spec.name} at {scale}: buffer "
                    f"{arg!r} depends on the split {windows}"
                )


@pytest.mark.parametrize("app_name", EXTENDED_SUITE)
def test_split_invariant_at_test_scale(app_name, monkeypatch):
    assert_split_invariant(app_name, "test", monkeypatch, seeds=range(4),
                           cuts=5, singles=True)


@pytest.mark.parametrize("app_name", EXTENDED_SUITE)
def test_split_invariant_at_paper_scale(app_name, monkeypatch):
    assert_split_invariant(app_name, "paper", monkeypatch, seeds=range(2),
                           cuts=4, singles=False)


def test_group_id_bodies_keep_per_group_dispatch():
    for app_name in ("histogram", "scan"):
        for spec in make_app(app_name, "test").kernel_specs():
            assert (span_dims(spec) is None) == (spec.name in PER_GROUP)
