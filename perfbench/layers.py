"""Span and counter wrappers around each layer's public entry points.

Only the traced run installs them, and only for its traced phase; the
untraced phase and every ``--trace 0`` run execute the program unchanged.
Everything here wraps the program from the outside: no file under
``src/`` knows it is being traced.

Generator bodies that the event engine resumes (command processes, the
cooperative schedulers, the serve dispatcher and job stages) have no span
of their own yet, so their time counts as ``sim`` self time.  Spans inside
the program are left for a later change.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Any, Callable, List, Tuple

from spans import SpanRecorder

__all__ = ["SPAN_LAYERS", "MERGE_KERNEL", "COPY_SPANS",
           "MERGE_SPAN", "Instrumentation"]

#: ``src/repro`` modules that carry spans; ``hw`` and ``faults`` only
#: report counts, and ``unattributed`` is op time no layer span covers
SPAN_LAYERS = ("sim", "ocl", "kernels", "core", "obs", "check", "analysis",
               "serve", "apps")

#: kernel name of the runtime's diff+merge kernel (``repro.core.merge``)
MERGE_KERNEL = "fluidicl_merge"

#: Buffer methods that copy array contents, and their span names
_COPY_METHODS = ("write_from", "read_into", "copy_from", "snapshot")
COPY_SPANS = tuple(f"ocl:Buffer.{attr}" for attr in _COPY_METHODS)

#: span name of merge-kernel bodies
MERGE_SPAN = "core:merge-body"

_MISSING = object()


class Instrumentation:
    """Installs the wrappers, counts at the same boundaries, and restores
    every original attribute on :meth:`uninstall`."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        #: counts at the wrapped boundaries, plus the public statistics
        #: ``run.py`` adds after each op
        self.counts: Counter = Counter()
        #: runtimes and servers constructed while installed, in order
        self.runtimes: List[Any] = []
        self.servers: List[Any] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- wrapper factories ---------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def span(self, owner: Any, attr: str, layer: str,
             count: str = "") -> None:
        """Record a ``layer`` span around every call of ``owner.attr``."""
        fn = getattr(owner, attr)
        nid = self.recorder.name(layer, f"{owner.__name__}.{attr}")
        enter, leave = self.recorder.enter, self.recorder.exit
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            index = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index)

        self._patch(owner, attr, wrapper)

    def counter(self, owner: type, attr: str, count: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def capture(self, owner: type, layer: str, into: List[Any]) -> None:
        """Span ``owner.__init__`` and keep every constructed instance."""
        fn = owner.__init__
        nid = self.recorder.name(layer, f"{owner.__name__}.__init__")
        enter, leave = self.recorder.enter, self.recorder.exit

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            index = enter(nid)
            try:
                fn(obj, *args, **kwargs)
            finally:
                leave(index)
            into.append(obj)

        self._patch(owner, "__init__", wrapper)

    def copies(self, owner: type, attr: str) -> None:
        """Span a Buffer copy method and count the bytes it copies."""
        fn = getattr(owner, attr)
        nid = self.recorder.name("ocl", f"{owner.__name__}.{attr}")
        enter, leave = self.recorder.enter, self.recorder.exit
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(buf, *args, **kwargs):
            counts["ocl.copy_bytes"] += buf.nbytes
            index = enter(nid)
            try:
                return fn(buf, *args, **kwargs)
            finally:
                leave(index)

        self._patch(owner, attr, wrapper)

    def bodies(self, owner: type) -> None:
        """Span kernel-body dispatch; merge-kernel bodies belong to ``core``."""
        enter, leave = self.recorder.enter, self.recorder.exit
        counts = self.counts
        body_nid = self.recorder.name("kernels", "Kernel.body")
        merge_nid = self.recorder.name(*MERGE_SPAN.split(":"))
        run_span, run_workgroup = owner.run_span, owner.run_workgroup

        def timed(kernel, groups, call, *args):
            merge = kernel.spec.name == MERGE_KERNEL
            if not merge and groups > 0:
                counts["kernels.body_calls"] += 1
                counts["kernels.groups"] += groups
            index = enter(merge_nid if merge else body_nid)
            try:
                return call(kernel, *args)
            finally:
                leave(index)

        @functools.wraps(run_span)
        def span_wrapper(kernel, ndrange, lo, hi):
            return timed(kernel, hi - lo, run_span, ndrange, lo, hi)

        @functools.wraps(run_workgroup)
        def group_wrapper(kernel, ndrange, fid):
            return timed(kernel, 1, run_workgroup, ndrange, fid)

        self._patch(owner, "run_span", span_wrapper)
        self._patch(owner, "run_workgroup", group_wrapper)

    # -- the table -----------------------------------------------------------
    def install(self) -> "Instrumentation":
        import repro.check.fuzzer as fuzzer
        import repro.core.runtime as core_runtime
        import repro.serve.run as serve_run
        from repro.check.monitor import CoherenceMonitor
        from repro.core.runtime import FluidiCLRuntime
        from repro.obs.recorder import EventRecorder
        from repro.ocl.buffer import Buffer
        from repro.ocl.kernel import Kernel
        from repro.ocl.queue import CommandQueue
        from repro.polybench.common import PolybenchApp
        from repro.serve.server import Server
        from repro.sim.core import Engine

        # sim: the event loop; generator bodies it resumes count here too
        self.span(Engine, "run", "sim")
        self.span(Engine, "run_for", "sim")
        self.counter(Engine, "timeout", "sim.timeouts")
        self.counter(Engine, "timeout_ticks", "sim.timeouts")
        self.counter(Engine, "process", "sim.processes")
        # ocl: allocation, copies, command enqueue
        self.span(Buffer, "__init__", "ocl")
        for attr in _COPY_METHODS:
            self.copies(Buffer, attr)
        self.span(CommandQueue, "enqueue", "ocl", count="ocl.commands")
        # kernels (and the merge kernel, which is core)
        self.bodies(Kernel)
        # core: the FluidiCL runtime's public API
        self.capture(FluidiCLRuntime, "core", self.runtimes)
        for attr in ("create_buffer", "enqueue_write_buffer",
                     "enqueue_read_buffer", "enqueue_nd_range_kernel",
                     "finish", "drain", "release"):
            self.span(FluidiCLRuntime, attr, "core")
        # obs / check
        self.span(EventRecorder, "record", "obs", count="obs.events")
        self.span(CoherenceMonitor, "observe", "check")
        self.span(CoherenceMonitor, "final_check", "check")
        self.span(fuzzer, "run_config", "check")
        # analysis: the fuzzer's preflight and the runtime's launch gate
        self.span(fuzzer, "preflight_lint", "analysis")
        self.span(core_runtime, "analyze_kernel", "analysis")
        # serve
        self.span(serve_run, "run_serve", "serve")
        self.capture(Server, "serve", self.servers)
        self.span(Server, "submit", "serve")
        self.span(Server, "close_intake", "serve")
        # apps: the host programs (and the oracle when execute checks)
        self.span(PolybenchApp, "execute", "apps")
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
