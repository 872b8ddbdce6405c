"""A compiled kernel bound to its arguments (cf. ``cl_kernel``)."""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.analysis.analyzer import read_only_args, span_dims
from repro.hw.cost import wg_time
from repro.hw.specs import DeviceSpec
from repro.kernels.dsl import (
    KernelSpec,
    KernelVariant,
    WorkGroupContext,
    WorkGroupSpan,
)
from repro.ocl.buffer import Buffer
from repro.ocl.ndrange import NDRange

__all__ = ["Kernel"]


class Kernel:
    """A :class:`KernelVariant` plus bound arguments, ready to enqueue.

    Buffer arguments must live on the device the kernel is enqueued to;
    this is checked at enqueue time (discrete address spaces are the whole
    point of the exercise).
    """

    def __init__(self, variant: KernelVariant, args: Mapping[str, Any]):
        variant.spec.bind_check(args)
        for spec in variant.spec.args:
            value = args[spec.name]
            if spec.is_buffer and not isinstance(value, Buffer):
                raise TypeError(
                    f"argument {spec.name!r} of kernel {variant.name!r} "
                    f"must be a Buffer, got {type(value).__name__}"
                )
            if not spec.is_buffer and isinstance(value, Buffer):
                raise TypeError(
                    f"argument {spec.name!r} of kernel {variant.name!r} "
                    f"is scalar but got a Buffer"
                )
        self.variant = variant
        self.args: Dict[str, Any] = dict(args)

    @property
    def spec(self) -> KernelSpec:
        return self.variant.spec

    @property
    def name(self) -> str:
        return self.variant.name

    @property
    def cost(self):
        return self.variant.cost

    def buffers(self) -> Dict[str, Buffer]:
        return {
            a.name: self.args[a.name]
            for a in self.spec.args
            if a.is_buffer
        }

    def check_device(self, device) -> None:
        for name, buf in self.buffers().items():
            if buf.device is not device:
                raise ValueError(
                    f"kernel {self.name!r} argument {name!r} lives on "
                    f"{buf.device.name}, not on {device.name}"
                )

    def wg_seconds(self, spec: DeviceSpec) -> float:
        """Per-work-group time of this variant on a device."""
        return wg_time(self.cost, spec, self.variant.time_multiplier)

    def _resolved_args(self) -> Dict[str, Any]:
        """Arguments as the body sees them.

        A buffer the analyzer proves read-only
        (:func:`repro.analysis.analyzer.read_only_args`) is passed as its
        read-only :attr:`Buffer.view`; every other buffer as its writable
        :attr:`Buffer.array`, made private first if it was shared.  The
        writable ones resolve first, so a buffer bound to both kinds of
        argument is seen through the same (private) storage.
        """
        views = read_only_args(self.spec)
        resolved = {
            name: value.array
            for name, value in self.args.items()
            if isinstance(value, Buffer) and name not in views
        }
        for name, value in self.args.items():
            if name not in resolved:
                resolved[name] = (value.view if isinstance(value, Buffer)
                                  else value)
        return resolved

    def run_workgroup(self, ndrange: NDRange, fid: int) -> None:
        """Execute the body for one flattened work-group ID (device side)."""
        ctx = WorkGroupContext(
            group_id=ndrange.unflatten_group(fid),
            num_groups=ndrange.num_groups,
            local_size=ndrange.local_size,
            args=self._resolved_args(),
        )
        self.spec.body(ctx)

    def run_span(self, ndrange: NDRange, lo: int, hi: int) -> None:
        """Execute the bodies for flattened work-group IDs ``[lo, hi)``.

        A *span-safe* body (derived from the analyzer's facts, see
        :func:`repro.analysis.analyzer.span_dims`) runs once per
        axis-aligned box of the window (:meth:`NDRange.boxes`: one box in
        1-D, at most ``2 * rank - 1`` in general) through a
        :class:`WorkGroupSpan`.  Any other body runs once per work-group,
        in flattened order, with argument resolution hoisted out of the
        loop and the context object reused across groups.
        """
        if hi <= lo:
            return
        spec = self.spec
        body = spec.body
        resolved = self._resolved_args()
        num_groups = ndrange.num_groups
        dims = span_dims(spec)
        if dims is not None and all(
                n == 1 or d in dims for d, n in enumerate(num_groups)):
            for origin, counts in ndrange.boxes(lo, hi):
                body(WorkGroupSpan(origin, num_groups, ndrange.local_size,
                                   resolved, counts))
            return
        ctx = WorkGroupContext(
            group_id=ndrange.unflatten_group(lo),
            num_groups=num_groups,
            local_size=ndrange.local_size,
            args=resolved,
        )
        unflatten = ndrange.unflatten_group
        body(ctx)
        for fid in range(lo + 1, hi):
            ctx.group_id = unflatten(fid)
            body(ctx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name} v={self.spec.version}>"
