"""Device-set buffers with version and location tracking (paper §5.3, §6.2).

A :class:`FluidiBuffer` owns one vendor buffer per device of the set.
Versions are FluidiCL kernel IDs: ``latest`` is the ID of the last committed
writer, and ``versions[i]`` records which committed state device copy ``i``
reflects.  A device copy that contains *partial* results (e.g. a worker
array mid-kernel, or the anchor array after an ignored execution) is marked
:data:`DIRTY` so nothing consumes it until refreshed.

Copy 0 always belongs to the *anchor* front (the GPU in the classic pair);
the remaining copies belong to worker fronts.  The legacy two-device API
is preserved over the N-way state, so two-device callers are unchanged:
the properties ``gpu``/``cpu``, ``version_gpu``/``version_cpu``,
``gpu_current``/``cpu_current``, ``cpu_gate``, ``dh_pending`` and
``last_cpu_kernel_write``, and the methods ``commit_gpu``/``commit_cpu``
and ``mark_gpu_refreshed``/``mark_cpu_refreshed``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ocl.buffer import Buffer
from repro.ocl.enums import MemFlag
from repro.sim.core import Engine
from repro.sim.sync import Gate

__all__ = ["DIRTY", "FluidiBuffer"]

#: version marker for a device copy holding partial/ignored results
DIRTY = -1


class FluidiBuffer:
    """One logical application buffer, physically mirrored on every device."""

    def __init__(self, engine: Engine, name: str,
                 gpu_buffer: Optional[Buffer] = None,
                 cpu_buffer: Optional[Buffer] = None,
                 flags: MemFlag = MemFlag.READ_WRITE,
                 copies: Optional[Sequence[Buffer]] = None,
                 cpu_index: Optional[int] = None):
        if copies is None:
            if gpu_buffer is None or cpu_buffer is None:
                raise ValueError(
                    "pass copies= or both gpu_buffer and cpu_buffer"
                )
            copies = [gpu_buffer, cpu_buffer]
        else:
            copies = list(copies)
            if not copies:
                raise ValueError("a FluidiBuffer needs at least one copy")
        first = copies[0]
        for other in copies[1:]:
            if other.shape != first.shape or other.dtype != first.dtype:
                raise ValueError("device copies must agree on shape and dtype")
        self.name = name
        #: device copies in device-set order; copy 0 is the anchor front's
        self.copies: List[Buffer] = copies
        #: index of the copy the host reads through on the CPU path
        self.cpu_index = len(copies) - 1 if cpu_index is None else cpu_index
        self.flags = flags
        #: kernel ID of the last committed writer
        self.latest = 0
        self.versions: List[int] = [0] * len(copies)
        #: fired (with the new version) whenever a worker copy is refreshed;
        #: scheduler threads wait on these before consuming inputs (§5.3).
        #: The anchor gate (index 0) exists for uniformity but never fires.
        self.gates: List[Gate] = [
            Gate(engine, name=(f"cpuver:{name}" if i == self.cpu_index
                               else f"ver{i}:{name}"))
            for i in range(len(copies))
        ]
        #: per-copy flag set while a device-to-host transfer is in flight
        self._dh_pending: List[bool] = [False] * len(copies)
        #: completion event of the last host/DH write targeting each copy;
        #: reads issued on the separate per-front I/O queues synchronize
        self.last_writes: List[object] = [None] * len(copies)
        #: completion event of the last *subkernel* (or merge) that writes
        #: each copy.  Kernels run on in-order compute queues but host reads
        #: travel on I/O queues, so without an explicit dependency a read
        #: could observe a half-written copy while a (possibly stale)
        #: kernel is still executing (§5.3).
        self.last_kernel_writes: List[object] = [None] * len(copies)

    # -- per-copy access ------------------------------------------------------
    def copy(self, index: int) -> Buffer:
        return self.copies[index]

    def version_of(self, index: int) -> int:
        return self.versions[index]

    def current(self, index: int) -> bool:
        return self.versions[index] == self.latest

    def gate(self, index: int) -> Gate:
        return self.gates[index]

    def dh_pending_for(self, index: int) -> bool:
        return self._dh_pending[index]

    def set_dh_pending(self, index: int, value: bool) -> None:
        self._dh_pending[index] = value

    def record_host_write(self, index: int, event) -> None:
        """Track the in-flight host/DH write to copy ``index``."""
        self.last_writes[index] = event

    def record_kernel_write(self, index: int, event) -> None:
        """Track the in-flight kernel (subkernel/merge) write to ``index``."""
        self.last_kernel_writes[index] = event

    def quiesce_events(self, index: Optional[int] = None):
        """Events a copy reader must wait on before touching copy ``index``.

        Defaults to the CPU-path copy.  The common case — both writers
        already complete — allocates nothing; readers hit this per host
        read and per anchor input refresh.
        """
        if index is None:
            index = self.cpu_index
        first = self.last_writes[index]
        if first is not None and not first.is_complete:
            second = self.last_kernel_writes[index]
            if second is not None and not second.is_complete:
                return [first.done, second.done]
            return [first.done]
        second = self.last_kernel_writes[index]
        if second is not None and not second.is_complete:
            return [second.done]
        return ()

    # -- geometry -------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.copies[0].shape

    @property
    def dtype(self) -> np.dtype:
        return self.copies[0].dtype

    @property
    def nbytes(self) -> int:
        return self.copies[0].nbytes

    # -- legacy two-device surface --------------------------------------------
    @property
    def gpu(self) -> Buffer:
        return self.copies[0]

    @gpu.setter
    def gpu(self, buffer: Buffer) -> None:
        self.copies[0] = buffer

    @property
    def cpu(self) -> Buffer:
        return self.copies[self.cpu_index]

    @cpu.setter
    def cpu(self, buffer: Buffer) -> None:
        self.copies[self.cpu_index] = buffer

    @property
    def version_gpu(self) -> int:
        return self.versions[0]

    @version_gpu.setter
    def version_gpu(self, version: int) -> None:
        self.versions[0] = version

    @property
    def version_cpu(self) -> int:
        return self.versions[self.cpu_index]

    @version_cpu.setter
    def version_cpu(self, version: int) -> None:
        self.versions[self.cpu_index] = version

    @property
    def cpu_gate(self) -> Gate:
        return self.gates[self.cpu_index]

    @property
    def dh_pending(self) -> bool:
        return any(self._dh_pending[1:]) or (
            len(self.copies) == 1 and self._dh_pending[0]
        )

    @dh_pending.setter
    def dh_pending(self, value: bool) -> None:
        for i in range(len(self.copies)):
            if i != 0 or len(self.copies) == 1:
                self._dh_pending[i] = value

    @property
    def last_cpu_kernel_write(self):
        return self.last_kernel_writes[self.cpu_index]

    @last_cpu_kernel_write.setter
    def last_cpu_kernel_write(self, event) -> None:
        self.last_kernel_writes[self.cpu_index] = event

    # -- version queries ------------------------------------------------------
    @property
    def gpu_current(self) -> bool:
        return self.versions[0] == self.latest

    @property
    def cpu_current(self) -> bool:
        return self.versions[self.cpu_index] == self.latest

    def expect_write(self, kernel_id: int) -> None:
        """Mark that ``kernel_id`` is about to (partially) write this buffer."""
        if kernel_id <= self.latest:
            raise ValueError(
                f"kernel id {kernel_id} not newer than committed {self.latest}"
            )
        # Every copy becomes unreliable until the kernel commits.
        for i in range(len(self.versions)):
            self.versions[i] = DIRTY

    def commit_host_write(self, version: int, gpu: bool = True,
                          cpu: bool = True,
                          mask: Optional[Sequence[bool]] = None) -> None:
        """Fresh host data was written (``clEnqueueWriteBuffer``).

        Normally every device copy receives it; a copy on a lost device is
        skipped by the runtime (``gpu=False`` / ``cpu=False``, or an
        explicit per-copy ``mask``) and marked DIRTY so nothing serves it.
        """
        if mask is None:
            mask = [gpu if i == 0 else cpu for i in range(len(self.copies))]
            if len(self.copies) == 1:
                mask = [gpu and cpu]
        self.latest = version
        for i, ok in enumerate(mask):
            self.versions[i] = version if ok else DIRTY
            if ok and i != 0:
                self.gates[i].fire(version)

    def commit_front(self, index: int, kernel_id: int) -> None:
        """Copy ``index`` holds the complete committed result of ``kernel_id``.

        Every other copy is marked DIRTY; a worker copy fires its gate so
        scheduler threads waiting on the new version wake up.
        """
        self.latest = kernel_id
        for i in range(len(self.versions)):
            self.versions[i] = kernel_id if i == index else DIRTY
        if index != 0:
            self.gates[index].fire(kernel_id)

    def commit_gpu(self, kernel_id: int) -> None:
        """The merged result on the anchor is the new truth (normal path)."""
        self.commit_front(0, kernel_id)

    def commit_cpu(self, kernel_id: int) -> None:
        """The CPU computed the whole NDRange first; GPU results are ignored."""
        self.commit_front(self.cpu_index, kernel_id)

    def mark_refreshed(self, index: int, version: int) -> None:
        """A device-to-host transfer delivered ``version`` to copy ``index``."""
        self.versions[index] = version
        self._dh_pending[index] = False
        if index != 0:
            self.gates[index].fire(version)

    def mark_cpu_refreshed(self, version: int) -> None:
        self.mark_refreshed(self.cpu_index, version)

    def mark_gpu_refreshed(self, version: int) -> None:
        self.versions[0] = version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FluidiBuffer {self.name} latest={self.latest} "
            f"gpu={self.versions[0]} cpu={self.versions[self.cpu_index]}>"
        )
