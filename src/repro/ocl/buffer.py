"""Device buffers living in discrete per-device address spaces."""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from repro.ocl.enums import MemFlag

__all__ = ["Buffer", "frozen"]

_buffer_ids = itertools.count(1)


def frozen(array) -> np.ndarray:
    """``array`` as a frozen ndarray: the form in which runtimes take host
    data, so device buffers can share it.

    A frozen ndarray (see :func:`_frozen`) is returned unchanged — it can
    never change, so sharing it is safe.  Anything else (a writable array,
    a read-only view of a writable base, a list) gets one read-only copy
    that nothing else references.
    """
    if _frozen(array):
        return array
    out = np.array(array, copy=True)
    out.flags.writeable = False
    return out


def _frozen(array) -> bool:
    """True when ``array`` and every array it views are read-only.

    Such an array is treated as immutable: whoever clears an array's
    ``writeable`` flag promises never to set it again.  A read-only view
    of a writable base is not frozen — the base may still change under it.
    """
    while array is not None:
        if not isinstance(array, np.ndarray) or array.flags.writeable:
            return False
        array = array.base
    return True


class Buffer:
    """A ``cl_mem`` object: bytes resident on exactly one device.

    Content is logically private to the device — other devices (and the
    host) cannot see it without an explicit transfer command, which is what
    makes the coherence work of the runtimes above observable and testable.
    Physically it is one of two things (copy-on-write):

    * a **private** writable NumPy array — a fresh buffer starts on its
      own zeros — or
    * a **shared** frozen array (read-only, like every array it views; see
      :func:`frozen`) that other buffers and the host may hold too: a
      full-buffer :meth:`write_from` or a :meth:`copy_from` of a frozen
      source adopts the source instead of copying it.

    :attr:`array` turns a shared buffer private (one copy) the first time
    device code asks for writable contents; :attr:`view` hands out the
    contents without that copy, for device code proven never to write.
    Simulated transfer costs are byte-based and do not depend on which of
    the two backs a buffer.

    The element dtype/shape is kept as metadata; the paper stores the base
    type of each buffer "as a metadata at the beginning of each buffer" to
    pick the diff/merge granularity (section 4.3).
    """

    __slots__ = ("id", "name", "device", "shape", "dtype", "flags",
                 "_array", "_mem_handle", "released")

    def __init__(self, device, shape: Tuple[int, ...], dtype,
                 flags: MemFlag = MemFlag.READ_WRITE, name: str = ""):
        self.id = next(_buffer_ids)
        self.device = device
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.flags = flags
        self.name = name or f"buf{self.id}"
        self._array = np.zeros(self.shape, dtype=self.dtype)
        self._mem_handle = device.memory.allocate(self.nbytes)
        self.released = False

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    def _live(self) -> np.ndarray:
        if self.released:
            raise RuntimeError(f"use after release of {self.name!r}")
        return self._array

    @property
    def array(self) -> np.ndarray:
        """The device-resident contents, writable.  Only device-side code
        (kernel bodies, transfer commands) should touch this directly; a
        shared buffer is made private first."""
        array = self._live()
        if not array.flags.writeable:
            array = self._array = array.copy()
        return array

    @property
    def view(self) -> np.ndarray:
        """The device-resident contents, read-only and never copied: the
        shared array itself, or a read-only view of the private one.  For
        device code that provably never writes (see
        :func:`repro.analysis.analyzer.read_only_args`)."""
        array = self._live()
        if array.flags.writeable:
            array = array.view()
            array.flags.writeable = False
        return array

    def write_from(self, host_array: np.ndarray,
                   region: Optional[slice] = None) -> None:
        """Device-side effect of a completed host-to-device transfer.

        A full-buffer write of a frozen source shares it; anything else
        copies into private storage.
        """
        current = self._live()
        src = np.asarray(host_array, dtype=self.dtype).reshape(self.shape)
        if region is not None:
            self.array.reshape(-1)[region] = src.reshape(-1)[region]
        elif _frozen(src):
            self._array = src
        elif current.flags.writeable:
            np.copyto(current, src)
        else:
            self._array = src.copy()

    def read_into(self, host_array: np.ndarray) -> None:
        """Device-side effect of a completed device-to-host transfer."""
        np.copyto(host_array.reshape(self.shape), self._live())

    def copy_from(self, other: "Buffer") -> None:
        """Device-local clone of another buffer's contents (same device);
        a shared source is shared, not copied."""
        if other.device is not self.device:
            raise ValueError(
                "copy_from requires same-device buffers; use a transfer command"
            )
        current = self._live()
        src = other._live()
        if src.shape == self.shape and src.dtype == self.dtype \
                and not src.flags.writeable:
            self._array = src
        elif current.flags.writeable:
            np.copyto(current.reshape(-1), src.reshape(-1))
        else:
            self._array = src.astype(self.dtype).reshape(self.shape)

    def snapshot(self) -> np.ndarray:
        """The current contents as a frozen array: the shared array itself,
        or one frozen copy of the private one."""
        return frozen(self._live())

    def release(self) -> None:
        """Free the device allocation (``clReleaseMemObject``).

        The contents are dropped with it, so a released buffer no longer
        pins a shared array; every later access raises ``RuntimeError``.
        """
        if not self.released:
            self.device.memory.release(self._mem_handle)
            self.released = True
            self._array = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Buffer {self.name} {self.shape}:{self.dtype} on "
            f"{self.device.spec.name}>"
        )
