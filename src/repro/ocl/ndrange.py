"""NDRange geometry and flattened work-group IDs (paper Figs. 5 and 10)."""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

__all__ = ["NDRange"]


def _as_tuple(value) -> Tuple[int, ...]:
    if isinstance(value, int):
        return (value,)
    return tuple(int(v) for v in value)


class NDRange:
    """An OpenCL index space: global size, local (work-group) size, offset.

    Dimension 0 is the fastest-varying (OpenCL ``get_group_id(0)``); the
    flattened work-group ID (paper Fig. 5) is the mixed-radix number

        ``fid = gid[0] + gid[1] * n0 + gid[2] * n0 * n1``

    so a contiguous flattened range corresponds to a run of work-groups in
    launch order.
    """

    __slots__ = ("global_size", "local_size", "group_offset", "num_groups",
                 "total_groups", "_strides")

    def __init__(self, global_size, local_size,
                 group_offset: Optional[Tuple[int, ...]] = None):
        self.global_size = _as_tuple(global_size)
        self.local_size = _as_tuple(local_size)
        if len(self.global_size) != len(self.local_size):
            raise ValueError("global and local sizes must have equal rank")
        if not 1 <= len(self.global_size) <= 3:
            raise ValueError("NDRange rank must be 1, 2 or 3")
        for g, l in zip(self.global_size, self.local_size):
            if l < 1 or g < 1:
                raise ValueError("sizes must be positive")
            if g % l != 0:
                raise ValueError(
                    f"global size {g} not divisible by local size {l}"
                )
        self.num_groups = tuple(
            g // l for g, l in zip(self.global_size, self.local_size)
        )
        self.group_offset = (
            _as_tuple(group_offset) if group_offset is not None
            else (0,) * len(self.global_size)
        )
        if len(self.group_offset) != len(self.global_size):
            raise ValueError("offset rank mismatch")
        self.total_groups = 1
        for n in self.num_groups:
            self.total_groups *= n
        strides = []
        acc = 1
        for n in self.num_groups:
            strides.append(acc)
            acc *= n
        self._strides = tuple(strides)

    @property
    def rank(self) -> int:
        return len(self.global_size)

    @property
    def total_items(self) -> int:
        total = 1
        for g in self.global_size:
            total *= g
        return total

    @property
    def items_per_group(self) -> int:
        total = 1
        for l in self.local_size:
            total *= l
        return total

    # -- flattening (paper Fig. 5) -----------------------------------------
    def flatten_group(self, gid: Tuple[int, ...]) -> int:
        if len(gid) != self.rank:
            raise ValueError("group id rank mismatch")
        fid = 0
        for g, n, s in zip(gid, self.num_groups, self._strides):
            if not 0 <= g < n:
                raise ValueError(f"group id {gid} outside {self.num_groups}")
            fid += g * s
        return fid

    def unflatten_group(self, fid: int) -> Tuple[int, ...]:
        if not 0 <= fid < self.total_groups:
            raise ValueError(f"flattened id {fid} outside [0, {self.total_groups})")
        gid = []
        for n in self.num_groups:
            gid.append(fid % n)
            fid //= n
        return tuple(gid)

    def groups_in_range(self, fid_start: int, fid_end: int) -> Iterator[Tuple[int, ...]]:
        """Group IDs for flattened IDs in ``[fid_start, fid_end)``."""
        for fid in range(fid_start, fid_end):
            yield self.unflatten_group(fid)

    def boxes(self, fid_start: int, fid_end: int
              ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Split a flattened window into axis-aligned boxes of groups.

        Returns ``(origin, counts)`` pairs in flattened order: the box's
        lowest group ID and its extent in groups per dimension.  Because
        dimension 0 varies fastest, a window is a partial hyper-row, a
        block of whole hyper-rows and a partial hyper-row, each split the
        same way one dimension down: at most ``2 * rank - 1`` boxes (a
        1-D window is one box; 2-D: partial row, full rows, partial row).
        """
        if not 0 <= fid_start < fid_end <= self.total_groups:
            raise ValueError(
                f"bad window [{fid_start}, {fid_end}) for {self.total_groups} groups"
            )
        out: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        self._boxes(fid_start, fid_end, self.rank - 1, (), out)
        return out

    def _boxes(self, lo: int, hi: int, dim: int, origin: Tuple[int, ...],
               out: list) -> None:
        """Boxes of ``[lo, hi)``, flattened over dims ``0..dim`` inside the
        hyper-row whose slower-dim group IDs are ``origin``."""
        ones = (1,) * len(origin)
        if dim == 0:
            out.append(((lo,) + origin, (hi - lo,) + ones))
            return
        stride = self._strides[dim]
        first, head = divmod(lo, stride)
        last, tail = divmod(hi, stride)
        if first == last:
            self._boxes(head, tail, dim - 1, (first,) + origin, out)
            return
        if head:
            self._boxes(head, stride, dim - 1, (first,) + origin, out)
            first += 1
        if last > first:
            out.append(((0,) * dim + (first,) + origin,
                        self.num_groups[:dim] + (last - first,) + ones))
        if tail:
            self._boxes(0, tail, dim - 1, (last,) + origin, out)

    # -- subkernel slices (paper Fig. 10) -----------------------------------
    def covering_slice(self, fid_start: int, fid_end: int) -> "NDRange":
        """Smallest offset NDRange slice covering a flattened-ID window.

        The CPU subkernel "launches an NDRange slice with more work-groups
        than needed, and passes the flattened work-group IDs of the start
        and end work-groups as parameters" (section 5.2): the slice spans
        whole hyper-rows of the slowest dimension; the range check inside
        the kernel skips the extra groups.
        """
        if not 0 <= fid_start < fid_end <= self.total_groups:
            raise ValueError(
                f"bad window [{fid_start}, {fid_end}) for {self.total_groups} groups"
            )
        inner = self._strides[-1]  # groups per slowest-dim hyper-row
        slow_lo = fid_start // inner
        slow_hi = -(-fid_end // inner)  # ceil division
        slice_groups = list(self.num_groups)
        slice_groups[-1] = slow_hi - slow_lo
        offset = [0] * self.rank
        offset[-1] = slow_lo
        return NDRange(
            tuple(n * l for n, l in zip(slice_groups, self.local_size)),
            self.local_size,
            group_offset=tuple(offset),
        )

    def absolute_group(self, local_gid: Tuple[int, ...]) -> Tuple[int, ...]:
        """Translate a slice-local group ID by this range's group offset."""
        return tuple(g + o for g, o in zip(local_gid, self.group_offset))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NDRange(global={self.global_size}, local={self.local_size}, "
            f"groups={self.num_groups}, offset={self.group_offset})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NDRange)
            and self.global_size == other.global_size
            and self.local_size == other.local_size
            and self.group_offset == other.group_offset
        )

    def __hash__(self) -> int:
        return hash((self.global_size, self.local_size, self.group_offset))
