"""BFS-style frontier expansion: a data-dependent NDRange per level.

A fixed-degree random graph is walked level by level from a source node.
Each level launches two kernels — *expand* gathers the neighbor lists of
the current frontier (its NDRange is sized by the frontier, so the launch
geometry is data-dependent), *update* marks newly discovered nodes — and
a host stage compacts the next frontier and decides whether another level
runs at all (:class:`~repro.workloads.pipeline.WhileStage`).

Everything is integer arithmetic, so cooperative, single-device and
NumPy-reference runs must agree bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.ocl.ndrange import NDRange
from repro.polybench.common import KernelMeta, round_up
from repro.workloads.pipeline import (
    BufferDecl,
    HostStage,
    KernelStage,
    PipelineApp,
    WhileStage,
)

__all__ = ["BfsApp", "bfs_expand_kernel", "bfs_update_kernel",
           "DEGREE", "FRONT_PER_GROUP", "NODES_PER_GROUP"]

#: out-degree of every node in the random graph
DEGREE = 8
#: frontier entries expanded by one work-group
FRONT_PER_GROUP = 32
#: nodes examined by one work-group of the update kernel
NODES_PER_GROUP = 32
#: minimum padded frontier length: keeps every expand launch at >= 2
#: work-groups so the cooperative front protocol always has a window
_MIN_FRONT = 2 * FRONT_PER_GROUP


def _bfs_expand_body(ctx) -> None:
    rows = ctx.rows()
    f = ctx["front"][rows]
    safe = np.clip(f, 0, None)
    nbrs = ctx["adj"][safe, :]
    ctx["cand"][rows, :] = np.where(f[:, None] >= 0, nbrs, -1)


def _bfs_update_body(ctx) -> None:
    lo, hi = ctx.item_range(0)
    nfront = ctx["nfront"]
    live = ctx["cand"][:nfront, :]
    ids = np.arange(lo, hi)
    hit = np.isin(ids, live) & (ctx["dist"][lo:hi] < 0)
    ctx["dist"][lo:hi] = np.where(hit, ctx["level"], ctx["dist"][lo:hi])
    ctx["nextf"][lo:hi] = hit.astype(np.int32)


def bfs_expand_kernel() -> KernelSpec:
    itemsize = np.dtype(np.int32).itemsize
    return KernelSpec(
        name="bfs_expand",
        args=(
            buffer_arg("front"),
            buffer_arg("adj"),
            buffer_arg("cand", Intent.OUT),
        ),
        body=_bfs_expand_body,
        cost=WorkGroupCost(
            flops=2.0 * FRONT_PER_GROUP * DEGREE,
            bytes_read=FRONT_PER_GROUP * (1 + DEGREE) * itemsize,
            bytes_written=FRONT_PER_GROUP * DEGREE * itemsize,
            loop_iters=4,
            compute_efficiency={"cpu": 0.75, "gpu": 0.40},
            # the adj[] gather is data-dependent: poor GPU coalescing
            memory_efficiency={"cpu": 0.25, "gpu": 0.10},
        ),
    )


def bfs_update_kernel(n: int) -> KernelSpec:
    itemsize = np.dtype(np.int32).itemsize
    return KernelSpec(
        name="bfs_update",
        args=(
            buffer_arg("cand"),
            buffer_arg("dist", Intent.INOUT),
            buffer_arg("nextf", Intent.OUT),
            scalar_arg("level"),
            scalar_arg("nfront"),
        ),
        body=_bfs_update_body,
        cost=WorkGroupCost(
            flops=4.0 * NODES_PER_GROUP,
            bytes_read=NODES_PER_GROUP * 2 * itemsize
            + FRONT_PER_GROUP * DEGREE * itemsize,
            bytes_written=NODES_PER_GROUP * 2 * itemsize,
            loop_iters=8,
            compute_efficiency={"cpu": 0.80, "gpu": 0.45},
            memory_efficiency={"cpu": 0.30, "gpu": 0.25},
        ),
    )


class BfsApp(PipelineApp):
    """BFS from node 0 over a fixed-degree random graph of ``n`` nodes."""

    name = "bfs"
    source = 0

    def __init__(self, n: int = 4096, seed: int = 7):
        super().__init__(seed)
        if n % NODES_PER_GROUP != 0 or n < _MIN_FRONT:
            raise ValueError(
                f"n must be a multiple of {NODES_PER_GROUP} and >= "
                f"{_MIN_FRONT}"
            )
        self.n = n

    @property
    def input_size_label(self) -> str:
        return f"({self.n}, {DEGREE}) graph"

    def build_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        n = self.n
        dist0 = np.full(n, -1, dtype=np.int32)
        dist0[self.source] = 0
        front0 = np.full(n, -1, dtype=np.int32)
        front0[0] = self.source
        return {
            "adj": rng.integers(0, n, size=(n, DEGREE)).astype(np.int32),
            "dist0": dist0,
            "front0": front0,
        }

    def _level_schedule(self, inputs: Dict[str, np.ndarray],
                        ) -> Tuple[List[int], np.ndarray]:
        """Replicate the level loop in NumPy: (padded sizes, final dist)."""
        adj = inputs["adj"]
        dist = inputs["dist0"].copy()
        frontier = np.array([self.source], dtype=np.int32)
        padded_sizes: List[int] = []
        level = 1
        while frontier.size:
            padded_sizes.append(
                max(round_up(int(frontier.size), FRONT_PER_GROUP), _MIN_FRONT)
            )
            hit = np.zeros(self.n, dtype=bool)
            hit[adj[frontier, :].ravel()] = True
            new = np.nonzero(hit & (dist < 0))[0].astype(np.int32)
            dist[new] = level
            frontier = new
            level += 1
        return padded_sizes, dist

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        _, dist = self._level_schedule(inputs)
        return {"dist": dist.astype(np.int64)}

    def exact_reference(self,
                        inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """BFS is all-integer: the reference *is* bit-exact (as int32)."""
        _, dist = self._level_schedule(inputs)
        return {"dist": dist}

    def kernel_metas(self) -> List[KernelMeta]:
        padded_sizes, _ = self._level_schedule(self.fresh_inputs())
        metas: List[KernelMeta] = []
        update_nd = NDRange(self.n, NODES_PER_GROUP)
        for padded in padded_sizes:
            metas.append(KernelMeta("bfs_expand",
                                    NDRange(padded, FRONT_PER_GROUP)))
            metas.append(KernelMeta("bfs_update", update_nd))
        return metas

    # -- pipeline ----------------------------------------------------------------
    def buffer_decls(self) -> List[BufferDecl]:
        n = self.n
        return [
            BufferDecl("adj", (n, DEGREE), np.int32, init="adj"),
            BufferDecl("dist", (n,), np.int32, init="dist0", read="dist"),
            BufferDecl("front", (n,), np.int32, init="front0"),
            BufferDecl("cand", (n, DEGREE), np.int32),
            BufferDecl("nextf", (n,), np.int32),
        ]

    def initial_state(self, inputs: Dict[str, np.ndarray]) -> Dict[str, Any]:
        return {"level": 1, "nfront": 1, "padded": _MIN_FRONT}

    def _advance(self, host, state: Dict[str, Any]) -> None:
        nextf = host.read("nextf")
        frontier = np.nonzero(nextf)[0].astype(np.int32)
        state["nfront"] = int(frontier.size)
        if frontier.size:
            front = np.full(self.n, -1, dtype=np.int32)
            front[:frontier.size] = frontier
            host.write("front", front)
            state["padded"] = max(
                round_up(int(frontier.size), FRONT_PER_GROUP), _MIN_FRONT
            )
            state["level"] += 1

    def stages(self):
        return [
            WhileStage(
                name="levels",
                cond=lambda state: state["nfront"] > 0,
                body=(
                    KernelStage(
                        spec=bfs_expand_kernel(),
                        ndrange=lambda state: NDRange(state["padded"],
                                                      FRONT_PER_GROUP),
                        binds={"front": "front", "adj": "adj",
                               "cand": "cand"},
                    ),
                    KernelStage(
                        spec=bfs_update_kernel(self.n),
                        ndrange=NDRange(self.n, NODES_PER_GROUP),
                        binds={
                            "cand": "cand", "dist": "dist", "nextf": "nextf",
                            "level": lambda state: state["level"],
                            "nfront": lambda state: state["nfront"],
                        },
                    ),
                    HostStage(
                        name="bfs_advance",
                        fn=self._advance,
                        reads=("nextf",),
                        writes=("front",),
                    ),
                ),
                max_iterations=self.n,
            ),
        ]
