"""GESUMMV: scalar-vector-matrix sum, ``y = alpha*A*x + beta*B*x``.

The CPU-best benchmark of the suite ("the benchmark runs best on CPU
alone", §9.5).  The Polybench OpenCL kernel's access pattern leaves GPU
loads almost entirely uncoalesced (~1.5% of bandwidth) while the CPU
streams both matrices at a healthy fraction of memory bandwidth, and the
GPU additionally pays PCIe for two full matrices.  FluidiCL must discover
this at runtime and let the work flow entirely to the CPU.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp

__all__ = ["GesummvApp", "ROWS_PER_GROUP"]

#: matrix rows handled by one work-group (few, large work-groups: this is
#: the benchmark that exercises CPU work-group splitting, §6.3)
ROWS_PER_GROUP = 32


def _gesummv_body(ctx) -> None:
    rows = ctx.rows()
    ctx["y"][rows] = (
        ctx["alpha"] * (ctx["A"][rows, :] @ ctx["x"])
        + ctx["beta"] * (ctx["B"][rows, :] @ ctx["x"])
    )


def gesummv_kernel(n: int, rows_per_group: int = ROWS_PER_GROUP) -> KernelSpec:
    itemsize = np.dtype(DTYPE).itemsize
    return KernelSpec(
        name="gesummv_kernel",
        args=(
            buffer_arg("A"),
            buffer_arg("B"),
            buffer_arg("x"),
            buffer_arg("y", Intent.OUT),
            scalar_arg("alpha"),
            scalar_arg("beta"),
        ),
        body=_gesummv_body,
        cost=WorkGroupCost(
            flops=4.0 * rows_per_group * n,
            bytes_read=2 * rows_per_group * n * itemsize,
            bytes_written=rows_per_group * itemsize,
            loop_iters=max(1, n // 8),
            compute_efficiency={"cpu": 0.85, "gpu": 0.50},
            memory_efficiency={"cpu": 0.30, "gpu": 0.012},
            no_unroll_penalty=1.30,
        ),
    )


class GesummvApp(PolybenchApp):
    """Polybench GESUMMV with ``n x n`` matrices."""

    name = "gesummv"

    def __init__(self, n: int = 4096, alpha: float = 1.3, beta: float = 0.7,
                 seed: int = 7, rows_per_group: int = ROWS_PER_GROUP):
        super().__init__(seed)
        if n % rows_per_group != 0:
            raise ValueError(f"n must be a multiple of {rows_per_group}")
        self.n = n
        self.alpha = alpha
        self.beta = beta
        #: few, huge work-groups exercise CPU work-group splitting (section 6.3)
        self.rows_per_group = rows_per_group

    @property
    def input_size_label(self) -> str:
        return f"({self.n})"

    def build_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        n = self.n
        return {
            "A": rng.standard_normal((n, n)).astype(DTYPE),
            "B": rng.standard_normal((n, n)).astype(DTYPE),
            "x": rng.standard_normal(n).astype(DTYPE),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a64 = inputs["A"].astype(np.float64)
        b64 = inputs["B"].astype(np.float64)
        x64 = inputs["x"].astype(np.float64)
        return {"y": self.alpha * (a64 @ x64) + self.beta * (b64 @ x64)}

    def _ndrange(self) -> NDRange:
        return NDRange(self.n, self.rows_per_group)

    def kernel_metas(self) -> List[KernelMeta]:
        return [KernelMeta("gesummv_kernel", self._ndrange())]

    def kernel_specs(self) -> List[KernelSpec]:
        return [gesummv_kernel(self.n, self.rows_per_group)]

    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        n = self.n
        buf_a = runtime.create_buffer("A", (n, n), DTYPE)
        buf_b = runtime.create_buffer("B", (n, n), DTYPE)
        buf_x = runtime.create_buffer("x", (n,), DTYPE)
        buf_y = runtime.create_buffer("y", (n,), DTYPE)
        runtime.enqueue_write_buffer(buf_a, inputs["A"])
        runtime.enqueue_write_buffer(buf_b, inputs["B"])
        runtime.enqueue_write_buffer(buf_x, inputs["x"])
        runtime.enqueue_nd_range_kernel(
            gesummv_kernel(n, self.rows_per_group), self._ndrange(),
            {"A": buf_a, "B": buf_b, "x": buf_x, "y": buf_y,
             "alpha": self.alpha, "beta": self.beta},
        )
        y = np.empty(n, dtype=DTYPE)
        runtime.enqueue_read_buffer(buf_y, y)
        return {"y": y}
