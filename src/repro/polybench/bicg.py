"""BICG: the BiCG sub-kernels ``q = A p`` and ``s = A^T r``.

This is the paper's Table 1 motivating case: the two kernels prefer
*different* devices.  ``q = A p`` streams rows of A, which coalesces
reasonably on the GPU (GPU ~2x faster); ``s = A^T r`` walks columns, which
destroys GPU coalescing while the CPU's caches cope far better (CPU ~2x
faster).  A runtime that picks one device for the whole application loses
either way — FluidiCL lets each kernel flow to its preferred device.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp

__all__ = ["BicgApp", "ROWS_PER_GROUP"]

#: matrix rows (or columns) handled by one work-group
ROWS_PER_GROUP = 8


def _row_streaming_cost(n: int, gpu_mem: float, cpu_mem: float) -> WorkGroupCost:
    itemsize = np.dtype(DTYPE).itemsize
    return WorkGroupCost(
        flops=2.0 * ROWS_PER_GROUP * n,
        bytes_read=ROWS_PER_GROUP * n * itemsize,
        bytes_written=ROWS_PER_GROUP * itemsize,
        loop_iters=max(1, n // 8),
        compute_efficiency={"cpu": 0.85, "gpu": 0.60},
        memory_efficiency={"cpu": cpu_mem, "gpu": gpu_mem},
        no_unroll_penalty=1.35,
    )


def _bicg1_body(ctx) -> None:
    rows = ctx.rows()
    ctx["q"][rows] = ctx["A"][rows, :] @ ctx["p"]


def _bicg2_body(ctx) -> None:
    cols = ctx.rows()  # dim 0 indexes output columns for this kernel
    # einsum, not ``A[:, cols].T @ v``: BLAS gemv rounds a column depending
    # on the block width, einsum's ordered loop does not (DESIGN.md,
    # "Span dispatch").
    ctx["s"][cols] = np.einsum("ij,i->j", ctx["A"][:, cols], ctx["r"])


def bicg_kernel1(n: int) -> KernelSpec:
    """``q = A p``: coalesced row access, GPU-leaning."""
    return KernelSpec(
        name="bicg_kernel1",
        args=(buffer_arg("A"), buffer_arg("p"), buffer_arg("q", Intent.OUT)),
        body=_bicg1_body,
        cost=_row_streaming_cost(n, gpu_mem=0.10, cpu_mem=0.28),
    )


def bicg_kernel2(n: int) -> KernelSpec:
    """``s = A^T r``: column-strided access, CPU-leaning."""
    return KernelSpec(
        name="bicg_kernel2",
        args=(buffer_arg("A"), buffer_arg("r"), buffer_arg("s", Intent.OUT)),
        body=_bicg2_body,
        cost=_row_streaming_cost(n, gpu_mem=0.02, cpu_mem=0.25),
    )


class BicgApp(PolybenchApp):
    """Polybench BICG with an ``n x n`` matrix."""

    name = "bicg"

    def __init__(self, n: int = 4096, seed: int = 7):
        super().__init__(seed)
        if n % ROWS_PER_GROUP != 0:
            raise ValueError(f"n must be a multiple of {ROWS_PER_GROUP}")
        self.n = n

    @property
    def input_size_label(self) -> str:
        return f"({self.n}, {self.n})"

    def build_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        n = self.n
        return {
            "A": rng.standard_normal((n, n)).astype(DTYPE),
            "p": rng.standard_normal(n).astype(DTYPE),
            "r": rng.standard_normal(n).astype(DTYPE),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a64 = inputs["A"].astype(np.float64)
        return {
            "q": a64 @ inputs["p"].astype(np.float64),
            "s": a64.T @ inputs["r"].astype(np.float64),
        }

    def _ndrange(self) -> NDRange:
        return NDRange(self.n, ROWS_PER_GROUP)

    def kernel_metas(self) -> List[KernelMeta]:
        nd = self._ndrange()
        return [KernelMeta("bicg_kernel1", nd), KernelMeta("bicg_kernel2", nd)]

    def kernel_specs(self) -> List[KernelSpec]:
        return [bicg_kernel1(self.n), bicg_kernel2(self.n)]

    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        n = self.n
        buf_a = runtime.create_buffer("A", (n, n), DTYPE)
        buf_p = runtime.create_buffer("p", (n,), DTYPE)
        buf_r = runtime.create_buffer("r", (n,), DTYPE)
        buf_q = runtime.create_buffer("q", (n,), DTYPE)
        buf_s = runtime.create_buffer("s", (n,), DTYPE)
        runtime.enqueue_write_buffer(buf_a, inputs["A"])
        runtime.enqueue_write_buffer(buf_p, inputs["p"])
        runtime.enqueue_write_buffer(buf_r, inputs["r"])
        nd = self._ndrange()
        runtime.enqueue_nd_range_kernel(
            bicg_kernel1(n), nd, {"A": buf_a, "p": buf_p, "q": buf_q}
        )
        runtime.enqueue_nd_range_kernel(
            bicg_kernel2(n), nd, {"A": buf_a, "r": buf_r, "s": buf_s}
        )
        q = np.empty(n, dtype=DTYPE)
        s = np.empty(n, dtype=DTYPE)
        runtime.enqueue_read_buffer(buf_q, q)
        runtime.enqueue_read_buffer(buf_s, s)
        return {"q": q, "s": s}
