"""SpMV: CSR sparse matrix-vector product with power-law row skew.

The row lengths are drawn from a seeded Pareto distribution, so one
work-group's 8 rows may hold a handful of nonzeros while another's hold
thousands: per-work-group cost varies by orders of magnitude.  The skew
is made visible to the simulator through ``KernelSpec.group_weights``
(per-group nnz, normalized), which is exactly the regime the adaptive
chunker (§5.1) and abort placement (§6.4) were never exercised in by the
dense suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp

__all__ = ["SpmvApp", "spmv_kernel", "ROWS_PER_GROUP"]

#: CSR rows handled by one work-group
ROWS_PER_GROUP = 8
#: Pareto tail index of the row-length distribution (heavier < lighter)
_SKEW_ALPHA = 1.3
#: row-length scale before the Pareto multiplier
_BASE_NNZ = 16


def _spmv_body(ctx) -> None:
    lo, hi = ctx.item_range(0)
    ptr = ctx["indptr"]
    cols = ctx["indices"]
    vals = ctx["data"]
    x = ctx["x"]
    acc = np.empty(hi - lo, dtype=DTYPE)
    for k in range(hi - lo):
        a = ptr[lo + k]
        b = ptr[lo + k + 1]
        acc[k] = vals[a:b] @ x[cols[a:b]]
    ctx["y"][lo:hi] = acc


def spmv_kernel(n: int,
                group_weights: Optional[Tuple[float, ...]] = None,
                ) -> KernelSpec:
    """``y = A x`` over CSR rows; cost weights carry the row skew."""
    itemsize = np.dtype(DTYPE).itemsize
    avg_nnz = 4 * _BASE_NNZ  # the Pareto(1.3) mean lands around here
    return KernelSpec(
        name="spmv_csr",
        args=(
            buffer_arg("indptr"),
            buffer_arg("indices"),
            buffer_arg("data"),
            buffer_arg("x"),
            buffer_arg("y", Intent.OUT),
        ),
        body=_spmv_body,
        cost=WorkGroupCost(
            flops=2.0 * ROWS_PER_GROUP * avg_nnz,
            bytes_read=ROWS_PER_GROUP * avg_nnz * (2 * itemsize)
            + ROWS_PER_GROUP * 2 * itemsize,
            bytes_written=ROWS_PER_GROUP * itemsize,
            loop_iters=ROWS_PER_GROUP,
            compute_efficiency={"cpu": 0.70, "gpu": 0.35},
            # the x[] gather defeats coalescing far harder on the GPU
            memory_efficiency={"cpu": 0.22, "gpu": 0.08},
            no_unroll_penalty=1.25,
        ),
        group_weights=group_weights,
    )


class SpmvApp(PolybenchApp):
    """CSR SpMV over an ``n x n`` sparse matrix with skewed row lengths."""

    name = "spmv"

    def __init__(self, n: int = 4096, seed: int = 7):
        super().__init__(seed)
        if n % ROWS_PER_GROUP != 0:
            raise ValueError(f"n must be a multiple of {ROWS_PER_GROUP}")
        self.n = n

    @property
    def input_size_label(self) -> str:
        return f"({self.n}, {self.n}) csr"

    def build_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        n = self.n
        lengths = np.minimum(
            1 + (rng.pareto(_SKEW_ALPHA, size=n) * _BASE_NNZ).astype(np.int64),
            n,
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        nnz = int(indptr[-1])
        return {
            "indptr": indptr.astype(np.int32),
            "indices": rng.integers(0, n, size=nnz).astype(np.int32),
            "data": rng.standard_normal(nnz).astype(DTYPE),
            "x": rng.standard_normal(n).astype(DTYPE),
        }

    def group_weights(self, inputs: Dict[str, np.ndarray]) -> Tuple[float, ...]:
        """Per-group nnz normalized to mean 1.0 (the simulated skew)."""
        indptr = inputs["indptr"].astype(np.int64)
        per_group = np.diff(indptr[::ROWS_PER_GROUP]).astype(np.float64)
        weights = np.maximum(per_group, 1.0)
        weights /= weights.mean()
        return tuple(np.maximum(weights, 1e-3))

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        indptr = inputs["indptr"]
        indices = inputs["indices"]
        data = inputs["data"].astype(np.float64)
        x = inputs["x"].astype(np.float64)
        y = np.empty(self.n, dtype=np.float64)
        for r in range(self.n):
            a, b = indptr[r], indptr[r + 1]
            y[r] = data[a:b] @ x[indices[a:b]]
        return {"y": y}

    def exact_reference(self,
                        inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Bit-exact float32 mimic of the kernel's per-row dot products."""
        indptr = inputs["indptr"]
        indices = inputs["indices"]
        data = inputs["data"]
        x = inputs["x"]
        y = np.empty(self.n, dtype=DTYPE)
        for r in range(self.n):
            a, b = indptr[r], indptr[r + 1]
            y[r] = data[a:b] @ x[indices[a:b]]
        return {"y": y}

    def _ndrange(self) -> NDRange:
        return NDRange(self.n, ROWS_PER_GROUP)

    def kernel_metas(self) -> List[KernelMeta]:
        return [KernelMeta("spmv_csr", self._ndrange())]

    def kernel_specs(self) -> List[KernelSpec]:
        # weightless: the static analyzer needs signature+body+cost only
        return [spmv_kernel(self.n)]

    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        n = self.n
        nnz = int(inputs["indptr"][-1])
        buf_ptr = runtime.create_buffer("indptr", (n + 1,), np.int32)
        buf_idx = runtime.create_buffer("indices", (nnz,), np.int32)
        buf_val = runtime.create_buffer("data", (nnz,), DTYPE)
        buf_x = runtime.create_buffer("x", (n,), DTYPE)
        buf_y = runtime.create_buffer("y", (n,), DTYPE)
        runtime.enqueue_write_buffer(buf_ptr, inputs["indptr"])
        runtime.enqueue_write_buffer(buf_idx, inputs["indices"])
        runtime.enqueue_write_buffer(buf_val, inputs["data"])
        runtime.enqueue_write_buffer(buf_x, inputs["x"])
        spec = spmv_kernel(n, group_weights=self.group_weights(inputs))
        runtime.enqueue_nd_range_kernel(spec, self._ndrange(), {
            "indptr": buf_ptr, "indices": buf_idx, "data": buf_val,
            "x": buf_x, "y": buf_y,
        })
        y = np.empty(n, dtype=DTYPE)
        runtime.enqueue_read_buffer(buf_y, y)
        return {"y": y}
