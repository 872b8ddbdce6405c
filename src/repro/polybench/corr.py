"""CORR: Pearson correlation matrix, four kernels (paper Table 2: 4 kernels).

Kernels: column means, column standard deviations, centering/normalization
(an ``inout`` elementwise pass), and the correlation matrix itself (a
symmetric matmul).  The correlation kernel dominates; its baseline
implementation is written GPU-style (memory-coalescing-friendly), which the
paper notes "would result in poor cache locality on the CPU" (§6.6) — so
the CPU crawls at ~4% of its bandwidth on it.

The *alternate* CPU version with interchanged loops (cache-blocked) is the
paper's Table 3 experiment: with it, the CPU lands in the GPU's performance
class and online profiling turns CORR from GPU-bound into a cooperative
win.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp

__all__ = ["CorrApp", "corr_kernel", "corr_kernel_cpu_tuned"]

#: columns per work-group for the reduction kernels
COLS_PER_GROUP = 32
#: rows per work-group for the centering kernel
ROWS_PER_GROUP = 16
#: tile edge for the correlation-matrix kernel
TILE = 32

_EPS = 0.005  # Polybench's epsilon guard for near-constant columns


def _mean_body(ctx) -> None:
    cols = ctx.rows()  # 1-D NDRange over columns
    ctx["mean"][cols] = ctx["data"][:, cols].mean(axis=0, dtype=np.float64)


def _std_body(ctx) -> None:
    cols = ctx.rows()
    data = ctx["data"][:, cols].astype(np.float64)
    centered = data - ctx["mean"][cols]
    std = np.sqrt((centered * centered).mean(axis=0))
    std[std <= _EPS] = 1.0
    ctx["std"][cols] = std


def _center_body(ctx) -> None:
    rows = ctx.rows()
    m = int(ctx["m"])
    denom = np.sqrt(np.float64(m)) * ctx["std"]
    ctx["data"][rows, :] = (ctx["data"][rows, :] - ctx["mean"]) / denom.astype(DTYPE)


def _corr_body(ctx) -> None:
    c0, c1 = ctx.item_range(0)
    r0, r1 = ctx.item_range(1)
    left = ctx["data"][:, r0:r1]
    # Whole output rows, then this box's columns: BLAS rounding depends on
    # the call shape, this form does not (DESIGN.md, "Span dispatch").
    ctx["corr"][r0:r1, c0:c1] = (left.T @ ctx["data"])[:, c0:c1]


def mean_kernel(m: int) -> KernelSpec:
    itemsize = np.dtype(DTYPE).itemsize
    return KernelSpec(
        name="corr_mean",
        args=(buffer_arg("data"), buffer_arg("mean", Intent.OUT)),
        body=_mean_body,
        cost=WorkGroupCost(
            flops=COLS_PER_GROUP * m,
            bytes_read=COLS_PER_GROUP * m * itemsize,
            bytes_written=COLS_PER_GROUP * itemsize,
            loop_iters=max(1, m // 8),
            compute_efficiency={"cpu": 0.80, "gpu": 0.50},
            memory_efficiency={"cpu": 0.25, "gpu": 0.20},
        ),
    )


def std_kernel(m: int) -> KernelSpec:
    itemsize = np.dtype(DTYPE).itemsize
    return KernelSpec(
        name="corr_std",
        args=(buffer_arg("data"), buffer_arg("mean"), buffer_arg("std", Intent.OUT)),
        body=_std_body,
        cost=WorkGroupCost(
            flops=3.0 * COLS_PER_GROUP * m,
            bytes_read=COLS_PER_GROUP * m * itemsize,
            bytes_written=COLS_PER_GROUP * itemsize,
            loop_iters=max(1, m // 8),
            compute_efficiency={"cpu": 0.80, "gpu": 0.50},
            memory_efficiency={"cpu": 0.25, "gpu": 0.20},
        ),
    )


def center_kernel(n: int) -> KernelSpec:
    itemsize = np.dtype(DTYPE).itemsize
    return KernelSpec(
        name="corr_center",
        args=(
            buffer_arg("data", Intent.INOUT),
            buffer_arg("mean"),
            buffer_arg("std"),
            scalar_arg("m"),
        ),
        body=_center_body,
        cost=WorkGroupCost(
            flops=2.0 * ROWS_PER_GROUP * n,
            bytes_read=ROWS_PER_GROUP * n * itemsize,
            bytes_written=ROWS_PER_GROUP * n * itemsize,
            loop_iters=max(1, n // 16),
            compute_efficiency={"cpu": 0.80, "gpu": 0.60},
            memory_efficiency={"cpu": 0.30, "gpu": 0.35},
        ),
    )


def _corr_cost(m: int, cpu_mem: float, cpu_compute: float = 0.80) -> WorkGroupCost:
    itemsize = np.dtype(DTYPE).itemsize
    return WorkGroupCost(
        flops=2.0 * TILE * TILE * m,
        bytes_read=2 * TILE * m * itemsize,
        bytes_written=TILE * TILE * itemsize,
        loop_iters=max(1, m // 8),
        compute_efficiency={"cpu": cpu_compute, "gpu": 0.042},
        memory_efficiency={"cpu": cpu_mem, "gpu": 0.50},
        no_unroll_penalty=1.30,
    )


def corr_kernel(m: int) -> KernelSpec:
    """Baseline correlation kernel: GPU-layout, cache-hostile on the CPU."""
    return KernelSpec(
        name="corr_corr",
        args=(buffer_arg("data"), buffer_arg("corr", Intent.OUT)),
        body=_corr_body,
        cost=_corr_cost(m, cpu_mem=0.051),
    )


def corr_kernel_cpu_tuned(m: int) -> KernelSpec:
    """Loop-interchanged version for the CPU (paper §6.6 / Table 3)."""
    return corr_kernel(m).with_version(
        "loop_interchanged", _corr_body, cost=_corr_cost(m, cpu_mem=0.60, cpu_compute=1.0)
    )


class CorrApp(PolybenchApp):
    """Polybench CORRELATION on an ``n x n`` data matrix.

    ``provide_cpu_tuned_kernel`` supplies the alternate correlation kernel
    alongside the baseline, letting runtimes with online profiling pick it.
    """

    name = "corr"

    def __init__(self, n: int = 1024, seed: int = 7,
                 provide_cpu_tuned_kernel: bool = False):
        super().__init__(seed)
        for multiple in (COLS_PER_GROUP, ROWS_PER_GROUP, TILE):
            if n % multiple != 0:
                raise ValueError(f"n must be a multiple of {multiple}")
        self.n = n
        self.provide_cpu_tuned_kernel = provide_cpu_tuned_kernel

    @property
    def input_size_label(self) -> str:
        return f"({self.n}, {self.n})"

    def build_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {"data": rng.standard_normal((self.n, self.n)).astype(DTYPE)}

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        data = inputs["data"].astype(np.float64)
        m = data.shape[0]
        mean = data.mean(axis=0)
        centered = data - mean
        std = np.sqrt((centered * centered).mean(axis=0))
        std[std <= _EPS] = 1.0
        normalized = centered / (np.sqrt(m) * std)
        return {"corr": normalized.T @ normalized}

    def _ndranges(self) -> Dict[str, NDRange]:
        n = self.n
        return {
            "corr_mean": NDRange(n, COLS_PER_GROUP),
            "corr_std": NDRange(n, COLS_PER_GROUP),
            "corr_center": NDRange(n, ROWS_PER_GROUP),
            "corr_corr": NDRange((n, n), (TILE, TILE)),
        }

    def kernel_metas(self) -> List[KernelMeta]:
        return [KernelMeta(name, nd) for name, nd in self._ndranges().items()]

    def kernel_specs(self) -> List[KernelSpec]:
        n = self.n
        specs = [mean_kernel(n), std_kernel(n), center_kernel(n),
                 corr_kernel(n)]
        if self.provide_cpu_tuned_kernel:
            specs.append(corr_kernel_cpu_tuned(n))
        return specs

    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        n = self.n
        buf_data = runtime.create_buffer("data", (n, n), DTYPE)
        buf_mean = runtime.create_buffer("mean", (n,), DTYPE)
        buf_std = runtime.create_buffer("std", (n,), DTYPE)
        buf_corr = runtime.create_buffer("corr", (n, n), DTYPE)
        runtime.enqueue_write_buffer(buf_data, inputs["data"])
        ranges = self._ndranges()
        runtime.enqueue_nd_range_kernel(
            mean_kernel(n), ranges["corr_mean"],
            {"data": buf_data, "mean": buf_mean},
        )
        runtime.enqueue_nd_range_kernel(
            std_kernel(n), ranges["corr_std"],
            {"data": buf_data, "mean": buf_mean, "std": buf_std},
        )
        runtime.enqueue_nd_range_kernel(
            center_kernel(n), ranges["corr_center"],
            {"data": buf_data, "mean": buf_mean, "std": buf_std, "m": n},
        )
        corr_versions = [corr_kernel(n)]
        if self.provide_cpu_tuned_kernel:
            corr_versions.append(corr_kernel_cpu_tuned(n))
        runtime.enqueue_nd_range_kernel(
            corr_versions, ranges["corr_corr"],
            {"data": buf_data, "corr": buf_corr},
        )
        out = np.empty((n, n), dtype=DTYPE)
        runtime.enqueue_read_buffer(buf_corr, out)
        return {"corr": out}
