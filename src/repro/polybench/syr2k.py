"""SYR2K: symmetric rank-2k update, ``C = alpha*(A*B^T + B*A^T) + beta*C``.

Like SYRK, a cooperative benchmark: naive GPU kernel in the same
performance class as the CPU, large single-kernel NDRange, ``inout`` C.
This is the benchmark where the paper reports FluidiCL's largest win
(> 4x over SOCL's eager scheduler, ~1.4x over the best single device).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp

__all__ = ["Syr2kApp", "TILE", "syr2k_kernel"]

TILE = 32


def _syr2k_body(ctx) -> None:
    c0, c1 = ctx.item_range(0)
    r0, r1 = ctx.item_range(1)
    a_rows = ctx["A"][r0:r1, :]
    b_rows = ctx["B"][r0:r1, :]
    # Whole output rows, then this box's columns: BLAS rounding depends on
    # the call shape, this form does not (DESIGN.md, "Span dispatch").
    ctx["C"][r0:r1, c0:c1] = (
        ctx["beta"] * ctx["C"][r0:r1, c0:c1]
        + ctx["alpha"] * (a_rows @ ctx["B"].T + b_rows @ ctx["A"].T)[:, c0:c1]
    )


def syr2k_kernel(n: int) -> KernelSpec:
    itemsize = np.dtype(DTYPE).itemsize
    return KernelSpec(
        name="syr2k_kernel",
        args=(
            buffer_arg("A"),
            buffer_arg("B"),
            buffer_arg("C", Intent.INOUT),
            scalar_arg("alpha"),
            scalar_arg("beta"),
        ),
        body=_syr2k_body,
        cost=WorkGroupCost(
            flops=4.0 * TILE * TILE * n,
            bytes_read=4 * TILE * n * itemsize,
            bytes_written=TILE * TILE * itemsize,
            loop_iters=max(1, n // 8),
            compute_efficiency={"cpu": 0.75, "gpu": 0.050},
            memory_efficiency={"cpu": 0.40, "gpu": 0.70},
            no_unroll_penalty=1.30,
        ),
    )


class Syr2kApp(PolybenchApp):
    """Polybench SYR2K at size ``n``."""

    name = "syr2k"

    def __init__(self, n: int = 1024, alpha: float = 1.4, beta: float = 0.9,
                 seed: int = 7):
        super().__init__(seed)
        if n % TILE != 0:
            raise ValueError(f"n must be a multiple of {TILE}")
        self.n = n
        self.alpha = alpha
        self.beta = beta

    @property
    def input_size_label(self) -> str:
        return f"({self.n}, {self.n})"

    def build_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        n = self.n
        return {
            "A": rng.standard_normal((n, n)).astype(DTYPE),
            "B": rng.standard_normal((n, n)).astype(DTYPE),
            "C": rng.standard_normal((n, n)).astype(DTYPE),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a64 = inputs["A"].astype(np.float64)
        b64 = inputs["B"].astype(np.float64)
        c64 = inputs["C"].astype(np.float64)
        return {
            "C": self.beta * c64 + self.alpha * (a64 @ b64.T + b64 @ a64.T)
        }

    def _ndrange(self) -> NDRange:
        return NDRange((self.n, self.n), (TILE, TILE))

    def kernel_metas(self) -> List[KernelMeta]:
        return [KernelMeta("syr2k_kernel", self._ndrange())]

    def kernel_specs(self) -> List[KernelSpec]:
        return [syr2k_kernel(self.n)]

    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        n = self.n
        buf_a = runtime.create_buffer("A", (n, n), DTYPE)
        buf_b = runtime.create_buffer("B", (n, n), DTYPE)
        buf_c = runtime.create_buffer("C", (n, n), DTYPE)
        runtime.enqueue_write_buffer(buf_a, inputs["A"])
        runtime.enqueue_write_buffer(buf_b, inputs["B"])
        runtime.enqueue_write_buffer(buf_c, inputs["C"])
        runtime.enqueue_nd_range_kernel(
            syr2k_kernel(n), self._ndrange(),
            {"A": buf_a, "B": buf_b, "C": buf_c,
             "alpha": self.alpha, "beta": self.beta},
        )
        out = np.empty((n, n), dtype=DTYPE)
        runtime.enqueue_read_buffer(buf_c, out)
        return {"C": out}
