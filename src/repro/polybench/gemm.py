"""GEMM: ``C = alpha*A*B + beta*C`` (extension benchmark).

A single GPU-leaning compute kernel over an ``inout`` C: the simplest
possible FluidiCL workload, used heavily by the unit/integration tests and
the quickstart example.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp
from repro.polybench.twomm import TILE, matmul_cost

__all__ = ["GemmApp", "gemm_kernel"]


def _gemm_body(ctx) -> None:
    c0, c1 = ctx.item_range(0)
    r0, r1 = ctx.item_range(1)
    # Whole output rows, then this box's columns: BLAS rounding depends on
    # the call shape, this form does not (DESIGN.md, "Span dispatch").
    ctx["C"][r0:r1, c0:c1] = (
        ctx["beta"] * ctx["C"][r0:r1, c0:c1]
        + ctx["alpha"] * (ctx["A"][r0:r1, :] @ ctx["B"])[:, c0:c1]
    )


def gemm_kernel(nk: int, gpu_compute: float = 0.30,
                cpu_compute: float = 0.80) -> KernelSpec:
    return KernelSpec(
        name="gemm_kernel",
        args=(
            buffer_arg("A"),
            buffer_arg("B"),
            buffer_arg("C", Intent.INOUT),
            scalar_arg("alpha"),
            scalar_arg("beta"),
        ),
        body=_gemm_body,
        cost=matmul_cost(nk, gpu_compute=gpu_compute, cpu_compute=cpu_compute),
    )


class GemmApp(PolybenchApp):
    """Polybench GEMM at size ``n``."""

    name = "gemm"

    def __init__(self, n: int = 1024, alpha: float = 1.1, beta: float = 1.3,
                 seed: int = 7, gpu_compute: float = 0.30,
                 cpu_compute: float = 0.80):
        super().__init__(seed)
        if n % TILE != 0:
            raise ValueError(f"n must be a multiple of {TILE}")
        self.n = n
        self.alpha = alpha
        self.beta = beta
        self.gpu_compute = gpu_compute
        self.cpu_compute = cpu_compute

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
        return {"C": self.beta * c64 + self.alpha * (a64 @ b64)}

    def _ndrange(self) -> NDRange:
        return NDRange((self.n, self.n), (TILE, TILE))

    def kernel_metas(self) -> List[KernelMeta]:
        return [KernelMeta("gemm_kernel", self._ndrange())]

    def kernel_specs(self) -> List[KernelSpec]:
        return [gemm_kernel(self.n, self.gpu_compute, self.cpu_compute)]

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
            gemm_kernel(n, self.gpu_compute, self.cpu_compute), self._ndrange(),
            {"A": buf_a, "B": buf_b, "C": buf_c,
             "alpha": self.alpha, "beta": self.beta},
        )
        out = np.empty((n, n), dtype=DTYPE)
        runtime.enqueue_read_buffer(buf_c, out)
        return {"C": out}
