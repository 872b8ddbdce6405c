"""SYRK: symmetric rank-k update, ``C = alpha*A*A^T + beta*C``.

The *cooperative* benchmark: the naive Polybench GPU kernel achieves only a
few percent of Fermi's peak (no shared-memory tiling, divergent bounds), so
the GPU and the 8-thread CPU end up in the same performance class and the
best static split sits in the middle (Fig. 2).  The GPU's efficiency also
degrades as the matrix grows (working sets fall out of cache / TLB reach),
which moves the best split toward the CPU for larger inputs — the paper's
Fig. 3 observation that the right partitioning is input-dependent.

``C`` is an ``inout`` buffer, so SYRK also exercises the merge path on
read-modify-write data.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime
from repro.polybench.common import DTYPE, KernelMeta, PolybenchApp

__all__ = ["SyrkApp", "TILE", "syrk_kernel", "gpu_compute_efficiency"]

TILE = 32

#: GPU compute efficiency at the reference size, and its decay exponent
#: (cache/TLB behaviour of the naive kernel at growing strides)
_GPU_EFF_AT_REF = 0.055
_REF_N = 768
_DECAY = 0.6


def gpu_compute_efficiency(n: int) -> float:
    """Naive-kernel GPU efficiency shrinks slowly with problem size."""
    return _GPU_EFF_AT_REF * (_REF_N / n) ** _DECAY


def _syrk_body(ctx) -> None:
    c0, c1 = ctx.item_range(0)
    r0, r1 = ctx.item_range(1)
    # Whole output rows, then this box's columns: BLAS rounding depends on
    # the call shape, this form does not (DESIGN.md, "Span dispatch").
    ctx["C"][r0:r1, c0:c1] = (
        ctx["beta"] * ctx["C"][r0:r1, c0:c1]
        + ctx["alpha"] * (ctx["A"][r0:r1, :] @ ctx["A"].T)[:, c0:c1]
    )


def syrk_kernel(n: int) -> KernelSpec:
    itemsize = np.dtype(DTYPE).itemsize
    return KernelSpec(
        name="syrk_kernel",
        args=(
            buffer_arg("A"),
            buffer_arg("C", Intent.INOUT),
            scalar_arg("alpha"),
            scalar_arg("beta"),
        ),
        body=_syrk_body,
        cost=WorkGroupCost(
            flops=2.0 * TILE * TILE * n,
            bytes_read=2 * TILE * n * itemsize,
            bytes_written=TILE * TILE * itemsize,
            loop_iters=max(1, n // 8),
            compute_efficiency={"cpu": 0.80, "gpu": gpu_compute_efficiency(n)},
            memory_efficiency={"cpu": 0.40, "gpu": 0.70},
            no_unroll_penalty=1.30,
        ),
    )


class SyrkApp(PolybenchApp):
    """Polybench SYRK at size ``n`` (square ``A`` and ``C``)."""

    name = "syrk"

    def __init__(self, n: int = 768, alpha: float = 1.2, beta: float = 1.1,
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
            "C": rng.standard_normal((n, n)).astype(DTYPE),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a64 = inputs["A"].astype(np.float64)
        c64 = inputs["C"].astype(np.float64)
        return {"C": self.beta * c64 + self.alpha * (a64 @ a64.T)}

    def _ndrange(self) -> NDRange:
        return NDRange((self.n, self.n), (TILE, TILE))

    def kernel_metas(self) -> List[KernelMeta]:
        return [KernelMeta("syrk_kernel", self._ndrange())]

    def kernel_specs(self) -> List[KernelSpec]:
        return [syrk_kernel(self.n)]

    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        n = self.n
        buf_a = runtime.create_buffer("A", (n, n), DTYPE)
        buf_c = runtime.create_buffer("C", (n, n), DTYPE)
        runtime.enqueue_write_buffer(buf_a, inputs["A"])
        runtime.enqueue_write_buffer(buf_c, inputs["C"])
        runtime.enqueue_nd_range_kernel(
            syrk_kernel(n), self._ndrange(),
            {"A": buf_a, "C": buf_c, "alpha": self.alpha, "beta": self.beta},
        )
        out = np.empty((n, n), dtype=DTYPE)
        runtime.enqueue_read_buffer(buf_c, out)
        return {"C": out}
