"""2MM: two chained matrix multiplications (``D = beta*D + (alpha*A*B)*C``).

Device affinity (motivating Fig. 2's "GPU-only is best" case): both kernels
are dense matmuls whose OpenCL implementations tile well on the GPU, so the
GPU is ~4-6x faster and FluidiCL should effectively hand it the whole
NDRange.  Calibration: GPU reaches 22% of peak FLOPs (a straightforward
tiled SGEMM on Fermi), the CPU about 92% of its (much lower) peak through
the AMD runtime's vectorizer.

The host program is expressed as a :class:`~repro.workloads.pipeline.
PipelineApp`: two kernel stages chained through the ``tmp`` buffer.  The
generic pipeline executor replays the exact create/write/launch/read
sequence the hand-written host program used to issue, so simulated
schedules are unchanged.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.ocl.ndrange import NDRange
from repro.polybench.common import DTYPE
from repro.workloads.pipeline import BufferDecl, KernelStage, PipelineApp

__all__ = ["TwoMmApp", "TILE", "matmul_cost"]

#: work-group tile edge (local size is TILE x TILE work-items)
TILE = 32


def matmul_cost(inner_dim: int, gpu_compute: float, cpu_compute: float,
                gpu_mem: float = 0.80, cpu_mem: float = 0.50,
                flop_factor: float = 2.0) -> WorkGroupCost:
    """Cost of one TILE x TILE output tile of a matmul-shaped kernel."""
    return WorkGroupCost(
        flops=flop_factor * TILE * TILE * inner_dim,
        bytes_read=2 * TILE * inner_dim * np.dtype(DTYPE).itemsize,
        bytes_written=TILE * TILE * np.dtype(DTYPE).itemsize,
        loop_iters=max(1, inner_dim // 8),
        compute_efficiency={"cpu": cpu_compute, "gpu": gpu_compute},
        memory_efficiency={"cpu": cpu_mem, "gpu": gpu_mem},
        no_unroll_penalty=1.30,
    )


def _mm1_body(ctx) -> None:
    # dim 0 (fastest) indexes output columns, dim 1 output rows
    c0, c1 = ctx.item_range(0)
    r0, r1 = ctx.item_range(1)
    # Whole output rows, then this box's columns: BLAS rounding depends on
    # the call shape, this form does not (DESIGN.md, "Span dispatch").
    ctx["tmp"][r0:r1, c0:c1] = ctx["alpha"] * (
        ctx["A"][r0:r1, :] @ ctx["B"]
    )[:, c0:c1]


def _mm2_body(ctx) -> None:
    c0, c1 = ctx.item_range(0)
    r0, r1 = ctx.item_range(1)
    ctx["D"][r0:r1, c0:c1] = (
        ctx["beta"] * ctx["D"][r0:r1, c0:c1]
        + (ctx["tmp"][r0:r1, :] @ ctx["C"])[:, c0:c1]
    )


def mm1_kernel(nk: int) -> KernelSpec:
    return KernelSpec(
        name="mm2_kernel1",
        args=(
            buffer_arg("A"),
            buffer_arg("B"),
            buffer_arg("tmp", Intent.OUT),
            scalar_arg("alpha"),
        ),
        body=_mm1_body,
        cost=matmul_cost(nk, gpu_compute=0.22, cpu_compute=0.92),
    )


def mm2_kernel(nj: int) -> KernelSpec:
    return KernelSpec(
        name="mm2_kernel2",
        args=(
            buffer_arg("tmp"),
            buffer_arg("C"),
            buffer_arg("D", Intent.INOUT),
            scalar_arg("beta"),
        ),
        body=_mm2_body,
        cost=matmul_cost(nj, gpu_compute=0.22, cpu_compute=0.92),
    )


class TwoMmApp(PipelineApp):
    """Polybench 2MM at size ``n`` (all four matrices n x n)."""

    name = "2mm"

    def __init__(self, n: int = 1024, alpha: float = 1.5, beta: float = 1.2,
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
            "D": rng.standard_normal((n, n)).astype(DTYPE),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a64 = {k: v.astype(np.float64) for k, v in inputs.items()}
        tmp = self.alpha * (a64["A"] @ a64["B"])
        return {"D": self.beta * a64["D"] + tmp @ a64["C"]}

    def _ndrange(self) -> NDRange:
        return NDRange((self.n, self.n), (TILE, TILE))

    # -- pipeline ----------------------------------------------------------------
    def buffer_decls(self) -> List[BufferDecl]:
        n = self.n
        return [
            BufferDecl("A", (n, n), DTYPE, init="A"),
            BufferDecl("B", (n, n), DTYPE, init="B"),
            BufferDecl("C", (n, n), DTYPE, init="C"),
            BufferDecl("D", (n, n), DTYPE, init="D", read="D"),
            BufferDecl("tmp", (n, n), DTYPE),
        ]

    def stages(self) -> List[KernelStage]:
        nd = self._ndrange()
        return [
            KernelStage(
                spec=mm1_kernel(self.n),
                ndrange=nd,
                binds={"A": "A", "B": "B", "tmp": "tmp",
                       "alpha": self.alpha},
            ),
            KernelStage(
                spec=mm2_kernel(self.n),
                ndrange=nd,
                binds={"tmp": "tmp", "C": "C", "D": "D",
                       "beta": self.beta},
            ),
        ]
