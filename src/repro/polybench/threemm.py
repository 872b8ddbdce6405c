"""3MM: three chained matrix multiplications (extension benchmark).

``E = A*B; F = C*D; G = E*F`` — a longer kernel pipeline than 2MM, with a
diamond dependency (G needs both E and F), stressing the buffer version
tracker across more producer/consumer edges.  Expressed as a
:class:`~repro.workloads.pipeline.PipelineApp`, which makes the diamond
explicit: ``dependency_edges()`` reports both mm3_kernel1 → mm3_kernel3
(via E) and mm3_kernel2 → mm3_kernel3 (via F).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.kernels.dsl import Intent, KernelSpec, buffer_arg
from repro.ocl.ndrange import NDRange
from repro.polybench.common import DTYPE
from repro.polybench.twomm import TILE, matmul_cost
from repro.workloads.pipeline import BufferDecl, KernelStage, PipelineApp

__all__ = ["ThreeMmApp"]


def _make_mm_body(left: str, right: str, out: str):
    def body(ctx) -> None:
        c0, c1 = ctx.item_range(0)
        r0, r1 = ctx.item_range(1)
        # Whole output rows, then this box's columns (see twomm).
        ctx[out][r0:r1, c0:c1] = (ctx[left][r0:r1, :] @ ctx[right])[:, c0:c1]

    return body


def mm_kernel(name: str, left: str, right: str, out: str, nk: int) -> KernelSpec:
    return KernelSpec(
        name=name,
        args=(buffer_arg(left), buffer_arg(right), buffer_arg(out, Intent.OUT)),
        body=_make_mm_body(left, right, out),
        cost=matmul_cost(nk, gpu_compute=0.30, cpu_compute=0.80),
    )


class ThreeMmApp(PipelineApp):
    """Polybench 3MM at size ``n`` (all matrices square)."""

    name = "3mm"

    def __init__(self, n: int = 768, seed: int = 7):
        super().__init__(seed)
        if n % TILE != 0:
            raise ValueError(f"n must be a multiple of {TILE}")
        self.n = n

    @property
    def input_size_label(self) -> str:
        return f"({self.n}, {self.n})"

    def build_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        n = self.n
        return {
            name: rng.standard_normal((n, n)).astype(DTYPE)
            for name in ("A", "B", "C", "D")
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        a64 = {k: v.astype(np.float64) for k, v in inputs.items()}
        e = a64["A"] @ a64["B"]
        f = a64["C"] @ a64["D"]
        return {"G": e @ f}

    def _ndrange(self) -> NDRange:
        return NDRange((self.n, self.n), (TILE, TILE))

    # -- pipeline ----------------------------------------------------------------
    def buffer_decls(self) -> List[BufferDecl]:
        n = self.n
        decls = []
        for name in ("A", "B", "C", "D"):
            decls.append(BufferDecl(name, (n, n), DTYPE, init=name))
        decls.append(BufferDecl("E", (n, n), DTYPE))
        decls.append(BufferDecl("F", (n, n), DTYPE))
        decls.append(BufferDecl("G", (n, n), DTYPE, read="G"))
        return decls

    def stages(self) -> List[KernelStage]:
        n = self.n
        nd = self._ndrange()
        return [
            KernelStage(
                spec=mm_kernel("mm3_kernel1", "A", "B", "E", n),
                ndrange=nd,
                binds={"A": "A", "B": "B", "E": "E"},
            ),
            KernelStage(
                spec=mm_kernel("mm3_kernel2", "C", "D", "F", n),
                ndrange=nd,
                binds={"C": "C", "D": "D", "F": "F"},
            ),
            KernelStage(
                spec=mm_kernel("mm3_kernel3", "E", "F", "G", n),
                ndrange=nd,
                binds={"E": "E", "F": "F", "G": "G"},
            ),
        ]
