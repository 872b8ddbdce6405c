"""Shared machinery for the Polybench host programs."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kernels.dsl import KernelSpec
from repro.kernels.validation import relative_error
from repro.ocl.buffer import frozen
from repro.ocl.ndrange import NDRange
from repro.ocl.runtime import AbstractRuntime

__all__ = ["DTYPE", "KernelMeta", "AppResult", "PolybenchApp"]

#: all benchmarks compute in single precision, as the paper's OpenCL kernels do
DTYPE = np.float32

#: float32 block reductions vs. the float64 reference: loose but safe bound
DEFAULT_RTOL = 5e-3


@dataclass(frozen=True)
class KernelMeta:
    """Table 2 metadata for one kernel of an application."""

    name: str
    ndrange: NDRange

    @property
    def work_groups(self) -> int:
        return self.ndrange.total_groups


@dataclass
class AppResult:
    """Outcome of running one application on one runtime."""

    app: str
    runtime: str
    #: simulated wall-clock of the whole program (transfers included, §8)
    elapsed: float
    outputs: Dict[str, np.ndarray]
    max_relative_error: float
    correct: bool
    extras: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AppResult {self.app} on {self.runtime}: {self.elapsed * 1e3:.2f} ms "
            f"err={self.max_relative_error:.2e} correct={self.correct}>"
        )


class PolybenchApp(abc.ABC):
    """One benchmark: input generator, reference oracle and host program."""

    name: str = "app"

    def __init__(self, seed: int = 7):
        self.seed = seed

    # -- to implement per app ------------------------------------------------
    @abc.abstractmethod
    def build_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Generate the input arrays (the workload generator)."""

    @abc.abstractmethod
    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Ground-truth outputs, computed with NumPy in float64."""

    @abc.abstractmethod
    def host_program(self, runtime: AbstractRuntime,
                     inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """The OpenCL host program: create buffers, write, launch, read."""

    @abc.abstractmethod
    def kernel_metas(self) -> List[KernelMeta]:
        """Kernel launch geometry (for the Table 2 reproduction)."""

    def kernel_specs(self) -> Optional[List[KernelSpec]]:
        """Every kernel version the host program may launch, for static
        analysis (``repro.analysis``); ``None`` when unknown.

        The fluidity linter (``python -m repro.harness lint``) and the
        :mod:`repro.check` fuzzer pre-flight analyze these without running
        the host program.
        """
        return None

    # -- provided ----------------------------------------------------------------
    @property
    def input_size_label(self) -> str:
        return ""

    def table2_row(self) -> Tuple[str, str, int, str]:
        metas = self.kernel_metas()
        groups = ", ".join(str(m.work_groups) for m in metas)
        return (self.name.upper(), self.input_size_label, len(metas), groups)

    def fresh_inputs(self) -> Dict[str, np.ndarray]:
        """The seeded inputs, frozen: every array is read-only and views
        no writable array, so runtimes adopt it instead of copying it
        (:func:`repro.ocl.buffer.frozen`), and a host program that writes
        its inputs raises ``ValueError``."""
        inputs = self.build_inputs(np.random.default_rng(self.seed))
        for key, array in inputs.items():
            array.flags.writeable = False
            # copies only a view whose base is still writable
            inputs[key] = frozen(array)
        return inputs

    def execute(self, runtime: AbstractRuntime,
                inputs: Optional[Dict[str, np.ndarray]] = None,
                check: bool = True, rtol: float = DEFAULT_RTOL) -> AppResult:
        """Run the host program on ``runtime`` and validate the outputs.

        The measured span starts after input generation and covers every
        transfer and kernel, mirroring the paper's "total running time".
        """
        if inputs is None:
            inputs = self.fresh_inputs()
        start = runtime.machine.now
        outputs = self.host_program(runtime, inputs)
        runtime.finish()
        elapsed = runtime.machine.now - start

        max_err = 0.0
        correct = True
        if check:
            expected = self.reference(inputs)
            for key, ref in expected.items():
                err = relative_error(outputs[key], ref)
                max_err = max(max_err, err)
            correct = max_err <= rtol
        return AppResult(
            app=self.name,
            runtime=type(runtime).__name__,
            elapsed=elapsed,
            outputs=outputs,
            max_relative_error=max_err,
            correct=correct,
        )


def round_up(value: int, multiple: int) -> int:
    """Smallest multiple of ``multiple`` >= ``value``."""
    return -(-value // multiple) * multiple
