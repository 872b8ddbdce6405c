"""The big integration matrix: every app on every runtime, test scale."""

import numpy as np
import pytest

from repro.baselines.starpu import SoclRuntime
from repro.baselines.static_partition import StaticPartitionRuntime
from repro.core.runtime import FluidiCLRuntime
from repro.harness.workloads import MatrixScaleApp, VolumeSquareApp
from repro.hw.machine import build_machine
from repro.hw.specs import DeviceKind
from repro.ocl.buffer import _frozen
from repro.ocl.runtime import SingleDeviceRuntime
from repro.polybench import EXTENDED_SUITE, make_app

RUNTIME_FACTORIES = {
    "gpu-only": lambda m: SingleDeviceRuntime(m, DeviceKind.GPU),
    "cpu-only": lambda m: SingleDeviceRuntime(m, DeviceKind.CPU),
    "fluidicl": lambda m: FluidiCLRuntime(m),
    "static-50": lambda m: StaticPartitionRuntime(m, 0.5),
    "socl-eager": lambda m: SoclRuntime(m, "eager"),
}


@pytest.mark.parametrize("app_name", EXTENDED_SUITE)
@pytest.mark.parametrize("runtime_name", sorted(RUNTIME_FACTORIES))
def test_app_runs_correctly(app_name, runtime_name):
    app = make_app(app_name, "test")
    machine = build_machine()
    runtime = RUNTIME_FACTORIES[runtime_name](machine)
    result = app.execute(runtime)
    assert result.correct, (
        f"{app_name} on {runtime_name}: err={result.max_relative_error:.2e}"
    )
    assert result.elapsed > 0


@pytest.mark.parametrize("app_name", EXTENDED_SUITE)
def test_deterministic_timing(app_name):
    """The simulator must be bit-deterministic run to run."""
    app = make_app(app_name, "test")
    inputs = app.fresh_inputs()

    def one_run():
        machine = build_machine()
        runtime = FluidiCLRuntime(machine)
        return app.execute(runtime, inputs=inputs, check=False).elapsed

    assert one_run() == one_run()


@pytest.mark.parametrize("app_name", EXTENDED_SUITE)
def test_inputs_reproducible_from_seed(app_name):
    app = make_app(app_name, "test")
    a = app.fresh_inputs()
    b = app.fresh_inputs()
    for key in a:
        assert np.array_equal(a[key], b[key])


@pytest.mark.parametrize("app", [
    *(make_app(name, "test") for name in EXTENDED_SUITE),
    MatrixScaleApp(n=64),
    VolumeSquareApp(side=16),
], ids=lambda app: app.name)
def test_fresh_inputs_are_frozen(app):
    """Runtimes adopt frozen inputs without copying them, so a host
    program that writes one must fail loudly, not diverge silently."""
    for key, array in app.fresh_inputs().items():
        assert _frozen(array), key
        with pytest.raises(ValueError, match="read-only"):
            array.reshape(-1)[0] = 0


def test_corr_with_tuned_kernel_still_correct():
    from repro.core.config import FluidiCLConfig
    from repro.polybench.corr import CorrApp

    app = CorrApp(n=128, provide_cpu_tuned_kernel=True)
    machine = build_machine()
    runtime = FluidiCLRuntime(machine, FluidiCLConfig(online_profiling=True))
    result = app.execute(runtime)
    assert result.correct
