"""Dead-subkernel elision: worker subkernels completing after their kernel
is finalized skip their NumPy bodies, and nothing else changes.

A worker subkernel still in flight when the anchor kernel ends can never
ship (the board never un-finalizes) and its front's copies stay DIRTY
until a full-buffer write queued behind it on the same in-order queue.
The executor therefore skips its bodies (``KernelRunResult.elided``);
only a failover leader's launches stay live past finalization.

* Equivalence: with the liveness check disabled, ticks, outputs, kernel
  records, device stats and the whole event stream are identical.
* Poison: filling each elided launch's out-buffer copies with NaN (or
  inverted bits) instead of skipping leaves every output bit-identical,
  fuzz seeds with faults included — nothing ever reads elided data.
* Failover: the leader's launches are never elided and its committed
  copy is correct; a check without the leader exception must fail.
* Invariant: committing a front that had an elided launch raises.
"""

import dataclasses
import functools

import numpy as np
import pytest

import repro.check.fuzzer as fuzzer
import repro.ocl.executor as executor
from repro.core.deviceset import FrontLedger
from repro.core.runtime import FluidiCLRuntime, _KernelPlan
from repro.core.scheduler import CpuScheduler
from repro.core.stats import KernelRecord
from repro.faults import FaultKind, FaultSchedule, install_faults
from repro.hw.machine import build_machine
from repro.ocl.ndrange import NDRange
from repro.polybench.common import PolybenchApp
from repro.polybench.suite import PAPER_SUITE, make_app
from repro.sim.timebase import to_ticks

PRESETS = ("default", "cpu+2gpu")
#: paper-scale apps whose anchor kernels end with worker subkernels in
#: flight (the bulk of the elided groups of a coop-paper pass)
PAPER_SCALE = ("2mm", "corr", "syr2k")
CASES = ([(app, "test", preset) for app in PAPER_SUITE for preset in PRESETS]
         + [(app, "paper", preset) for app in PAPER_SCALE
            for preset in PRESETS])


def _never_elide(monkeypatch):
    """Disable the liveness check: every launch runs its bodies."""
    monkeypatch.setattr(CpuScheduler, "_launch_live", lambda self: True)


def _poison(array):
    if np.issubdtype(array.dtype, np.floating):
        array.fill(np.nan)
    else:
        np.invert(array, out=array)


def _poison_elided(monkeypatch):
    """After an elided launch, poison its front's out-buffer copies (the
    whole copy, a superset of the launch's windows).  Returns the list of
    (kernel name, groups) of every poisoned launch."""
    poisoned = []
    real_finish = executor._finish

    def finish(device, kernel, ndrange, launch, result, now):
        real_finish(device, kernel, ndrange, launch, result, now)
        if result.elided:
            for arg in kernel.spec.out_args:
                _poison(kernel.args[arg.name].array)
            poisoned.append((kernel.name, result.executed_groups))

    monkeypatch.setattr(executor, "_finish", finish)
    return poisoned


def _record_fields(record):
    fields = {
        f.name: getattr(record, f.name)
        for f in dataclasses.fields(record)
        if f.name not in ("elided_groups", "chunker", "chunkers")
    }
    fields["chunkers"] = {name: vars(c) for name, c in record.chunkers.items()}
    return fields


def run_case(app_name, scale, preset):
    """One traced cooperative run; returns everything simulated."""
    machine = build_machine(preset=preset, trace=True)
    runtime = FluidiCLRuntime(machine)
    result = make_app(app_name, scale).execute(runtime, check=True)
    runtime.drain()
    return {
        "correct": result.correct,
        "ticks": to_ticks(result.elapsed),
        "outputs": {k: (v.dtype, v.tobytes())
                    for k, v in result.outputs.items()},
        "records": [_record_fields(r) for r in runtime.records],
        "stats": [dict(d.stats) for d in runtime.platform.devices],
        "events": list(machine.tracer.events),
        "elided": sum(r.elided_groups for r in runtime.records),
    }


@functools.lru_cache(maxsize=None)
def reference(app_name, scale, preset):
    """The same run with every body executed (no elision)."""
    with pytest.MonkeyPatch.context() as mp:
        _never_elide(mp)
        run = run_case(app_name, scale, preset)
    assert run["elided"] == 0
    return run


class TestEquivalence:

    @pytest.mark.parametrize("app_name,scale,preset", CASES)
    def test_identical_to_running_every_body(self, app_name, scale, preset):
        want = reference(app_name, scale, preset)
        got = run_case(app_name, scale, preset)
        assert got["correct"] and want["correct"]
        for key in ("ticks", "outputs", "records", "stats"):
            assert got[key] == want[key], f"{key} drift"
        assert len(got["events"]) == len(want["events"])
        for i, (a, b) in enumerate(zip(got["events"], want["events"])):
            assert a == b, f"event {i} differs: {a} != {b}"
        if scale == "paper":
            assert got["elided"] > 0


class TestPoison:

    @pytest.mark.parametrize("app_name,scale,preset", CASES)
    def test_elided_data_is_never_read(self, monkeypatch, app_name, scale,
                                       preset):
        want = reference(app_name, scale, preset)
        poisoned = _poison_elided(monkeypatch)
        got = run_case(app_name, scale, preset)
        assert got["correct"]
        assert got["outputs"] == want["outputs"]
        assert got["ticks"] == want["ticks"]
        assert sum(n for _, n in poisoned) == got["elided"]

    def test_fuzz_seeds(self, monkeypatch):
        """Seeds 0..83 over the benchmark's three machines: faults, jitter
        and N-device fronts, compared with every body executed."""
        results = []
        real_execute = PolybenchApp.execute

        def execute(self, runtime, *args, **kwargs):
            result = real_execute(self, runtime, *args, **kwargs)
            results.append(result)
            return result

        monkeypatch.setattr(PolybenchApp, "execute", execute)
        fuzz = fuzzer.ScheduleFuzzer(
            machines=("default", "cpu+2gpu", "cpu+3gpu"))

        def run(seed):
            results.clear()
            check = fuzzer.run_config(fuzz.config(seed))
            outputs = {k: v.tobytes() for k, v in results[0].outputs.items()
                       } if results else None
            return check.outcome, to_ticks(check.elapsed), outputs

        faulted = poisoned_with_faults = 0
        total_poisoned = 0
        for seed in range(84):
            config = fuzz.config(seed)
            with monkeypatch.context() as mp:
                _never_elide(mp)
                want = run(seed)
            with monkeypatch.context() as mp:
                poisoned = _poison_elided(mp)
                got = run(seed)
            assert got == want, f"seed {seed} ({config.describe()})"
            total_poisoned += len(poisoned)
            faulted += bool(config.faults)
            poisoned_with_faults += bool(config.faults and poisoned)
        assert total_poisoned > 0
        assert faulted > 0 and poisoned_with_faults > 0


# ---------------------------------------------------------------------------
# failover
# ---------------------------------------------------------------------------
def _strike(app_name, preset, fraction):
    """A time ``fraction`` into the first kernel of a clean run."""
    runtime = FluidiCLRuntime(build_machine(preset=preset))
    make_app(app_name, "test").execute(runtime, check=False)
    runtime.drain()
    record = runtime.records[0]
    return record.start_time + fraction * (record.end_time - record.start_time)


def check_failover(app_name, preset, fraction=0.5):
    """Anchor lost mid-kernel: the leader's launches are never elided and
    the committed result is correct.  Returns (leader launches completing
    after finalization, elided launches of other fronts)."""
    at = _strike(app_name, preset, fraction)
    verdicts = []
    check = CpuScheduler._launch_live

    def spy(self):
        live = check(self)
        verdicts.append((self.plan.ledger.leader == self.front.index,
                         self.plan.board.finalized, live))
        return live

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CpuScheduler, "_launch_live", spy)
        runtime = FluidiCLRuntime(build_machine(preset=preset))
        install_faults(runtime, FaultSchedule.single(
            FaultKind.DEVICE_LOSS, at=at, device=runtime.gpu_device.name))
        result = make_app(app_name, "test").execute(runtime, check=True)
        runtime.drain()
    assert runtime.records[0].failover
    leader_after_finalize = [live for leader, final, live in verdicts
                             if leader and final]
    assert all(leader_after_finalize), "a leader launch was elided"
    assert result.correct, (
        f"{app_name}@{preset}: wrong numerics after anchor loss "
        f"(max rel err {result.max_relative_error:.3e})")
    others_elided = sum(1 for leader, _, live in verdicts
                        if not leader and not live)
    return len(leader_after_finalize), others_elided


def _leaderless_check(self):
    """Mutant: the liveness check without the failover-leader exception."""
    plan = self.plan
    if not plan.board.finalized:
        return True
    plan.elided_fronts.add(self.front.index)
    return False


class TestFailover:

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("app_name", PAPER_SUITE)
    def test_leader_launches_are_never_elided(self, app_name, preset):
        check_failover(app_name, preset)

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("app_name", ("2mm", "bicg", "corr"))
    def test_leader_runs_past_finalization(self, app_name, preset):
        leader_launches, _ = check_failover(app_name, preset)
        assert leader_launches > 0

    @pytest.mark.parametrize("app_name", ("2mm", "bicg", "syrk"))
    def test_non_leader_launches_are_elided(self, app_name):
        """cpu+2gpu, late strike: the non-leader worker's in-flight
        subkernel is elided and the leader still commits the right data."""
        _, others_elided = check_failover(app_name, "cpu+2gpu", 0.75)
        assert others_elided > 0

    @pytest.mark.parametrize("preset", PRESETS)
    def test_check_without_leader_exception_fails(self, monkeypatch, preset):
        monkeypatch.setattr(CpuScheduler, "_launch_live", _leaderless_check)
        with pytest.raises(RuntimeError, match="elided"):
            check_failover("2mm", preset)


# ---------------------------------------------------------------------------
# commit invariant
# ---------------------------------------------------------------------------
class TestCommitInvariant:

    def _plan(self, runtime):
        fbuf = runtime.create_buffer("y", (4,), np.float32)
        record = KernelRecord(kernel_id=7, name="k", total_groups=4)
        plan = _KernelPlan(
            kernel_id=7, specs=[], ndrange=NDRange(4, 1), args={}, out_fbuffers=[fbuf],
            board=None, gpu_event=None, landing={}, orig={}, profilers={},
            record=record, ledger=FrontLedger(4), primary_index=1,
        )
        return plan, fbuf

    def test_front_complete_commit_refuses_an_elided_front(self):
        runtime = FluidiCLRuntime(build_machine())
        plan, fbuf = self._plan(runtime)
        plan.elided_fronts.add(1)
        with pytest.raises(RuntimeError, match="elided"):
            runtime._commit_front_complete(plan, 1)
        assert fbuf.latest == 0 and not plan.record.cpu_completed_all

    def test_other_fronts_elisions_do_not_block_the_commit(self):
        runtime = FluidiCLRuntime(build_machine(preset="cpu+2gpu"))
        plan, fbuf = self._plan(runtime)
        plan.elided_fronts.add(2)
        runtime._commit_front_complete(plan, 1)
        assert fbuf.latest == 7 and fbuf.current(1)
