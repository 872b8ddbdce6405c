"""The benchmark's three workloads.

Each workload is driven as a closed loop with one client: one op at a
time, in one single-threaded process.  A workload has a set-up phase
(repeated by ``run.py``), an op sequence derived from the
workload seed, a timed ``run`` per op, and an untimed ``check`` that
validates the op's outputs and folds its simulated results into the
workload's fingerprint.

* ``coop-paper`` — the paper's six apps at paper scale, cooperative on
  the default CPU+GPU machine (Fig. 13).  Multi-MB buffers, few launches:
  host time is buffer copies, the host snapshot and kernel bodies.
* ``serve-burst`` — a 5000-request ``run_serve`` over a fixed four-tenant
  mix with MMPP on-off arrivals, repeated.  Profiles are measured in
  set-up, so the timed phase runs no kernel bodies or buffer copies: host
  time is the event core, the serve pipeline and the recorder/monitor.
* ``fuzz-mixed`` — a window of ``ScheduleFuzzer`` seeds over three machine
  presets, run through ``run_config``, repeated: KB-sized buffers and many
  launches per byte, the jitter-heap queue mode and N-device fronts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.fuzzer import ScheduleFuzzer
from repro.core.runtime import FluidiCLRuntime
from repro.hw.machine import build_machine
from repro.hw.specs import DeviceKind
from repro.kernels.validation import relative_error
from repro.ocl.runtime import SingleDeviceRuntime
from repro.polybench.common import DEFAULT_RTOL
from repro.polybench.suite import PAPER_SUITE, SCALES, make_app
from repro.serve.profile import clear_profile_cache, measure_profile
from repro.serve.run import ServeConfig
from repro.serve.workload import TenantSpec
from repro.sim.timebase import to_ticks
import repro.check.fuzzer as fuzzer
import repro.serve.run as serve_run

from percentiles import geomean, percentile

__all__ = ["Metric", "Workload", "CoopPaper", "ServeBurst", "FuzzMixed",
           "WORKLOADS"]

#: (name, value, unit)
Metric = Tuple[str, float, str]


def _digest(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _percentiles(walls: Sequence[float]) -> List[Metric]:
    """Host ms per op at p50 and p90, where enough samples lie beyond."""
    out = []
    for q in (50, 90):
        value = percentile(walls, q)
        if value is not None:
            out.append((f"op_ms.p{q}", value * 1e3, "ms"))
    return out


def _device_counts(devices: Sequence[Any], elapsed: float) -> Dict[str, float]:
    """Simulated DMA bytes and busy/capacity seconds per device kind."""
    out = {"ocl.dma_bytes": 0.0, "hw.gpu_busy": 0.0, "hw.gpu_capacity": 0.0,
           "hw.cpu_busy": 0.0, "hw.cpu_capacity": 0.0}
    for device in devices:
        stats = device.stats
        out["ocl.dma_bytes"] += stats["bytes_h2d"] + stats["bytes_d2h"]
        kind = "gpu" if device.kind is DeviceKind.GPU else "cpu"
        out[f"hw.{kind}_busy"] += stats["busy_compute_time"]
        out[f"hw.{kind}_capacity"] += elapsed
    return out


def _runtime_counts(runtime: FluidiCLRuntime) -> Dict[str, float]:
    """Public per-run statistics of one cooperative runtime."""
    records = runtime.records
    out = {
        "core.merges": runtime.stats.extra["merges"],
        "core.subkernels": sum(r.subkernels for r in records),
        "core.ndrange_groups": sum(r.total_groups for r in records),
        "core.executed_groups": sum(r.gpu_groups + r.cpu_groups_executed
                                    for r in records),
        "faults.injected": runtime.stats.extra["faults_injected"],
    }
    out.update(_device_counts(runtime.platform.devices,
                             runtime.machine.engine.now))
    return out


class Workload:
    """One named workload; see the module docstring."""

    name = ""
    why = ""
    #: items per op that ``ops_per_s`` counts (serve: requests per run)
    items_per_op = 1
    #: the timed loop runs at least this many ops
    min_ops = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def pass_ops(self) -> List[Any]:
        """One pass: the ops the timed loop repeats, in order."""
        raise NotImplementedError

    def ops(self) -> Iterable[Any]:
        while True:
            yield from self.pass_ops()

    def run(self, op: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Any, result: Any) -> Tuple[int, int]:
        """Validate one op's outputs; returns (attempted, failed) items."""
        raise NotImplementedError

    def counts(self, op: Any, result: Any, captured: Any) -> Dict[str, float]:
        """Public statistics of one traced op (``captured`` holds the
        runtimes and servers the op constructed)."""
        raise NotImplementedError

    def ops_per_s(self, ops: Sequence[Any], walls: Sequence[float]) -> float:
        """Items per second of one pass, each op timed by its fastest run."""
        fastest: Dict[Any, float] = {}
        for op, wall in zip(ops, walls):
            fastest[op] = min(wall, fastest.get(op, wall))
        items = len(self.pass_ops()) * self.items_per_op
        return items / sum(fastest.values())

    def report(self, ops: Sequence[Any],
               walls: Sequence[float]) -> Tuple[List[Metric], List[str]]:
        """Workload-specific metrics and fingerprint lines."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# coop-paper
# ---------------------------------------------------------------------------
@dataclass
class _CoopRun:
    runtime: FluidiCLRuntime
    outputs: Dict[str, Any]
    ticks: int


def _outputs_digest(outputs: Dict[str, Any]) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode())
        h.update(outputs[key].tobytes())
    return h.hexdigest()[:16]


class CoopPaper(Workload):
    name = "coop-paper"
    why = ("the paper's six apps at paper scale, cooperative on CPU+GPU "
           "(Fig. 13): MB buffers, few launches, copy- and body-bound")
    #: p90 of per-run wall time needs 100 runs
    min_ops = 17 * len(PAPER_SUITE)

    def setup(self) -> None:
        self.apps = {}
        self.inputs = {}
        self.references = {}
        #: per app: (gpu ticks, cpu ticks) of the single-device baselines
        self.single = {}
        for index, name in enumerate(PAPER_SUITE):
            app = make_app(name, "paper",
                           seed=self.seed * len(PAPER_SUITE) + index)
            inputs = app.fresh_inputs()
            self.apps[name] = app
            self.inputs[name] = inputs
            self.references[name] = app.reference(inputs)
            self.single[name] = tuple(
                to_ticks(app.execute(SingleDeviceRuntime(build_machine(), kind),
                                     inputs=inputs, check=False).elapsed)
                for kind in (DeviceKind.GPU, DeviceKind.CPU)
            )
        #: per app: (coop ticks, outputs digest) of its first run
        self.coop: Dict[str, Tuple[int, str]] = {}

    def pass_ops(self) -> List[str]:
        return list(PAPER_SUITE)

    def run(self, name: str) -> _CoopRun:
        runtime = FluidiCLRuntime(build_machine())
        result = self.apps[name].execute(runtime, inputs=self.inputs[name],
                                         check=False)
        runtime.drain()
        return _CoopRun(runtime, result.outputs, to_ticks(result.elapsed))

    def check(self, name: str, result: Optional[_CoopRun]) -> Tuple[int, int]:
        if result is None:
            return 1, 1
        ok = all(relative_error(result.outputs[key], ref) <= DEFAULT_RTOL
                 for key, ref in self.references[name].items())
        # the simulator is deterministic: every run of an app must take the
        # ticks and produce the bytes of its first run
        sim = (result.ticks, _outputs_digest(result.outputs))
        first = self.coop.setdefault(name, sim)
        return 1, int(not ok or sim != first)

    def counts(self, name, result, captured) -> Dict[str, float]:
        return _runtime_counts(result.runtime)

    def report(self, ops, walls):
        metrics: List[Metric] = [("runs_per_s", self.ops_per_s(ops, walls),
                                  "1/s")]
        metrics += _percentiles(walls)
        if len(self.coop) < len(PAPER_SUITE):
            return metrics, []
        speedups = [min(self.single[name]) / self.coop[name][0]
                    for name in PAPER_SUITE]
        metrics.append(("sim_speedup_geomean", geomean(speedups), "x"))
        lines = [f"{name}: coop={self.coop[name][0]} gpu={self.single[name][0]} "
                 f"cpu={self.single[name][1]} ticks, outputs {self.coop[name][1]}"
                 for name in PAPER_SUITE]
        return metrics, lines + [f"digest: {_digest(lines)}"]


# ---------------------------------------------------------------------------
# serve-burst
# ---------------------------------------------------------------------------
_TEST = SCALES["test"]

#: fixed explicit mix: two interactive tenants (one weighted 2), one
#: batch, one best-effort
TENANTS = (
    TenantSpec("gesummv", "gesummv", _TEST["gesummv"], "interactive",
               weight=2.0),
    TenantSpec("bicg", "bicg", _TEST["bicg"], "batch"),
    TenantSpec("spmv", "spmv", _TEST["spmv"], "interactive"),
    TenantSpec("scan", "scan", _TEST["scan"], "best-effort"),
)

#: requests per ``run_serve``: long enough for queues to build under
#: bursts and for each tenant's p99 to have ten samples beyond it
REQUESTS = 5000


class ServeBurst(Workload):
    name = "serve-burst"
    why = ("a bursty 4-tenant run_serve at utilisation 0.9, repeated: event "
           "core, serve pipeline and recorder/monitor, no bodies or copies")
    items_per_op = REQUESTS

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = ServeConfig(seed=seed, requests=REQUESTS,
                                  arrival="burst", utilization=0.9,
                                  tenants=TENANTS)

    def setup(self) -> None:
        # profiles are cached per process: measure them afresh each set-up
        clear_profile_cache()
        for tenant in TENANTS:
            measure_profile(tenant.app, tenant.size, self.config.machine)
        self.first = None

    def pass_ops(self) -> List[ServeConfig]:
        return [self.config]

    def run(self, config: ServeConfig):
        return serve_run.run_serve(config)

    def check(self, config, report) -> Tuple[int, int]:
        requests = config.requests
        if report is None or report.violations:
            return requests, requests
        totals = report.totals
        balanced = (totals["submitted"] == requests
                    and totals["submitted"] == totals["admitted"] + totals["shed"]
                    and totals["admitted"] == totals["completed"] + totals["failed"])
        # every run of the same config replays bit-identically
        self.first = self.first or report
        if not balanced or report.digest != self.first.digest:
            return requests, requests
        return requests, int(totals["failed"])

    def counts(self, config, report, captured) -> Dict[str, float]:
        server = captured.servers[-1]
        totals = report.totals
        out = _device_counts(server.platform.devices, report.simulated_seconds)
        out.update({
            "check.checks": report.checks,
            "faults.injected": report.faults_injected,
            "serve.jobs": totals["completed"] + totals["failed"],
            "serve.shed": totals["shed"],
            "serve.submitted": totals["submitted"],
        })
        return out

    @staticmethod
    def slo_met_frac(report) -> float:
        """Requests completed within their SLO over requests *submitted*.

        ``ServeReport.totals["slo_attainment"]`` divides by completed
        requests, so shed ones vanish from it; here they count as misses.
        """
        met = sum(round(row["slo_attainment"] * row["completed"])
                  for row in report.tenants.values())
        return met / report.totals["submitted"]

    def report(self, ops, walls):
        report = self.first
        metrics: List[Metric] = [
            ("requests_per_s", self.ops_per_s(ops, walls), "1/s")]
        if report is None:
            return metrics, []
        rows = report.tenants.values()
        metrics += [
            ("sim_p50_ms", max(row["p50_ms"] for row in rows), "ms"),
            ("sim_p99_ms", max(row["p99_ms"] for row in rows), "ms"),
            ("sim_slo_met_frac", self.slo_met_frac(report), "frac"),
        ]
        lines = [f"shed {report.totals['shed']:.0f} of "
                 f"{report.totals['submitted']:.0f}; run_serve's own "
                 f"slo_attainment (over completed) "
                 f"{report.totals['slo_attainment']:.6f}",
                 f"digest: {report.digest}"]
        return metrics, lines


# ---------------------------------------------------------------------------
# fuzz-mixed
# ---------------------------------------------------------------------------
#: three presets: gcd(14 apps, 3) == 1, so every app meets every machine
#: within 42 consecutive seeds (two presets would pin app parity to
#: machine parity, since the fuzzer picks both by ``seed % len``)
MACHINES = ("default", "cpu+2gpu", "cpu+3gpu")

#: outcomes that pass; anything else (error, lint-rejected) is a failure
ACCEPTED = ("ok", "device-lost")


class FuzzMixed(Workload):
    name = "fuzz-mixed"
    why = ("schedule-fuzzer seeds over 14 apps x 3 machines: KB buffers, "
           "many launches, jitter-heap queue, faults, lint, monitor, oracle")
    #: the seed window: 10 app x machine cycles, run over and over until
    #: the time is up, so every run of one seed does the same work
    window = 420
    min_ops = window

    def setup(self) -> None:
        self.fuzzer = ScheduleFuzzer(machines=MACHINES)
        self.outcomes: Dict[int, Tuple[str, int]] = {}
        # warm every app once: first-use imports and lazily built tables
        for seed in range(self.seed, self.seed + len(self.fuzzer.apps)):
            fuzzer.run_config(self.fuzzer.config(seed))

    def pass_ops(self) -> List[int]:
        return list(range(self.seed, self.seed + self.window))

    def run(self, seed: int):
        return fuzzer.run_config(self.fuzzer.config(seed))

    def check(self, seed, result) -> Tuple[int, int]:
        if result is None:
            return 1, 1
        outcome = (result.outcome, to_ticks(result.elapsed))
        # a seed replays bit-identically, or the simulator is broken
        first = self.outcomes.setdefault(seed, outcome)
        return 1, int(result.outcome not in ACCEPTED or result.failed
                      or outcome != first)

    def counts(self, seed, result, captured) -> Dict[str, float]:
        out: Dict[str, float] = {"check.checks": result.checks}
        for runtime in captured.runtimes:
            for key, value in _runtime_counts(runtime).items():
                out[key] = out.get(key, 0) + value
        return out

    def report(self, ops, walls):
        metrics: List[Metric] = [("seeds_per_s", self.ops_per_s(ops, walls),
                                  "1/s")]
        metrics += _percentiles(walls)
        seeds = range(self.seed, self.seed + self.window)
        if len(self.outcomes) < self.window:
            return metrics, []
        tally: Dict[str, int] = {}
        for seed in seeds:
            outcome = self.outcomes[seed][0]
            tally[outcome] = tally.get(outcome, 0) + 1
        summary = ", ".join(f"{k} {v}" for k, v in sorted(tally.items()))
        return metrics, [
            f"seeds {seeds.start}..{seeds.stop - 1}: {summary}",
            "digest: " + _digest(f"{seed}:{self.outcomes[seed][0]}:"
                                 f"{self.outcomes[seed][1]}" for seed in seeds),
        ]


WORKLOADS = {w.name: w for w in (CoopPaper, ServeBurst, FuzzMixed)}
