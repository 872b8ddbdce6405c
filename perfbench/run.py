"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload coop-paper --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the timed phase untraced, then again with
spans and counters around every layer, and reports the per-layer metrics.
The exit code is 0 only when every op passed its correctness check.
"""

import argparse
import gc
import importlib
import itertools
import json
import os
import pathlib
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up (importing the program afresh, then the workload's own set-up)
#: is repeated this many times; ``setup_s`` reports the median.  The count
#: is fixed: every set-up leaves some module objects behind, so a varying
#: count would vary the memory and garbage-collector work of the timed phase
SETUP_REPEATS = 3

#: end-to-end metrics, printed by every workload with ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}

#: per-layer metrics, printed by every workload with ``--trace 1``
PER_LAYER = {
    "sim.self_s": "s", "sim.self_frac": "frac",
    "sim.timeouts": "count", "sim.processes": "count",
    "ocl.self_s": "s", "ocl.self_frac": "frac", "ocl.copy_s": "s",
    "ocl.copy_bytes": "B", "ocl.commands": "count", "ocl.dma_bytes": "B",
    "kernels.self_s": "s", "kernels.self_frac": "frac",
    "kernels.body_calls": "count", "kernels.groups_per_body_call": "groups",
    "core.self_s": "s", "core.self_frac": "frac", "core.merge_s": "s",
    "core.merges": "count", "core.subkernels": "count",
    "core.useful_group_frac": "frac",
    "hw.gpu_busy_frac": "frac", "hw.cpu_busy_frac": "frac",
    "obs.self_s": "s", "obs.self_frac": "frac", "obs.events": "count",
    "check.self_s": "s", "check.self_frac": "frac", "check.checks": "count",
    "analysis.self_s": "s", "analysis.self_frac": "frac",
    "faults.injected": "count",
    "serve.self_s": "s", "serve.self_frac": "frac", "serve.jobs": "count",
    "serve.shed_frac": "frac",
    "apps.self_s": "s", "apps.self_frac": "frac",
    "unattributed.self_frac": "frac", "trace.overhead_frac": "frac",
}

#: layer of the benchmark's own per-op root span (its self time is
#: ``unattributed``: op time no layer span covers)
ROOT_LAYER = "unattributed"


class Log:
    """What one timed loop did: ops in order, their wall seconds, and
    attempted/failed item counts."""

    def __init__(self):
        self.ops: List[Any] = []
        self.walls: List[float] = []
        self.attempted = 0
        self.failed = 0


def drive(workload, ops, seconds: float, min_ops: int, on_op=None) -> Log:
    """Closed loop, one op at a time, until ``seconds`` of op wall time
    and ``min_ops`` ops are done or ``ops`` runs out.  Outputs are checked
    outside the timed region."""
    log = Log()
    busy = 0.0
    for op in ops:
        if busy >= seconds and len(log.walls) >= min_ops:
            break
        start = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            traceback.print_exc()
            result = None
        wall = time.perf_counter() - start
        busy += wall
        attempted, failed = workload.check(op, result)
        log.ops.append(op)
        log.walls.append(wall)
        log.attempted += attempted
        log.failed += failed
        if failed:
            print(f"FAILED op {op!r}", file=sys.stderr)
        if on_op is not None:
            on_op(op, result)
        del result  # free this op's machine before the next op builds one
    return log


def traced_phase(workload, untraced: Log, seconds: float):
    """Replay the untraced phase's ops with every layer wrapped, for up
    to ``seconds``; returns (log, per-layer metrics, recorder)."""
    from layers import COPY_SPANS, MERGE_SPAN, SPAN_LAYERS, Instrumentation
    from spans import SpanRecorder, name_seconds

    recorder = SpanRecorder()
    inst = Instrumentation(recorder)
    root = recorder.name(ROOT_LAYER, "op")
    op_ids = itertools.count()

    class Rooted:
        """The workload, with a root span around each op."""

        def run(self, op):
            recorder.op_id = next(op_ids)
            index = recorder.enter(root)
            try:
                return workload.run(op)
            finally:
                recorder.exit(index)
                recorder.op_id = -1

        def check(self, op, result):
            return workload.check(op, result)

    def on_op(op, result):
        if result is not None:
            inst.counts.update(workload.counts(op, result, inst))
        inst.runtimes.clear()
        inst.servers.clear()

    inst.install()
    try:
        log = drive(Rooted(), untraced.ops, seconds, 0, on_op)
    finally:
        inst.uninstall()

    cols = recorder.columns()
    spent = name_seconds(cols, recorder.names)
    own: Dict[str, float] = {}
    for name, seconds in name_seconds(cols, recorder.names, own=True).items():
        layer = name.split(":")[0]
        own[layer] = own.get(layer, 0.0) + seconds
    total = spent[recorder.names[root]]
    counts = inst.counts

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
        metrics[f"{layer}.self_frac"] = frac(own.get(layer, 0.0), total)
    metrics["unattributed.self_frac"] = frac(own.get(ROOT_LAYER, 0.0), total)
    n = len(log.walls)
    metrics["trace.overhead_frac"] = (
        sum(log.walls) / sum(untraced.walls[:n]) - 1.0)
    metrics.update({
        "sim.timeouts": counts["sim.timeouts"],
        "sim.processes": counts["sim.processes"],
        "ocl.copy_s": sum(spent.get(name, 0.0) for name in COPY_SPANS),
        "ocl.copy_bytes": counts["ocl.copy_bytes"],
        "ocl.commands": counts["ocl.commands"],
        "ocl.dma_bytes": counts["ocl.dma_bytes"],
        "kernels.body_calls": counts["kernels.body_calls"],
        "kernels.groups_per_body_call": frac(
            counts["kernels.groups"],
            counts["kernels.body_calls"]),
        "core.merge_s": spent.get(MERGE_SPAN, 0.0),
        "core.merges": counts["core.merges"],
        "core.subkernels": counts["core.subkernels"],
        "core.useful_group_frac": frac(
            counts["core.ndrange_groups"],
            counts["core.executed_groups"]),
        "hw.gpu_busy_frac": frac(counts["hw.gpu_busy"],
                                 counts["hw.gpu_capacity"]),
        "hw.cpu_busy_frac": frac(counts["hw.cpu_busy"],
                                 counts["hw.cpu_capacity"]),
        "obs.events": counts["obs.events"],
        "check.checks": counts["check.checks"],
        "faults.injected": counts["faults.injected"],
        "serve.jobs": counts["serve.jobs"],
        "serve.shed_frac": frac(counts["serve.shed"],
                                counts["serve.submitted"]),
    })
    return log, metrics, recorder


def fresh_setup(name: str, seed: int):
    """Import the program afresh and set workload ``name`` up, as a new
    process would; returns the workload and the seconds this took."""
    for module in list(sys.modules):
        if module in ("repro", "workloads") or module.startswith("repro."):
            del sys.modules[module]
    gc.collect()  # the dropped modules' garbage, outside the timed region
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; have "
                         f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    return workload, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    # One single-threaded process per workload: keep BLAS from adding
    # threads (this must happen before NumPy is first imported).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401 - imported once, outside the timed set-ups

    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous set-up's inputs first
        workload, seconds = fresh_setup(args.workload, args.seed)
        setups.append(seconds)
    setup_s = statistics.median(setups)

    log = drive(workload, workload.ops(), args.seconds, workload.min_ops)
    attempted, failed = log.attempted, log.failed
    report, lines = workload.report(log.ops, log.walls)

    print(f"workload {workload.name} seed {args.seed}: {len(log.walls)} ops, "
          f"{sum(log.walls):.3f} s timed; set-ups "
          f"{', '.join('%.3f' % s for s in setups)} s")
    for line in lines:
        print(f"  {line}")
    for name, value, unit in report:
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  ops_failed_frac = {failed / max(attempted, 1):.6g} frac")

    if args.trace:
        traced, layer_metrics, recorder = traced_phase(
            workload, log, args.seconds)
        attempted += traced.attempted
        failed += traced.failed
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        recorder.save(out / f"spans-{workload.name}.npz")
        print(f"traced {len(traced.walls)} ops, {len(recorder)} spans -> "
              f"{(out / f'spans-{workload.name}.npz').relative_to(ROOT)}")
        print("  note: generator bodies resumed by the event engine have no "
              "spans yet and count as sim self time")
        for name, unit in PER_LAYER.items():
            print(f"  {name} = {layer_metrics[name]:.6g} {unit}")
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": workload.ops_per_s(log.ops, log.walls),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
