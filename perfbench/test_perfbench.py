"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the workloads briefly (a few ops each), so they take about a
minute; the repository's tier-1 suite does not collect them.
"""

import itertools
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import SPAN_LAYERS, Instrumentation  # noqa: E402
from percentiles import MIN_BEYOND, percentile  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from workloads import (MACHINES, WORKLOADS, CoopPaper, FuzzMixed,  # noqa: E402
                       ServeBurst)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- self-time arithmetic -------------------------------------------------------
def test_self_time_of_nested_spans():
    # root [0,100) > a [10,30), b [40,70) > c [50,60)
    start = [0, 10, 40, 50]
    end = [100, 30, 70, 60]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [50, 20, 20, 10]


def test_self_time_subtracts_the_union_of_overlapping_children_once():
    # children overlap each other, one sticks out of the parent and one
    # lies wholly outside it; the indices are shuffled on purpose
    start = [30, 0, 90, 10, 150, 200, 205]
    end = [60, 100, 120, 50, 160, 210, 209]
    parent = [1, -1, 1, 1, 1, -1, 5]
    own = self_times(start, end, parent).tolist()
    # covered: [10,60) plus [90,100) = 60 of the root's 100
    assert own[1] == 40
    assert own[5] == 10 - 4
    assert [own[i] for i in (0, 2, 3, 4, 6)] == [30, 30, 40, 10, 4]


def test_self_time_of_a_recorded_call_tree():
    recorder = SpanRecorder()
    outer, inner = recorder.name("a", "outer"), recorder.name("b", "inner")
    recorder.op_id = 0
    top = recorder.enter(outer)
    for _ in range(3):
        recorder.exit(recorder.enter(inner))
    recorder.exit(top)
    cols = recorder.columns()
    own = self_times(cols["start"], cols["end"], cols["parent"])
    assert own.sum() == cols["end"][0] - cols["start"][0]
    assert (own >= 0).all()


# -- percentiles ----------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(2 * MIN_BEYOND - 1)), 50) is None
    assert percentile(list(range(2 * MIN_BEYOND)), 50) == MIN_BEYOND - 1
    assert percentile(list(range(999)), 99) is None
    with pytest.raises(ValueError):
        percentile([1.0], 100)


# -- names ----------------------------------------------------------------------
def test_every_name_is_valid_and_listed_in_the_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in manifest["per_layer"]] == list(run.PER_LAYER)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        table = run.END_TO_END if "bound" in metric else run.PER_LAYER
        assert metric["unit"] == table[metric["name"]]
    for name in (list(WORKLOADS) + list(run.END_TO_END)
                 + list(run.PER_LAYER)):
        assert NAME.fullmatch(name), name
    for workload in WORKLOADS.values():
        assert workload.why == next(w["why"] for w in manifest["workloads"]
                                    if w["name"] == workload.name)


# -- fuzz-mixed machine coverage ------------------------------------------------
@pytest.mark.parametrize("start", [0, 7, 1000])
def test_three_presets_cover_every_app_on_every_machine(start):
    from repro.check.fuzzer import ScheduleFuzzer

    fuzzer = ScheduleFuzzer(machines=MACHINES)
    pairs = {}
    for seed in range(start, start + FuzzMixed.window):
        config = fuzzer.config(seed)
        key = (config.app, config.machine)
        pairs[key] = pairs.get(key, 0) + 1
    cycle = len(fuzzer.apps) * len(MACHINES)
    assert len(pairs) == cycle == 42
    assert set(pairs.values()) == {FuzzMixed.window // cycle}


def test_two_presets_alias_app_parity_to_machine_parity():
    from repro.check.fuzzer import ScheduleFuzzer

    fuzzer = ScheduleFuzzer(machines=("default", "cpu+2gpu"))
    seen = {(fuzzer.config(s).app, fuzzer.config(s).machine)
            for s in range(840)}
    assert len(seen) == len(fuzzer.apps)  # half of the 28 pairs never occur


# -- the workloads --------------------------------------------------------------
#: ops per cut-down run: one cycle of the paper apps, two of the
#: extended suite, one serve run
SMALL_OPS = {"coop-paper": 6, "fuzz-mixed": 28, "serve-burst": 1}


def _small(name, seed):
    """A workload instance cut down to a few ops."""
    workload = WORKLOADS[name](seed)
    if isinstance(workload, FuzzMixed):
        workload.window = workload.min_ops = SMALL_OPS[name]
    return workload


def _run(workload):
    workload.setup()
    ops = itertools.islice(workload.ops(), SMALL_OPS[workload.name])
    return run.drive(workload, ops, math.inf, 0)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    workload = _small(request.param, 3)
    log = _run(workload)
    traced_log, metrics, _recorder = run.traced_phase(workload, log, math.inf)
    return workload, log, traced_log, metrics


def test_traced_run_reports_every_per_layer_metric(traced):
    _workload, log, traced_log, metrics = traced
    assert set(metrics) == set(run.PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values())
    assert log.failed == 0 and traced_log.failed == 0


def test_self_fracs_sum_to_one(traced):
    _workload, _log, _traced, metrics = traced
    total = sum(metrics[f"{layer}.self_frac"] for layer in SPAN_LAYERS)
    total += metrics["unattributed.self_frac"]
    assert total == pytest.approx(1.0, abs=1e-9)


def test_traced_run_confirms_the_workload_design(traced):
    workload, _log, _traced, m = traced
    if isinstance(workload, CoopPaper):
        assert m["ocl.self_frac"] + m["kernels.self_frac"] \
            > 5 * m["sim.self_frac"]
        assert m["kernels.body_calls"] > 0 and m["ocl.copy_bytes"] > 0
    elif isinstance(workload, ServeBurst):
        assert m["kernels.body_calls"] == 0
        assert m["ocl.copy_bytes"] == 0
        assert m["serve.jobs"] > 0 and m["check.checks"] > 0
    else:
        assert m["analysis.self_s"] > 0 and m["check.checks"] > 0


def test_instrumentation_restores_every_attribute():
    from repro.ocl.buffer import Buffer
    from repro.sim.core import Engine

    before = (Engine.run, Buffer.write_from, vars(Buffer).get("__init__"))
    inst = Instrumentation(SpanRecorder()).install()
    assert Engine.run is not before[0]
    inst.uninstall()
    assert (Engine.run, Buffer.write_from,
            vars(Buffer).get("__init__")) == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_second_seed_changes_the_digest_and_still_passes(name):
    digests = []
    for seed in (1, 2):
        workload = _small(name, seed)
        log = _run(workload)
        assert log.attempted > 0 and log.failed == 0
        _metrics, lines = workload.report(log.ops, log.walls)
        digest = [line for line in lines if line.startswith("digest: ")]
        assert len(digest) == 1
        digests.append(digest[0])
    assert digests[0] != digests[1]


def test_slo_met_frac_counts_shed_requests_as_misses():
    class Report:
        tenants = {"a": {"slo_attainment": 1.0, "completed": 60.0},
                   "b": {"slo_attainment": 0.5, "completed": 20.0}}
        totals = {"submitted": 100.0}

    assert ServeBurst.slo_met_frac(Report()) == pytest.approx(0.7)


def test_outside_a_checkout_the_command_fails_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fuzz-mixed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wrong_outputs_fail_the_reference_check():
    workload = _small("coop-paper", 0)
    workload.setup()
    result = workload.run("bicg")
    for key in result.outputs:
        result.outputs[key] = result.outputs[key] * np.float32(2.0)
    assert workload.check("bicg", result) == (1, 1)
