"""The monitor's violation texts and check counts, pinned byte for byte.

Every check counts once whether or not it fails, and a violation's text
is built only when its check fails; these tests hold both to the values
the monitor produced when it formatted every message eagerly.
"""

import pytest

from repro.check.fuzzer import CORRUPTION_KINDS, FuzzConfig, run_config
from repro.check.monitor import CoherenceMonitor, InvariantViolationError
from repro.obs.recorder import EventRecorder

#: corruption kind -> (checks, violation texts) on gesummv, seed 0
CORRUPTED = {
    "overlap-window": (68, [
        "cpu-front-partition [k4] @ 0.000150s: window [0, 2) does not "
        "continue the worker front at 0 (gap or overlap in the flattened "
        "range)",
        "front-partition [k4] @ 0.000419s: worker-front windows overlap "
        "across fronts",
        "front-partition [k4] @ 0.000419s: fronts claimed 4 groups but "
        "descended to 0 of 2 (every flattened ID must be claimed exactly "
        "once)",
    ]),
    "stale-read": (67, [
        "stale-read [buffer 'y'] @ 0.000419s: read served version -1, but "
        "version 4 was already committed",
    ]),
    "frontier-jump": (69, [
        "frontier-monotonicity [k4] @ 0.000363s: accepted frontier 0 does "
        "not decrease (previous 0)",
    ]),
}

SERVE_STREAM_VIOLATIONS = [
    "clock-monotonicity @ 1.000000s: job_admitted at 1.0s observed after "
    "an event at 2.0s (simulated clock ran backwards)",
    "serve-accounting @ 3.000000s: job_done for job 1 in state 'admitted' "
    "(expected 'started')",
    "serve-accounting @ 4.000000s: job id 1 submitted twice",
    "serve-accounting @ 5.000000s: tenant 'acme' started job 3 ahead of "
    "its earlier admitted job 1 (per-tenant FIFO order broken)",
    "serve-accounting @ 6.000000s: job_shed for job 9 in state None "
    "(expected 'submitted')",
    "serve-accounting @ 0.000000s: job 1 was submitted but neither "
    "admitted nor shed (admission conservation broken)",
    "serve-accounting @ 0.000000s: job 2 ended the run in state "
    "'admitted' (admitted but never finished)",
    "serve-accounting @ 0.000000s: job 3 ended the run in state 'started' "
    "(admitted but never finished)",
    "serve-accounting @ 0.000000s: job 4 was submitted but neither "
    "admitted nor shed (admission conservation broken)",
]


@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
def test_corrupted_run_reports_the_same_violations(kind):
    result = run_config(
        FuzzConfig(seed=0, app="gesummv", size=64, corruption=kind))
    checks, texts = CORRUPTED[kind]
    assert [str(v) for v in result.violations] == texts
    assert result.checks == checks


def _feed_broken_serve_stream(monitor):
    recorder = EventRecorder()
    monitor.attach(recorder)

    def job(ts, category, job_id):
        recorder.record(ts, category, {"job_id": job_id, "tenant": "acme"})

    job(2.0, "job_submitted", 1)
    job(1.0, "job_admitted", 1)   # the clock runs backwards
    job(3.0, "job_done", 1)       # done without starting
    job(4.0, "job_submitted", 1)  # a reused id
    for job_id in (2, 3):
        job(5.0, "job_submitted", job_id)
        job(5.0, "job_admitted", job_id)
    job(5.0, "job_started", 3)    # ahead of job 2
    job(6.0, "job_submitted", 4)  # never admitted nor shed
    job(6.0, "job_shed", 9)       # never submitted
    monitor.final_check()


def test_serve_stream_reports_the_same_violations():
    monitor = CoherenceMonitor()
    _feed_broken_serve_stream(monitor)
    assert [str(v) for v in monitor.violations] == SERVE_STREAM_VIOLATIONS
    assert monitor.checks == 27


def test_strict_monitor_raises_the_first_violation():
    with pytest.raises(InvariantViolationError) as excinfo:
        _feed_broken_serve_stream(CoherenceMonitor(strict=True))
    assert str(excinfo.value) == SERVE_STREAM_VIOLATIONS[0]
