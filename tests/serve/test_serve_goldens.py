"""Golden serve runs: digests, monitor check counts and totals, pinned.

Each :class:`ServeConfig` below replays bit-identically run over run, so
its :attr:`ServeReport.digest` (every job's lifecycle ticks), a digest
of its whole event stream, the monitor's ``checks`` count and the report
``totals`` pin the serve pipeline's event order exactly: a refactor of
the dispatcher or the job stages that moves one event by one tick, or
reorders two same-instant events under jitter, changes a digest here.

The nine small configs cover {poisson, burst, closed} x {default,
cpu+2gpu, big.little}; seven run with interleave jitter and four with a
seeded fault schedule, which between them take every fault path of the
job pipeline (transfer retry, stall wait, device loss, all devices
lost).  The tenth is the serve-burst mix of ``perfbench`` at 1000
requests.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.serve.run as serve_run
from repro.polybench.suite import SCALES
from repro.serve.run import ServeConfig, run_serve
from repro.serve.workload import TenantSpec
from repro.sim.core import Engine

_TEST = SCALES["test"]

#: the serve-burst workload's fixed tenant mix (``perfbench/workloads.py``)
BURST_TENANTS = (
    TenantSpec("gesummv", "gesummv", _TEST["gesummv"], "interactive",
               weight=2.0),
    TenantSpec("bicg", "bicg", _TEST["bicg"], "batch"),
    TenantSpec("spmv", "spmv", _TEST["spmv"], "interactive"),
    TenantSpec("scan", "scan", _TEST["scan"], "best-effort"),
)

CONFIGS = {
    "poisson-default-faults": ServeConfig(
        seed=1, requests=200, arrival="poisson", utilization=0.9,
        fault_seed=0, fault_n=4, jitter_seed=100),
    "poisson-cpu2gpu-overload": ServeConfig(
        seed=2, requests=250, arrival="poisson", utilization=1.3,
        machine="cpu+2gpu", max_queue_depth=4, jitter_seed=7),
    "poisson-biglittle-plain": ServeConfig(
        seed=3, requests=200, arrival="poisson", utilization=0.7,
        machine="big.little", n_tenants=4),
    "burst-default-faults": ServeConfig(
        seed=4, requests=200, arrival="burst", utilization=0.9,
        fault_seed=3, fault_n=4, jitter_seed=103),
    "burst-cpu2gpu-faults": ServeConfig(
        seed=5, requests=200, arrival="burst", utilization=0.9,
        machine="cpu+2gpu", max_inflight=2, fault_seed=2, fault_n=4,
        jitter_seed=102),
    "burst-biglittle-overload": ServeConfig(
        seed=6, requests=300, arrival="burst", utilization=1.2,
        burst_factor=6.0, on_fraction=0.2, machine="big.little",
        max_queue_depth=8, jitter_seed=11),
    "closed-default-plain": ServeConfig(
        seed=7, requests=200, arrival="closed", utilization=0.8, clients=4),
    "closed-cpu2gpu-wide": ServeConfig(
        seed=8, requests=250, arrival="closed", utilization=1.1, clients=12,
        max_inflight=8, machine="cpu+2gpu", jitter_seed=13),
    "closed-biglittle-faults": ServeConfig(
        seed=9, requests=200, arrival="closed", utilization=0.9,
        machine="big.little", fault_seed=2, fault_n=4, jitter_seed=102),
    "serve-burst-mix": ServeConfig(
        seed=0, requests=1000, arrival="burst", utilization=0.9,
        tenants=BURST_TENANTS),
}


def _totals(submitted, admitted, shed, completed, failed):
    return {"submitted": submitted, "admitted": admitted, "shed": shed,
            "completed": completed, "failed": failed}


#: name -> (report digest, event-stream digest prefix, monitor checks,
#: totals, faults injected)
GOLDENS = {
    "poisson-default-faults": (
        "46a4b0749bde5e08646d4d67423c7fd04cc2354d255e62737d9f750e3cd55d7d",
        "74ca66e3e41e3194",
        1806, _totals(200, 200, 0, 200, 0), 4),
    "poisson-cpu2gpu-overload": (
        "1289e3ae6a44966db7ddc3e402cd0d57a94942793e19a247a09bfeeae2dd6b89",
        "999a3dbe5c843a56",
        1900, _totals(250, 180, 70, 180, 0), 0),
    "poisson-biglittle-plain": (
        "93af80d76f908d633e35f38493f51267576c8cd227c734b6234acdf3c49b3947",
        "8dd31393c46a3b62",
        1800, _totals(200, 200, 0, 200, 0), 0),
    "burst-default-faults": (
        "d6ec7b0940d9ab8bf1ba308c5d9eee4493eea9c6075055ba9390cbf9e5bcea46",
        "08246814e248da78",
        1804, _totals(200, 200, 0, 114, 86), 4),
    "burst-cpu2gpu-faults": (
        "fa9619d914f4704991561b3a598cd9577af9ffe5dc55f26847fe739a039f7925",
        "200fd1eb78e9e0a1",
        1807, _totals(200, 200, 0, 200, 0), 4),
    "burst-biglittle-overload": (
        "8805e4ff9e7707e941e9f0a103a0de9591fbcad748903652ef31588bd4202abb",
        "f7d6c97478e044e7",
        1805, _totals(300, 121, 179, 121, 0), 0),
    "closed-default-plain": (
        "55b29fcf18d7d0941f49f8f9876e02bf70e397ae5c141212dfef1e0bc455bb47",
        "d4e57bbc6c62f908",
        1800, _totals(200, 200, 0, 200, 0), 0),
    "closed-cpu2gpu-wide": (
        "825685b90d282d81ef0ec086a981b6667db2b69facb5ece13531fb1391691e2f",
        "2601c430fa8e4829",
        2250, _totals(250, 250, 0, 250, 0), 0),
    "closed-biglittle-faults": (
        "eb3975ec9283bbeaf99c2bedcf14f5141219e9f2248e9dce5e5f2ed0ccbd6f71",
        "a0cd3c16ba2b9daa",
        1807, _totals(200, 200, 0, 200, 0), 4),
    "serve-burst-mix": (
        "93a37c544ceedf7183845ec8a7b25db2359c5168bc85dcae9857967799ab2c74",
        "3f6c91788ea897f4",
        8945, _totals(1000, 989, 11, 989, 0), 0),
}


def _probed_run(monkeypatch, config):
    """Run ``config``; also digest its event stream and report which fault
    paths the job stages took.

    The report digest sees only each job's outcome and end tick; the
    stream digest also sees the order of same-instant events.  Only the
    stall wait calls ``Engine.any_of`` on the server's engine (profile
    measurement runs on engines of its own), so counting those calls
    counts the stall waits.
    """
    servers = []
    stream = hashlib.sha256()

    def digest_event(event):
        stream.update(f"{event.ts!r}|{event.category}|"
                      f"{sorted(event.attrs.items())!r}\n".encode())

    class Captured(serve_run.Server):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.engine.tracer.add_listener(digest_event)
            servers.append(self)

    stall_waits = [0]
    any_of = Engine.any_of

    def counting_any_of(engine, events):
        if servers and engine is servers[-1].engine:
            stall_waits[0] += 1
        return any_of(engine, events)

    monkeypatch.setattr(serve_run, "Server", Captured)
    monkeypatch.setattr(Engine, "any_of", counting_any_of)
    report = run_serve(config)
    health = [d.health for d in servers[-1].platform.devices]
    paths = {
        "retries": sum(h.transfer_retries for h in health),
        "lost": sum(h.lost for h in health),
        "stall_waits": stall_waits[0],
        "stream": stream.hexdigest()[:16],
    }
    return report, paths


def test_configs_span_the_axes():
    small = [c for name, c in CONFIGS.items() if name != "serve-burst-mix"]
    assert {(c.arrival, c.machine) for c in small} == {
        (a, m) for a in ("poisson", "burst", "closed")
        for m in ("default", "cpu+2gpu", "big.little")}
    assert sum(c.jitter_seed is not None for c in small) >= 6
    assert sum(c.fault_seed is not None for c in small) >= 3


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_serve_run_matches_golden(name, monkeypatch):
    report, paths = _probed_run(monkeypatch, CONFIGS[name])
    digest, stream, checks, totals, faults = GOLDENS[name]
    assert report.ok, report.violations
    assert report.digest == digest
    assert paths["stream"] == stream
    assert report.checks == checks
    assert {k: report.totals[k] for k in totals} == totals
    assert report.faults_injected == faults


def test_faulted_goldens_take_every_fault_path(monkeypatch):
    seen = {"retries": 0, "lost": 0, "stall_waits": 0}
    all_lost = 0
    for config in CONFIGS.values():
        if config.fault_seed is None:
            continue
        report, paths = _probed_run(monkeypatch, config)
        assert report.faults_injected > 0
        for key in seen:
            seen[key] += paths[key]
        all_lost += report.totals["failed"] > 0
    assert all(count > 0 for count in seen.values()), seen
    # one run loses every device, so jobs fail with nothing left to run on
    assert all_lost >= 1
