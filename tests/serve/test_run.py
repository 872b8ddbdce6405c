"""End-to-end serving scenarios: ServeConfig -> run_serve -> ServeReport."""

import gc
import json
import weakref

import pytest

import repro.serve.run as serve_run
from repro.serve.job import JobRejected
from repro.serve.run import ServeConfig, run_serve
from repro.serve.workload import TenantSpec


def small(**overrides):
    """A cheap scenario: one profiled app, small budget."""
    base = dict(seed=0, requests=60, n_tenants=2)
    base.update(overrides)
    return ServeConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(requests=0)
        with pytest.raises(ValueError):
            ServeConfig(arrival="uniform")
        with pytest.raises(ValueError):
            ServeConfig(utilization=0.0)

    def test_explicit_tenants_override_the_default_mix(self):
        spec = (TenantSpec("acme", "bicg", 64),)
        assert ServeConfig(tenants=spec).resolve_tenants() == spec

    def test_default_mix_is_seeded(self):
        assert (ServeConfig(seed=4).resolve_tenants()
                == ServeConfig(seed=4).resolve_tenants())


class TestRunServe:
    def test_report_shape_and_conservation(self):
        report = run_serve(small())
        assert set(report.tenants) == {"tenant0", "tenant1"}
        totals = report.totals
        assert totals["submitted"] == 60
        assert totals["admitted"] + totals["shed"] == totals["submitted"]
        assert totals["completed"] + totals["failed"] == totals["admitted"]
        assert report.ok and not report.violations
        assert report.checks > 0
        assert report.simulated_seconds > 0

    def test_same_config_bit_identical(self):
        first = run_serve(small())
        second = run_serve(small())
        assert first.digest == second.digest
        assert first.tenants == second.tenants
        assert first.simulated_seconds == second.simulated_seconds

    def test_different_seed_different_digest(self):
        assert run_serve(small()).digest != run_serve(small(seed=1)).digest

    def test_overload_sheds_but_conserves(self):
        report = run_serve(small(requests=150, utilization=3.0,
                                 max_queue_depth=2, max_inflight=1))
        totals = report.totals
        assert totals["shed"] > 0
        assert totals["admitted"] + totals["shed"] == totals["submitted"]
        assert report.ok
        assert 0.0 < totals["shed_rate"] <= 1.0

    def test_faults_compose(self):
        report = run_serve(small(fault_seed=1, fault_n=2))
        assert report.faults_injected == 2
        assert report.ok

    def test_jitter_seed_keeps_invariants(self):
        assert run_serve(small(jitter_seed=9)).ok

    def test_closed_loop(self):
        report = run_serve(small(arrival="closed", clients=4))
        # closed-loop clients wait for completion: nothing is ever shed
        assert report.totals["shed"] == 0
        assert report.totals["completed"] == 60

    def test_to_json_is_serializable(self):
        report = run_serve(small())
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["ok"] is True
        assert blob["digest"] == report.digest
        assert blob["config"]["requests"] == 60
        assert {t["name"] for t in blob["config"]["tenants"]} \
            == {"tenant0", "tenant1"}

    def test_format_table_mentions_every_tenant(self):
        report = run_serve(small())
        table = report.format_table()
        assert "tenant0" in table and "tenant1" in table
        assert "digest:" in table and "submitted" in table

    def test_trace_path_writes_chrome_trace(self, tmp_path):
        path = tmp_path / "serve.json"
        run_serve(small(requests=20), trace_path=str(path))
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("name") == "job_done" for e in events)


class TestFreedByRefcount:
    """A finished run is freed by reference counting alone: the server
    and its job records sit on no reference cycle the cyclic GC would
    have to find."""

    @pytest.mark.parametrize("overrides", [
        dict(arrival="poisson"),
        dict(arrival="closed", jitter_seed=3),
        dict(arrival="burst", fault_seed=2, fault_n=4, max_queue_depth=2),
    ], ids=["poisson", "closed-jitter", "burst-faults-shed"])
    def test_server_and_records_die_with_the_run(self, monkeypatch,
                                                 overrides):
        config = small(**overrides)
        run_serve(config)  # measure (and cache) the profiles first
        refs = []

        class Watched(serve_run.Server):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

            def submit(self, job):
                try:
                    record = super().submit(job)
                except JobRejected as rejection:
                    refs.append(weakref.ref(rejection.record))
                    raise
                refs.append(weakref.ref(record))
                return record

        monkeypatch.setattr(serve_run, "Server", Watched)
        gc.collect()
        gc.disable()
        try:
            report = run_serve(config)
            alive = [ref() for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert report.totals["submitted"] == config.requests
        assert len(refs) == config.requests + 1
        assert alive == []
