"""The engine's trace hook: ``Engine.trace`` feeds the one event stream
(:class:`~repro.obs.recorder.EventRecorder`)."""

from repro.obs.recorder import EventRecorder
from repro.sim.core import Engine


class TestTracer:
    def test_records_accumulate_in_order(self):
        engine = Engine(tracer=EventRecorder())
        engine.trace("a", k=1)
        engine.run_for(1e-6)
        engine.trace("b", k=2)
        events = engine.tracer.events
        assert [e.category for e in events] == ["a", "b"]
        assert [e.ts for e in events] == [0.0, engine.now]
        assert [e.attrs["k"] for e in events] == [1, 2]

    def test_payload_copied(self):
        recorder = EventRecorder()
        payload = {"k": 1}
        recorder.record(0.0, "x", payload)
        payload["k"] = 99
        assert recorder.events[0].attrs["k"] == 1

    def test_clear(self):
        engine = Engine(tracer=EventRecorder())
        engine.trace("x")
        engine.tracer.clear()
        assert engine.tracer.events == []

    def test_untraced_engine_records_nothing(self):
        engine = Engine()
        engine.trace("x", k=1)
        assert engine.tracer is None
