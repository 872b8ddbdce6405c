"""Execution-timeline reconstruction and ASCII Gantt rendering.

Built from the recorded event stream, this answers "what actually overlapped?"
— the question behind the paper's §5.5 (computation/communication overlap).
Tests use it to assert overlap properties; humans use it to eyeball a
FluidiCL schedule:

    machine = build_machine(trace=True)
    runtime = FluidiCLRuntime(machine)
    ...
    print(render_gantt(extract_spans(machine.tracer)))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.recorder import EventRecorder

__all__ = ["Span", "extract_spans", "overlap_seconds", "render_gantt"]


@dataclass(frozen=True)
class Span:
    """One command's execution interval on one queue."""

    queue: str
    kind: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _label(payload: Dict) -> str:
    if "kernel" in payload:
        window = payload.get("window")
        suffix = f"{window}" if window else ""
        return f"{payload['kernel']}{suffix}"
    if "buffer" in payload:
        return f"{payload['buffer']} ({payload.get('nbytes', 0)} B)"
    if "src" in payload:
        return f"{payload['src']}->{payload['dst']}"
    return payload.get("label", "")


def extract_spans(recorder: EventRecorder,
                  kinds: Optional[List[str]] = None) -> List[Span]:
    """Queue-command execution spans, one per executed command.

    Spans come from the recorder's typed event stream (what
    ``build_machine(trace=True)`` installs as ``machine.tracer``) — the
    same stream the Chrome-trace export reads, so the ASCII Gantt and the
    JSON timeline cannot disagree.
    """
    spans = [
        Span(
            queue=es.track,
            kind=str(es.attrs.get("type", "?")),
            label=_label(es.attrs),
            start=es.start,
            end=es.end,
        )
        for es in recorder.command_spans()
    ]
    if kinds is not None:
        spans = [s for s in spans if s.kind in kinds]
    return spans


def overlap_seconds(a: Span, b: Span) -> float:
    """Length of the time interval where both spans were active."""
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def render_gantt(spans: List[Span], width: int = 72) -> str:
    """ASCII Gantt chart: one row per queue, '#' where a command ran."""
    if not spans:
        return "(empty timeline)"
    t_min = min(s.start for s in spans)
    t_max = max(s.end for s in spans)
    horizon = max(t_max - t_min, 1e-12)
    queues: Dict[str, List[Span]] = {}
    for span in spans:
        queues.setdefault(span.queue, []).append(span)
    name_width = max(len(q) for q in queues)
    lines = [
        f"{'':{name_width}}  t = [{t_min * 1e3:.3f} ms .. {t_max * 1e3:.3f} ms]"
    ]
    for queue in sorted(queues):
        cells = [" "] * width
        for span in queues[queue]:
            lo = int((span.start - t_min) / horizon * (width - 1))
            hi = int((span.end - t_min) / horizon * (width - 1))
            for i in range(lo, hi + 1):
                cells[i] = "#"
        busy = sum(s.duration for s in queues[queue])
        lines.append(
            f"{queue:{name_width}}  {''.join(cells)}  "
            f"{busy / horizon:5.0%} busy"
        )
    return "\n".join(lines)
