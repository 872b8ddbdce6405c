"""Property test: the engine drains in one global ``(key, tie, seq)`` order.

Random schedules — zero and repeated delays, all four phases, every
push path (events, timeouts, bare ``call_in_ticks`` callbacks), and
same-instant pushes made from callbacks while the queue drains — run on
the real :class:`Engine` and on a reference model kept here: one global
``heapq`` of ``(key, tie, seq)`` with ``key = ticks << 2 | phase``, one
seeded ``random()`` draw per push for ``tie`` under interleave jitter
and ``tie = 0`` without it.  The callback orders must be equal.
"""

import heapq
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Engine, Event, Phase

_US = 1e-6


#: one Event subclass per phase
_KINDS = {int(phase): type(f"_{phase.name.title()}Event", (Event,),
                           {"phase": phase, "__slots__": ()})
          for phase in Phase}

#: how a WAKE-phase node is pushed: a triggered event, a float or tick
#: timeout, or a bare ``call_in_ticks`` callback
_PATHS = ["event", "timeout", "ticks", "call"]

# (delay in µs, phase, push path, children pushed from the callback)
_DELAYS = st.sampled_from([0, 0, 0, 1, 1, 2, 5])
_LEAF = st.tuples(_DELAYS, st.integers(0, 3),
                  st.sampled_from(_PATHS), st.just(()))
_TREE = st.recursive(
    _LEAF,
    lambda kids: st.tuples(_DELAYS, st.integers(0, 3),
                           st.sampled_from(_PATHS),
                           st.lists(kids, max_size=4).map(tuple)),
    max_leaves=24,
)
_SCHEDULE = st.lists(_TREE, min_size=1, max_size=8)


def _labelled(nodes, prefix=""):
    """Attach a unique label to every node: (label, delay, phase, via, kids)."""
    return tuple(
        (f"{prefix}{i}", d, p, via, _labelled(kids, f"{prefix}{i}."))
        for i, (d, p, via, kids) in enumerate(nodes))


def _reference_order(engine, schedule, seed):
    """The model: one global heap of ``(key, tie, seq)``."""
    rng = random.Random(seed) if seed is not None else None
    heap, seq, order = [], itertools.count(), []
    now = 0

    def push(nodes):
        for label, d, phase, via, kids in nodes:
            if via == "call":
                phase = int(Phase.WAKE)  # a bare callback always wakes
            key = (now + engine.delay_ticks(d * _US)) << 2 | phase
            tie = rng.random() if rng is not None else 0
            heapq.heappush(heap, (key, tie, next(seq), label, kids))

    push(schedule)
    while heap:
        key, _tie, _seq, label, kids = heapq.heappop(heap)
        now = key >> 2
        order.append(label)
        push(kids)
    return order


def _engine_order(schedule, seed, drive):
    engine = Engine()
    if seed is not None:
        engine.set_interleave_jitter(random.Random(seed))
    order = []

    def push(nodes):
        for label, d, phase, via, kids in nodes:
            if via == "call":
                engine.call_in_ticks(
                    engine.delay_ticks(d * _US),
                    lambda label=label, kids=kids: (order.append(label),
                                                    push(kids)))
                continue
            if phase == Phase.WAKE and via == "timeout":
                event = engine.timeout(d * _US)
            elif phase == Phase.WAKE and via == "ticks":
                event = engine.timeout_ticks(engine.delay_ticks(d * _US))
            else:
                event = _KINDS[phase](engine)
            event.add_callback(
                lambda _e, label=label, kids=kids: (order.append(label),
                                                    push(kids)))
            if not event.triggered:
                event.succeed(delay=d * _US)

    push(schedule)
    if drive == "run":
        engine.run()
    elif drive == "step":
        while engine.peek_ticks() is not None:
            engine.step()
    elif drive == "run_for":
        while engine.peek_ticks() is not None:
            engine.run_for(_US)
    else:  # run(until=event): a sentinel behind every other key
        sentinel = engine.timeout(1e-3)
        engine.run(until=sentinel)
        assert engine.peek_ticks() is None
    return order, engine


@settings(max_examples=150, deadline=None)
@given(schedule=_SCHEDULE, seed=st.integers(0, 2 ** 32 - 1),
       drive=st.sampled_from(["run", "step", "run_for", "until_event"]))
def test_drain_order_matches_global_heap_model(schedule, seed, drive):
    schedule = _labelled(schedule)
    for jitter in (None, seed):
        order, engine = _engine_order(schedule, jitter, drive)
        if drive == "until_event":
            # the sentinel took the last push (and its jitter draw)
            schedule_plus = schedule + (("end", 1000, int(Phase.WAKE),
                                         "timeout", ()),)
            expected = _reference_order(engine, schedule_plus, jitter)[:-1]
        else:
            expected = _reference_order(engine, schedule, jitter)
        assert order == expected
