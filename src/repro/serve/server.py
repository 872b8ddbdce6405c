"""The serving core: queues, admission control, weighted-fair dispatch.

One :class:`Server` runs on the machine's existing engine.  The moving
parts mirror a production inference/serving stack, scaled down to the
paper's node:

* **Admission** — :meth:`Server.submit` either enqueues the job on its
  tenant's FIFO queue (``job_admitted``) or sheds it with a typed
  :class:`~repro.serve.job.JobRejected` when the queue is at its bounded
  depth (``job_shed``).  Every submission resolves to exactly one of the
  two at the submission instant, so admission conservation
  (``admitted + shed = submitted``) is checkable per event.
* **Dispatch** — a single dispatcher process drains the per-tenant queues
  in weighted-fair order (virtual-finish-time WFQ; within one tenant the
  order is strictly FIFO).  It wakes through a
  :class:`~repro.sim.resources.Channel` armed with the
  ``Channel.CLOSED`` sentinel, so queue shutdown is unambiguous even
  when ``None``-ish signal payloads are in flight.
* **Execution** — each dispatched job runs a staged pipeline: an
  overlappable host stage, per-device H2D DMA (each device's ``h2d``
  lane serializes its own transfers), the cooperative compute (the job
  acquires every participating device front *in device order* — one
  cooperative run per front at a time, exactly how the real runtime owns
  the devices — while other jobs' host/DMA stages proceed underneath),
  then per-device D2H DMA.  Every stage's duration is known when it
  starts, so a job is not a process: it is a :class:`_JobRun` whose
  stages chain as :meth:`~repro.sim.core.Engine.call_in_ticks`
  callbacks, plus callbacks on the lane/front requests and stall waits
  it blocks on.  Processes stay where a coroutine reads better: the
  dispatcher, the arrival generators and closed-loop clients.  Stage
  durations come from the job's
  :class:`~repro.serve.profile.AppProfile`; device health is consulted
  live, so losses shrink the surviving work share, stalls park the
  compute stage, link degradation stretches DMA and injected transfer
  faults trigger bounded retry/backoff — the PR 2 injector composes
  unchanged (the server quacks like a runtime: ``engine``, ``platform``,
  ``gpu_device``/``cpu_device``, ``stats.extra``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.hw.machine import Machine
from repro.obs.metrics import MetricsRegistry
from repro.ocl.platform import Platform
from repro.serve.job import Job, JobRecord, JobRejected
from repro.serve.profile import AppProfile
from repro.sim.core import SimError
from repro.sim.resources import Channel
from repro.sim.sync import Gate
from repro.sim.timebase import from_ticks

__all__ = ["Server", "ServerStats"]


class ServerStats:
    """Counters, histograms and exact latency ledgers of one serving run."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        #: injector compatibility: ``server.stats.extra["faults_injected"]``
        self.extra = self.metrics.counter_view()
        self.extra["faults_injected"] = 0
        #: per-tenant exact completion latencies in ticks (report-grade
        #: percentiles; the obs histograms keep a bounded sample window)
        self.latency_ticks: Dict[str, List[int]] = {}
        #: per-tenant SLO-attained completion counts
        self.attained: Dict[str, int] = {}
        #: per-tenant high-water queue depth
        self.peak_depth: Dict[str, int] = {}

    def _count(self, name: str, tenant: str) -> None:
        self.metrics.counter(f"serve.{name}").inc()
        self.metrics.counter(f"serve.{tenant}.{name}").inc()

    def tenant_counts(self, tenant: str) -> Dict[str, int]:
        counters = self.metrics.counters
        out = {}
        for name in ("submitted", "admitted", "shed", "completed", "failed"):
            counter = counters.get(f"serve.{tenant}.{name}")
            out[name] = counter.value if counter is not None else 0
        return out


class Server:
    """Multi-tenant serving of cooperative jobs on one simulated machine."""

    def __init__(self, machine: Machine,
                 profiles: Mapping[Tuple[str, int], AppProfile],
                 max_queue_depth: int = 64,
                 max_inflight: int = 4,
                 weights: Optional[Mapping[str, float]] = None):
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.machine = machine
        self.engine = machine.engine
        self.platform = Platform(machine)
        self.profiles = dict(profiles)
        self.max_queue_depth = max_queue_depth
        self.max_inflight = max_inflight
        self.weights = dict(weights or {})
        self.stats = ServerStats()
        self._queues: Dict[str, Deque[JobRecord]] = {}
        self._signal = Channel(self.engine, name="serve:dispatch",
                               close_value=Channel.CLOSED)
        self._slot_free = Gate(self.engine, name="serve:slot")
        self._inflight = 0
        self._intake_closed = False
        #: WFQ bookkeeping: per-tenant virtual finish time + global clock
        self._finish: Dict[str, float] = {}
        self._vclock = 0.0
        self._dispatcher = self.engine.process(
            self._dispatch_loop(), name="serve:dispatcher"
        )

    # -- injector compatibility (the server quacks like a runtime) ---------
    @property
    def gpu_device(self):
        try:
            return self.platform.gpu
        except LookupError:
            return self.platform.devices[0]

    @property
    def cpu_device(self):
        try:
            return self.platform.cpu
        except LookupError:
            return self.platform.devices[-1]

    # -- queue introspection ------------------------------------------------
    def queue_depth(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0

    @property
    def inflight(self) -> int:
        return self._inflight

    # -- admission -----------------------------------------------------------
    def submit(self, job: Job) -> JobRecord:
        """Admit or shed ``job``; returns the admitted record or raises
        :class:`JobRejected` (the shed record rides on the exception)."""
        if self._intake_closed:
            raise SimError("submit after the server's intake was closed")
        if (job.app, job.size) not in self.profiles:
            raise KeyError(
                f"no profile for {job.app}@{job.size}; measure it first")
        engine = self.engine
        now = engine.now_ticks
        record = JobRecord(job=job, submitted_ticks=now)
        self.stats._count("submitted", job.tenant)
        engine.trace("job_submitted", job_id=job.job_id, tenant=job.tenant,
                     app=job.app, size=job.size, slo=job.slo)
        queue = self._queues.setdefault(job.tenant, deque())
        if len(queue) >= self.max_queue_depth:
            record.outcome = "shed"
            self.stats._count("shed", job.tenant)
            engine.trace("job_shed", job_id=job.job_id, tenant=job.tenant,
                         reason="queue-full", depth=len(queue))
            raise JobRejected(record, "queue-full")
        record.admitted_ticks = now
        record.done_event = engine.event(f"job-done:{job.job_id}")
        queue.append(record)
        depth = len(queue)
        peak = self.stats.peak_depth
        if depth > peak.get(job.tenant, 0):
            peak[job.tenant] = depth
        self.stats.metrics.gauge(f"serve.{job.tenant}.queue_depth").set(depth)
        self.stats._count("admitted", job.tenant)
        engine.trace("job_admitted", job_id=job.job_id, tenant=job.tenant,
                     depth=depth)
        self._signal.put(job.tenant)
        return record

    def close_intake(self) -> None:
        """No more submissions; the dispatcher drains what is queued and
        then terminates.  Idempotent."""
        if self._intake_closed:
            return
        self._intake_closed = True
        self._signal.close()

    # -- weighted-fair dispatch ----------------------------------------------
    def _backlogged(self) -> bool:
        return any(self._queues.values())

    def _pick_next(self) -> JobRecord:
        """Start-time fair queueing across backlogged tenants.

        Each backlogged tenant's head job carries virtual start tag
        ``max(finish[t], v)`` — own previous finish while backlogged, the
        global virtual clock when returning from idle (no hoarded
        credit).  The minimum start tag is served, ``v`` advances to it,
        and the tenant's finish advances by ``1/weight`` — so under
        backlog, service rates converge to the weights.  Ties break on
        tenant name, keeping same-instant dispatch deterministic.
        """
        best_tenant = None
        best_start = 0.0
        for tenant in sorted(self._queues):
            if not self._queues[tenant]:
                continue
            start = max(self._finish.get(tenant, 0.0), self._vclock)
            if best_tenant is None or start < best_start:
                best_tenant, best_start = tenant, start
        assert best_tenant is not None
        self._vclock = best_start
        self._finish[best_tenant] = (
            best_start + 1.0 / self.weights.get(best_tenant, 1.0))
        record = self._queues[best_tenant].popleft()
        self.stats.metrics.gauge(
            f"serve.{best_tenant}.queue_depth"
        ).set(len(self._queues[best_tenant]))
        return record

    def _dispatch_loop(self):
        engine = self.engine
        while True:
            while not self._backlogged():
                if self._intake_closed:
                    return
                message = yield self._signal.get()
                if message is Channel.CLOSED and not self._backlogged():
                    return
            while self._inflight >= self.max_inflight:
                yield self._slot_free.wait()
            record = self._pick_next()
            self._inflight += 1
            job = record.job
            record.started_ticks = engine.now_ticks
            engine.trace("job_started", job_id=job.job_id, tenant=job.tenant,
                         app=job.app, inflight=self._inflight)
            engine.call_in_ticks(0, _JobRun(self, record).start)

    # -- job execution pipeline ----------------------------------------------
    def _alive_devices(self):
        return [d for d in self.platform.devices if not d.health.lost]

    def _finish_job(self, record: JobRecord, outcome: str) -> None:
        engine = self.engine
        job = record.job
        record.done_ticks = engine.now_ticks
        record.outcome = outcome
        latency_ticks = record.latency_ticks or 0
        stats = self.stats
        if outcome == "done":
            stats._count("completed", job.tenant)
            stats.latency_ticks.setdefault(job.tenant, []).append(
                latency_ticks)
            stats.metrics.histogram(f"serve.{job.tenant}.latency_ms").observe(
                from_ticks(latency_ticks) * 1e3)
            if record.slo_attained:
                stats.attained[job.tenant] = (
                    stats.attained.get(job.tenant, 0) + 1)
        else:
            stats._count("failed", job.tenant)
        engine.trace("job_done", job_id=job.job_id, tenant=job.tenant,
                     outcome=outcome, latency=from_ticks(latency_ticks))
        self._inflight -= 1
        self._slot_free.fire(self._inflight)
        if record.done_event is not None:
            # no value: a record-valued event would be a reference cycle
            # (record -> event -> record), left to the cyclic GC
            record.done_event.succeed()


def _noop() -> None:
    pass


class _JobRun:
    """One dispatched job's stages, run as a chain of calendar callbacks.

    Each stage's duration is known when it starts, so each hop is one
    :meth:`~repro.sim.core.Engine.call_in_ticks` push, or a callback on
    the resource request or stall wait the stage blocks on.
    """

    __slots__ = ("server", "record", "profile", "_then", "_pending",
                 "_todo", "_held", "_alive", "_duration")

    def __init__(self, server: Server, record: JobRecord):
        self.server = server
        self.record = record
        job = record.job
        self.profile = server.profiles[(job.app, job.size)]

    def start(self) -> None:
        # Host stage: overlappable preparation (API calls, scheduling).
        host = self.profile.host_seconds
        if host > 0.0:
            engine = self.server.engine
            engine.call_in_ticks(engine.delay_ticks(host), self._h2d)
        else:
            self._h2d()

    def _h2d(self) -> None:
        self._transfer("h2d", self.profile.h2d_bytes, self._acquire_fronts)

    def _transfer(self, direction: str, nbytes: Mapping[str, int],
                  then) -> None:
        """DMA to (or from) every live device concurrently, then ``then()``
        one hop after the last transfer ends; each device's lane
        serializes its own transfers across jobs."""
        dmas = [_Dma(self, device, direction, nbytes[device.name])
                for device in self.server._alive_devices()
                if nbytes.get(device.name, 0) > 0]
        if not dmas:
            then()
            return
        self._then = then
        self._pending = len(dmas)
        call = self.server.engine.call_in_ticks
        for dma in dmas:
            call(0, dma.start)

    def _dma_done(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            # hand the continuation over: kept here, a bound method of
            # this run would make the run a reference cycle
            then, self._then = self._then, None
            self.server.engine.call_in_ticks(0, then)

    def _acquire_fronts(self) -> None:
        # Cooperative compute: own every participating front, in fixed
        # device order (deadlock-free), one cooperative run at a time per
        # front.  BackgroundLoad and serve jobs contend on the same
        # per-device compute resources.
        self._todo = self.server._alive_devices()
        self._held = []
        self._acquire_next()

    def _acquire_next(self, _granted=None) -> None:
        if self._todo:
            device = self._todo.pop(0)
            request = device.compute.request()
            self._held.append((device, request))
            request.add_callback(self._acquire_next)
            return
        self._todo = [device for device, _request in self._held]
        self._alive = []
        self._await_ready()

    def _await_ready(self, _woken=None) -> None:
        """Wait out each held front's stall in turn; fronts lost
        meanwhile drop out of the run."""
        todo = self._todo
        while todo:
            health = todo[0].health
            wait = health.stall_wait()
            if wait is not None:
                wait.add_callback(self._await_ready)
                return
            device = todo.pop(0)
            if not health.lost:
                self._alive.append(device)
        self._compute()

    def _compute(self) -> None:
        alive = self._alive
        profile = self.profile
        scale = profile.compute_scale(tuple(d.name for d in alive))
        if not alive or scale <= 0.0:
            self.server._finish_job(self.record, "failed")
            self._release_fronts()
            self._end()
            return
        self._duration = profile.compute_seconds / scale
        engine = self.server.engine
        engine.call_in_ticks(engine.delay_ticks(self._duration),
                             self._computed)

    def _computed(self) -> None:
        duration = self._duration
        for device in self._alive:
            device.stats["busy_compute_time"] += duration
            device.health.beat()
        self._release_fronts()
        # D2H DMA of the results.
        self._transfer("d2h", self.profile.d2h_bytes, self._done)

    def _release_fronts(self) -> None:
        for device, request in self._held:
            device.compute.release(request)

    def _done(self) -> None:
        self.server._finish_job(self.record, "done")
        self._end()

    def _end(self) -> None:
        # One last no-op hop where a job process's own completion event
        # stood: under interleave jitter every push draws a tie-break, and
        # keeping this one keeps jittered schedules as they were.
        self.server.engine.call_in_ticks(0, _noop)


class _Dma:
    """One DMA stage on ``device``'s ``h2d``/``d2h`` lane, honouring
    injected transfer faults with the runtime's bounded retry policy."""

    __slots__ = ("run", "device", "direction", "nbytes", "request",
                 "attempt")

    def __init__(self, run: _JobRun, device, direction: str, nbytes: int):
        self.run = run
        self.device = device
        self.direction = direction
        self.nbytes = nbytes
        self.attempt = 0

    def start(self) -> None:
        self.request = getattr(self.device, self.direction).request()
        self.request.add_callback(self._attempt)

    def _attempt(self, _granted=None) -> None:
        device = self.device
        health = device.health
        engine = self.run.server.engine
        if not health.lost:
            if not health.take_transfer_fault(self.direction):
                engine.call_in_ticks(
                    engine.delay_ticks(device.transfer_time(self.nbytes)),
                    self._transferred)
                return
            self.attempt += 1
            health.transfer_retries += 1
            engine.trace("fault_retry", kind="transfer", device=device.name,
                         direction=self.direction, attempt=self.attempt)
            if self.attempt <= health.max_transfer_retries:
                engine.call_in_ticks(
                    engine.delay_ticks(
                        health.retry_backoff * (2 ** (self.attempt - 1))),
                    self._attempt)
                return
            health.declare_lost(f"{self.direction} retries exhausted")
        self._release()

    def _transferred(self) -> None:
        device = self.device
        device.stats[f"bytes_{self.direction}"] += self.nbytes
        device.health.beat()
        self._release()

    def _release(self) -> None:
        getattr(self.device, self.direction).release(self.request)
        self.run.server.engine.call_in_ticks(0, self.run._dma_done)
