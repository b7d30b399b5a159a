"""The event recorder: the engine-side half of the observability layer.

A :class:`Recorder` is attached to a machine (or a bare flow network /
environment) and receives hook calls from the simulator's hot paths:
flow transitions and per-link bandwidth-share changes from
:class:`~repro.sim.flows.FlowNetwork`, copy-engine slot traffic from
:class:`~repro.runtime.sync.Semaphore`, fault windows from
:class:`~repro.faults.injector.FaultInjector`, kernel launches from
:mod:`repro.runtime.kernels`, and decimated event-loop samples from
:class:`~repro.sim.engine.Environment`.

Design constraints, in order:

1. **Zero cost when disabled.**  No recorder object exists on a healthy
   hot path — every emit site is gated on a plain ``obs is not None``
   check against an attribute that defaults to ``None``.
2. **Read-only.**  The recorder never mutates simulation state, so a
   run with observability enabled is bit-identical (in simulated time)
   to the same run without it.
3. **Structured.**  Everything lands as typed events
   (:mod:`repro.obs.events`) in arrival order, plus aggregated metrics
   in a :class:`~repro.obs.metrics.MetricsRegistry` — the raw stream
   for timelines, the registry for rollups.

Per-link bandwidth is *change-driven*: after every allocation change
the recorder re-aggregates, from the network's membership index, the
allocated rate of each link direction the network marked dirty (one a
flow joined or left, or whose members' rates a refill moved) and emits
a :class:`~repro.obs.events.LinkRate` event only for directions whose
share actually moved — a step-function time series, exact between
allocation changes because the fluid flow model is piecewise constant.
The diff's work follows what changed, not the number of live links.

**Flight-recorder mode.**  At service/cluster scale an unbounded event
list makes "obs always on" impossible, so a :class:`RingConfig` turns
the recorder into a bounded flight recorder: per-kind event caps with
amortized tail-eviction of the *oldest* events of each over-cap kind.
Eviction never breaks pairing invariants — the ``FlowStart`` of a
still-live flow and the ``FaultOpen`` of a still-open fault window are
pinned until their closing event arrives — and the running aggregates
(per-link bytes/peak/saturation, per-engine busy time; see
:meth:`Recorder.link_totals` / :meth:`Recorder.engine_busy`) are
maintained at emit time, so whole-run rollups survive even after the
raw events that fed them were evicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.events import (
    Checkpoint,
    EngineAcquire,
    EngineRelease,
    EngineSample,
    FaultClose,
    FaultOpen,
    FlowAbort,
    FlowRetire,
    FlowStart,
    KernelLaunch,
    LinkRate,
    ObsEvent,
    Replan,
    Speculation,
    StreamOp,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.resources import Direction


class FlowRecord:
    """Compiled lifecycle of one flow (built as its events arrive)."""

    __slots__ = ("fid", "label", "size", "start", "end", "links",
                 "parent_span", "aborted")

    def __init__(self, fid: int, label: str, size: float, start: float,
                 links: Tuple[str, ...]):
        self.fid = fid
        self.label = label
        self.size = size
        self.start = start
        self.end: Optional[float] = None
        self.links = links
        self.parent_span: Optional[int] = None
        self.aborted = False

    @property
    def duration(self) -> Optional[float]:
        """Lifetime in simulated seconds (``None`` while in flight)."""
        return None if self.end is None else self.end - self.start


#: Saturation threshold for the running per-link aggregates (fraction
#: of capacity counted as "saturated"); matches the telemetry default.
_SATURATION_FRACTION = 0.95


@dataclass(frozen=True)
class RingConfig:
    """Bounds for flight-recorder mode.

    ``default_cap`` caps each event kind's retained count unless
    ``caps`` overrides it; ``completed_flows`` caps retained completed
    :class:`FlowRecord` lifecycles (live flows are never evicted);
    ``compact_batch`` is the amortization slack — a kind may overshoot
    its cap by up to this much between compactions, trading a small
    bounded memory overshoot for O(1) amortized emit cost.
    """

    default_cap: int = 4096
    caps: Dict[str, int] = field(default_factory=dict)
    completed_flows: int = 1024
    compact_batch: int = 1024

    def cap_for(self, kind: str) -> int:
        """Retention cap for one event kind."""
        return self.caps.get(kind, self.default_cap)


class Recorder:
    """Collects structured events and aggregate metrics from one run.

    ``engine_sample_every`` decimates the event-loop probe: one
    :class:`~repro.obs.events.EngineSample` per that many engine events.
    ``ring`` (a :class:`RingConfig`) enables flight-recorder mode:
    bounded per-kind event retention with running aggregates, for
    always-on observability at service/cluster scale.
    """

    def __init__(self, engine_sample_every: int = 256,
                 ring: Optional[RingConfig] = None):
        if engine_sample_every < 1:
            raise ValueError(
                f"engine_sample_every must be >= 1, got {engine_sample_every}")
        self.events: List[ObsEvent] = []
        self.metrics = MetricsRegistry()
        #: Compiled flow lifecycles, in start order.
        self.flows: List[FlowRecord] = []
        self._live_flows: Dict[int, FlowRecord] = {}
        #: Per-link rates as of the last diff, for every key live then:
        #: packed key -> (rate, capacity, the bucket's creation number).
        self._last_rates: Dict[int, Tuple[float, float, int]] = {}
        #: Names for packed keys seen so far (resource may be gone later).
        self._key_names: Dict[int, Tuple[str, str]] = {}
        #: Packed key -> (name, direction, capacity), refreshed by every
        #: full diff (capacities move only through ``requery_capacity``,
        #: which forces one).
        self._key_info: Dict[int, Tuple[str, str, float]] = {}
        self._engine_sample_every = engine_sample_every
        self._steps_since_sample = 0
        self._engine_steps = 0
        #: Latest simulated time any event arrived at.
        self.last_time = 0.0
        #: Flight-recorder bounds (``None`` = unbounded, keep everything).
        self.ring = ring
        #: Events evicted per kind (flight-recorder mode only).
        self.evicted: Dict[str, int] = {}
        #: Completed flow lifecycles evicted (flight-recorder mode only).
        self.evicted_flows = 0
        self._kind_counts: Dict[str, int] = {}
        self._completed_flows = 0
        #: Open (windowed) fault keys — their FaultOpen events are
        #: pinned against eviction until the window closes.
        self._open_faults: Dict[Tuple[str, str], float] = {}
        # Running aggregates (survive ring eviction).
        self._link_agg: Dict[int, List[float]] = {}
        self._engine_busy: Dict[str, float] = {}
        self._engine_held_since: Dict[str, float] = {}
        self._engine_depth: Dict[str, int] = {}

    # -- generic helpers ---------------------------------------------------
    def _emit(self, event: ObsEvent) -> None:
        self.events.append(event)
        if event.t > self.last_time:
            self.last_time = event.t
        ring = self.ring
        if ring is not None:
            kind = event.kind
            count = self._kind_counts.get(kind, 0) + 1
            self._kind_counts[kind] = count
            if count > ring.cap_for(kind) + ring.compact_batch:
                self._compact()

    def events_of(self, kind: str) -> List[ObsEvent]:
        """All recorded events of one kind, in arrival order."""
        return [e for e in self.events if e.kind == kind]

    # -- flight-recorder compaction ----------------------------------------
    def _compact(self) -> None:
        """Drop the oldest over-cap events of each kind, oldest first.

        Pinned against eviction: the ``FlowStart`` of every still-live
        flow and the ``FaultOpen`` of every still-open fault window —
        so open/close pairing survives any amount of churn.
        """
        ring = self.ring
        excess = {kind: count - ring.cap_for(kind)
                  for kind, count in self._kind_counts.items()
                  if count > ring.cap_for(kind)}
        if not excess:
            return
        left = sum(excess.values())
        live_fids = self._live_flows.keys()
        open_faults = self._open_faults
        events = self.events
        kept: List[ObsEvent] = []
        for index, event in enumerate(events):
            kind = event.kind
            over = excess.get(kind, 0)
            if over > 0:
                if isinstance(event, FlowStart):
                    if event.fid in live_fids:
                        kept.append(event)
                        continue
                elif isinstance(event, FaultOpen):
                    if (event.fault, event.target) in open_faults:
                        kept.append(event)
                        continue
                excess[kind] = over - 1
                self._kind_counts[kind] -= 1
                self.evicted[kind] = self.evicted.get(kind, 0) + 1
                left -= 1
                if not left:
                    # Every over-cap kind is back at its cap.
                    kept += events[index + 1:]
                    break
            else:
                kept.append(event)
        self.events = kept

    def _trim_flows(self) -> None:
        """Drop the oldest completed flow lifecycles over the cap."""
        ring = self.ring
        drop = self._completed_flows - ring.completed_flows
        if drop <= 0:
            return
        kept: List[FlowRecord] = []
        for record in self.flows:
            if drop > 0 and record.end is not None:
                drop -= 1
                self._completed_flows -= 1
                self.evicted_flows += 1
            else:
                kept.append(record)
        self.flows = kept

    def ring_stats(self) -> Dict[str, object]:
        """Retention/eviction accounting for flight-recorder mode."""
        return {
            "enabled": self.ring is not None,
            "events_retained": len(self.events),
            "flows_retained": len(self.flows),
            "evicted": dict(sorted(self.evicted.items())),
            "evicted_total": sum(self.evicted.values()),
            "evicted_flows": self.evicted_flows,
        }

    # -- running aggregates (survive ring eviction) ------------------------
    def link_totals(self, end: Optional[float] = None
                    ) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Whole-run per-``(link, direction)`` rollups from the running
        aggregates: bytes carried, peak allocated rate, last-known
        capacity and saturated seconds (>= 95% of capacity).

        Unlike :func:`repro.obs.telemetry.link_report` this does not
        need the raw event stream, so it stays exact under
        flight-recorder eviction.  The live segment is integrated up to
        ``end`` (default: the last event time).
        """
        horizon = end if end is not None else self.last_time
        totals: Dict[Tuple[str, str], Dict[str, float]] = {}
        for key, agg in self._link_agg.items():
            rate, capacity, since, bytes_, peak, saturated = agg
            span = max(0.0, horizon - since)
            bytes_ += rate * span
            if capacity > 0 and rate >= _SATURATION_FRACTION * capacity:
                saturated += span
            name, direction = self._key_names[key]
            totals[(name, direction)] = {
                "bytes": bytes_, "peak": peak, "capacity": capacity,
                "saturated_s": saturated}
        return totals

    def engine_busy(self, end: Optional[float] = None) -> Dict[str, float]:
        """Whole-run busy seconds per copy engine, from the running
        aggregates (exact under flight-recorder eviction)."""
        horizon = end if end is not None else self.last_time
        busy = dict(self._engine_busy)
        for name, since in self._engine_held_since.items():
            if self._engine_depth.get(name, 0) > 0:
                busy[name] = busy.get(name, 0.0) + max(0.0, horizon - since)
        return {name: total for name, total in sorted(busy.items())}

    # -- flow network hooks ------------------------------------------------
    def flow_started(self, net, flow) -> None:
        """Hook: ``flow`` entered ``net`` and received its first rate."""
        fid = id(flow)
        record = FlowRecord(fid, flow.label, flow.size, flow.started_at,
                            tuple(r.name for r in flow.resources))
        self._live_flows[fid] = record
        self.flows.append(record)
        self._emit(FlowStart(net.env.now, fid, flow.label, flow.size,
                             flow.rate, record.links))
        self.metrics.counter("flows.started").inc()
        self.metrics.gauge("flows.active").set(len(net._flows))

    def flow_retired(self, net, flow) -> None:
        """Hook: ``flow`` delivered its last byte."""
        now = net.env.now
        self._emit(FlowRetire(now, id(flow), flow.label))
        self._finish_flow(id(flow), now, aborted=False)
        self.metrics.counter("flows.retired").inc()
        self.metrics.gauge("flows.active").set(len(net._flows))

    def flow_aborted(self, net, flow) -> None:
        """Hook: ``flow`` was removed before completion."""
        now = net.env.now
        delivered = flow.size - flow.remaining
        self._emit(FlowAbort(now, id(flow), flow.label, delivered))
        self._finish_flow(id(flow), now, aborted=True)
        self.metrics.counter("flows.aborted").inc()
        self.metrics.gauge("flows.active").set(len(net._flows))

    def _finish_flow(self, fid: int, now: float, aborted: bool) -> None:
        record = self._live_flows.pop(fid, None)
        if record is not None:
            record.end = now
            record.aborted = aborted
            self.metrics.histogram("flows.duration_s").observe(
                now - record.start)
            ring = self.ring
            if ring is not None:
                self._completed_flows += 1
                if (self._completed_flows
                        > ring.completed_flows + ring.compact_batch):
                    self._trim_flows()

    def attach_flow(self, flow, span_id: int) -> None:
        """Parent the (just started) ``flow`` under trace span ``span_id``.

        Called by the runtime right after it starts a flow on behalf of
        a traced operation, so the timeline can nest the flow beneath
        the operation's span.
        """
        record = self._live_flows.get(id(flow))
        if record is not None:
            record.parent_span = span_id
            for event in reversed(self.events):
                if isinstance(event, FlowStart) and event.fid == id(flow):
                    event.parent_span = span_id
                    break

    def rates_changed(self, net) -> None:
        """Hook: the network's allocation changed; diff the link shares.

        Re-aggregates the allocated rate of each ``(resource,
        direction)`` the network marked dirty since the last call (every
        key after a capacity requery or an attach) and emits one
        :class:`~repro.obs.events.LinkRate` per direction whose share
        moved, including back to zero when a link empties: first the
        live keys in membership order, then the emptied keys in the
        order the previous diff saw them.  Keys that are not dirty kept
        both their members and their rates.
        """
        now = net.env.now
        members = net._members
        last = self._last_rates
        info = self._key_info
        if net._all_dirty:
            info.clear()
            live = list(members)
            gone = [key for key in last if key not in members]
        else:
            dirty = net._dirty_keys
            live = [key for key in dirty if key in members]
            live.sort(key=net._key_order.__getitem__)
            gone = [key for key in dirty
                    if key in last and key not in members]
        net._all_dirty = False
        net._dirty_keys.clear()
        order = net._key_order
        rates = net._ft.rate
        for key in live:
            rate = 0.0
            for flow in members[key]:
                rate += rates[flow._slot]
            rate = float(rate)
            key_info = info.get(key)
            if key_info is None:
                key_info = self._read_key(net, key)
            name, direction, capacity = key_info
            previous = last.get(key)
            if previous is None or previous[0] != rate:
                self._emit(LinkRate(now, name, direction, rate, capacity))
                self._roll_link(key, rate, capacity, now)
            last[key] = (rate, capacity, order[key])
        if gone:
            gone.sort(key=lambda key: last[key][2])
            for key in gone:
                rate, capacity, _order = last.pop(key)
                if rate != 0.0:
                    name, direction = self._key_names[key]
                    self._emit(LinkRate(now, name, direction, 0.0, capacity))
                    self._roll_link(key, 0.0, capacity, now)

    def _read_key(self, net, key: int) -> Tuple[str, str, float]:
        """Name, direction and fault-scaled capacity of one live key."""
        resource = net._resources[key >> 1]
        direction = Direction.REV if key & 1 else Direction.FWD
        key_info = (resource.name, direction.value,
                    resource.raw_capacity(direction) * resource.fault_factor)
        self._key_info[key] = key_info
        self._key_names[key] = key_info[:2]
        return key_info

    def _roll_link(self, key: int, rate: float, capacity: float,
                   now: float) -> None:
        """Close the previous constant-rate segment of one link
        direction into its running aggregate and open a new one."""
        agg = self._link_agg.get(key)
        if agg is None:
            # [rate, capacity, since, bytes, peak, saturated_s]
            self._link_agg[key] = [rate, capacity, now, 0.0, rate, 0.0]
            return
        old_rate, old_capacity, since = agg[0], agg[1], agg[2]
        span = now - since
        if span > 0.0:
            agg[3] += old_rate * span
            if (old_capacity > 0
                    and old_rate >= _SATURATION_FRACTION * old_capacity):
                agg[5] += span
        agg[0] = rate
        agg[1] = capacity
        agg[2] = now
        if rate > agg[4]:
            agg[4] = rate

    # -- copy-engine hooks -------------------------------------------------
    def engine_acquired(self, engine, now: float) -> None:
        """Hook: semaphore ``engine`` granted a slot at ``now``."""
        self._emit(EngineAcquire(now, engine.label, engine._in_use,
                                 len(engine._waiters)))
        self.metrics.counter(f"engine.{engine.label}.acquires").inc()
        self.metrics.gauge(f"engine.{engine.label}.in_use").set(
            engine._in_use)
        name = engine.label
        depth = self._engine_depth.get(name, 0)
        if depth == 0:
            self._engine_held_since[name] = now
        self._engine_depth[name] = depth + 1

    def engine_released(self, engine, now: float) -> None:
        """Hook: semaphore ``engine`` returned a slot at ``now``."""
        self._emit(EngineRelease(now, engine.label, engine._in_use,
                                 len(engine._waiters)))
        self.metrics.gauge(f"engine.{engine.label}.in_use").set(
            engine._in_use)
        name = engine.label
        depth = self._engine_depth.get(name, 0)
        if depth == 1:
            since = self._engine_held_since.pop(name, now)
            self._engine_busy[name] = (self._engine_busy.get(name, 0.0)
                                       + now - since)
        self._engine_depth[name] = max(0, depth - 1)

    # -- fault injector hooks ----------------------------------------------
    def fault_opened(self, kind: str, target: str, now: float,
                     instant: bool = False) -> None:
        """Hook: a fault window opened (or an instant fault fired)."""
        if not instant:
            self._open_faults[(kind, target)] = now
        self._emit(FaultOpen(now, kind, target, instant=instant))
        self.metrics.counter(f"faults.{kind}").inc()

    def fault_closed(self, kind: str, target: str, opened: float,
                     now: float) -> None:
        """Hook: a fault window closed."""
        self._open_faults.pop((kind, target), None)
        self._emit(FaultClose(now, kind, target, opened))
        self.metrics.counter("faults.window_seconds").inc(now - opened)

    # -- recovery hooks ------------------------------------------------------
    def replanned(self, phase: str, reason: str, dead_gpus, survivors,
                  now: float) -> None:
        """Hook: a supervised sort re-planned after a mid-phase failure."""
        self._emit(Replan(now, phase, reason, tuple(dead_gpus),
                          tuple(survivors)))
        self.metrics.counter("recovery.replans").inc()

    def checkpointed(self, phase: str, staged_chunks: int, now: float,
                     restored: bool = False) -> None:
        """Hook: a phase checkpoint was written (or restored)."""
        self._emit(Checkpoint(now, phase, staged_chunks, restored=restored))
        if restored:
            self.metrics.counter("recovery.checkpoints_restored").inc()
        else:
            self.metrics.counter("recovery.checkpoints").inc()

    def speculated(self, phase: str, straggler: str, helper: str,
                   outcome: str, now: float) -> None:
        """Hook: a speculative backup was launched or resolved."""
        self._emit(Speculation(now, phase, straggler, helper, outcome))
        self.metrics.counter(f"recovery.speculation.{outcome}").inc()

    # -- kernel / stream hooks ---------------------------------------------
    def kernel_launched(self, device: str, phase: str, bytes: float,
                        duration: float, now: float) -> None:
        """Hook: a compute kernel was launched."""
        self._emit(KernelLaunch(now, device, phase, bytes, duration))
        self.metrics.counter("kernels.launched").inc()
        self.metrics.counter("kernels.bytes").inc(bytes)

    def stream_submitted(self, stream: str, depth: int, now: float) -> None:
        """Hook: a serial stream accepted an operation."""
        self._emit(StreamOp(now, stream, depth))
        self.metrics.counter(f"stream.{stream}.ops").inc()
        self.metrics.gauge(f"stream.{stream}.depth").set(depth)

    def stream_drained(self, stream: str, depth: int) -> None:
        """Hook: a stream operation completed (gauge only, no event)."""
        self.metrics.gauge(f"stream.{stream}.depth").set(depth)

    # -- engine loop hook ----------------------------------------------------
    def engine_stepped(self, now: float, queue_depth: int) -> None:
        """Hook: the event loop retired one event (decimated sampling)."""
        self._engine_steps += 1
        self._steps_since_sample += 1
        if self._steps_since_sample >= self._engine_sample_every:
            self._steps_since_sample = 0
            self._emit(EngineSample(now, queue_depth, self._engine_steps))
            self.metrics.gauge("engine.queue_depth").set(queue_depth)
        if now > self.last_time:
            self.last_time = now

    # -- export --------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, object]]:
        """The full event stream as JSON-serializable dicts."""
        return [event.to_dict() for event in self.events]
