"""Fluid flow network with max-min fair bandwidth allocation.

Every in-flight data transfer is a :class:`Flow` over a *route*: an
ordered list of ``(resource, direction)`` hops.  Whenever the set of
active flows changes, the network re-computes flow rates with the
classic progressive-filling (water-filling) algorithm, which yields the
max-min fair allocation subject to every hop's effective capacity.  This
mirrors how concurrent DMA copy streams share links on real multi-GPU
machines closely enough to reproduce the paper's parallel-copy results
(Figures 2-7): flows crossing an uncontended NVSwitch port rate at full
speed, while flows squeezed through a shared PCIe switch or the AC922's
X-Bus split its capacity.  Only the flows connected to a change through
shared resources are re-solved: the allocation splits exactly over
connected components, so the result is bit-identical to a global fill.

The network is a *fluid* model: between allocation changes each flow
progresses linearly at its rate, so completion times can be scheduled
exactly and re-scheduled whenever the allocation changes.

The implementation is data-oriented, sized for simulations with many
thousands of flow arrivals (see :mod:`repro.sim.solver`):

* per-flow hot state (remaining bytes, rate, cap, completion token)
  lives in the parallel NumPy arrays of a :class:`~repro.sim.solver.FlowTable`;
  the :class:`Flow` objects expose it through properties;
* a reallocation re-solves only the connected component(s) the
  started, finished or aborted flows touch, found by a walk of the
  membership index; small components take the dict reference solver,
  large ones the vectorized fill over those arrays
  (:func:`~repro.sim.solver.water_fill_arrays`), bit-identical to it;
* progress sweeps advance every flow with one vectorized subtraction —
  all active flows share a single last-advanced timestamp;
* completions live in the engine's :class:`~repro.sim.engine.ArrayCalendar`:
  every reallocation, however small its component, *stages* the whole
  completion set (fresh tokens and sequence ids for every active flow,
  which keeps completion times and event order bit-identical) in O(1)
  and the
  calendar sorts it once, lazily, so a burst of same-instant starts or
  finishes costs one rebuild instead of N heap storms.  Stale entries
  are invalidated by token, exactly like the previous per-object
  completion events.

A Python-dict membership index (packed ``(id(resource) << 1 | direction
bit)`` key -> arrival-ordered flow dict) is still maintained: the
component walk, the observability recorder, the diagnostics in error
paths and the reference solver all read it, and keeping it costs
O(route) per transition.

A :class:`~repro.sim.engine.SimulationError` raised mid-fill (zero
effective capacity) leaves the network's indices consistent but its
rates stale; like the previous implementation, callers that catch it
should not keep simulating the affected flows.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import Environment, Event, SimulationError
from repro.sim.resources import Direction, Resource
from repro.sim.solver import (FlowTable, KeyTable, water_fill_arrays,
                              water_fill_reference)

Hop = Tuple[Resource, Direction]

#: Relative tolerance when deciding a flow has finished.
_EPSILON_BYTES = 1e-6

#: Size of the refilled component (in flows) at or below which a
#: reallocation dispatches to the dict-walking reference solver instead
#: of the vectorized one.  Each fill round costs the vectorized solver a
#: flat ~40-60us of NumPy dispatch but the reference only ~2us per
#: flow, so small fills are faster in plain Python; both produce
#: bit-identical rates (pinned by tests/sim/test_solver_properties.py),
#: so the switch is invisible.
_SMALL_FILL_N = 64

_EMPTY_I64 = np.empty(0, dtype=np.int64)


class Flow:
    """One in-flight transfer of ``size`` bytes over a fixed route.

    The flow's :attr:`done` event succeeds (with the flow) when the last
    byte has been delivered.  ``rate_cap`` optionally limits the flow to
    a source/sink-specific rate, e.g. a GPU copy engine's bandwidth.

    While the flow is active its ``remaining`` and ``rate`` live in the
    network's flow table (slot ``_slot``); on finish or abort the final
    values are written back here and the slot is released.
    """

    __slots__ = ("network", "route", "size", "rate_cap", "label",
                 "started_at", "finished_at", "done",
                 "hops", "hop_keys", "resources",
                 "_finish_threshold", "_credited", "_slot", "_rem", "_rate")

    def __init__(
        self,
        network: "FlowNetwork",
        route: Sequence[Hop],
        size: float,
        rate_cap: Optional[float] = None,
        label: str = "",
    ):
        if size < 0:
            raise ValueError(f"flow size must be >= 0, got {size}")
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        self.network = network
        self.route: Tuple[Hop, ...] = tuple(route)
        self.size = float(size)
        self.rate_cap = rate_cap
        self.label = label
        self.started_at = network.env.now
        self.finished_at: Optional[float] = None
        self.done: Event = network.env.event()
        self._finish_threshold = _EPSILON_BYTES * max(self.size, 1.0)
        #: Bytes already credited to the network's delivered counters.
        self._credited = 0.0
        #: Flow-table slot while active; ``None`` once detached.
        self._slot: Optional[int] = None
        self._rem = self.size
        self._rate = 0.0
        # Deduplicated hops, resolved once: `hops` keeps the first
        # occurrence of every (resource, direction); `hop_keys` are the
        # packed integer membership keys; `resources` each distinct
        # resource once, regardless of direction.
        hops: List[Hop] = []
        keys: List[int] = []
        resources: List[Resource] = []
        seen_keys = set()
        seen_rids = set()
        for resource, direction in self.route:
            key = (id(resource) << 1) | (direction is Direction.REV)
            if key not in seen_keys:
                seen_keys.add(key)
                hops.append((resource, direction))
                keys.append(key)
            rid = id(resource)
            if rid not in seen_rids:
                seen_rids.add(rid)
                resources.append(resource)
        self.hops: Tuple[Hop, ...] = tuple(hops)
        self.hop_keys: Tuple[int, ...] = tuple(keys)
        self.resources: Tuple[Resource, ...] = tuple(resources)

    @property
    def remaining(self) -> float:
        """Bytes not yet delivered (as of the last progress sweep)."""
        slot = self._slot
        if slot is None:
            return self._rem
        return float(self.network._ft.remaining[slot])

    @property
    def rate(self) -> float:
        """Currently allocated rate in bytes/second."""
        slot = self._slot
        if slot is None:
            return self._rate
        return float(self.network._ft.rate[slot])

    @property
    def active(self) -> bool:
        """Whether the flow still has bytes to deliver."""
        return self.finished_at is None

    def _detach(self, remaining: float, rate: float) -> None:
        """Freeze final values on the object and release the table slot."""
        self._rem = remaining
        self._rate = rate
        self._slot = None

    def __repr__(self) -> str:
        return (f"<Flow {self.label or id(self)} size={self.size:.3g} "
                f"remaining={self.remaining:.3g} rate={self.rate:.3g}>")


class FlowNetwork:
    """Tracks active flows and keeps their max-min fair rates current."""

    def __init__(self, env: Environment):
        self.env = env
        #: Active flows in arrival order (insertion-ordered dict-as-set).
        self._flows: Dict[Flow, None] = {}
        #: Membership index: packed (resource, direction) key -> the
        #: active flows crossing it, in arrival order.
        self._members: Dict[int, Dict[Flow, None]] = {}
        #: Resources currently crossed by at least one active flow.
        self._resources: Dict[int, Resource] = {}
        #: Per-resource active-flow reference counts (both directions).
        self._refs: Dict[int, int] = {}
        self._delivered: Dict[Tuple[Resource, Direction], float] = {}
        #: Array-of-struct flow and membership-key state (the hot path).
        self._ft = FlowTable()
        self._kt = KeyTable()
        #: Array completion calendar, registered with the engine.
        self._cal = env.register_calendar(
            self._on_completion_slot, self._times_of, self._valid_of)
        #: Monotone completion-token counter.  Tokens are globally
        #: unique per (re)schedule, so a stale calendar entry can never
        #: collide with a later assignment — not even across table
        #: compactions that renumber slots.
        self._next_token = 1
        #: Simulated time of the last full advancement sweep.  Every
        #: active flow is advanced at every sweep, so one timestamp
        #: serves them all (the invariant the vectorized sweep needs).
        self._advanced_at = -math.inf
        #: Whether a flow may already sit below its finish threshold
        #: (forces the next sweep even with no time elapsed).
        self._may_have_finished = False
        #: Whether a fault factor may have changed since the last
        #: reallocation (set by :meth:`requery_capacity`).  Gates the
        #: ``refresh_faults`` sweep: on a healthy machine no key ever
        #: needs re-reading, so the per-reallocation cost is one flag
        #: test instead of an O(alive keys) Python loop.
        self._faults_dirty = False
        #: Flows that finished in a sweep no reallocation followed (an
        #: abort that found its flow already done, or a batch that
        #: started nothing).  Their neighbours still hold rates computed
        #: with them present, so the next reallocation re-solves their
        #: components too.
        self._unsettled: List[Flow] = []
        #: Allocation statistics (for the ``simcore`` benchmark).
        #: ``full_reallocations`` counts component refills (each with a
        #: global restage); the name predates component-local fills.
        self.full_reallocations = 0
        self.fast_starts = 0
        self.fast_finishes = 0
        self.batched_starts = 0
        self.completion_events = 0
        #: Flows removed before completion (faults, timeouts, interrupts).
        self.aborted_flows = 0
        #: Observability recorder (see :attr:`obs`), or ``None``.
        self._obs = None
        #: Membership keys whose aggregate rate may have moved since the
        #: recorder's last link diff (a flow joined or left, or a refill
        #: moved a member's rate), and whether every key may have (a
        #: capacity requery, a new recorder).  Kept only while a
        #: recorder is attached; the recorder clears them as it diffs.
        self._dirty_keys: set = set()
        self._all_dirty = True
        #: Creation number of each membership bucket: sorting keys by
        #: it gives :attr:`_members` order without walking the index.
        self._key_order: Dict[int, int] = {}
        self._next_order = 0

    @property
    def obs(self):
        """Observability recorder (:mod:`repro.obs`), or ``None``.

        Every hook is gated on a plain ``is None`` check so a network
        without observers pays one pointer test per transition; the
        recorder only reads, so rates and completion times are
        bit-identical with it attached.  Attaching one marks every
        membership key dirty, so its first link diff sees them all.
        """
        return self._obs

    @obs.setter
    def obs(self, recorder) -> None:
        self._obs = recorder
        self._dirty_keys.clear()
        self._all_dirty = True
        self._key_order = {key: order
                           for order, key in enumerate(self._members)}
        self._next_order = len(self._key_order)

    # -- public API -------------------------------------------------------
    def start_flow(
        self,
        route: Sequence[Hop],
        size: float,
        rate_cap: Optional[float] = None,
        label: str = "",
    ) -> Flow:
        """Begin transferring ``size`` bytes along ``route``.

        Returns the new :class:`Flow`; wait on ``flow.done`` for
        completion.  Zero-byte flows complete immediately.
        """
        flow = Flow(self, route, size, rate_cap=rate_cap, label=label)
        if flow.size <= 0.0:
            flow.finished_at = self.env.now
            flow._rem = 0.0
            flow.done.succeed(flow)
            return flow
        if not flow.route and flow.rate_cap is None:
            raise SimulationError(
                f"flow {label!r} has neither a route nor a rate cap; "
                "its rate would be unbounded")
        finished = self._advance_all()
        refs = self._refs
        disjoint = not finished and not any(
            refs.get(id(resource), 0) for resource in flow.resources)
        self._insert(flow)
        if flow.size <= flow._finish_threshold:
            # Sub-epsilon (but non-zero) flow: make sure the next sweep
            # picks it up even if no simulated time passes first.
            self._may_have_finished = True
        if disjoint:
            self._allocate_single(flow)
        else:
            self._reallocate([flow, *finished])
        obs = self._obs
        if obs is not None:
            obs.flow_started(self, flow)
            obs.rates_changed(self)
        return flow

    def start_flows(
        self,
        requests: Sequence[Tuple[Sequence[Hop], float,
                                 Optional[float], str]],
    ) -> List[Flow]:
        """Start several flows at one instant with a *single* fill.

        ``requests`` is a sequence of ``(route, size, rate_cap, label)``
        tuples.  Semantically this equals N :meth:`start_flow` calls at
        the same simulated instant — the final max-min allocation over
        the combined flow set is identical — but the progressive fill
        runs once instead of once per arrival.  The cross-node exchange
        of the hierarchical sort launches whole waves of fabric flows
        this way; without batching, a 64-node all-to-all round would
        pay 63 intermediate fills whose rates are superseded within
        the same instant.  Returns the flows in request order.
        """
        finished = self._advance_all()
        flows: List[Flow] = []
        started: List[Flow] = []
        for route, size, rate_cap, label in requests:
            flow = Flow(self, route, size, rate_cap=rate_cap, label=label)
            flows.append(flow)
            if flow.size <= 0.0:
                flow.finished_at = self.env.now
                flow._rem = 0.0
                flow.done.succeed(flow)
                continue
            if not flow.route and flow.rate_cap is None:
                raise SimulationError(
                    f"flow {label!r} has neither a route nor a rate cap; "
                    "its rate would be unbounded")
            self._insert(flow)
            if flow.size <= flow._finish_threshold:
                self._may_have_finished = True
            started.append(flow)
        if started:
            self.batched_starts += 1
            self._reallocate(started + finished)
        else:
            self._unsettled += finished
        obs = self._obs
        if obs is not None:
            for flow in started:
                obs.flow_started(self, flow)
            if started:
                obs.rates_changed(self)
        return flows

    def transfer(self, route: Sequence[Hop], size: float,
                 rate_cap: Optional[float] = None, label: str = ""):
        """Process-style helper: ``yield from network.transfer(...)``."""
        flow = self.start_flow(route, size, rate_cap=rate_cap, label=label)
        yield flow.done
        return flow

    @property
    def active_flows(self) -> List[Flow]:
        """Snapshot of the currently active flows, in arrival order."""
        return list(self._flows)

    def flows_crossing(self, resource: Resource) -> List[Flow]:
        """Active flows crossing ``resource`` in either direction."""
        rid2 = id(resource) << 1
        seen: Dict[Flow, None] = {}
        for key in (rid2, rid2 | 1):
            bucket = self._members.get(key)
            if bucket:
                for flow in bucket:
                    seen[flow] = None
        return list(seen)

    def abort_flow(self, flow: Flow, exc: Optional[BaseException] = None):
        """Remove an active flow before its last byte is delivered.

        Progress up to *now* is credited to the delivered counters, the
        flow leaves the network (surviving flows are re-rated), and any
        scheduled completion is invalidated via the completion token.
        With ``exc`` the flow's ``done`` event fails with it (pre-defused,
        so a waiter that already raced past — e.g. an ``AnyOf`` timeout —
        does not crash the environment); without, ``done`` stays pending
        and the caller is expected to stop waiting on it.

        A flow that already finished (or reaches its finish threshold in
        the catch-up sweep at this very instant) is left untouched.
        """
        if not flow.active:
            return
        finished = self._advance_all()
        if not flow.active:
            self._unsettled += finished
            return
        del self._flows[flow]
        self._remove(flow)
        ft = self._ft
        slot = flow._slot
        remaining = float(ft.remaining[slot])
        partial = flow.size - remaining - flow._credited
        if partial > 0:
            self._credit(flow, partial)
        flow.finished_at = self.env.now
        ft.objs[slot] = None
        flow._detach(remaining, 0.0)
        self.aborted_flows += 1
        if exc is not None:
            flow.done.fail(exc)
            flow.done.defused = True
        if self._flows:
            self._reallocate([flow, *finished])
        obs = self._obs
        if obs is not None:
            obs.flow_aborted(self, flow)
            obs.rates_changed(self)

    def requery_capacity(self) -> None:
        """Re-rate every active flow after an external capacity change.

        Called when a resource's effective capacity changed for reasons
        the membership index cannot see — e.g. the fault injector
        setting a :meth:`~repro.sim.resources.Resource.set_fault_factor`
        degradation window.
        """
        self._faults_dirty = True
        self._advance_all()
        if self._flows:
            self._reallocate()
        obs = self._obs
        if obs is not None:
            # Capacities may have moved on keys no flow crosses now.
            self._all_dirty = True
            obs.rates_changed(self)

    @property
    def delivered(self) -> Dict[Tuple[Resource, Direction], float]:
        """Total bytes delivered over each resource direction (for traces).

        Progress of *active* flows is accounted lazily — reading this
        property credits every flow's uncredited progress first, so the
        returned counters are exact as of the current simulated time.
        """
        now = self.env.now
        ft = self._ft
        elapsed = now - self._advanced_at
        for flow in self._flows:
            slot = flow._slot
            rate = float(ft.rate[slot])
            rem = float(ft.remaining[slot])
            progress = flow.size - rem - flow._credited
            if elapsed > 0 and rate > 0:
                progress += min(rate * elapsed, rem)
            if progress > 0:
                self._credit(flow, progress)
        return self._delivered

    def _credit(self, flow: Flow, progress: float) -> None:
        """Attribute ``progress`` bytes to every hop of ``flow``."""
        delivered = self._delivered
        for hop in flow.route:
            delivered[hop] = delivered.get(hop, 0.0) + progress
        flow._credited += progress

    def utilization(self, resource: Resource, direction: Direction) -> float:
        """Aggregate current rate crossing ``resource`` in ``direction``."""
        key = (id(resource) << 1) | (direction is Direction.REV)
        flows_here = self._members.get(key)
        if not flows_here:
            return 0.0
        total = 0.0
        for flow in flows_here:
            total += flow.rate
        return total

    # -- membership index -------------------------------------------------
    def _insert(self, flow: Flow) -> None:
        self._flows[flow] = None
        members = self._members
        observed = self._obs is not None
        for key in flow.hop_keys:
            bucket = members.get(key)
            if bucket is None:
                members[key] = {flow: None}
                if observed:
                    self._key_order[key] = self._next_order
                    self._next_order += 1
            else:
                bucket[flow] = None
        if observed:
            self._dirty_keys.update(flow.hop_keys)
        refs = self._refs
        resources = self._resources
        for resource in flow.resources:
            rid = id(resource)
            count = refs.get(rid, 0)
            if count == 0:
                resources[rid] = resource
            refs[rid] = count + 1
        kt = self._kt
        key_slots = [kt.add_member(key, resource)
                     for (resource, _d), key in zip(flow.hops,
                                                    flow.hop_keys)]
        flow._slot = self._ft.insert(flow, key_slots)

    def _remove(self, flow: Flow) -> None:
        members = self._members
        for key in flow.hop_keys:
            bucket = members[key]
            del bucket[flow]
            if not bucket:
                del members[key]
        refs = self._refs
        for resource in flow.resources:
            rid = id(resource)
            count = refs[rid] - 1
            if count:
                refs[rid] = count
            else:
                del refs[rid]
                del self._resources[rid]
        kt = self._kt
        for key in flow.hop_keys:
            kt.remove_member(key)
        self._ft.deactivate(flow._slot)
        if self._obs is not None:
            self._dirty_keys.update(flow.hop_keys)

    # -- calendar callbacks ----------------------------------------------
    def _times_of(self, slots: np.ndarray) -> np.ndarray:
        ft = self._ft
        return self.env._now + ft.remaining[slots] / ft.rate[slots]

    def _valid_of(self, slots: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        ft = self._ft
        return ft.active[slots] & (ft.token[slots] == tokens)

    # -- internals --------------------------------------------------------
    def _advance_all(self) -> List[Flow]:
        """Account progress of every flow since the last sweep.

        Returns the flows that reached (epsilon-)completion and were
        finished in the process.

        Delivered-bytes accounting is *not* done here — progress is
        credited lazily (on finish, or when :attr:`delivered` is read),
        so the sweep is one vectorized subtraction.  Sweeps repeated at
        one simulated instant short-circuit.
        """
        now = self.env.now
        if now == self._advanced_at and not self._may_have_finished:
            return []
        prof = self.env._profile
        if prof is not None:
            t0 = perf_counter()
        ft = self._ft
        act = ft.active_slots()
        finished: List[Flow] = []
        if len(act):
            elapsed = now - self._advanced_at
            if elapsed > 0:
                remaining = ft.remaining
                moved = np.minimum(ft.rate[act] * elapsed, remaining[act])
                remaining[act] -= moved
            below = ft.remaining[act] <= ft.threshold[act]
            if below.any():
                finished = [ft.objs[int(s)] for s in act[below]]
        self._advanced_at = now
        self._may_have_finished = False
        if prof is not None:
            prof.advance_s += perf_counter() - t0
        for flow in finished:
            self._finish(flow)
        return finished

    def _finish(self, flow: Flow) -> None:
        if flow in self._flows:
            del self._flows[flow]
            self._remove(flow)
        if flow.finished_at is None:
            ft = self._ft
            slot = flow._slot
            if slot is not None:
                finale = (flow.size - float(ft.remaining[slot])
                          - flow._credited)
                rate = float(ft.rate[slot])
                ft.objs[slot] = None
                flow._detach(0.0, rate)
            else:
                finale = flow.size - flow._rem - flow._credited
                flow._rem = 0.0
            if finale > 0:
                self._credit(flow, finale)
            flow.finished_at = self.env.now
            flow.done.succeed(flow)
            obs = self._obs
            if obs is not None:
                obs.flow_retired(self, flow)

    def _on_completion_slot(self, slot: int, token: int) -> None:
        """A scheduled completion fired (dispatched by the calendar)."""
        ft = self._ft
        if not ft.active[slot] or ft.token[slot] != token:
            return  # superseded by a later reallocation
        flow = ft.objs[slot]
        self.completion_events += 1
        finished = self._advance_all()
        if flow.active:
            # Numerical slack: force-finish, the residual is < epsilon.
            self._finish(flow)
            finished.append(flow)
        refs = self._refs
        for done in finished:
            for resource in done.resources:
                if refs.get(id(resource), 0):
                    # A surviving flow shares a resource with a finished
                    # one; its effective capacity changed.
                    self._reallocate(finished)
                    if self._obs is not None:
                        self._obs.rates_changed(self)
                    return
        # Disjoint removal: every surviving flow keeps its rate and its
        # already-scheduled completion.
        self.fast_finishes += 1
        if self._obs is not None:
            # Even without a reallocation the finished flows' links
            # dropped their contribution — refresh the link gauges.
            self._obs.rates_changed(self)

    def _allocate_single(self, flow: Flow) -> None:
        """Fast path: rate a flow whose resources nobody else crosses.

        The flow's max-min rate is then simply the minimum effective
        capacity along its (deduplicated) hops, further limited by its
        rate cap; no other flow's allocation changes.
        """
        members = self._members
        rate = math.inf
        for (resource, direction), key in zip(flow.hops, flow.hop_keys):
            other_bucket = members.get(key ^ 1)
            cap = resource.effective_capacity(
                direction, 1, 1 if other_bucket else 0)
            if cap < rate:
                rate = cap
        if flow.rate_cap is not None and flow.rate_cap < rate:
            rate = flow.rate_cap
        if rate <= 0 or math.isinf(rate):
            raise SimulationError(
                f"flow {flow.label!r} was allocated zero bandwidth")
        ft = self._ft
        slot = flow._slot
        ft.rate[slot] = rate
        self.fast_starts += 1
        token = self._next_token
        self._next_token = token + 1
        ft.token[slot] = token
        eid = self.env._reserve_eids(1)
        delay = float(ft.remaining[slot]) / rate
        self._cal.push(self.env._now + delay, eid, slot, token)

    def _component(self, seeds: Sequence[Flow]
                   ) -> Tuple[Dict[Flow, None], List[int]]:
        """Active flows and membership keys connected to ``seeds``.

        A walk of the membership index over *resources*:
        two flows are connected when they cross a common resource in
        either direction, because a key's effective capacity reads its
        partner direction's member count (the duplex factor).  Seeds
        may be active flows (a start) or detached ones (a finish or an
        abort), whose resources still anchor the walk.  Returns the
        connected flows and keys in discovery order.
        """
        members, active = self._members, self._flows
        flows: Dict[Flow, None] = {}
        keys: List[int] = []
        seen = set()
        todo: List[int] = []
        for flow in seeds:
            if flow in active:
                flows[flow] = None
            todo.extend(flow.hop_keys)
        while todo:
            base = todo.pop() & ~1
            if base in seen:
                continue
            seen.add(base)
            for key in (base, base | 1):
                bucket = members.get(key)
                if bucket:
                    keys.append(key)
                    for flow in bucket:
                        if flow not in flows:
                            flows[flow] = None
                            todo.extend(flow.hop_keys)
        return flows, keys

    def _reallocate(self, seeds: Optional[Sequence[Flow]] = None) -> None:
        """Re-solve the components ``seeds`` touch; restage all completions.

        Max-min fairness splits exactly over connected components, and
        progressive filling freezes a component's flows in the same
        order whether it runs alone or interleaved with others, so
        re-solving only the flows connected to the changed ones gives
        every rate bit-identical to a global fill.  ``seeds`` are the
        started, finished or aborted flows (plus any
        :attr:`_unsettled` ones); ``None`` re-solves every flow, which
        :meth:`requery_capacity` needs because the injector changes
        fault factors on resources the network cannot see.

        The completion restage stays global: every active flow gets a
        fresh token and sequence id in one vectorized step, exactly as
        before, which keeps completion times and same-instant event
        order bit-identical.
        """
        self.full_reallocations += 1
        ft, kt = self._ft, self._kt
        if seeds is not None and self._unsettled:
            seeds = [*seeds, *self._unsettled]
        self._unsettled = []
        # Compact sparsely populated tables.  Stale calendar entries may
        # survive a renumbering, but globally unique tokens make them
        # inert no-ops wherever they land.
        lut = kt.compact() if kt.top >= 64 and kt.live * 2 < kt.top else None
        if ft.top >= 128 and ft.live * 2 < ft.top:
            ft.compact()
        if lut is not None:
            ft.remap_keys(lut)
        # Fault factors can change out-of-band (the injector); re-read
        # them so the cached capacities match what the reference would
        # compute live.  The injector's contract is to follow every
        # set_fault_factor with requery_capacity, which raises the
        # dirty flag — so a healthy run never pays the sweep, and a
        # faulted one pays it once per capacity change, not once per
        # reallocation.  (add_member reads the live factor at insert,
        # so new keys are correct without it.)
        if self._faults_dirty:
            kt.refresh_faults()
            self._faults_dirty = False
        act = ft.active_slots()
        n = len(act)
        if n == 0:
            self._cal.stage(act, _EMPTY_I64, _EMPTY_I64)
            return
        flows, members, fill, keys = self._flows, self._members, act, None
        if seeds is not None:
            touched, touched_keys = self._component(seeds)
            if len(touched) < n:
                # Arrival and key-slot order, as the global fill visits
                # them: argmin ties resolve identically.
                slot_of = kt.slot_of
                touched_keys.sort(key=slot_of.__getitem__)
                fill = np.array(sorted(f._slot for f in touched),
                                dtype=np.int64)
                objs = ft.objs
                flows = {objs[slot]: None for slot in fill.tolist()}
                members = {key: self._members[key] for key in touched_keys}
                keys = np.array([slot_of[key] for key in touched_keys],
                                dtype=np.int64)
        m = len(fill)
        if m:
            prof = self.env._profile
            if prof is not None:
                t0 = perf_counter()
            if m <= _SMALL_FILL_N:
                by_flow = water_fill_reference(flows, members,
                                               self._resources,
                                               profile=prof)
                rates = np.array([by_flow[flow] for flow in flows])
            else:
                rates = water_fill_arrays(ft, kt, fill, members=members,
                                          keys=keys, profile=prof)
            if prof is not None:
                prof.fill_s += perf_counter() - t0
                prof.fills += 1
                prof.fill_flows += m
            bad = rates <= 0.0
            if bad.any():
                flow = ft.objs[int(fill[int(np.argmax(bad))])]
                raise SimulationError(
                    f"flow {flow.label!r} was allocated zero bandwidth")
            if self._obs is not None:
                # A key's aggregate moves only if a member's rate did
                # (membership moves were marked by insert and remove).
                dirty, objs = self._dirty_keys, ft.objs
                for slot in fill[ft.rate[fill] != rates].tolist():
                    dirty.update(objs[slot].hop_keys)
            ft.rate[fill] = rates
        token0 = self._next_token
        self._next_token = token0 + n
        tokens = np.arange(token0, token0 + n, dtype=np.int64)
        ft.token[act] = tokens
        eid0 = self.env._reserve_eids(n)
        eids = np.arange(eid0, eid0 + n, dtype=np.int64)
        self._cal.stage(act, eids, tokens)
