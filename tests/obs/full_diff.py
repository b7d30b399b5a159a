"""A reference recorder and a canonical stream form for oracle tests.

:class:`FullDiffRecorder` is the recorder with the link diff and ring
compaction it had before the network tracked dirty membership keys: on
every allocation change it re-reads every membership key and every
member flow, and compaction walks the whole event list.  The dirty-key
diff must reproduce its stream event for event.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.events import FaultOpen, FlowStart, LinkRate, ObsEvent
from repro.obs.recorder import Recorder
from repro.sim.resources import Direction


class FullDiffRecorder(Recorder):
    """A :class:`Recorder` that diffs the full membership index."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._full_last: Dict[int, Tuple[float, float]] = {}

    def rates_changed(self, net) -> None:
        now = net.env.now
        current: Dict[int, Tuple[float, float]] = {}
        resources = net._resources
        for key, bucket in net._members.items():
            rate = 0.0
            for flow in bucket:
                rate += flow.rate
            resource = resources[key >> 1]
            direction = Direction.REV if key & 1 else Direction.FWD
            capacity = (resource.raw_capacity(direction)
                        * resource.fault_factor)
            current[key] = (rate, capacity)
            self._key_names[key] = (resource.name, direction.value)
        last = self._full_last
        for key, (rate, capacity) in current.items():
            previous = last.get(key)
            if previous is None or previous[0] != rate:
                name, direction = self._key_names[key]
                self._emit(LinkRate(now, name, direction, rate, capacity))
                self._roll_link(key, rate, capacity, now)
        for key in last:
            if key not in current and last[key][0] != 0.0:
                name, direction = self._key_names[key]
                self._emit(LinkRate(now, name, direction, 0.0,
                                    last[key][1]))
                self._roll_link(key, 0.0, last[key][1], now)
        self._full_last = current

    def _compact(self) -> None:
        ring = self.ring
        excess = {kind: count - ring.cap_for(kind)
                  for kind, count in self._kind_counts.items()
                  if count > ring.cap_for(kind)}
        if not excess:
            return
        live_fids = self._live_flows.keys()
        open_faults = self._open_faults
        kept: List[ObsEvent] = []
        for event in self.events:
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
            else:
                kept.append(event)
        self.events = kept


def canonical(recorder) -> Dict[str, object]:
    """The recorder's stream and rollups with flow ids renumbered.

    Flow ids are ``id(flow)`` and differ from process to process, so
    they are renumbered in ``FlowStart`` order; a retire or abort whose
    start a ring evicted is numbered -1.
    """
    number, live, events = 0, {}, []
    for record in recorder.to_dicts():
        if "fid" in record:
            fid = record["fid"]
            if record["kind"] == "flow_start":
                live[fid] = number
                number += 1
                record["fid"] = live[fid]
            else:
                record["fid"] = live.pop(fid, -1)
        events.append(record)
    totals = sorted([list(key), value]
                    for key, value in recorder.link_totals().items())
    return {"events": events, "link_totals": totals,
            "ring": recorder.ring_stats()}
