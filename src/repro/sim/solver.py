"""Data-oriented state for the flow network's hot path.

The per-object implementation in :mod:`repro.sim.flows` topped out
around 80-100k events/sec (``BENCH_simcore.json``): every allocation
change iterated Python dicts of :class:`~repro.sim.flows.Flow` objects,
and every progress sweep touched each flow's attributes one by one.
This module replaces those inner loops with preallocated NumPy arrays:

* :class:`FlowTable` — one slot per flow, holding ``remaining``,
  ``rate``, ``rate_cap``, finish threshold, completion token and
  liveness as parallel arrays, plus a padded CSR-style membership
  matrix of the (resource, direction) key slots each flow crosses;
* :class:`KeyTable` — one slot per active ``(resource, direction)``
  membership key, holding member counts, raw capacity, fault factor,
  the partner (opposite-direction) slot and a load-sensitivity flag;
* :func:`water_fill_arrays` — the progressive-filling max-min solver
  over those arrays, replacing the dict-of-set fill.

**Bit-exactness contract.**  The vectorized solver performs *the same
IEEE-754 operations in the same order* as the retained reference
implementation (:func:`water_fill_reference`): shares are the same
``capacity / count`` divisions, freezing picks the same first-minimum
bottleneck (NumPy ``argmin`` ties resolve to the lowest index, matching
the reference's insertion-order scan), and charging repeats the same
``max(0.0, cap - rate)`` per frozen crossing instead of subtracting
``k * rate`` in one step (which would round differently).  The
determinism goldens (``tests/sim/test_determinism.py``) and the
property tests (``tests/sim/test_solver_properties.py``) pin this down.

Slots are assigned in arrival order and never recycled between
compactions, so ``np.nonzero`` enumerates flows (and membership keys)
in exactly the insertion order the reference dicts iterate in.
Compaction preserves relative order.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.sim.engine import SimulationError
from repro.sim.resources import Direction, Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.flows import Flow

#: Initial slot capacity of the flow and key tables.
_INITIAL_CAPACITY = 64
#: Initial hop-matrix width (grown on demand for longer routes).
_INITIAL_WIDTH = 4


class FlowTable:
    """Array-of-struct storage for active flows.

    One slot per flow, assigned in arrival order.  A slot stays
    allocated (marked dead) after its flow finishes until
    :meth:`compact` reclaims it, so live slots always enumerate in
    arrival order — the property every ordering guarantee of the
    vectorized solver rests on.
    """

    def __init__(self) -> None:
        n, w = _INITIAL_CAPACITY, _INITIAL_WIDTH
        self.remaining = np.zeros(n)
        self.rate = np.zeros(n)
        self.rate_cap = np.full(n, np.inf)
        self.threshold = np.zeros(n)
        self.token = np.zeros(n, dtype=np.int64)
        self.active = np.zeros(n, dtype=bool)
        #: Padded membership matrix: row ``s`` holds the key slots flow
        #: ``s`` crosses, right-padded with -1.
        self.hops = np.full((n, w), -1, dtype=np.int64)
        #: Slot -> Flow object (``None`` for dead slots).
        self.objs: List[Optional["Flow"]] = [None] * n
        #: Next never-used slot; live slots are a subset of ``[0, top)``.
        self.top = 0
        #: Number of live (active) slots.
        self.live = 0

    def _grow(self, rows: int) -> None:
        n = len(self.active)
        while rows > n:
            n *= 2
        if n == len(self.active):
            return
        for name in ("remaining", "rate", "rate_cap", "threshold",
                     "token", "active"):
            old = getattr(self, name)
            new = np.zeros(n, dtype=old.dtype)
            if name == "rate_cap":
                new[:] = np.inf
            new[:len(old)] = old
            setattr(self, name, new)
        hops = np.full((n, self.hops.shape[1]), -1, dtype=np.int64)
        hops[:len(self.hops)] = self.hops
        self.hops = hops
        self.objs.extend([None] * (n - len(self.objs)))

    def _widen(self, width: int) -> None:
        w = self.hops.shape[1]
        while width > w:
            w *= 2
        if w == self.hops.shape[1]:
            return
        hops = np.full((len(self.active), w), -1, dtype=np.int64)
        hops[:, :self.hops.shape[1]] = self.hops
        self.hops = hops

    def insert(self, flow: "Flow", key_slots: List[int]) -> int:
        """Allocate the next slot for ``flow``; returns the slot."""
        slot = self.top
        self._grow(slot + 1)
        self._widen(len(key_slots))
        self.top = slot + 1
        self.live += 1
        self.remaining[slot] = flow.size
        self.rate[slot] = 0.0
        self.rate_cap[slot] = (np.inf if flow.rate_cap is None
                               else flow.rate_cap)
        self.threshold[slot] = flow._finish_threshold
        self.token[slot] = 0
        self.active[slot] = True
        self.hops[slot, :] = -1
        self.hops[slot, :len(key_slots)] = key_slots
        self.objs[slot] = flow
        return slot

    def deactivate(self, slot: int) -> None:
        """Mark ``slot`` dead (the flow finished or was aborted)."""
        self.active[slot] = False
        self.live -= 1

    def active_slots(self) -> np.ndarray:
        """Live slots in arrival order."""
        return np.nonzero(self.active[:self.top])[0]

    def compact(self) -> None:
        """Reclaim dead slots, preserving arrival order of live ones.

        Dead flows' final values are written back onto their objects
        (detaching them from the table) and live flows are renumbered.
        The caller must ensure no external structure still references
        old slot numbers (the flow network compacts only at a full
        reallocation, right before the completion calendar is restaged).
        """
        keep = self.active_slots()
        for slot in range(self.top):
            flow = self.objs[slot]
            if flow is not None and not self.active[slot]:
                flow._detach(float(self.remaining[slot]),
                             float(self.rate[slot]))
                self.objs[slot] = None
        n = len(keep)
        for name in ("remaining", "rate", "rate_cap", "threshold",
                     "token", "active"):
            arr = getattr(self, name)
            arr[:n] = arr[keep]
            if name == "active":
                arr[n:self.top] = False
            elif name == "rate_cap":
                arr[n:self.top] = np.inf
            else:
                arr[n:self.top] = 0
        self.hops[:n] = self.hops[keep]
        self.hops[n:self.top] = -1
        objs = [self.objs[int(s)] for s in keep]
        for new_slot, flow in enumerate(objs):
            flow._slot = new_slot
            self.objs[new_slot] = flow
        for slot in range(n, self.top):
            self.objs[slot] = None
        self.top = n

    def remap_keys(self, lut: np.ndarray) -> None:
        """Renumber key slots in the hop matrix via lookup table ``lut``.

        ``lut`` maps old key slots to new ones; its final element must
        be -1 so the -1 padding maps to itself.
        """
        self.hops[:self.top] = lut[self.hops[:self.top]]


class KeyTable:
    """Array-of-struct storage for (resource, direction) membership keys.

    Key slots are assigned in first-crossing order and tombstoned when
    their member count drops to zero; a key that later becomes active
    again gets a *new* slot at the end.  That reproduces the reference
    implementation's dict semantics (delete + re-insert appends), so
    enumerating alive slots in increasing order visits keys exactly as
    ``dict.items()`` does in the reference fill — which is what makes
    NumPy ``argmin`` tie-breaking match the reference's first-minimum
    scan bit for bit.
    """

    def __init__(self) -> None:
        n = _INITIAL_CAPACITY
        self.count = np.zeros(n, dtype=np.int64)
        self.cap_raw = np.zeros(n)
        self.fault = np.ones(n)
        self.alive = np.zeros(n, dtype=bool)
        #: Slot of the opposite-direction key, or -1 while it has no
        #: members.
        self.partner = np.full(n, -1, dtype=np.int64)
        #: Whether capacity depends on load (duplex factor or a
        #: non-trivial sharing curve) at all.
        self.sensitive = np.zeros(n, dtype=bool)
        #: The resource's duplex factor (1.0 when none) — lets the fill
        #: apply duplex-only sensitivity as one vectorized multiply.
        self.duplex = np.ones(n)
        #: Whether the key needs the Python ``effective_capacity`` path
        #: in the fill: a non-trivial sharing curve or an overridden
        #: method.  Duplex-only keys (the overwhelming majority on
        #: cluster fabrics — every link is duplex-penalized, few carry
        #: sharing curves) stay vectorized.
        self.curved = np.zeros(n, dtype=bool)
        self.resources: List[object] = [None] * n
        self.dirbit = np.zeros(n, dtype=bool)
        #: Packed (id(resource) << 1 | direction) key -> slot.
        self.slot_of: Dict[int, int] = {}
        self.top = 0
        self.live = 0

    def _grow(self, rows: int) -> None:
        n = len(self.alive)
        while rows > n:
            n *= 2
        if n == len(self.alive):
            return
        for name in ("count", "cap_raw", "fault", "alive", "partner",
                     "sensitive", "duplex", "curved", "dirbit"):
            old = getattr(self, name)
            new = np.zeros(n, dtype=old.dtype)
            if name == "partner":
                new[:] = -1
            elif name in ("fault", "duplex"):
                new[:] = 1.0
            new[:len(old)] = old
            setattr(self, name, new)
        self.resources.extend([None] * (n - len(self.resources)))

    def add_member(self, key: int, resource) -> int:
        """Count one more flow on packed ``key``; returns its slot."""
        slot = self.slot_of.get(key)
        if slot is None:
            slot = self.top
            self._grow(slot + 1)
            self.top = slot + 1
            self.live += 1
            self.slot_of[key] = slot
            direction = Direction.REV if key & 1 else Direction.FWD
            self.count[slot] = 1
            self.cap_raw[slot] = resource.raw_capacity(direction)
            self.fault[slot] = resource._fault_factor
            self.alive[slot] = True
            # Subclasses may override effective_capacity (tests model
            # pathological media that way); only the stock
            # load-insensitive implementation may be vectorized away.
            overridden = (type(resource).effective_capacity
                          is not Resource.effective_capacity)
            self.sensitive[slot] = resource._load_sensitive or overridden
            self.duplex[slot] = resource.duplex_factor
            self.curved[slot] = (overridden
                                 or not resource.sharing._trivial)
            self.resources[slot] = resource
            self.dirbit[slot] = bool(key & 1)
            other = self.slot_of.get(key ^ 1)
            if other is not None:
                self.partner[slot] = other
                self.partner[other] = slot
            else:
                self.partner[slot] = -1
        else:
            self.count[slot] += 1
        return slot

    def remove_member(self, key: int) -> None:
        """Count one less flow on packed ``key``; tombstone at zero."""
        slot = self.slot_of[key]
        self.count[slot] -= 1
        if self.count[slot] == 0:
            self.alive[slot] = False
            self.live -= 1
            del self.slot_of[key]
            other = self.partner[slot]
            if other >= 0:
                self.partner[other] = -1
            self.partner[slot] = -1
            self.resources[slot] = None

    def refresh_faults(self) -> None:
        """Re-read every alive key's resource fault factor.

        Called from ``requery_capacity`` after the fault injector
        touched :meth:`~repro.sim.resources.Resource.set_fault_factor`
        on an unknown subset of resources.
        """
        for slot in np.nonzero(self.alive[:self.top])[0]:
            self.fault[slot] = self.resources[slot]._fault_factor

    def compact(self) -> np.ndarray:
        """Reclaim tombstoned slots; returns the old->new lookup table.

        The returned table has ``top + 1`` entries with the final entry
        -1, so callers can remap padded hop matrices in one take.
        """
        keep = np.nonzero(self.alive[:self.top])[0]
        lut = np.full(self.top + 1, -1, dtype=np.int64)
        lut[keep] = np.arange(len(keep))
        n = len(keep)
        for name in ("count", "cap_raw", "fault", "alive", "partner",
                     "sensitive", "duplex", "curved", "dirbit"):
            arr = getattr(self, name)
            arr[:n] = arr[keep]
            if name == "partner":
                arr[n:self.top] = -1
            elif name in ("fault", "duplex"):
                arr[n:self.top] = 1.0
            else:
                arr[n:self.top] = 0
        # Partners were old slot numbers; remap (dead partners are -1
        # already since tombstoning severs the link both ways).
        mask = self.partner[:n] >= 0
        self.partner[:n][mask] = lut[self.partner[:n][mask]]
        objs = [self.resources[int(s)] for s in keep]
        for slot in range(n):
            self.resources[slot] = objs[slot]
        for slot in range(n, self.top):
            self.resources[slot] = None
        self.slot_of = {key: int(lut[slot])
                        for key, slot in self.slot_of.items()}
        self.top = n
        return lut


def water_fill_reference(flows, members, resources,
                         profile=None) -> Dict["Flow", float]:
    """Progressive filling over dicts — the retained reference solver.

    This is the pre-vectorization implementation, kept as the oracle
    the property tests compare :func:`water_fill_arrays` against.  It
    computes the max-min fair allocation by repeatedly finding the
    tightest bottleneck (``remaining capacity / open flows``), freezing
    that bottleneck's flows at the fair share (rate-capped flows first
    when their cap is tighter), and charging the frozen rates to every
    crossed resource direction.

    ``flows`` is the insertion-ordered dict of active flows,
    ``members`` the packed-key -> flow-dict membership index, and
    ``resources`` the packed-resource-id -> resource map.  ``flows``
    and ``members`` may be restricted to one or more connected
    components (keeping both directions of every resource they cross);
    the rates are then exactly those of the full fill.  Returns the
    flow -> rate mapping.  A :class:`~repro.sim.engine.SimProfile`
    passed as ``profile`` is charged the fill rounds.
    """
    remaining_cap: Dict[int, float] = {}
    open_count: Dict[int, int] = {}
    for key, flows_here in members.items():
        n_this = len(flows_here)
        other_bucket = members.get(key ^ 1)
        n_other = len(other_bucket) if other_bucket else 0
        direction = Direction.REV if key & 1 else Direction.FWD
        remaining_cap[key] = resources[key >> 1].effective_capacity(
            direction, n_this, n_other)
        open_count[key] = n_this

    frozen: Dict["Flow", float] = {}
    unfrozen: Dict["Flow", None] = dict(flows)

    def charge(flow, rate):
        for key in flow.hop_keys:
            remaining_cap[key] = max(0.0, remaining_cap[key] - rate)
            open_count[key] -= 1

    rounds = 0
    while unfrozen:
        rounds += 1
        best_share = math.inf
        best_key = -1
        for key, count in open_count.items():
            if count <= 0:
                continue
            share = remaining_cap[key] / count
            if share < best_share:
                best_share = share
                best_key = key

        capped = [f for f in unfrozen
                  if f.rate_cap is not None and f.rate_cap < best_share]
        if capped:
            tightest = min(f.rate_cap for f in capped)
            for flow in capped:
                if flow.rate_cap == tightest:
                    frozen[flow] = tightest
                    del unfrozen[flow]
                    charge(flow, tightest)
            continue

        if best_key < 0:
            for flow in unfrozen:
                if flow.rate_cap is None:
                    raise SimulationError(
                        f"flow {flow.label!r} is unconstrained")
                frozen[flow] = flow.rate_cap
            unfrozen.clear()
            break

        if best_share <= 0.0:
            resource = resources[best_key >> 1]
            direction = "rev" if best_key & 1 else "fwd"
            squeezed = [f.label or repr(f) for f in members[best_key]
                        if f not in frozen]
            raise SimulationError(
                f"resource {resource.name!r} ({direction}) has zero "
                f"effective capacity left for flow(s) "
                f"{', '.join(squeezed)}; its bandwidth is fully "
                "consumed by rate-capped or multi-hop flows")

        for flow in members[best_key]:
            if flow not in frozen:
                frozen[flow] = best_share
                del unfrozen[flow]
                charge(flow, best_share)

    if profile is not None:
        profile.fill_rounds += rounds
    return frozen


def water_fill_arrays(ft: FlowTable, kt: KeyTable,
                      active: np.ndarray,
                      members: Optional[Dict[int, Dict]] = None,
                      profile=None,
                      keys: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized progressive filling; returns per-flow rates.

    ``active`` is the arrival-ordered array of live flow slots to
    solve.  The returned rate array is parallel to it.  ``keys``, the
    increasing key slots those flows cross, restricts the fill to
    connected components (default: every alive key, which needs
    ``active`` to hold every live flow).  ``members`` is only touched
    on the zero-capacity error path (for the squeezed-flow labels in
    the diagnostic).

    Every float operation mirrors :func:`water_fill_reference` — see
    the module docstring for the bit-exactness contract.
    """
    F = len(active)
    caps_f = ft.rate_cap[active]
    hops_f = ft.hops[active]

    alive = np.nonzero(kt.alive[:kt.top])[0] if keys is None else keys
    K = len(alive)
    counts = kt.count[alive]
    partner = kt.partner[alive]
    n_other = np.where(partner >= 0,
                       kt.count[np.maximum(partner, 0)], 0)
    # Effective capacities under this load.  Load-insensitive keys are
    # raw capacity times the fault factor (multiplying by an exact 1.0
    # is the identity, so healthy resources round identically to the
    # reference's skip).  Duplex-only sensitive keys vectorize too:
    # the reference multiplies the faulted capacity by duplex_factor
    # while both directions are busy, then by the sharing factor — an
    # exact 1.0 for trivial curves, another identity multiply it skips.
    # Only curved keys (non-trivial sharing curve or an overridden
    # effective_capacity) take the Python method the reference calls.
    cap = kt.cap_raw[alive] * kt.fault[alive]
    sensitive = kt.sensitive[alive]
    curved = kt.curved[alive]
    dup = sensitive & ~curved & (counts > 0) & (n_other > 0)
    if dup.any():
        cap[dup] *= kt.duplex[alive[dup]]
    for i in np.nonzero(curved)[0]:
        slot = alive[i]
        direction = Direction.REV if kt.dirbit[slot] else Direction.FWD
        cap[i] = kt.resources[slot].effective_capacity(
            direction, int(counts[i]), int(n_other[i]))

    # Hop matrix in compact key positions.  The -1 padding indexes the
    # deliberately -1-valued final element of ``pos``, mapping to -1.
    pos = np.full(kt.top + 1, -1, dtype=np.int64)
    pos[alive] = np.arange(K)
    hp = pos[hops_f]

    remaining = cap
    open_ = counts.astype(np.int64, copy=True)
    unfrozen = np.ones(F, dtype=bool)
    rates = np.zeros(F)
    rounds = 0

    while unfrozen.any():
        rounds += 1
        valid = open_ > 0
        if valid.any():
            shares = np.where(valid,
                              remaining / np.where(valid, open_, 1),
                              np.inf)
            b = int(np.argmin(shares))
            best_share = float(shares[b])
        else:
            b = -1
            best_share = math.inf

        capped = unfrozen & (caps_f < best_share)
        if capped.any():
            tightest = float(caps_f[capped].min())
            freeze = unfrozen & (caps_f == tightest)
            rate = tightest
        elif b < 0:
            first = int(np.argmax(unfrozen))
            flow = ft.objs[int(active[first])]
            raise SimulationError(
                f"flow {flow.label!r} is unconstrained")
        else:
            if best_share <= 0.0:
                key_slot = int(alive[b])
                resource = kt.resources[key_slot]
                direction = "rev" if kt.dirbit[key_slot] else "fwd"
                packed = (id(resource) << 1) | int(kt.dirbit[key_slot])
                frozen_flows = {ft.objs[int(active[i])]
                                for i in np.nonzero(~unfrozen)[0]}
                bucket = (members or {}).get(packed, {})
                squeezed = [f.label or repr(f) for f in bucket
                            if f not in frozen_flows]
                raise SimulationError(
                    f"resource {resource.name!r} ({direction}) has zero "
                    f"effective capacity left for flow(s) "
                    f"{', '.join(squeezed)}; its bandwidth is fully "
                    "consumed by rate-capped or multi-hop flows")
            freeze = unfrozen & (hp == b).any(axis=1)
            rate = best_share

        rates[freeze] = rate
        unfrozen &= ~freeze
        if not unfrozen.any():
            break

        # Charge the frozen rates: the reference subtracts ``rate``
        # once per frozen crossing with an intermediate max(0, .)
        # clamp, so a key crossed k times is charged by k sequential
        # subtractions, not one fused k*rate (different rounding).
        fh = hp[freeze].ravel()
        fh = fh[fh >= 0]
        mult = np.bincount(fh, minlength=K)
        open_ -= mult
        pending = mult > 0
        while pending.any():
            remaining[pending] = np.maximum(0.0, remaining[pending] - rate)
            mult[pending] -= 1
            pending = mult > 0

    if profile is not None:
        profile.fill_rounds += rounds
    return rates
