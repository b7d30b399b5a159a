"""P2P sort: GPU-only multi-GPU sorting (Section 5.2).

The algorithm of Tanasic et al., extended to any ``g = 2^k`` GPUs
(Algorithm 2):

1. partition the input into ``g`` equal chunks, copy one to each GPU,
2. sort every chunk locally (fastest single-GPU primitive, Table 2),
3. merge the chunks into the globally sorted order through a series of
   merge stages: recursively merge each half, run the global
   pivot-swap-merge step across the halves, then recursively merge the
   halves again,
4. copy the chunks back to the host.

Implementation notes carried over from the paper:

* leftmost-pivot selection minimizes (and can entirely skip) P2P
  traffic,
* swaps are out-of-place into the sort's auxiliary buffer, overlapping
  the inbound P2P stream with a device-local copy of the kept block,
* the GPU *order* matters on partially-connected topologies
  (Section 5.4) — pass an explicitly ordered ``gpu_ids`` or let
  :func:`repro.sort.gpu_set.best_gpu_order_for_p2p` pick.

The sort has one execution path, the phase driver :class:`P2PRun`
(Partition, LocalSort, Exchange, Gather, plus Restore).
:func:`p2p_sort` and :class:`~repro.recovery.SortSupervisor` run it
through the supervisor's phase loop, and the hierarchical sort runs
its phase bodies inside each node.  One rule decides supervision
(:func:`repro.recovery.tasks.run_phase`): a phase runs under a
shielded task group only when a fault plan or a deadline can stop it
mid-flight.  So a fault-free run executes plain processes, and under a
fault plan :func:`p2p_sort` is elastic: a GPU lost mid-run replans the
sort over the survivors instead of failing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import RecoveryError, ReproError, SortError
from repro.faults.policy import ResiliencePolicy
from repro.recovery.checkpoint import PhaseCheckpoint
from repro.runtime.buffer import DeviceBuffer, HostBuffer, default_pool
from repro.runtime.context import Machine
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.kernels import merge_two_on_device, sort_on_device
from repro.runtime.memcpy import copy_async, span
from repro.sort import placement as pl
from repro.sort.pivot import is_valid_pivot, select_pivot, select_pivot_paper
from repro.sort.result import SortResult
from repro.sort.swap import block_swap_sizes, swap_and_merge_pair
from repro.units import US


@dataclass
class P2PConfig:
    """Tunables of the P2P sort (defaults follow the paper)."""

    #: Single-GPU sort primitive (Table 2; ``thrust`` is the fastest).
    primitive: str = "thrust"
    #: Use the leftmost valid pivot (skips empty swaps).  ``False``
    #: falls back to the paper's literal Algorithm 1 for the ablation.
    leftmost_pivot: bool = True
    #: Overlap the P2P streams with device-local copies (out-of-place
    #: swap).  ``False`` serializes the two P2P copy directions — the
    #: ablation for the Section 5.2 claim that the optimization holds.
    out_of_place_swap: bool = True
    #: Route host-staged P2P swaps through relay GPUs when a faster
    #: all-NVLink path exists (Section 7 future work, implemented here;
    #: see :mod:`repro.runtime.multihop`).
    multihop: bool = False
    #: Where the input chunks are staged: ``"node0"`` (the paper's
    #: setup — everything in NUMA node 0) or ``"numa-local"`` (each
    #: GPU's chunk on its own node; see :mod:`repro.sort.placement`).
    input_placement: str = "node0"
    #: With ``numa-local`` placement, charge the one-time host-to-host
    #: shuffle that moves remote chunks across the CPU interconnect.
    charge_redistribution: bool = True
    #: Latency of one remote P2P memory read during pivot selection.
    pivot_probe_latency_s: float = 2 * US


@dataclass
class _Stats:
    p2p_bytes: float = 0.0
    stages: int = 0
    pivots: List[int] = field(default_factory=list)


class _Chunk:
    """One GPU's chunk: primary/auxiliary key buffers, optional payloads."""

    def __init__(self, device, primary: DeviceBuffer, aux: DeviceBuffer,
                 value_primary: Optional[DeviceBuffer] = None,
                 value_aux: Optional[DeviceBuffer] = None):
        self.device = device
        self.primary = primary
        self.aux = aux
        self.value_primary = value_primary
        self.value_aux = value_aux

    @property
    def size(self) -> int:
        return self.primary.capacity

    @property
    def has_values(self) -> bool:
        return self.value_primary is not None

    def flip_buffers(self) -> None:
        """Swap primary and auxiliary roles (after an out-of-place swap)."""
        self.primary, self.aux = self.aux, self.primary
        if self.has_values:
            self.value_primary, self.value_aux = (self.value_aux,
                                                  self.value_primary)

    def all_buffers(self):
        """Every allocated buffer (for freeing)."""
        buffers = [self.primary, self.aux]
        if self.has_values:
            buffers += [self.value_primary, self.value_aux]
        return buffers


class _ConcatView:
    """Read-only view of several equal chunks as one sorted array.

    Pivot selection reads single elements across the chunk group; on
    real hardware those are remote P2P reads.
    """

    def __init__(self, chunks: Sequence[_Chunk]):
        self.chunks = list(chunks)
        self.chunk_size = chunks[0].size

    def __len__(self) -> int:
        return self.chunk_size * len(self.chunks)

    def __getitem__(self, index: int):
        chunk, offset = divmod(index, self.chunk_size)
        return self.chunks[chunk].primary.data[offset]


def _pivot_for(config: P2PConfig, left: _ConcatView, right: _ConcatView) -> int:
    if config.leftmost_pivot:
        return select_pivot(left, right)
    pivot = select_pivot_paper(left, right)
    if not is_valid_pivot(left, right, pivot):
        # Algorithm 1 as printed can miss under heavy duplication; fall
        # back to the verified leftmost pivot (documented deviation).
        pivot = select_pivot(left, right)
    return pivot


def _serialized_swap(machine: Machine, left: _Chunk, right: _Chunk,
                     pivot: int, group):
    """In-place-style swap for the ablation: staged, serialized copies."""
    n = left.size
    keep_left = n - pivot
    if pivot == 0:
        return 0.0
    # Stage left's tail in left's aux, then the two P2P legs one after
    # the other (no bidirectional overlap), then merge.
    legs = [(left.aux, left.primary, right.primary)]
    bytes_moved = 2.0 * pivot * left.primary.dtype.itemsize * machine.scale
    if left.has_values:
        legs.append((left.value_aux, left.value_primary,
                     right.value_primary))
        bytes_moved += (2.0 * pivot * left.value_primary.dtype.itemsize
                        * machine.scale)
    for aux, left_buf, right_buf in legs:
        yield from copy_async(machine, span(aux, 0, pivot),
                              span(left_buf, keep_left, n), phase="Merge")
        yield from copy_async(machine, span(left_buf, keep_left, n),
                              span(right_buf, 0, pivot), phase="Merge")
        yield from copy_async(machine, span(right_buf, 0, pivot),
                              span(aux, 0, pivot), phase="Merge")
    if pivot < n:
        merges = [
            group.spawn(merge_two_on_device(
                machine, span(left.primary, 0, n), keep_left, phase="Merge",
                values=span(left.value_primary, 0, n)
                if left.has_values else None)),
            group.spawn(merge_two_on_device(
                machine, span(right.primary, 0, n), pivot, phase="Merge",
                values=span(right.value_primary, 0, n)
                if right.has_values else None)),
        ]
        yield machine.env.all_of(merges)
        group.check()
    return bytes_moved


def _merge_chunks(machine: Machine, chunks: List[_Chunk],
                  config: P2PConfig, stats: _Stats, group):
    """Algorithm 2: recursive merge of ``len(chunks)`` sorted chunks.

    Every concurrent step is started with ``group.spawn`` and followed
    by ``group.check()`` down the recursion and into the swaps (see
    :func:`repro.recovery.tasks.run_phase`).
    """
    g = len(chunks)
    if g < 2:
        return
    env = machine.env
    half = g // 2
    left_chunks, right_chunks = chunks[:half], chunks[half:]

    def merge_halves():
        yield env.all_of([
            group.spawn(_merge_chunks(machine, part, config, stats, group))
            for part in (left_chunks, right_chunks)])
        group.check()

    if g > 2:
        yield from merge_halves()

    left = _ConcatView(left_chunks)
    right = _ConcatView(right_chunks)
    # O(log n) remote reads for the binary search (Section 5.2: ~0.03%
    # of total time; we charge two probes per bisection step).
    probes = 2 * max(1, math.ceil(math.log2(len(left) + 1)))
    yield env.timeout(probes * config.pivot_probe_latency_s)
    group.check()
    pivot = _pivot_for(config, left, right)
    stats.pivots.append(pivot)

    if pivot > 0:
        chunk_size = chunks[0].size
        sizes = block_swap_sizes(pivot, chunk_size, half)
        swaps = []
        for m, size in enumerate(sizes):
            if size == 0:
                continue
            pair_left = chunks[half - 1 - m]
            pair_right = chunks[half + m]
            if config.out_of_place_swap:
                op = swap_and_merge_pair(machine, pair_left, pair_right,
                                         size, multihop=config.multihop,
                                         group=group)
            else:
                op = _serialized_swap(machine, pair_left, pair_right, size,
                                      group)
            swaps.append(group.spawn(op))
        if swaps:
            done = yield env.all_of(swaps)
            group.check()
            # Shielded swap tasks resolve to ``None`` when they failed
            # mid-flight; their bytes never fully moved.
            stats.p2p_bytes += sum(v for v in done.values() if v)

    if g > 2:
        yield from merge_halves()


def _pad_value(dtype: np.dtype):
    if dtype.kind == "f":
        return np.finfo(dtype).max
    return np.iinfo(dtype).max


class P2PRun:
    """One P2P sort: its state and phase bodies (the only P2P path).

    ``Partition`` places each GPU's slice of the input (``numa-local``:
    on the GPU's own node, after a charged ``Redistribute``), allocates
    the chunk, auxiliary and payload buffers and copies the slices down
    (``HtoD``); ``LocalSort`` sorts every chunk, supervised with
    optional speculative backups (:meth:`_speculation_monitor`);
    ``Exchange`` is Algorithm 2's recursive pivot-swap-merge;
    ``Gather`` copies the chunks back (``DtoH``); ``Restore`` rebuilds
    the chunks from a staged sorted checkpoint after a replan.  Each
    body is a process called as ``body(group)`` (see
    :func:`repro.recovery.tasks.run_phase`).  The supervisor's phase
    loop (``sup``) drives them one at a time through the driver
    protocol (``queue``, ``checkpoint_body``, ``after_phase``,
    ``replan``, ``finalize``, ``result_fields``, ``cleanup``); the
    hierarchical sort runs all four in one node task (:meth:`run_local`).

    The input is padded only when ``g`` does not divide it, to a length
    fixed at the *initial* GPU count, which every later power-of-two
    survivor prefix divides.  Key-only pads are dtype-max sentinels;
    key-value pads duplicate a real maximal record, and the extra
    copies are dropped from the output.  Payload runs are not staged to
    host memory, so a key-value run restarts from ``Partition`` on a
    replan and never speculates.
    """

    def __init__(self, machine: Machine, host_in: HostBuffer,
                 ids: Sequence[int], p2p_config: Optional[P2PConfig] = None,
                 values: Optional[np.ndarray] = None, sup=None):
        self.machine = machine
        self.sup = sup
        self.config = config = p2p_config or P2PConfig()
        if config.input_placement not in (pl.NODE0, pl.NUMA_LOCAL):
            raise SortError(
                f"unknown input_placement {config.input_placement!r}")
        self.pool = sup.pool if sup is not None else default_pool
        self.n = n = len(host_in.data)
        self.dtype = host_in.dtype
        self.ids = tuple(ids)
        g = len(self.ids)
        if g & (g - 1):
            raise SortError(
                f"P2P sort needs a power-of-two GPU count, got {g}")
        self.chunk = -(-n // g)
        self.padded = self.chunk * g
        host_values = None
        if values is not None:
            values = np.asarray(values)
            if len(values) != n:
                raise SortError(f"{len(values)} values for {n} keys")
            host_values = machine.host_buffer(values, numa=host_in.numa,
                                              pinned=host_in.pinned)

        self.staging = host_in
        self.value_staging = host_values
        self._pad_record = None
        # Padded staging arrays are pure scratch — dead once the HtoD
        # copies have run — so they come from the workspace pool and go
        # back in cleanup().
        self._borrowed: List[np.ndarray] = []
        if self.padded != n:
            keys = self._take_padded(host_in)
            if host_values is None:
                # Key-only padding: dtype-max sentinels sort to the tail.
                keys[n:] = _pad_value(self.dtype)
            else:
                # Key-value padding duplicates a real maximal record so
                # the pads are interchangeable with a genuine record;
                # the extras are dropped after the sort without
                # disturbing any real payload.
                top = int(np.argmax(host_in.data))
                self._pad_record = (host_in.data[top], host_values.data[top])
                keys[n:] = self._pad_record[0]
                vals = self._take_padded(host_values)
                vals[n:] = self._pad_record[1]
                self.value_staging = machine.host_buffer(
                    vals, numa=host_in.numa, pinned=host_in.pinned)
            self.staging = machine.host_buffer(keys, numa=host_in.numa,
                                               pinned=host_in.pinned)
        self.host_out = machine.host_buffer(
            np.empty(self.padded, dtype=self.dtype), numa=self.staging.numa)
        self.values_out = None
        if host_values is not None:
            self.values_out = machine.host_buffer(
                np.empty(self.padded, dtype=host_values.dtype),
                numa=self.staging.numa)

        self.chunks: List[_Chunk] = []
        self.sorted_flags: List[bool] = []
        self.stats = _Stats()
        self.queue: List[str] = ["Partition", "LocalSort", "Exchange",
                                 "Gather"]
        self._allocated: List[DeviceBuffer] = []
        self._sort_procs: Dict[int, object] = {}
        self._pending_stage: Dict[int, np.ndarray] = {}
        self._restore_ck = None
        #: The full output when host memory produced it (a merged
        #: checkpoint, or the CPU-merge fallback of a restore).
        self.host_output: Optional[np.ndarray] = None

    def _take_padded(self, source: HostBuffer) -> np.ndarray:
        array = self.pool.take(self.padded, source.dtype)
        self._borrowed.append(array)
        array[:self.n] = source.data
        return array

    @property
    def has_values(self) -> bool:
        return self.value_staging is not None

    # -- driver protocol ---------------------------------------------------
    def body(self, name: str):
        return {"Partition": self._partition,
                "LocalSort": self._local_sort,
                "Exchange": self._exchange,
                "Restore": self._restore,
                "Gather": self._gather}[name]

    def run_local(self, group):
        """Process: all four phases back to back in one task."""
        for name in ("Partition", "LocalSort", "Exchange", "Gather"):
            yield from self.body(name)(group)

    def checkpoint_body(self, name: str):
        if self.has_values:
            return None
        cfg = self.sup.config
        if name == "LocalSort" and cfg.checkpoint_sorted_chunks:
            return self._stage_chunks
        if name == "Exchange" and cfg.checkpoint_merged_chunks:
            return self._stage_chunks
        return None

    def after_phase(self, name: str) -> None:
        now = self.machine.env.now
        if name == "Partition":
            self.sup.note_checkpoint(PhaseCheckpoint(
                phase=name, at=now, gpu_ids=self.ids, chunk=self.chunk))
        elif name in ("LocalSort", "Exchange"):
            if len(self._pending_stage) == len(self.chunks):
                kind = "sorted" if name == "LocalSort" else "merged"
                payloads = tuple(self._pending_stage[slot]
                                 for slot in range(len(self.chunks)))
                self.sup.note_checkpoint(PhaseCheckpoint(
                    phase=name, at=now, gpu_ids=self.ids,
                    chunk=self.chunk, kind=kind, payloads=payloads))
            self._pending_stage = {}
        elif name == "Restore":
            ck = self._restore_ck
            self.sup.note_restored(
                name, len(ck.payloads) if ck is not None else 0)
            self._restore_ck = None
            if self.host_output is not None:
                # The host merge already produced the full output —
                # nothing left for the remaining phases to do.
                self.queue = [name]

    def replan(self, phase: str, survivors, exc) -> None:
        self._free_device_state()
        keep = 1 << int(math.log2(len(survivors)))
        self.ids = tuple(survivors[:keep])
        self.chunk = self.padded // len(self.ids)
        self.sorted_flags = []
        self._sort_procs = {}
        self._pending_stage = {}
        ck = self.sup.last_restorable()
        if ck is not None and ck.kind == "merged":
            # Globally merged chunks are staged on the host: the output
            # assembles from the checkpoint, no GPU work remains.
            self.host_output = np.concatenate(ck.payloads)
            self.queue = []
        elif ck is not None and ck.kind == "sorted":
            self._restore_ck = ck
            self.queue = ["Restore", "Exchange", "Gather"]
        else:
            self.queue = ["Partition", "LocalSort", "Exchange", "Gather"]

    def finalize(self):
        """``(keys, values)`` of the sorted output, padding removed."""
        n = self.n
        if self.host_output is not None:
            return self.host_output[:n], None
        keys = self.host_out.data
        if self.values_out is None:
            return keys[:n], None
        values = self.values_out.data
        if self._pad_record is None:
            return keys[:n], values[:n]
        # Drop the duplicated pad records (any copies are equivalent).
        duplicates = np.flatnonzero((keys == self._pad_record[0])
                                    & (values == self._pad_record[1]))
        keep = np.ones(self.padded, dtype=bool)
        keep[duplicates[n - self.padded:]] = False
        return keys[keep], values[keep]

    def result_fields(self) -> dict:
        g = len(self.ids)
        return {
            "p2p_bytes": self.stats.p2p_bytes,
            # Sequential merge-stage depth: pairwise stages surround
            # each higher-level global stage (3 for four GPUs, Fig. 9).
            "merge_stages": 2 * int(math.log2(g)) - 1 if g > 1 else 0,
            # Pivots accumulate across replans: aborted exchange
            # attempts keep their probes (they were paid for).
            "pivots": tuple(self.stats.pivots),
        }

    def cleanup(self) -> None:
        self._free_device_state()
        for array in self._borrowed:
            self.pool.give(array)
        self._borrowed = []

    # -- phase bodies ------------------------------------------------------
    def _partition(self, group):
        machine = self.machine
        config = self.config
        chunk = self.chunk
        value_itemsize = (self.value_staging.dtype.itemsize
                          if self.has_values else 0)
        need = 2 * chunk * (self.dtype.itemsize + value_itemsize) \
            * machine.scale
        for gpu_id in self.ids:
            device = machine.device(gpu_id)
            if need > device.capacity_logical:
                raise SortError(
                    f"{device.name}: chunk of {chunk} keys needs "
                    f"{need / 1e9:.1f} GB (primary + auxiliary buffer), "
                    f"exceeding {device.capacity_logical / 1e9:.1f} GB; "
                    "use HET sort for out-of-core data")
        # Input placement (Section 7 / repro.sort.placement): the
        # paper's default keeps everything on node 0; "numa-local"
        # stages each GPU's chunk (and payloads) on the GPU's own node.
        ranges = [(i * chunk, (i + 1) * chunk)
                  for i in range(len(self.ids))]
        sources = [self.staging] + ([self.value_staging]
                                    if self.has_values else [])
        placed = [pl.place_chunks(machine, source, self.ids, ranges,
                                  placement=config.input_placement)
                  for source in sources]
        if (config.input_placement == pl.NUMA_LOCAL
                and config.charge_redistribution):
            for source, chunks in zip(sources, placed):
                yield from pl.redistribute(machine, source, chunks,
                                           spawn=group.spawn)
                group.check()
        kinds = [(self.dtype, "chunk"), (self.dtype, "aux")]
        if self.has_values:
            kinds += [(self.value_staging.dtype, "vals"),
                      (self.value_staging.dtype, "vaux")]
        self.chunks = []
        for gpu_id in self.ids:
            device = machine.device(gpu_id)
            self.chunks.append(_Chunk(device, *(
                self._alloc(device, chunk, dtype, label)
                for dtype, label in kinds)))
        self.sorted_flags = [False] * len(self.ids)
        copies = []
        for i, c in enumerate(self.chunks):
            copies.append(group.spawn(copy_async(
                machine, span(c.primary), span(placed[0][i].staging),
                phase="HtoD")))
            if c.has_values:
                copies.append(group.spawn(copy_async(
                    machine, span(c.value_primary),
                    span(placed[1][i].staging), phase="HtoD")))
        yield machine.env.all_of(copies)
        group.check()

    def _local_sort(self, group):
        env = self.machine.env
        pending = [slot for slot, done in enumerate(self.sorted_flags)
                   if not done]
        if not pending:
            return
        # Backups need a group to cancel the loser in, and only a fault
        # plan makes a straggler.
        speculate = (group.supervised and self.sup is not None
                     and self.sup.config.speculation
                     and not self.has_values and len(pending) >= 2)
        done_evts = {slot: env.event() for slot in pending} \
            if speculate else {}
        durations: Dict[int, float] = {}
        phase_start = env.now
        self._sort_procs = {
            slot: group.spawn(self._sort_task(slot, done_evts.get(slot),
                                              durations, phase_start))
            for slot in pending}
        if speculate:
            group.spawn(self._speculation_monitor(
                group, done_evts, durations, phase_start))
        yield env.all_of(list(self._sort_procs.values()))
        group.check()

    def _sort_task(self, slot: int, done_evt, durations, start):
        try:
            c = self.chunks[slot]
            yield from sort_on_device(
                self.machine, span(c.primary),
                primitive=self.config.primitive, phase="Sort",
                values=span(c.value_primary) if c.has_values else None)
            self.sorted_flags[slot] = True
            durations[slot] = self.machine.env.now - start
        finally:
            # Fires on success, failure *and* cancellation so the
            # speculation monitor never waits on a dead task.
            if done_evt is not None and not done_evt.triggered:
                done_evt.succeed()

    def _exchange(self, group):
        yield from _merge_chunks(self.machine, self.chunks, self.config,
                                 self.stats, group)

    def _gather(self, group):
        machine = self.machine
        chunk = self.chunk
        numa_local = self.config.input_placement == pl.NUMA_LOCAL
        outputs = [self.host_out] + ([self.values_out]
                                     if self.has_values else [])
        targets = []
        copies = []
        for i, c in enumerate(self.chunks):
            lo, hi = i * chunk, (i + 1) * chunk
            for output, source in zip(outputs, (c.primary, c.value_primary)):
                if numa_local:
                    # The sorted slice lands on the GPU's own node.
                    target = pl.output_buffer_for(
                        machine, c.device.id, chunk, output.dtype,
                        pl.NUMA_LOCAL, output.numa)
                    targets.append((output, lo, hi, target))
                    dst = span(target)
                else:
                    dst = span(output, lo, hi)
                copies.append(group.spawn(copy_async(
                    machine, dst, span(source), phase="DtoH")))
        yield machine.env.all_of(copies)
        group.check()
        # With numa-local placement the sorted slices physically live
        # on both nodes; assembling one output array is for the
        # caller's convenience and is not charged.
        for output, lo, hi, target in targets:
            output.data[lo:hi] = target.data

    # -- checkpoint staging ------------------------------------------------
    def _stage_chunks(self, group):
        self._pending_stage = {}
        stages = [group.spawn(self._stage_task(slot))
                  for slot in range(len(self.chunks))]
        yield self.machine.env.all_of(stages)
        group.check()

    def _stage_task(self, slot: int):
        machine = self.machine
        array = np.empty(self.chunk, dtype=self.dtype)
        host = machine.host_buffer(array, numa=self.staging.numa,
                                   pinned=True)
        yield from copy_async(machine, span(host),
                              span(self.chunks[slot].primary),
                              phase="Checkpoint")
        # Recorded only once the DtoH completed: a chunk whose staging
        # copy died never enters the checkpoint.
        self._pending_stage[slot] = array

    # -- restore from a sorted checkpoint ----------------------------------
    def _restore(self, group):
        machine = self.machine
        ck = self._restore_ck
        assert ck is not None and ck.payloads is not None
        runs = ck.payloads
        old_chunk = ck.chunk
        per = len(runs) // len(self.ids)
        new_chunk = old_chunk * per
        need = 2 * new_chunk * self.dtype.itemsize * machine.scale
        fits = all(need <= machine.device(gpu).capacity_logical
                   for gpu in self.ids)
        if not fits:
            if not self.sup.config.cpu_merge_fallback:
                raise RecoveryError(
                    f"survivors {self.ids} cannot hold chunks of "
                    f"{new_chunk} keys and cpu_merge_fallback is off")
            out = np.empty(self.padded, dtype=self.dtype)
            yield from cpu_multiway_merge(machine, out, list(runs),
                                          numa=self.staging.numa,
                                          phase="Merge")
            self.host_output = out
            return
        self.chunk = new_chunk
        self.chunks = []
        for gpu_id in self.ids:
            device = machine.device(gpu_id)
            self.chunks.append(_Chunk(
                device, self._alloc(device, new_chunk, self.dtype, "chunk"),
                self._alloc(device, new_chunk, self.dtype, "aux")))
        self.sorted_flags = [True] * len(self.ids)
        restores = [group.spawn(self._restore_slot(
            slot, runs[slot * per:(slot + 1) * per], old_chunk))
            for slot in range(len(self.ids))]
        yield machine.env.all_of(restores)
        group.check()

    def _restore_slot(self, slot: int, runs, old_chunk: int):
        """Rebuild one survivor chunk from ``per`` staged sorted runs."""
        machine = self.machine
        c = self.chunks[slot]
        for r, run in enumerate(runs):
            host = machine.host_buffer(run, numa=self.staging.numa,
                                       pinned=True)
            yield from copy_async(
                machine, span(c.primary, r * old_chunk,
                              (r + 1) * old_chunk),
                span(host), phase="Restore")
            if r:
                # Keep the growing prefix sorted: merge the new run in.
                yield from merge_two_on_device(
                    machine, span(c.primary, 0, (r + 1) * old_chunk),
                    r * old_chunk, phase="Restore")

    # -- speculation -------------------------------------------------------
    def _speculation_monitor(self, group, done_evts, durations,
                             phase_start):
        """Watch the local sorts; back up stragglers on finished GPUs.

        Arms once a quorum of sorts finished (the median duration is
        then meaningful); a still-running sort becomes a straggler when
        the phase has run past ``speculation_multiple`` times that
        median.  Each straggler gets one backup: re-sort its staging
        slice on the least-loaded finished GPU; the first finisher wins
        and the loser is cancelled.
        """
        env = self.machine.env
        cfg = self.sup.config
        quorum = max(1, math.ceil(len(done_evts) * cfg.speculation_quorum))
        while sum(1 for e in done_evts.values() if e.triggered) < quorum:
            waiting = [e for e in done_evts.values() if not e.triggered]
            if not waiting:
                return
            yield env.any_of(waiting)
        if not durations:
            # Quorum reached through failures, not completions — the
            # group failure path owns what happens next.
            return
        median = float(np.median(list(durations.values())))
        target = phase_start + cfg.speculation_multiple * median
        while True:
            laggards = [slot for slot, e in done_evts.items()
                        if not e.triggered]
            if not laggards:
                return
            if env.now >= target:
                break
            yield env.any_of([env.timeout(target - env.now)]
                             + [done_evts[slot] for slot in laggards])
        busy = set()
        for slot in laggards:
            if done_evts[slot].triggered or self.sorted_flags[slot]:
                continue
            helper = self._pick_helper(durations, busy, slot)
            if helper is None:
                continue
            busy.add(helper)
            group.spawn(self._speculate(group, slot, helper,
                                        done_evts[slot]))

    def _pick_helper(self, durations, busy, straggler: int) -> Optional[int]:
        machine = self.machine
        for slot, _duration in sorted(durations.items(),
                                      key=lambda kv: (kv[1], kv[0])):
            if slot == straggler or slot in busy:
                continue
            if (machine.faults is not None
                    and machine.faults.is_failed(self.ids[slot])):
                continue
            return slot
        return None

    def _speculate(self, group, slot: int, helper_slot: int, orig_done):
        machine = self.machine
        env = machine.env
        sup = self.sup
        straggler = self.chunks[slot]
        helper = self.chunks[helper_slot]
        sup.rec.speculations += 1
        if machine.obs is not None:
            machine.obs.speculated("Sort", straggler.device.name,
                                   helper.device.name, "launched", env.now)
        outcome = "aborted"
        try:
            temp = self._alloc(helper.device, self.chunk, self.dtype,
                               f"spec{slot}on")
        except ReproError:
            # No room (or the helper just died) — give up quietly; the
            # original sort is still running.
            if machine.obs is not None:
                machine.obs.speculated("Sort", straggler.device.name,
                                       helper.device.name, outcome,
                                       env.now)
            return
        backup_done = env.event()
        flag: Dict[str, bool] = {}
        backup = group.spawn(
            self._backup_chain(slot, temp, backup_done, flag))
        outcome = "abandoned"
        try:
            yield env.any_of([orig_done, backup_done])
            if self.sorted_flags[slot]:
                # The original finished first: cancel the backup and
                # wait for it to unwind before freeing its buffer.
                outcome = "lost"
                group.interrupt_task(backup)
                if not backup_done.triggered:
                    yield backup_done
            elif flag.get("sorted"):
                outcome = "won"
                original = self._sort_procs.get(slot)
                if original is not None:
                    group.interrupt_task(original)
                yield from copy_async(machine, span(straggler.primary),
                                      span(temp), phase="Speculate")
                self.sorted_flags[slot] = True
                sup.rec.speculative_wins += 1
            # Otherwise both events fired through failures — the group
            # failure path owns recovery ("abandoned").
        finally:
            self._free_quietly(temp)
            if machine.obs is not None:
                machine.obs.speculated("Sort", straggler.device.name,
                                       helper.device.name, outcome,
                                       env.now)

    def _backup_chain(self, slot: int, temp, backup_done, flag):
        """Re-fetch the straggler's input and sort it on the helper."""
        machine = self.machine
        try:
            lo = slot * self.chunk
            yield from copy_async(machine, span(temp),
                                  span(self.staging, lo, lo + self.chunk),
                                  phase="Speculate")
            yield from sort_on_device(machine, span(temp),
                                      primitive=self.config.primitive,
                                      phase="Speculate")
            flag["sorted"] = True
        finally:
            if not backup_done.triggered:
                backup_done.succeed()

    # -- allocation bookkeeping --------------------------------------------
    def _alloc(self, device, count: int, dtype, label: str) -> DeviceBuffer:
        buffer = device.alloc(count, dtype, label=f"{label}{device.id}")
        self._allocated.append(buffer)
        return buffer

    def _free_quietly(self, buffer) -> None:
        if not buffer.released:
            try:
                buffer.free()
            except ReproError:
                pass
        if buffer in self._allocated:
            self._allocated.remove(buffer)

    def _free_device_state(self) -> None:
        for buffer in list(self._allocated):
            self._free_quietly(buffer)
        self._allocated = []
        self.chunks = []


def p2p_sort(machine: Machine, data: Union[np.ndarray, HostBuffer],
             gpu_ids: Optional[Sequence[int]] = None,
             config: Optional[P2PConfig] = None,
             values: Optional[np.ndarray] = None,
             resilience: Optional[ResiliencePolicy] = None) -> SortResult:
    """Sort ``data`` across GPUs with the P2P algorithm; returns the result.

    ``data`` may be a NumPy array (wrapped as a pinned buffer on NUMA
    node 0, the paper's setup) or an existing :class:`HostBuffer`.
    ``gpu_ids`` is an *ordered* GPU set of power-of-two size; it
    defaults to the platform's paper-faithful choice.  The input is not
    modified; the sorted keys are in ``result.output``.

    Pass ``values`` (one payload per key) to sort records: payloads
    travel with their keys through every copy, swap and merge —
    doubling or tripling the transfer volume depending on the payload
    width — and come back in ``result.output_values``.

    The sort runs :class:`P2PRun`'s phases through the supervisor's
    phase loop with checkpoint staging and speculation off.  Phases are
    supervised only when something can stop them mid-flight — an
    installed fault plan; a fault-free run executes them as plain
    processes.  ``resilience`` overrides the machine's policy *for this
    call only* (restored on exit, error paths included).  Under a fault
    plan the sort is elastic: GPUs already failed or straggling past
    the exclusion factor are dropped up front, a GPU lost mid-run
    replans the sort over the largest power-of-two prefix of the
    survivors (restarting from ``Partition``), and recovery work
    (replans, retries, re-routes, downtime) is reported on the result.
    """
    from repro.recovery.supervisor import plain_sort

    if gpu_ids is not None and len(gpu_ids) & (len(gpu_ids) - 1):
        raise SortError(
            f"P2P sort needs a power-of-two GPU count, got {len(gpu_ids)}")
    return plain_sort(machine, "p2p", data, gpu_ids,
                      {"p2p_config": config, "values": values},
                      resilience, "P2PSort")
