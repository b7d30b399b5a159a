"""HET sort: heterogeneous multi-GPU sorting (Section 5.3).

The GPUs sort fixed-size chunks; the CPU produces the globally sorted
output with a multiway merge.  Unlike P2P sort, HET sort is not limited
by the combined GPU memory: it streams *chunk groups* (one chunk per
GPU at a time) through the devices, so the only capacity bound is host
memory.

Pipelining strategies for out-of-core data (both implemented, compared
in Figure 15a):

* **2n approach** (this paper's contribution): two chunk-sized buffers
  per GPU.  Copies and compute alternate — after both transfer legs of
  a step complete, the GPU sorts with the second buffer as the sort's
  auxiliary memory.  Bigger chunks, fewer sublists for the final merge.
* **3n approach** (Stehle et al.): three smaller buffers; sorting chunk
  ``i`` overlaps with copying sorted chunk ``i-1`` out and chunk
  ``i+1`` in (an in-place transfer swap on the third buffer).

**Eager merging** (Gowanlock et al.) optionally merges each completed
chunk group on the CPU while the GPUs process the next one; Figure 15a
shows it *hurts* on modern systems because the CPU merge is slower than
the GPUs and competes with the copies for host memory bandwidth — both
effects emerge from the shared-resource model here.

Key-value sorting: pass ``values`` to carry one payload per key through
the pipelines and the CPU merge; payload bytes add to every transfer
and compute volume.

The sort has one execution path, the phase driver :class:`HetRun`
(``Pipeline``, then ``Merge``).  :func:`het_sort` and
:class:`~repro.recovery.SortSupervisor` run it through the supervisor's
phase loop, which supervises a phase only when a fault plan or a
deadline can stop it mid-flight (:func:`repro.recovery.tasks.run_phase`).
Sorted chunk runs live in host memory once copied out, so under a fault
plan a GPU lost mid-run costs only the chunks not yet back: they re-run
on the survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ReproError, SortError
from repro.faults.policy import ResiliencePolicy
from repro.recovery.checkpoint import PhaseCheckpoint
from repro.runtime.buffer import DeviceBuffer, HostBuffer
from repro.runtime.context import Machine
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.kernels import sort_on_device
from repro.runtime.memcpy import copy_async, span
from repro.runtime.stream import Stream
from repro.sort.p2p import P2PConfig, _Chunk, _merge_chunks, _Stats
from repro.sort.result import SortResult


@dataclass
class HetConfig:
    """Tunables of the HET sort (defaults follow the paper)."""

    #: Single-GPU sort primitive (Table 2).
    primitive: str = "thrust"
    #: Pipelining strategy for out-of-core data: ``"2n"`` or ``"3n"``.
    approach: str = "2n"
    #: Merge completed chunk groups eagerly while the GPUs keep sorting.
    eager_merge: bool = False
    #: P2P-merge each chunk group on the GPUs before returning it, so
    #: the final CPU merge sees one run per *group* instead of one per
    #: chunk (Section 7: "future research should evaluate the
    #: suitability of a P2P-based GPU merge for large data").  Requires
    #: the 2n approach and a power-of-two GPU count; incompatible with
    #: eager merging (the group runs are already merged).
    gpu_merge_groups: bool = False
    #: Fraction of each GPU's memory usable for the chunk buffers
    #: (Figure 15a uses 33 GB of the A100's 40 GB).
    memory_budget: float = 0.825

    def buffers_per_gpu(self) -> int:
        """Number of chunk-sized device buffers the approach needs."""
        if self.gpu_merge_groups:
            if self.approach != "2n":
                raise SortError(
                    "gpu_merge_groups needs the 2n approach (the P2P "
                    "merge uses the second buffer as swap space)")
            if self.eager_merge:
                raise SortError(
                    "gpu_merge_groups and eager_merge are mutually "
                    "exclusive: group runs come back already merged")
        if self.approach == "2n":
            return 2
        if self.approach == "3n":
            return 3
        raise SortError(f"unknown approach {self.approach!r} "
                        "(expected '2n' or '3n')")


@dataclass
class _ChunkTask:
    """One chunk's host source range and output staging run."""

    group: int
    src_start: int
    src_stop: int
    run: np.ndarray                      # host staging for sorted keys
    value_run: Optional[np.ndarray]      # host staging for payloads
    #: Set once the chunk's sorted run is back in host memory.
    flushed: bool = False

    @property
    def size(self) -> int:
        return self.src_stop - self.src_start


def _plan_chunks(n: int, g: int, chunk_capacity: int) -> List[List[int]]:
    """Split ``n`` keys into per-group chunk sizes.

    Every group has ``g`` chunks (the last group may have fewer); all
    chunks except the final one are ``chunk`` keys.
    """
    if chunk_capacity < 1:
        raise SortError("GPU memory budget too small for any chunk")
    groups_needed = -(-n // (chunk_capacity * g))
    # Use the smallest equal chunk size that fits the group count, so
    # chunks stay balanced across GPUs (paper: equally sized chunks).
    chunk = -(-n // (groups_needed * g))
    sizes: List[List[int]] = []
    remaining = n
    while remaining > 0:
        group = []
        for _ in range(g):
            take = min(chunk, remaining)
            if take == 0:
                break
            group.append(take)
            remaining -= take
        sizes.append(group)
    return sizes


def chunk_capacity_for(machine: Machine, devices, config: HetConfig,
                       dtype, value_dtype, n: int) -> int:
    """Physical chunk capacity (elements) the HET pipelines use.

    The memory budget governs the out-of-core streaming chunk size
    (Figure 15a reserves 33 of the A100's 40 GB); in-core data gets one
    chunk of ``n/g`` keys per GPU when the device can hold it with the
    approach's buffer count.  :class:`HetRun` plans its chunks with it
    once, on the initial GPU set; a replan keeps that chunk layout.
    """
    capacity = min(d.capacity_logical for d in devices)
    buffers = config.buffers_per_gpu()
    record_bytes = dtype.itemsize + (value_dtype.itemsize
                                     if value_dtype else 0)
    per_record_logical = record_bytes * machine.scale
    chunk_capacity = int(capacity * config.memory_budget
                         / buffers / per_record_logical)
    per_gpu_need = -(-n // len(devices))
    if per_gpu_need * buffers * per_record_logical <= capacity:
        chunk_capacity = max(chunk_capacity, per_gpu_need)
    return chunk_capacity


def _power_of_two_prefix(ids: Tuple[int, ...]) -> Tuple[int, ...]:
    return ids[:1 << int(math.log2(len(ids)))]


class HetRun:
    """One HET sort: its state and phase bodies (the only HET path).

    ``Pipeline`` streams every chunk not yet back in host memory
    through the GPUs: dealt round-robin over them into the per-GPU
    2n or 3n pipeline, or in chunk groups through the GPU-merge
    pipeline.  Each fully flushed chunk group notes one ``kind="runs"``
    :class:`PhaseCheckpoint`, and with eager merging is merged on a
    CPU stream while the GPUs continue.  ``Merge`` is the final CPU
    multiway merge of all runs.  Each body is a process called as
    ``body(group)`` (see :func:`repro.recovery.tasks.run_phase`); the
    supervisor's phase loop (``sup``) drives them through the driver
    protocol (``queue``, ``checkpoint_body``, ``after_phase``,
    ``replan``, ``finalize``, ``result_fields``, ``cleanup``).

    Chunks are planned once, on the initial GPU set.  A replan only
    re-runs the unflushed chunks over the survivors — any count works,
    nothing is re-fetched.  With ``gpu_merge_groups`` the survivors
    shrink to a power-of-two prefix, and every group not yet back
    returns as per-chunk runs, as a ragged last group always does.
    """

    def __init__(self, machine: Machine, host_in: HostBuffer,
                 ids: Sequence[int], het_config: Optional[HetConfig] = None,
                 values: Optional[np.ndarray] = None, *, sup):
        self.machine = machine
        self.sup = sup
        self.config = config = het_config or HetConfig()
        config.buffers_per_gpu()  # validate the approach early
        self.pool = sup.pool
        self.n = n = len(host_in.data)
        self.dtype = dtype = host_in.dtype
        self.staging = host_in
        self.value_staging = None
        self.value_dtype = None
        if values is not None:
            values = np.asarray(values)
            if len(values) != n:
                raise SortError(f"{len(values)} values for {n} keys")
            self.value_staging = machine.host_buffer(
                values, numa=host_in.numa, pinned=host_in.pinned)
            self.value_dtype = values.dtype
        ids = tuple(ids)
        if config.gpu_merge_groups and sup.excluded:
            # The on-GPU group merge needs 2^k chunks per group.
            ids = _power_of_two_prefix(ids)
        self.ids = ids
        g = len(ids)
        if config.gpu_merge_groups and g > 1 and g & (g - 1):
            raise SortError(
                "gpu_merge_groups needs a power-of-two GPU count for the "
                f"P2P merge, got {g}")

        devices = [machine.device(i) for i in ids]
        group_sizes = _plan_chunks(n, g, chunk_capacity_for(
            machine, devices, config, dtype, self.value_dtype, n))
        self.groups = len(group_sizes)
        self.host_out = machine.host_buffer(np.empty(n, dtype=dtype),
                                            numa=host_in.numa)
        self.values_out = None
        if self.value_dtype is not None:
            self.values_out = machine.host_buffer(
                np.empty(n, dtype=self.value_dtype), numa=host_in.numa)

        # Chunk j of group i reads a contiguous input range and owns
        # one staging run on the host.  A degenerate run count of one
        # (single GPU, in-core) needs no merge at all — the paper's
        # 1-GPU baseline is plain Thrust without a merge phase — so
        # that run stages directly into the output buffer.  With
        # GPU-merged groups, a uniform group's task runs are slices of
        # one contiguous group array: the group comes back as a single
        # sorted run.  Every staging run is dead once the final merge
        # lands in host_out, so they come from the workspace pool.
        self.single_run = sum(len(sizes) for sizes in group_sizes) == 1
        self.tasks: List[_ChunkTask] = []
        #: GPU-merged groups: index -> (keys, values) group arrays.
        self.group_runs: Dict[int, tuple] = {}
        self._borrowed: List[np.ndarray] = []
        offset = 0
        for group_index, sizes in enumerate(group_sizes):
            merged_group = (config.gpu_merge_groups and g > 1
                            and not self.single_run
                            and len(sizes) == g and len(set(sizes)) == 1)
            if merged_group:
                self.group_runs[group_index] = self._take_runs(sum(sizes))
            for j, size in enumerate(sizes):
                if self.single_run:
                    run, value_run = self.host_out.data, (
                        self.values_out.data
                        if self.values_out is not None else None)
                elif merged_group:
                    group_keys, group_values = self.group_runs[group_index]
                    run = group_keys[j * size:(j + 1) * size]
                    value_run = (group_values[j * size:(j + 1) * size]
                                 if group_values is not None else None)
                else:
                    run, value_run = self._take_runs(size)
                self.tasks.append(_ChunkTask(
                    group=group_index, src_start=offset,
                    src_stop=offset + size, run=run, value_run=value_run))
                offset += size
        self.chunk_capacity = max(task.size for task in self.tasks)
        self.group_remaining = [len(sizes) for sizes in group_sizes]
        #: Eagerly merged groups: index -> (keys, values) arrays.
        self.eager_results: Dict[int, tuple] = {}
        self.cpu_stream = Stream(machine, name="cpu-merge")
        self.queue: List[str] = ["Pipeline", "Merge"]
        self._allocated: List[DeviceBuffer] = []

    def _take_runs(self, size: int):
        """Pool-borrowed ``(keys, values)`` staging arrays for one run."""
        arrays = [self.pool.take(size, self.dtype)]
        if self.value_dtype is not None:
            arrays.append(self.pool.take(size, self.value_dtype))
        self._borrowed.extend(arrays)
        return arrays[0], (arrays[1] if len(arrays) > 1 else None)

    # -- driver protocol ---------------------------------------------------
    def body(self, name: str):
        return {"Pipeline": self._pipeline, "Merge": self._merge}[name]

    def checkpoint_body(self, name: str):
        # Checkpoints are noted per flushed chunk group inside Pipeline.
        return None

    def after_phase(self, name: str) -> None:
        pass

    def replan(self, phase: str, survivors, exc) -> None:
        # Flushed runs are host-resident: nothing to restore.  The
        # phase loop re-runs Pipeline, which picks up the rest.
        self._free_device_state()
        ids = tuple(survivors)
        if self.config.gpu_merge_groups:
            ids = _power_of_two_prefix(ids)
        self.ids = ids
        self.group_runs = {index: runs
                           for index, runs in self.group_runs.items()
                           if self.group_remaining[index] == 0}

    def finalize(self):
        return (self.host_out.data,
                self.values_out.data if self.values_out is not None
                else None)

    def result_fields(self) -> dict:
        return {"chunk_groups": self.groups}

    def cleanup(self) -> None:
        self._free_device_state()
        for array in self._borrowed:
            self.pool.give(array)
        self._borrowed = []

    # -- phase bodies ------------------------------------------------------
    def _pipeline(self, group):
        machine = self.machine
        pending = [task for task in self.tasks if not task.flushed]
        g = len(self.ids)
        devices = [machine.device(i) for i in self.ids]
        if self.config.gpu_merge_groups and g > 1 and not self.single_run:
            yield from self._grouped_gpu_merge_pipeline(
                group, devices, [pending[i:i + g]
                                 for i in range(0, len(pending), g)])
        else:
            pipeline = (self._pipeline_2n if self.config.approach == "2n"
                        else self._pipeline_3n)
            pipes = [group.spawn(pipeline(group, devices[slot],
                                          pending[slot::g]))
                     for slot in range(g) if pending[slot::g]]
            yield machine.env.all_of(pipes)
            group.check()
        yield self.cpu_stream.synchronize()

    def _merge(self, group):
        if self.single_run:
            return
        runs: List[np.ndarray] = []
        value_runs: List[np.ndarray] = []
        for group_index in range(self.groups):
            merged = (self.eager_results.get(group_index)
                      or self.group_runs.get(group_index))
            if merged is not None:
                pairs = [merged]
            else:
                pairs = [(task.run, task.value_run) for task in self.tasks
                         if task.group == group_index]
            for keys, values in pairs:
                runs.append(keys)
                if values is not None:
                    value_runs.append(values)
        values_out = (self.values_out.data if self.values_out is not None
                      else None)
        if len(runs) == 1:
            # A single GPU-merged group IS the sorted output; the
            # slices already point into host memory.
            self.host_out.data[:] = runs[0]
            if values_out is not None:
                values_out[:] = value_runs[0]
            return
        yield from cpu_multiway_merge(
            self.machine, self.host_out.data, runs,
            numa=self.staging.numa, phase="Merge", values_out=values_out,
            value_runs=value_runs if values_out is not None else None)

    def _chunk_done(self, task: _ChunkTask) -> None:
        """A chunk's sorted run is back in host memory.

        Called only once the step that copied it out has passed
        ``group.check()``: ``copy_async`` writes its destination at
        completion, and a copy that failed mid-flight resolves its
        shielded task without writing, so an unchecked barrier proves
        nothing.
        """
        task.flushed = True
        self.group_remaining[task.group] -= 1
        if self.group_remaining[task.group]:
            return
        machine = self.machine
        self.sup.note_checkpoint(PhaseCheckpoint(
            phase="Pipeline", at=machine.env.now, gpu_ids=self.ids,
            chunk=self.chunk_capacity, kind="runs",
            payloads=tuple(t.run for t in self.tasks if t.flushed)))
        # Eager merging: once a whole group's chunks are back in host
        # memory, merge them on the CPU (serialized on one merge
        # stream) while the GPUs continue — except the last group
        # (Section 5.3).
        if self.config.eager_merge and task.group < self.groups - 1:
            group_tasks = [t for t in self.tasks if t.group == task.group]
            total = sum(t.size for t in group_tasks)
            # Not pool-borrowed: a merge still running when a deadline
            # ends the sort must not write into a recycled array.
            merged = np.empty(total, dtype=self.dtype)
            merged_values = (np.empty(total, dtype=self.value_dtype)
                             if self.value_dtype is not None else None)
            self.eager_results[task.group] = (merged, merged_values)
            self.cpu_stream.submit(cpu_multiway_merge(
                machine, merged, [t.run for t in group_tasks],
                numa=self.staging.numa, phase="Merge",
                values_out=merged_values,
                value_runs=[t.value_run for t in group_tasks]
                if merged_values is not None else None))

    # -- pipelines ---------------------------------------------------------
    def _transfer_in(self, group, keys: DeviceBuffer,
                     values: Optional[DeviceBuffer], task: _ChunkTask):
        """Tasks copying one chunk (keys + payloads) onto the device."""
        return [group.spawn(copy_async(
            self.machine, span(buffer, 0, task.size),
            span(source, task.src_start, task.src_stop), phase="HtoD"))
            for buffer, source in ((keys, self.staging),
                                   (values, self.value_staging))
            if buffer is not None]

    def _transfer_out(self, group, keys: DeviceBuffer,
                      values: Optional[DeviceBuffer], task: _ChunkTask):
        """Tasks copying one sorted chunk back to its host runs."""
        numa = self.staging.numa
        return [group.spawn(copy_async(
            self.machine, span(HostBuffer(run, numa=numa), 0, task.size),
            span(buffer, 0, task.size), phase="DtoH"))
            for buffer, run in ((keys, task.run), (values, task.value_run))
            if buffer is not None]

    def _sort_chunk(self, keys: DeviceBuffer,
                    values: Optional[DeviceBuffer], task: _ChunkTask):
        return sort_on_device(
            self.machine, span(keys, 0, task.size),
            primitive=self.config.primitive, phase="Sort",
            values=span(values, 0, task.size)
            if values is not None else None)

    def _pipeline_2n(self, group, device, tasks: List[_ChunkTask]):
        """Per-GPU 2n pipeline: copy steps alternate with blocking sorts."""
        env = self.machine.env
        buffers = [self._pair(device, f"het{device.id}_{i}")
                   for i in range(2)]
        previous: Optional[Tuple[_ChunkTask, int]] = None  # (task, buffer)
        for step, task in enumerate(tasks):
            buf = step % 2
            copies = self._transfer_in(group, *buffers[buf], task)
            if previous is not None:
                prev_task, prev_buf = previous
                copies.extend(self._transfer_out(group, *buffers[prev_buf],
                                                 prev_task))
            yield env.all_of(copies)
            group.check()
            if previous is not None:
                self._chunk_done(previous[0])
            # The sort blocks all copies: the other buffer serves as the
            # sort's auxiliary memory (Figure 11).
            yield from self._sort_chunk(*buffers[buf], task)
            previous = (task, buf)
        prev_task, prev_buf = previous
        yield env.all_of(self._transfer_out(group, *buffers[prev_buf],
                                            prev_task))
        group.check()
        self._chunk_done(prev_task)
        self._release([buffer for pair in buffers for buffer in pair])

    def _pipeline_3n(self, group, device, tasks: List[_ChunkTask]):
        """Per-GPU 3n pipeline: sorting overlaps the in-place transfer swap.

        Two alternating chunk buffers plus one dedicated auxiliary
        buffer: while chunk ``i`` sorts in one alternating buffer (aux =
        the third buffer), the other alternating buffer simultaneously
        streams chunk ``i-1`` out and chunk ``i+1`` in (Figure 10).
        """
        env = self.machine.env
        # [0], [1] alternate; [2] is the sort aux.
        buffers = [self._pair(device, f"het{device.id}_{i}")
                   for i in range(3)]
        yield env.all_of(self._transfer_in(group, *buffers[0], tasks[0]))
        group.check()
        for step, task in enumerate(tasks):
            current = step % 2
            other = (step + 1) % 2
            ops = [group.spawn(self._sort_chunk(*buffers[current], task))]
            prev_task = tasks[step - 1] if step >= 1 else None
            next_task = tasks[step + 1] if step + 1 < len(tasks) else None
            if prev_task is not None:
                ops.extend(self._transfer_out(group, *buffers[other],
                                              prev_task))
            if next_task is not None:
                ops.extend(self._transfer_in(group, *buffers[other],
                                             next_task))
            yield env.all_of(ops)
            group.check()
            if prev_task is not None:
                self._chunk_done(prev_task)
        last = tasks[-1]
        yield env.all_of(self._transfer_out(
            group, *buffers[(len(tasks) - 1) % 2], last))
        group.check()
        self._chunk_done(last)
        self._release([buffer for pair in buffers for buffer in pair])

    def _grouped_gpu_merge_pipeline(self, group, devices,
                                    batches: List[List[_ChunkTask]]):
        """Group-synchronous 2n pipeline with an on-GPU P2P merge per group.

        Every step overlaps the outbound copies of the merged batch
        ``k-1`` with the inbound copies of batch ``k``; the sorts and
        the P2P merge stage run between the transfer steps (2n
        semantics: compute blocks copies).  A batch that is a GPU-merged
        group (:attr:`group_runs`) comes back as one sorted run; any
        other batch — a ragged last group, or chunks re-dealt after a
        replan — skips the GPU merge and returns per-chunk runs.
        """
        env = self.machine.env
        kinds = [(self.dtype, "a"), (self.dtype, "b")]
        if self.value_dtype is not None:
            kinds += [(self.value_dtype, "va"), (self.value_dtype, "vb")]
        chunks = [_Chunk(device, *(
            self._alloc(device, self.chunk_capacity, dtype,
                        f"hetg{device.id}_{suffix}")
            for dtype, suffix in kinds)) for device in devices]
        merge_config = P2PConfig(primitive=self.config.primitive)

        def copies_out(batch: List[_ChunkTask]):
            return [copy for task, chunk in zip(batch, chunks)
                    for copy in self._transfer_out(
                        group, chunk.primary, chunk.value_primary, task)]

        previous: Optional[List[_ChunkTask]] = None
        for batch in batches:
            copies = [copy for task, chunk in zip(batch, chunks)
                      for copy in self._transfer_in(
                          group, chunk.aux, chunk.value_aux, task)]
            if previous is not None:
                copies.extend(copies_out(previous))
            yield env.all_of(copies)
            group.check()
            for task in previous or ():
                self._chunk_done(task)
            # The fresh batch sits in the aux buffers: make them primary.
            for chunk in chunks[:len(batch)]:
                chunk.flip_buffers()
            yield env.all_of([group.spawn(self._sort_chunk(
                chunk.primary, chunk.value_primary, task))
                for task, chunk in zip(batch, chunks)])
            group.check()
            if batch[0].group in self.group_runs:
                yield from self._merge_batch(group, chunks, batch[0].size,
                                             merge_config)
            previous = batch
        yield env.all_of(copies_out(previous))
        group.check()
        for task in previous:
            self._chunk_done(task)
        self._release([buffer for chunk in chunks
                       for buffer in chunk.all_buffers()])

    def _merge_batch(self, group, chunks: List[_Chunk], size: int,
                     merge_config: P2PConfig):
        """The P2P merge phase of the merge-based sort, verbatim, over
        fixed-size windows of the pipeline buffers (groups may be
        smaller than the allocated capacity)."""
        backing = {}

        def window(buffer: DeviceBuffer) -> DeviceBuffer:
            view = DeviceBuffer(buffer.device, buffer.data[:size])
            backing[id(view)] = buffer
            return view

        views = [_Chunk(chunk.device, window(chunk.primary),
                        window(chunk.aux),
                        window(chunk.value_primary)
                        if chunk.has_values else None,
                        window(chunk.value_aux)
                        if chunk.has_values else None)
                 for chunk in chunks]
        yield from _merge_chunks(self.machine, views, merge_config,
                                 _Stats(), group)
        # Propagate any buffer flips back to the real chunks.
        for real, view in zip(chunks, views):
            if backing[id(view.primary)] is real.aux:
                real.flip_buffers()

    # -- allocation bookkeeping --------------------------------------------
    def _alloc(self, device, count: int, dtype, label: str) -> DeviceBuffer:
        buffer = device.alloc(count, dtype, label=label)
        self._allocated.append(buffer)
        return buffer

    def _pair(self, device, label: str):
        """A chunk-sized key buffer plus its optional payload sibling."""
        keys = self._alloc(device, self.chunk_capacity, self.dtype, label)
        values = (self._alloc(device, self.chunk_capacity,
                              self.value_dtype, f"{label}v")
                  if self.value_dtype is not None else None)
        return keys, values

    def _release(self, buffers) -> None:
        for buffer in buffers:
            if buffer is None:
                continue
            if not buffer.released:
                try:
                    buffer.free()
                except ReproError:
                    pass
            if buffer in self._allocated:
                self._allocated.remove(buffer)

    def _free_device_state(self) -> None:
        self._release(list(self._allocated))


def het_sort(machine: Machine, data: Union[np.ndarray, HostBuffer],
             gpu_ids: Optional[Sequence[int]] = None,
             config: Optional[HetConfig] = None,
             values: Optional[np.ndarray] = None,
             resilience: Optional[ResiliencePolicy] = None) -> SortResult:
    """Sort ``data`` with the heterogeneous algorithm; returns the result.

    Handles both in-core data (one chunk group; the 2n and 3n
    approaches coincide, Section 6.1) and out-of-core data (multiple
    chunk groups streamed through the GPUs).  The GPU set order does
    not matter for HET sort (Section 5.4), only its membership.

    Pass ``values`` for key-value records; sorted payloads come back in
    ``result.output_values``.

    The sort runs :class:`HetRun`'s phases through the supervisor's
    phase loop; a fault-free run executes them as plain processes.
    ``resilience`` overrides the machine's policy *for this call only*
    (restored on exit, error paths included).  Under a fault plan the
    sort is elastic: GPUs already failed or straggling past the
    exclusion factor are dropped up front (any count works — HET needs
    no power of two unless ``gpu_merge_groups`` is on), a GPU lost
    mid-run re-runs the chunks not yet back on the survivors, and
    recovery work (replans, retries, re-routes, downtime) is reported
    on the result.
    """
    from repro.recovery.supervisor import plain_sort

    return plain_sort(machine, "het", data, gpu_ids,
                      {"het_config": config, "values": values},
                      resilience, "HetSort")
