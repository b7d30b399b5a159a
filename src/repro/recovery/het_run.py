"""Supervised HET sort: the phase driver behind ``algorithm="het"``.

Two phases:

``Pipeline``
    stream the chunk plan through the GPUs in *group-synchronous
    batches* — one chunk per GPU at a time, each chunk a
    HtoD → sort → DtoH chain into its own host staging run.  After
    every completed batch the flushed runs form a ``kind="runs"``
    :class:`PhaseCheckpoint`: host memory is the durable store, so a
    later GPU failure costs only the in-flight batch.
``Merge``
    the final CPU multiway merge of all staged runs — host-side work
    that no GPU failure can touch.

Deliberate simplifications versus :func:`repro.sort.het.het_sort`
(which stays the paper-faithful measurement path):

* **one** chunk buffer per GPU instead of the 2n/3n double buffering —
  the supervisor needs a quiescent point per batch to checkpoint at,
  which forfeits the copy/compute overlap;
* chunks are still planned with :func:`chunk_capacity_for` under the
  *configured* buffer count, so the supervised run sorts the same
  chunk layout the plain run would;
* keys only, no eager merging, no GPU-merged groups, and no straggler
  speculation (a straggling chunk chain delays only its lane's batch).

Replanning is cheap here: flushed runs live on the host, so the driver
just re-batches the unflushed chunks over the survivors — any subset
size works, no power-of-two constraint, and nothing is re-fetched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ReproError, SortError
from repro.recovery.checkpoint import PhaseCheckpoint
from repro.runtime.buffer import HostBuffer
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.kernels import sort_on_device
from repro.runtime.memcpy import copy_async, span
from repro.sort.het import (
    HetConfig,
    _plan_chunks,
    chunk_capacity_for,
)


@dataclass
class _SupTask:
    """One chunk: its host source range and staged output run."""

    index: int
    src_start: int
    src_stop: int
    run: np.ndarray
    flushed: bool = False

    @property
    def size(self) -> int:
        return self.src_stop - self.src_start


class HetRun:
    """State and phase bodies of one supervised HET sort."""

    def __init__(self, sup, host_in: HostBuffer, ids: Tuple[int, ...],
                 het_config: Optional[HetConfig] = None):
        self.sup = sup
        self.machine = sup.machine
        self.config = het_config or HetConfig()
        if self.config.eager_merge or self.config.gpu_merge_groups:
            raise SortError(
                "the supervised HET sort supports neither eager_merge "
                "nor gpu_merge_groups (use repro.sort.het.het_sort)")
        self.host_in = host_in
        self.n = len(host_in.data)
        self.dtype = host_in.dtype
        self.ids = tuple(ids)

        machine = self.machine
        devices = [machine.device(i) for i in self.ids]
        chunk_capacity = chunk_capacity_for(machine, devices, self.config,
                                            self.dtype, None, self.n)
        group_sizes = _plan_chunks(self.n, len(self.ids), chunk_capacity)
        self.groups = len(group_sizes)
        self._borrowed: List[np.ndarray] = []
        self.tasks: List[_SupTask] = []
        offset = 0
        for sizes in group_sizes:
            for size in sizes:
                run = self.sup.pool.take(size, self.dtype)
                self._borrowed.append(run)
                self.tasks.append(_SupTask(
                    index=len(self.tasks), src_start=offset,
                    src_stop=offset + size, run=run))
                offset += size
        self.chunk_capacity = max(task.size for task in self.tasks)
        self.host_out = machine.host_buffer(
            np.empty(self.n, dtype=self.dtype), numa=host_in.numa)
        self.queue: List[str] = ["Pipeline", "Merge"]
        self._allocated: List = []

    # -- driver protocol ---------------------------------------------------
    def body(self, name: str):
        return {"Pipeline": self._pipeline, "Merge": self._merge}[name]

    def checkpoint_body(self, name: str):
        # Checkpoints are recorded per batch inside the Pipeline body —
        # a phase-end checkpoint would duplicate the last one.
        return None

    def after_phase(self, name: str) -> None:
        pass

    def replan(self, phase: str, survivors, exc) -> None:
        # Flushed runs are host-resident: nothing to restore, just
        # re-batch the remaining chunks over the survivors.
        self._free_device_state()
        self.ids = tuple(survivors)
        if "Pipeline" not in self.queue:
            self.queue = ["Pipeline"] + list(self.queue)

    def finalize(self):
        return self.host_out.data, None

    def result_fields(self) -> dict:
        return {"chunk_groups": self.groups}

    def cleanup(self) -> None:
        self._free_device_state()
        for array in self._borrowed:
            self.sup.pool.give(array)
        self._borrowed = []

    # -- phase bodies ------------------------------------------------------
    def _pipeline(self, group):
        machine = self.machine
        env = machine.env
        buffers = [self._alloc(machine.device(gpu), self.chunk_capacity,
                               f"sup-het{gpu}")
                   for gpu in self.ids]
        while True:
            batch = [task for task in self.tasks if not task.flushed]
            batch = batch[:len(buffers)]
            if not batch:
                break
            procs = [group.spawn(self._chunk_chain(task, buffers[lane]))
                     for lane, task in enumerate(batch)]
            yield env.all_of(procs)
            group.check()
            flushed = tuple(task.run for task in self.tasks
                            if task.flushed)
            self.sup.note_checkpoint(PhaseCheckpoint(
                phase="Pipeline", at=env.now, gpu_ids=self.ids,
                chunk=self.chunk_capacity, kind="runs",
                payloads=flushed))
        for buffer in buffers:
            self._free_quietly(buffer)

    def _chunk_chain(self, task: _SupTask, buffer):
        machine = self.machine
        size = task.size
        yield from copy_async(
            machine, span(buffer, 0, size),
            span(self.host_in, task.src_start, task.src_stop),
            phase="HtoD")
        yield from sort_on_device(machine, span(buffer, 0, size),
                                  primitive=self.config.primitive,
                                  phase="Sort")
        run_buffer = HostBuffer(task.run, numa=self.host_in.numa)
        yield from copy_async(machine, span(run_buffer, 0, size),
                              span(buffer, 0, size), phase="DtoH")
        # Only a fully flushed chunk counts: copy_async writes its
        # destination at completion, so a chain that died mid-flight
        # leaves the run untouched and unflushed.
        task.flushed = True

    def _merge(self, group):
        runs = [task.run for task in self.tasks]
        if len(runs) == 1:
            self.host_out.data[:] = runs[0]
            return
        yield from cpu_multiway_merge(self.machine, self.host_out.data,
                                      runs, numa=self.host_in.numa,
                                      phase="Merge")

    # -- allocation bookkeeping --------------------------------------------
    def _alloc(self, device, count: int, label: str):
        buffer = device.alloc(count, self.dtype, label=label)
        self._allocated.append(buffer)
        return buffer

    def _free_quietly(self, buffer) -> None:
        if getattr(buffer, "released", False):
            return
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
