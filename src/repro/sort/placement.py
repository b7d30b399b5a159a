"""NUMA-aware input placement (Section 7, implemented).

The paper stores all input in NUMA node 0's memory and observes that
this makes involving the AC922's remote GPUs infeasible: every copy to
GPUs 2/3 crosses the X-Bus.  Its discussion notes the conditional —
*"if the input data resides in the host memory of a single NUMA
node"*.  This module implements the other branch: stage each GPU's
chunk in the host memory of the GPU's *own* NUMA node, so every
CPU-GPU copy is node-local.

Two accounting modes:

* ``charge_redistribution=True`` (default) — the input genuinely sits
  on node 0 first; moving the remote GPUs' chunks to node 1 is paid as
  host-to-host flows over the CPU interconnect (phase
  ``Redistribute``).  This answers: is it worth shuffling first?
* ``charge_redistribution=False`` — the data was *loaded* NUMA-spread
  to begin with (e.g. a partitioned table); only the placement benefit
  shows.  This answers: what should a NUMA-aware database do?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.runtime.buffer import HostBuffer
from repro.runtime.context import Machine
from repro.runtime.memcpy import copy_async, span

#: Input placement strategies.
NODE0 = "node0"
NUMA_LOCAL = "numa-local"


@dataclass
class PlacedChunk:
    """One GPU's chunk staged on a chosen NUMA node."""

    gpu_id: int
    staging: HostBuffer
    #: Range of the original input this chunk covers.
    src_start: int
    src_stop: int


def place_chunks(machine: Machine, host_in: HostBuffer,
                 gpu_ids: Sequence[int],
                 ranges: Sequence[Tuple[int, int]],
                 placement: str = NODE0) -> List[PlacedChunk]:
    """Stage per-GPU input chunks according to ``placement``.

    ``ranges`` gives each GPU's ``(start, stop)`` slice of the input.
    With ``node0`` every chunk is a view of the original buffer; with
    ``numa-local`` each chunk gets a staging buffer on its GPU's NUMA
    node (copy the payload now, charge the transfer separately via
    :func:`redistribute`).
    """
    chunks: List[PlacedChunk] = []
    for gpu_id, (start, stop) in zip(gpu_ids, ranges):
        if placement == NUMA_LOCAL:
            numa = machine.spec.gpu_numa[machine.spec.gpu_name(gpu_id)]
            staging = machine.host_buffer(
                host_in.data[start:stop].copy(), numa=numa,
                pinned=host_in.pinned)
        else:
            staging = HostBuffer(host_in.data[start:stop],
                                 numa=host_in.numa, pinned=host_in.pinned)
        chunks.append(PlacedChunk(gpu_id=gpu_id, staging=staging,
                                  src_start=start, src_stop=stop))
    return chunks


def redistribute(machine: Machine, host_in: HostBuffer,
                 chunks: Sequence[PlacedChunk],
                 phase: str = "Redistribute", spawn=None):
    """Process: charge the host-to-host moves of off-node chunks.

    Chunks staged on the input's own node cost nothing; the others pay
    one concurrent host-to-host flow each over the CPU interconnect.
    ``spawn`` starts each move (default: a plain process).
    """
    env = machine.env
    spawn = spawn or env.process
    procs = []
    for chunk in chunks:
        if chunk.staging.numa == host_in.numa:
            continue
        source = HostBuffer(host_in.data[chunk.src_start:chunk.src_stop],
                            numa=host_in.numa, pinned=host_in.pinned)
        procs.append(spawn(copy_async(
            machine, span(chunk.staging), span(source), phase=phase)))
    if procs:
        yield env.all_of(procs)
    return None


def output_buffer_for(machine: Machine, gpu_id: int, size: int, dtype,
                      placement: str, default_numa: int) -> HostBuffer:
    """Host buffer for one GPU's output slice under ``placement``."""
    if placement == NUMA_LOCAL:
        numa = machine.spec.gpu_numa[machine.spec.gpu_name(gpu_id)]
    else:
        numa = default_numa
    return machine.host_buffer(np.empty(size, dtype=dtype), numa=numa)
