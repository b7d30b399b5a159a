"""Capture golden traces for the determinism regression test.

Run from the repo root::

    PYTHONPATH=src python tests/sim/capture_golden.py > tests/sim/golden_determinism.json

The JSON records, for each reference sort run, the end-to-end duration,
the phase breakdown and every trace span (phase, actor, start, end,
bytes) with full float precision.  The single-machine entries were
captured from the pre-optimization allocator (the O(F^2) full-rescan
``FlowNetwork``), so matching them proves the incremental engine leaves
simulated time bit-identical.  The fault-free ``hier`` cluster entries
were captured from the hierarchical sort while it still kept a separate
fault-free execution path, so matching them proves its single
execution path reproduces that one bit for bit.  The supervised,
key-value and NUMA-local P2P entries were captured while the P2P sort
still had separate plain and supervised implementations, so matching
them proves the one P2P phase driver reproduces both.  The out-of-core
HET variants (3n, eager merge, GPU-merged groups, key-value) were
captured while ``het_sort`` still ran its own inline pipeline, so
matching them proves the one HET phase driver reproduces it.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from repro.data import generate
from repro.hw import dgx_a100, ibm_ac922, make_cluster
from repro.recovery import SortSupervisor
from repro.runtime import Machine
from repro.sort import HetConfig, P2PConfig, het_sort, hier_sort, p2p_sort

CASES = {
    # (algorithm, physical keys, logical billions[, nodes, fabric])
    "het-dgx-2b": ("het", 200_000, 2.0),
    "p2p-dgx-2b": ("p2p", 200_000, 2.0),
    "het-dgx-512b-ooc": ("het", 100_000, 512.0),
    # Fault-free hierarchical sorts on dgx-a100 clusters.
    "hier-dgx-x1-fat-tree-2b": ("hier", 100_000, 2.0, 1, "fat-tree"),
    "hier-dgx-x2-fat-tree-2b": ("hier", 100_000, 2.0, 2, "fat-tree"),
    "hier-dgx-x4-rail-2b": ("hier", 100_000, 2.0, 4, "rail"),
    "hier-dgx-x4-dragonfly-2b": ("hier", 100_000, 2.0, 4, "dragonfly"),
    # Supervised sorts with the default SupervisorConfig.
    "sup-p2p-dgx-2b": ("sup-p2p", 200_000, 2.0),
    "sup-het-dgx-2b": ("sup-het", 200_000, 2.0),
    # Supervised HET runs the paper's schedule: equal to het-dgx-512b-ooc.
    "sup-het-dgx-512b-ooc": ("sup-het", 100_000, 512.0),
    # Key-value P2P on a length eight GPUs do not divide (padded).
    "p2p-kv-dgx-padded-2b": ("p2p-kv", 100_003, 2.0),
    # P2P with NUMA-local input placement (charged Redistribute).
    "p2p-numa-local-ac922-2b": ("p2p-numa-local", 200_000, 2.0),
    # Out-of-core HET variants: 3n, eager merge, GPU-merged groups and
    # key-value.
    "het-3n-dgx-512b-ooc": ("het-3n", 100_000, 512.0),
    "het-eager-dgx-512b-ooc": ("het-eager", 100_000, 512.0),
    "het-gpu-merge-dgx-512b-ooc": ("het-gpu-merge", 100_000, 512.0),
    "het-kv-dgx-512b-ooc": ("het-kv", 100_000, 512.0),
}


def _supervised(algorithm: str):
    def sort(machine, data):
        return SortSupervisor(machine).sort(data, algorithm=algorithm)
    return sort


def _p2p_key_value(machine, data):
    return p2p_sort(machine, data,
                    values=np.arange(len(data), dtype=np.int32))


def _p2p_numa_local(machine, data):
    return p2p_sort(machine, data,
                    config=P2PConfig(input_placement="numa-local"))


def _het(**config):
    def sort(machine, data):
        return het_sort(machine, data, config=HetConfig(**config))
    return sort


def _het_key_value(machine, data):
    return het_sort(machine, data,
                    values=np.arange(len(data), dtype=np.int32))


SORTS = {"het": het_sort, "p2p": p2p_sort, "hier": hier_sort,
         "sup-p2p": _supervised("p2p"), "sup-het": _supervised("het"),
         "p2p-kv": _p2p_key_value, "p2p-numa-local": _p2p_numa_local,
         "het-3n": _het(approach="3n"), "het-eager": _het(eager_merge=True),
         "het-gpu-merge": _het(gpu_merge_groups=True),
         "het-kv": _het_key_value}
#: Standalone platform per algorithm (default: the DGX A100).
PLATFORMS = {"p2p-numa-local": ibm_ac922}


def run_case(algorithm: str, physical: int, billions: float,
             nodes: int = 0, fabric: str = "fat-tree"):
    """Run one case; ``nodes > 0`` runs on a dgx-a100 cluster."""
    scale = billions * 1e9 / physical
    if nodes:
        spec = make_cluster("dgx-a100", nodes, fabric)
    else:
        spec = PLATFORMS.get(algorithm, dgx_a100)()
    machine = Machine(spec, scale=scale, fast_functional=True)
    data = generate(physical, "uniform", np.int32, seed=42)
    result = SORTS[algorithm](machine, data)
    spans = sorted(
        [s.phase, s.actor, s.start, s.end, s.bytes]
        for s in machine.trace.spans)
    return {
        "duration": result.duration,
        "phases": result.phase_durations,
        "spans": spans,
    }


def main() -> None:
    record = {name: run_case(*args) for name, args in CASES.items()}
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
