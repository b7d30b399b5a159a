"""The recorded event stream of a faulted cluster sort, pinned by digest.

The scenario is the repository benchmark's recorded workload, rebuilt
through the public API: a 16-node DGX A100 fat-tree cluster at scale
64,000, 16,384 uniform int32 keys per node (seed 7), and node 1 lost at
0.30 simulated seconds, mid-exchange.  The digests were captured from
the full-membership link diff; any change to the recorder's diff must
reproduce them event for event, for a flat recorder and for a flight
recorder with the default :class:`~repro.obs.recorder.RingConfig`.

The digest covers the stream in :func:`~tests.obs.full_diff.canonical`
form, whose flow ids are renumbered in ``FlowStart`` order.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import data, hw, obs
from repro.faults.events import NodeDown
from repro.faults.plan import FaultPlan
from repro.runtime import Machine
from repro.sort import hier_sort
from tests.obs.full_diff import canonical

#: sha256 of the canonical stream, link totals and ring accounting.
DIGESTS = {
    "flat": "5b13ce7d659ce5f6baba527b53f5e2bd6202796c61de66da067087e00e8eb8e9",
    "ring": "66ceceead54868fc50c3aad9c7be650875f3095f08d2a38f2e6498f7abaa2322",
}

#: Events emitted by the run (retained plus evicted in the ring).
EVENTS_EMITTED = 45_218


def recorded_run(ring):
    """The benchmark's recorded scenario; returns its recorder."""
    nodes = 16
    machine = Machine(hw.make_cluster("dgx-a100", nodes, fabric="fat-tree"),
                      scale=64_000.0, fast_functional=True)
    keys = data.generate(16_384 * nodes, "uniform", np.int32, seed=7)
    recorder = machine.enable_observability(obs.Recorder(ring=ring))
    machine.install_faults(FaultPlan(events=(NodeDown(at=0.30, node=1),)))
    result = hier_sort(machine, keys)
    np.testing.assert_array_equal(result.output, np.sort(keys))
    return recorder


def digest(recorder) -> str:
    text = json.dumps(canonical(recorder), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def recorders():
    return {"flat": recorded_run(None), "ring": recorded_run(obs.RingConfig())}


@pytest.mark.parametrize("mode", ["flat", "ring"])
def test_stream_matches_the_pinned_digest(recorders, mode):
    recorder = recorders[mode]
    stats = recorder.ring_stats()
    assert stats["events_retained"] + stats["evicted_total"] \
        == EVENTS_EMITTED
    assert digest(recorder) == DIGESTS[mode]


def test_ring_keeps_exact_link_totals(recorders):
    assert recorders["ring"].link_totals() == recorders["flat"].link_totals()
