"""Deterministic work-count gate for component-local refills.

A reallocation re-solves only the flows connected to the change, so on
a cluster fabric, where most traffic stays inside a node, the flows
solved summed over all fills stay far below active flows times fills.
The count is a pure function of the simulated run, so the ceiling has
no noise headroom: a regression back to global fills fails on every
run.
"""

import numpy as np

from repro.data import generate
from repro.hw import make_cluster
from repro.runtime import Machine
from repro.sim.engine import SimProfile
from repro.sort import hier_sort

#: Flows solved summed over fills on the run below.  Measured once:
#: component-local fills solve 979 flows where global fills solved
#: 6,456.
FILL_FLOWS_CEILING = 979


def test_four_node_hier_sort_fills_only_touched_components():
    machine = Machine(make_cluster("dgx-a100", 4, fabric="fat-tree"),
                      scale=64_000, fast_functional=True)
    machine.env.profile = profile = SimProfile()
    data = generate(4 * 16_384, "uniform", np.int32, seed=42)
    result = hier_sort(machine, data)
    assert np.array_equal(result.output, np.sort(data))
    assert profile.fills > 0
    assert profile.fill_rounds >= profile.fills
    assert profile.fill_flows <= FILL_FLOWS_CEILING, (
        f"fills solved {profile.fill_flows} flows (ceiling "
        f"{FILL_FLOWS_CEILING}): reallocations re-solve flows outside "
        "the changed components")
