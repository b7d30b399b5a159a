"""Tests of the hierarchical (multi-node) sort."""

import numpy as np
import pytest

from repro.cpuprims.multiway_merge import multiway_merge
from repro.data import generate
from repro.errors import SortError
from repro.faults import FaultPlan
from repro.faults.events import GpuFail
from repro.hw import dgx_a100, make_cluster
from repro.runtime import Machine
from repro.sort import HierConfig, P2PConfig, hier_sort, p2p_sort

KEYS = 100_000


def _data(seed=42, n=KEYS):
    return generate(n, "uniform", np.int32, seed=seed)


class TestDegenerateShapes:
    def test_one_node_cluster_bit_identical_to_standalone_p2p(self):
        """Satellite: 1-node cluster == single-node platform golden."""
        data = _data()
        cluster = Machine(make_cluster("dgx-a100", 1))
        hier = hier_sort(cluster, data)
        standalone = Machine(dgx_a100())
        p2p = p2p_sort(standalone, data)
        assert hier.duration == p2p.duration
        assert hier.phase_durations == {
            name: p2p.phase_durations[name]
            for name in hier.phase_durations}
        assert np.array_equal(hier.output, p2p.output)
        assert hier.pivots == p2p.pivots
        # Identical event counts: the local phase adds nothing.
        assert cluster.env.events_retired == standalone.env.events_retired

    def test_two_node_exchange_matches_cpu_multiway_merge_oracle(self):
        """Satellite: 2-node fat-tree == a CPU multiway-merge oracle."""
        data = _data(seed=7)
        machine = Machine(make_cluster("dgx-a100", 2, fabric="fat-tree"))
        result = hier_sort(machine, data)
        # Oracle: shard exactly as the sort does, sort each shard on
        # the CPU, multiway-merge — element-identical output.
        shard = -(-len(data) // 2)
        runs = [np.sort(data[:shard]), np.sort(data[shard:])]
        oracle = multiway_merge(runs)
        assert np.array_equal(result.output, oracle)
        assert result.phase_durations["Exchange"] > 0.0
        assert result.phase_durations["NodeMerge"] > 0.0


class TestCompletedPhases:
    def test_clean_run_reports_every_phase(self):
        machine = Machine(make_cluster("dgx-a100", 4))
        result = hier_sort(machine, _data())
        assert result.completed_phases == ("LocalSort", "Exchange",
                                           "NodeMerge")
        assert not result.deadline_exceeded

    def test_one_node_run_reports_only_the_local_sort(self):
        machine = Machine(make_cluster("dgx-a100", 1))
        result = hier_sort(machine, _data())
        assert result.completed_phases == ("LocalSort",)


class TestCorrectness:
    @pytest.mark.parametrize("fabric", ["fat-tree", "rail", "dragonfly"])
    def test_four_nodes_sorted_on_every_fabric(self, fabric):
        data = _data(seed=11)
        machine = Machine(make_cluster("dgx-a100", 4, fabric=fabric))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))
        assert result.algorithm == "hier"
        assert len(result.gpu_ids) == 32
        assert machine.net.batched_starts == 3  # one per exchange wave

    def test_duplicate_heavy_input(self):
        data = generate(KEYS, "zipf", np.int32, seed=3)
        machine = Machine(make_cluster("dgx-a100", 4))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))

    @pytest.mark.parametrize("faulted", [False, True])
    def test_all_equal_keys_leave_ranges_empty(self, faulted):
        # Every key lands in the last splitter range, so every other
        # range has only empty segments to merge.
        data = np.full(KEYS, 7, dtype=np.int32)
        machine = Machine(make_cluster("dgx-a100", 4))
        if faulted:
            machine.install_faults(FaultPlan(events=()))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, data)

    def test_other_platform_cluster(self):
        data = _data(seed=13)
        machine = Machine(make_cluster("ibm-ac922", 2))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))

    def test_non_cluster_spec_rejected(self):
        machine = Machine(dgx_a100())
        with pytest.raises(SortError, match="ClusterSpec"):
            hier_sort(machine, _data())

    def test_too_few_keys_rejected(self):
        machine = Machine(make_cluster("dgx-a100", 4))
        with pytest.raises(SortError, match="sharded"):
            hier_sort(machine, np.arange(2, dtype=np.int32))

    def test_bad_gpus_per_node_rejected(self):
        machine = Machine(make_cluster("dgx-a100", 2))
        with pytest.raises(SortError, match="power of two"):
            hier_sort(machine, _data(), config=HierConfig(gpus_per_node=3))


class TestInputPlacement:
    def test_numa_local_placement_reports_its_redistribute(self):
        data = _data(seed=5)

        def run(placement):
            machine = Machine(make_cluster("dgx-a100", 2))
            return hier_sort(machine, data, config=HierConfig(
                local=P2PConfig(input_placement=placement)))

        node0, local = run("node0"), run("numa-local")
        assert np.array_equal(local.output, np.sort(data))
        assert np.array_equal(local.output, node0.output)
        assert local.phase_durations["Redistribute"] > 0.0
        assert "Redistribute" not in node0.phase_durations


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        """Cluster episodes replay bit-identically under a fixed seed."""
        durations, outputs = [], []
        for _ in range(2):
            machine = Machine(make_cluster("dgx-a100", 4, fabric="rail"))
            result = hier_sort(machine, _data(seed=21))
            durations.append((result.duration, machine.env.events_retired,
                              tuple(result.phase_durations.items())))
            outputs.append(result.output)
        assert durations[0] == durations[1]
        assert np.array_equal(outputs[0], outputs[1])

    def test_observability_does_not_change_timing(self):
        data = _data(seed=23)
        plain = Machine(make_cluster("dgx-a100", 2))
        off = hier_sort(plain, data)
        observed = Machine(make_cluster("dgx-a100", 2))
        observed.enable_observability()
        on = hier_sort(observed, data)
        assert on.duration == off.duration
        assert plain.env.events_retired == observed.env.events_retired

    def test_faulted_replay_is_bit_identical(self):
        plan = FaultPlan(events=(GpuFail(at=0.0, gpu=9),), seed=5)
        runs = []
        for _ in range(2):
            machine = Machine(make_cluster("dgx-a100", 2))
            machine.install_faults(plan)
            result = hier_sort(machine, _data(seed=29))
            runs.append((result.duration, result.excluded_gpus,
                         machine.env.events_retired))
        assert runs[0] == runs[1]


class TestNodeScopedRecovery:
    def test_failed_gpu_replans_only_its_node(self):
        data = _data(seed=31)
        machine = Machine(make_cluster("dgx-a100", 2))
        machine.install_faults(FaultPlan(events=(GpuFail(at=0.0, gpu=9),)))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))
        assert result.degraded
        assert 9 in result.excluded_gpus
        # Node 0 keeps its full 8-GPU set; node 1 drops to the largest
        # power-of-two prefix of its survivors.
        node0 = [g for g in result.gpu_ids if g < 8]
        node1 = [g for g in result.gpu_ids if g >= 8]
        assert len(node0) == 8
        assert len(node1) == 4
        assert 9 not in node1

    def test_whole_node_failure_excludes_the_node(self):
        # Every GPU of node 1 dead at planning time: the sort re-shards
        # over the survivors instead of aborting, for free (no replan
        # budget consumed — no in-flight work died).
        data = _data()
        machine = Machine(make_cluster("dgx-a100", 2))
        machine.install_faults(FaultPlan(events=tuple(
            GpuFail(at=0.0, gpu=g) for g in range(8, 16))))
        result = hier_sort(machine, data)
        assert np.array_equal(result.output, np.sort(data))
        assert result.excluded_nodes == (1,)
        assert result.replans == 0
        assert all(g < 8 for g in result.gpu_ids)
        assert result.degraded

    def test_all_nodes_dead_raises(self):
        machine = Machine(make_cluster("dgx-a100", 2))
        machine.install_faults(FaultPlan(events=tuple(
            GpuFail(at=0.0, gpu=g) for g in range(16))))
        with pytest.raises(SortError, match="no cluster nodes survive"):
            hier_sort(machine, _data())
