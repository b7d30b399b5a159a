"""End-to-end tests of the self-healing sort supervisor.

Fault times are placed as fractions of a clean supervised run's
duration (measured once per module), so the scenarios keep hitting the
intended phases if calibration shifts.
"""

import numpy as np
import pytest

from repro.errors import SortError
from repro.faults.events import GpuFail, StragglerGpu
from repro.faults.plan import FaultPlan
from repro.hw import dgx_a100
from repro.recovery import SortSupervisor, SupervisorConfig
from repro.runtime import Machine
from repro.runtime.buffer import WorkspacePool
from repro.sort import P2PConfig

N = 32_000
SCALE = 2.0e9 / N


def _data() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(0, 2**31, N, dtype=np.int64)


def _machine(plan=None) -> Machine:
    machine = Machine(dgx_a100(), scale=SCALE, fast_functional=True)
    if plan is not None:
        machine.install_faults(plan)
    return machine


@pytest.fixture(scope="module")
def clean_p2p():
    return SortSupervisor(_machine()).sort(_data(), algorithm="p2p")


@pytest.fixture(scope="module")
def clean_het():
    return SortSupervisor(_machine()).sort(_data(), algorithm="het")


class TestCleanRuns:
    def test_p2p_sorts_and_checkpoints(self, clean_p2p):
        result = clean_p2p
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.algorithm == "supervised-p2p"
        assert not result.degraded
        assert result.replans == 0
        assert result.checkpoints >= 2
        assert result.completed_phases == (
            "Partition", "LocalSort", "Exchange", "Gather")

    def test_het_sorts_and_checkpoints(self, clean_het):
        result = clean_het
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.algorithm == "supervised-het"
        assert not result.degraded
        assert result.checkpoints >= 1
        assert result.completed_phases == ("Pipeline", "Merge")

    def test_empty_fault_plan_is_identical_to_no_plan(self, clean_p2p):
        faulted = SortSupervisor(_machine(FaultPlan.empty())).sort(
            _data(), algorithm="p2p")
        assert faulted.duration == clean_p2p.duration
        assert np.array_equal(faulted.output, clean_p2p.output)

    def test_supervised_run_is_deterministic(self, clean_p2p):
        again = SortSupervisor(_machine()).sort(_data(), algorithm="p2p")
        assert again.duration == clean_p2p.duration
        assert np.array_equal(again.output, clean_p2p.output)


class TestReplanning:
    def test_gpu_killed_mid_exchange_replans_and_sorts(self, clean_p2p):
        """The acceptance scenario: one GPU dies mid-exchange; the run
        completes on the survivors, element-identical, with a recorded
        replan."""
        at = 0.7 * clean_p2p.duration  # exchange phase
        plan = FaultPlan(events=(GpuFail(at=at, gpu=5),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.degraded
        assert result.replans >= 1
        assert 5 in result.excluded_gpus
        assert 5 not in result.gpu_ids
        assert len(result.gpu_ids) == 4  # pow2 prefix of 7 survivors

    def test_replan_restores_from_sorted_checkpoint(self, clean_p2p):
        at = 0.55 * clean_p2p.duration  # after the LocalSort checkpoint
        plan = FaultPlan(events=(GpuFail(at=at, gpu=5),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.replans == 1
        assert result.checkpoints_restored >= 1

    def test_replan_without_checkpoints_restarts_from_source(self,
                                                             clean_p2p):
        at = 0.7 * clean_p2p.duration
        plan = FaultPlan(events=(GpuFail(at=at, gpu=5),))
        config = SupervisorConfig(checkpoint_sorted_chunks=False,
                                  checkpoint_merged_chunks=False)
        result = SortSupervisor(_machine(plan), config).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.checkpoints_restored == 0

    def test_het_gpu_killed_mid_pipeline_replans(self, clean_het):
        at = 0.4 * clean_het.duration
        plan = FaultPlan(events=(GpuFail(at=at, gpu=2),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="het")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.replans >= 1
        assert 2 not in result.gpu_ids

    def test_early_kill_replans_from_scratch(self, clean_p2p):
        at = 0.1 * clean_p2p.duration  # partition phase
        plan = FaultPlan(events=(GpuFail(at=at, gpu=3),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.replans >= 1


class TestSpeculation:
    def test_mid_run_straggler_loses_to_a_backup(self, clean_p2p):
        plan = FaultPlan(events=(StragglerGpu(
            at=0.15 * clean_p2p.duration, gpu=3, duration=100.0,
            slowdown=30.0),))
        result = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        assert np.array_equal(result.output, np.sort(_data()))
        assert result.speculations == 1
        assert result.speculative_wins == 1
        assert result.degraded

    def test_disabling_speculation_waits_out_the_straggler(self,
                                                           clean_p2p):
        plan = FaultPlan(events=(StragglerGpu(
            at=0.15 * clean_p2p.duration, gpu=3, duration=100.0,
            slowdown=30.0),))
        with_spec = SortSupervisor(_machine(plan)).sort(
            _data(), algorithm="p2p")
        without = SortSupervisor(
            _machine(plan), SupervisorConfig(speculation=False)).sort(
            _data(), algorithm="p2p")
        assert without.speculations == 0
        assert np.array_equal(without.output, np.sort(_data()))
        assert without.duration > with_spec.duration


class TestDeadline:
    def test_deadline_mid_run_returns_typed_partial(self, clean_p2p):
        deadline = 0.5 * clean_p2p.duration
        result = SortSupervisor(
            _machine(), SupervisorConfig(deadline_s=deadline)).sort(
            _data(), algorithm="p2p")
        assert result.deadline_exceeded
        assert result.output is None
        assert result.duration == pytest.approx(deadline)
        assert "Partition" in result.completed_phases
        assert "Gather" not in result.completed_phases

    def test_generous_deadline_completes_normally(self, clean_p2p):
        result = SortSupervisor(
            _machine(),
            SupervisorConfig(deadline_s=10 * clean_p2p.duration)).sort(
            _data(), algorithm="p2p")
        assert not result.deadline_exceeded
        assert np.array_equal(result.output, np.sort(_data()))


class TestPrimitive:
    def test_p2p_config_primitive_reaches_the_local_sorts(self, clean_p2p):
        slower = SortSupervisor(_machine()).sort(
            _data(), algorithm="p2p",
            p2p_config=P2PConfig(primitive="mgpu"))
        assert np.array_equal(slower.output, np.sort(_data()))
        assert slower.duration > clean_p2p.duration
        assert (slower.phase_durations["Sort"]
                > clean_p2p.phase_durations["Sort"])


class TestAbandonedJob:
    """A job whose event loop died under it closes cleanly."""

    def test_closing_an_abandoned_job_cleans_up(self):
        machine = _machine()
        env = machine.env
        pool = WorkspacePool()
        supervisor = SortSupervisor(machine, SupervisorConfig(
            deadline_s=10.0, pool=pool))
        # Eight GPUs do not divide N + 1 keys: the run borrows a padded
        # staging array from the pool.
        data = np.concatenate([_data(), [5]])
        job = supervisor.sort_async(data, algorithm="p2p")
        env.process(job)

        def neighbour():
            yield env.timeout(0.01)
            raise SortError("a neighbouring process failed")

        env.process(neighbour())
        with pytest.raises(SortError, match="neighbouring"):
            env.run()
        assert pool.borrowed_bytes > 0
        # The job is suspended mid-phase; closing it must unwind
        # without yielding and run the driver's cleanup.
        job.close()
        assert pool.borrowed_bytes == 0
        for gpu in range(machine.num_gpus):
            assert machine.device(gpu).allocated_logical == 0.0


class TestErrors:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SortError, match="rp"):
            SortSupervisor(_machine()).sort(_data(), algorithm="rp")

    def test_empty_input_rejected(self):
        with pytest.raises(SortError, match="empty"):
            SortSupervisor(_machine()).sort(
                np.array([], dtype=np.int64), algorithm="p2p")

    def test_duplicate_gpu_ids_rejected(self):
        with pytest.raises(SortError, match="duplicate"):
            SortSupervisor(_machine()).sort(
                _data(), algorithm="p2p", gpu_ids=(0, 0, 1, 2))
