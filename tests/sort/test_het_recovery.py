"""HET sort under GPU loss: the one phase driver replans, plain or supervised.

A GPU killed at 0.4x the clean duration must not fail the sort: the
chunks not yet back in host memory re-run on the survivors and the
output is element-identical to ``np.sort``.  After every replan and
every deadline hit, device memory is freed and workspace-pool loans
are returned.
"""

import numpy as np
import pytest

from repro.data import generate
from repro.faults.events import GpuFail
from repro.faults.plan import FaultPlan
from repro.hw import dgx_a100
from repro.recovery import SortSupervisor, SupervisorConfig
from repro.runtime import Machine
from repro.runtime.buffer import WorkspacePool, default_pool
from repro.sort import HetConfig, het_sort

N = 20_000
#: Logical keys: one chunk group (in-core) or several (out-of-core).
FOOTPRINTS = {"in-core": 2e9, "out-of-core": 64e9}
VARIANTS = {
    "2n": {},
    "3n": {"config": HetConfig(approach="3n")},
    "eager": {"config": HetConfig(eager_merge=True)},
    "gpu-merge": {"config": HetConfig(gpu_merge_groups=True)},
    "key-value": {"values": np.arange(N, dtype=np.int64)},
}


def _data() -> np.ndarray:
    return generate(N, "uniform", np.int32, seed=3)


def _machine(logical: float, plan=None) -> Machine:
    machine = Machine(dgx_a100(), scale=logical / N, fast_functional=True)
    if plan is not None:
        machine.install_faults(plan)
    return machine


def _sort(runner: str, machine: Machine, data, pool: WorkspacePool,
          deadline_s=None, config=None, values=None):
    if runner == "plain":
        return het_sort(machine, data, config=config, values=values)
    supervisor = SortSupervisor(machine, SupervisorConfig(
        pool=pool, deadline_s=deadline_s))
    return supervisor.sort(data, algorithm="het", het_config=config,
                           values=values)


def _assert_released(machine: Machine, pool: WorkspacePool,
                     default_loans: int) -> None:
    for gpu in range(machine.num_gpus):
        assert machine.device(gpu).allocated_logical == 0.0
    assert pool.borrowed_bytes == 0
    assert default_pool.borrowed_bytes == default_loans


@pytest.mark.parametrize("runner", ["plain", "supervised"])
@pytest.mark.parametrize("footprint", sorted(FOOTPRINTS))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_gpu_death_replans_over_the_survivors(variant, footprint, runner):
    data = _data()
    kwargs = VARIANTS[variant]
    logical = FOOTPRINTS[footprint]
    pool = WorkspacePool()
    loans = default_pool.borrowed_bytes
    clean = _sort(runner, _machine(logical), data, pool, **kwargs)
    plan = FaultPlan(events=(GpuFail(at=0.4 * clean.duration, gpu=3),))
    machine = _machine(logical, plan)
    result = _sort(runner, machine, data, pool, **kwargs)

    assert np.array_equal(result.output, np.sort(data))
    assert result.replans == 1
    assert result.degraded
    assert 3 in result.excluded_gpus
    expected = (0, 1, 2, 4) if variant == "gpu-merge" \
        else (0, 1, 2, 4, 5, 6, 7)
    assert result.gpu_ids == expected
    assert result.completed_phases == ("Pipeline", "Merge")
    assert result.chunk_groups == clean.chunk_groups
    if footprint == "out-of-core":
        assert clean.chunk_groups > 1
    if "values" in kwargs:
        # Every payload still sits next to its own key.
        assert np.array_equal(data[result.output_values], result.output)
        assert np.array_equal(np.sort(result.output_values),
                              kwargs["values"])
    _assert_released(machine, pool, loans)


@pytest.mark.parametrize("variant", ["eager", "gpu-merge", "key-value"])
def test_deadline_hit_releases_everything(variant):
    data = _data()
    kwargs = VARIANTS[variant]
    logical = FOOTPRINTS["out-of-core"]
    pool = WorkspacePool()
    loans = default_pool.borrowed_bytes
    clean = _sort("supervised", _machine(logical), data, pool, **kwargs)
    machine = _machine(logical)
    result = _sort("supervised", machine, data, pool,
                   deadline_s=0.3 * clean.duration, **kwargs)
    assert result.deadline_exceeded
    assert result.output is None
    assert result.completed_phases == ()
    _assert_released(machine, pool, loans)


def test_plain_run_reports_one_checkpoint_per_chunk_group():
    result = het_sort(_machine(FOOTPRINTS["out-of-core"]), _data())
    assert result.algorithm == "het"
    assert result.chunk_groups > 1
    assert result.checkpoints == result.chunk_groups
    assert result.completed_phases == ("Pipeline", "Merge")
    assert result.replans == 0
    assert not result.degraded
