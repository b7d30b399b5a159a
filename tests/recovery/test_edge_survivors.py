"""Survivor-set edge cases: one healthy GPU left, and none.

Every sort — plain P2P/HET/RP and the supervised paths — must keep
working on a single survivor and fail with a clean typed
:class:`~repro.errors.SortError` when every GPU is gone, or when no GPU
was given at all, instead of crashing deep inside the run.
"""

import numpy as np
import pytest

from repro.errors import SortError
from repro.faults.events import GpuFail
from repro.faults.plan import FaultPlan
from repro.hw import dgx_a100
from repro.recovery import SortSupervisor
from repro.runtime import Machine
from repro.sort import het_sort, p2p_sort, rp_sort

N = 16_000
SCALE = 2.0e9 / N

#: All GPUs but gpu0 hard-failed before the sort starts.
SEVEN_DOWN = tuple(GpuFail(at=0.0, gpu=gpu) for gpu in range(1, 8))
#: Every GPU hard-failed before the sort starts.
ALL_DOWN = tuple(GpuFail(at=0.0, gpu=gpu) for gpu in range(8))

PLAIN_SORTS = {"p2p": p2p_sort, "het": het_sort, "rp": rp_sort}


def _data() -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.integers(0, 2**31, N, dtype=np.int64)


def _machine(events) -> Machine:
    machine = Machine(dgx_a100(), scale=SCALE, fast_functional=True)
    machine.install_faults(FaultPlan(events=events))
    return machine


class TestOneSurvivor:
    @pytest.mark.parametrize("algorithm", sorted(PLAIN_SORTS))
    def test_plain_sort_runs_on_the_last_gpu(self, algorithm):
        data = _data()
        result = PLAIN_SORTS[algorithm](_machine(SEVEN_DOWN), data)
        assert result.gpu_ids == (0,)
        assert result.degraded
        assert np.array_equal(result.output, np.sort(data))

    @pytest.mark.parametrize("algorithm", ["p2p", "het"])
    def test_supervised_sort_runs_on_the_last_gpu(self, algorithm):
        data = _data()
        result = SortSupervisor(_machine(SEVEN_DOWN)).sort(
            data, algorithm=algorithm)
        assert result.gpu_ids == (0,)
        assert result.excluded_gpus == tuple(range(1, 8))
        assert np.array_equal(result.output, np.sort(data))


class TestNoSurvivors:
    @pytest.mark.parametrize("algorithm", sorted(PLAIN_SORTS))
    def test_plain_sort_fails_typed(self, algorithm):
        with pytest.raises(SortError, match="no healthy GPUs"):
            PLAIN_SORTS[algorithm](_machine(ALL_DOWN), _data())

    @pytest.mark.parametrize("algorithm", ["p2p", "het"])
    def test_supervised_sort_fails_typed(self, algorithm):
        with pytest.raises(SortError, match="no healthy GPUs"):
            SortSupervisor(_machine(ALL_DOWN)).sort(
                _data(), algorithm=algorithm)


class TestEmptyGpuSet:
    @pytest.mark.parametrize("algorithm",
                             sorted(PLAIN_SORTS) + ["supervised"])
    def test_empty_gpu_ids_fail_typed(self, algorithm):
        machine = Machine(dgx_a100(), scale=SCALE, fast_functional=True)
        with pytest.raises(SortError, match="gpu_ids is empty"):
            if algorithm == "supervised":
                SortSupervisor(machine).sort(_data(), gpu_ids=[])
            else:
                PLAIN_SORTS[algorithm](machine, _data(), gpu_ids=[])
