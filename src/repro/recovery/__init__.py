"""End-to-end recovery for supervised sorts.

The :class:`~repro.recovery.supervisor.SortSupervisor` runs the P2P and
HET sorts as sequences of checkpointed phases so a GPU (or link) dying
*mid-phase* re-plans the run over the survivors instead of aborting it.
Every phase — the supervisor's and the hierarchical sort's — goes
through one :func:`~repro.recovery.tasks.run_phase`, which supervises
it only when a fault plan or a deadline can stop it mid-flight.  Each
sort has one phase driver, its only execution path:
:class:`repro.sort.p2p.P2PRun` and :class:`repro.sort.het.HetRun`.
:func:`~repro.sort.p2p.p2p_sort` and :func:`~repro.sort.het.het_sort`
run them through the supervisor's phase loop with checkpoint staging
and speculation off, so the plain sorts are elastic under a fault plan
too.

* every completed phase writes a durable
  :class:`~repro.recovery.checkpoint.PhaseCheckpoint` (which chunks
  live where, which are sorted/merged, optionally host-staged copies of
  the chunk payloads);
* a :class:`~repro.errors.DeviceFaultError` or unrecoverable
  :class:`~repro.errors.TransferError` triggers a **replan**: P2P
  redistributes the dead GPU's chunks across the surviving power-of-two
  prefix, reusing host-staged copies where available and re-fetching
  the input from source otherwise, and resumes from the last
  restorable checkpoint; HET re-runs only the chunks not yet back in
  host memory on the survivors;
* straggling phase tasks get **speculative backups** on the least-
  loaded survivor (first finisher wins, the loser is cancelled);
* a per-sort **deadline budget** cancels outstanding flows and kernels
  cleanly when exceeded and returns a typed partial result.

See ``docs/RESILIENCE.md`` for the recovery state machine.
"""

from repro.recovery.checkpoint import PhaseCheckpoint, RecoveryStats
from repro.recovery.cluster import Contribution, ExchangeLedger
from repro.recovery.supervisor import SortSupervisor, SupervisorConfig
from repro.recovery.tasks import TaskGroup

__all__ = [
    "Contribution",
    "ExchangeLedger",
    "PhaseCheckpoint",
    "RecoveryStats",
    "SortSupervisor",
    "SupervisorConfig",
    "TaskGroup",
]
