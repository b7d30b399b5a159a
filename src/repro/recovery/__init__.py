"""End-to-end recovery for supervised sorts.

The :class:`~repro.recovery.supervisor.SortSupervisor` runs the P2P and
HET sorts as sequences of checkpointed phases so a GPU (or link) dying
*mid-phase* re-plans the run over the survivors instead of aborting it.
Every phase — the supervisor's and the hierarchical sort's — goes
through one :func:`~repro.recovery.tasks.run_phase`, which supervises
it only when a fault plan or a deadline can stop it mid-flight.  The
P2P phase driver (:class:`repro.sort.p2p.P2PRun`) is the P2P sort's
only execution path: :func:`~repro.sort.p2p.p2p_sort` runs it through
the supervisor's phase loop with checkpoint staging and speculation
off, so the plain P2P sort is elastic under a fault plan too.

* every completed phase writes a durable
  :class:`~repro.recovery.checkpoint.PhaseCheckpoint` (which chunks
  live where, which are sorted/merged, optionally host-staged copies of
  the chunk payloads);
* a :class:`~repro.errors.DeviceFaultError` or unrecoverable
  :class:`~repro.errors.TransferError` triggers a **replan**: the dead
  GPU's chunks are redistributed across the surviving power-of-two
  prefix, host-staged copies are reused where available and the input
  is re-fetched from source otherwise, and the run resumes from the
  last restorable checkpoint;
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
