"""Result records of the sorting algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass
class SortResult:
    """Outcome of one simulated multi-GPU sort run.

    ``duration`` and ``phase_durations`` are simulated seconds; the
    phase breakdown follows the paper's convention (a phase ends when
    the last GPU completes it, Section 6.1).  ``logical_keys`` is the
    number of keys the run *represents* (physical keys times the
    machine scale).
    """

    algorithm: str
    system: str
    gpu_ids: Tuple[int, ...]
    physical_keys: int
    logical_keys: float
    dtype: str
    duration: float
    phase_durations: Dict[str, float] = field(default_factory=dict)
    #: Logical bytes moved over P2P links in the merge phase (P2P sort).
    p2p_bytes: float = 0.0
    #: Number of merge stages executed (P2P sort).
    merge_stages: int = 0
    #: Pivot chosen at every merge-stage execution (P2P sort), in
    #: completion order; zero pivots mean the swap was skipped entirely
    #: (the leftmost-pivot optimization, Section 5.2).
    pivots: Tuple[int, ...] = ()
    #: Number of chunk groups processed (HET sort).
    chunk_groups: int = 0
    #: Sorted output (physical payload); ``None`` for timing-only runs.
    output: Optional[np.ndarray] = None
    #: Payload values reordered alongside the keys (key-value sorts).
    output_values: Optional[np.ndarray] = None
    #: Whether the run was touched by faults or recovery work at all:
    #: excluded GPUs, retried/re-routed/timed-out copies, or any fault
    #: window overlapping the run.
    degraded: bool = False
    #: Copy attempts resubmitted after transient failures/timeouts.
    retries: int = 0
    #: Copies routed around a down link.
    reroutes: int = 0
    #: Per-copy watchdog expirations.
    timeouts: int = 0
    #: Simulated seconds of the run with at least one fault window open
    #: (union, not sum, of overlapping windows).
    fault_downtime: float = 0.0
    #: GPUs dropped from the requested set (failed or straggling past
    #: the policy's exclusion factor).
    excluded_gpus: Tuple[int, ...] = ()
    #: Hierarchical sorts only: cluster nodes dropped from the run
    #: (dead at planning time or lost mid-run and re-planned around).
    excluded_nodes: Tuple[int, ...] = ()
    #: Hierarchical sorts only: exchange waves re-executed after a
    #: transient wave failure or a node-loss repair pass.
    waves_replayed: int = 0
    #: Supervised sorts only: times the supervisor re-planned the run
    #: after a mid-phase device/transfer failure.
    replans: int = 0
    #: Supervised and hierarchical sorts only: phase checkpoints
    #: written during the run (for ``hier``, one per exchange wave).
    checkpoints: int = 0
    #: Supervised sorts only: checkpoints restored while re-planning
    #: (host-staged chunk copies reused instead of re-fetching).
    checkpoints_restored: int = 0
    #: Supervised sorts only: speculative backup executions launched
    #: for straggling phase tasks.
    speculations: int = 0
    #: Supervised sorts only: speculative backups that beat the
    #: original straggler (the loser was cancelled).
    speculative_wins: int = 0
    #: Supervised and hierarchical sorts only: ``True`` when the sort's
    #: deadline budget expired and the run was cancelled mid-phase.
    #: The result is then *partial*: ``output`` is ``None`` and
    #: ``completed_phases`` lists how far the run got.
    deadline_exceeded: bool = False
    #: Supervised and hierarchical sorts only: names of the phases
    #: that fully completed (checkpointed), in execution order; a
    #: 1-node ``hier`` run has only ``("LocalSort",)``.
    completed_phases: Tuple[str, ...] = ()

    @property
    def keys_per_second(self) -> float:
        """Logical sorting throughput."""
        return self.logical_keys / self.duration if self.duration else 0.0

    def phase_fraction(self, phase: str) -> float:
        """Share of the total duration one phase accounts for."""
        if not self.duration:
            return 0.0
        return self.phase_durations.get(phase, 0.0) / self.duration

    def summary(self) -> str:
        """One-line human-readable summary."""
        phases = ", ".join(f"{name}={seconds:.3f}s"
                           for name, seconds in self.phase_durations.items())
        line = (f"{self.algorithm} on {self.system} GPUs{self.gpu_ids}: "
                f"{self.logical_keys / 1e9:.2f}B keys in "
                f"{self.duration:.3f}s ({phases})")
        if self.degraded:
            line += (f" [degraded: retries={self.retries} "
                     f"reroutes={self.reroutes} "
                     f"downtime={self.fault_downtime:.3f}s"
                     + (f" excluded={self.excluded_gpus}"
                        if self.excluded_gpus else "")
                     + (f" excluded_nodes={self.excluded_nodes}"
                        if self.excluded_nodes else "")
                     + (f" replans={self.replans}"
                        if self.replans else "")
                     + (f" waves_replayed={self.waves_replayed}"
                        if self.waves_replayed else "")
                     + (f" speculative_wins={self.speculative_wins}"
                        if self.speculative_wins else "") + "]")
        if self.deadline_exceeded:
            line += (f" [DEADLINE EXCEEDED after "
                     f"{'/'.join(self.completed_phases) or 'no'} "
                     "completed phase(s); partial result]")
        return line
