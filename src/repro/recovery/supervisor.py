"""The self-healing sort supervisor.

:class:`SortSupervisor` runs a multi-GPU sort as a sequence of
checkpointed phases (see :mod:`repro.recovery`).  Each phase is one
:func:`~repro.recovery.tasks.run_phase` call — under a
:class:`~repro.recovery.tasks.TaskGroup` whenever a fault plan or the
deadline can stop it mid-flight, as plain processes otherwise — so
between phases the supervisor's phase loop (:meth:`SortSupervisor.drive`)
can react to what happened:

* **success** — write the phase's :class:`PhaseCheckpoint` (optionally
  staging chunk payloads to host memory first) and move on;
* **device/transfer failure** — *replan*: drop the dead GPUs, rebuild
  the remaining phase queue over the survivors from the last restorable
  checkpoint, and resume;
* **deadline** — cancel outstanding flows and kernels cleanly and
  return a typed partial :class:`~repro.sort.result.SortResult` with
  ``deadline_exceeded=True``.

The per-algorithm phase logic lives in the drivers, each its sort's
only execution path: :class:`repro.sort.p2p.P2PRun` and
:class:`repro.sort.het.HetRun`.  :func:`~repro.sort.p2p.p2p_sort` and
:func:`~repro.sort.het.het_sort` run them through this same phase loop
(:func:`plain_sort`) with checkpoint staging and speculation off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    DeviceFaultError,
    RecoveryError,
    SortError,
    TransferError,
)
from repro.recovery.checkpoint import PhaseCheckpoint, RecoveryStats
from repro.recovery.tasks import run_phase
from repro.faults.policy import ResiliencePolicy
from repro.runtime.buffer import HostBuffer, WorkspacePool, default_pool
from repro.runtime.context import Machine
from repro.sort.gpu_set import surviving_gpu_ids
from repro.sort.result import SortResult


@dataclass
class SupervisorConfig:
    """Tunables of the self-healing supervisor."""

    #: Stage each GPU's sorted run to host memory after the local sort
    #: (a restorable checkpoint; costs one extra DtoH per chunk).
    checkpoint_sorted_chunks: bool = True
    #: Stage the merged chunks after the exchange phase; any later
    #: failure then resolves entirely from host memory.
    checkpoint_merged_chunks: bool = True
    #: Replans allowed before the run fails with
    #: :class:`~repro.errors.RecoveryError`.
    max_replans: int = 8
    #: Wall-clock budget in simulated seconds; ``None`` disables it.
    deadline_s: Optional[float] = None
    #: Launch speculative backups for straggling local sorts.
    speculation: bool = True
    #: A task is a straggler once the phase has run past this multiple
    #: of the median completed-task duration.
    speculation_multiple: float = 2.0
    #: Fraction of a phase's tasks that must finish before the median
    #: is trusted (quorum for arming speculation).
    speculation_quorum: float = 0.5
    #: When the survivors cannot hold the redistributed chunks, fall
    #: back to a host-side multiway merge of the staged runs instead of
    #: failing the run.
    cpu_merge_fallback: bool = True
    #: Workspace pool for the run's host-side scratch (padded staging
    #: array, staged runs); ``None`` uses the process-wide
    #: :data:`~repro.runtime.buffer.default_pool`.  The sort service
    #: passes each tenant's quota-limited pool here so one tenant's
    #: scratch cannot starve another's.
    pool: Optional[WorkspacePool] = None
    #: Job label for multi-job traces: the run's root span is recorded
    #: with actor ``job:<label>`` (instead of ``supervisor``) and the
    #: global trace parent stack is left untouched — the stack assumes
    #: one sort at a time, which concurrent service jobs violate.
    job_label: Optional[str] = None
    #: Directory for post-mortem bundles: when set, a terminal
    #: :class:`~repro.errors.SortError` / RecoveryError dumps a
    #: provenance-stamped JSON snapshot (recent events, fault timeline,
    #: critical path up to the failure) there before propagating.
    postmortem_dir: Optional[str] = None


class SortSupervisor:
    """Runs checkpointed, re-plannable sorts on one machine."""

    def __init__(self, machine: Machine,
                 config: Optional[SupervisorConfig] = None):
        self.machine = machine
        self.config = config or SupervisorConfig()
        self.rec = RecoveryStats()
        self.checkpoints: List[PhaseCheckpoint] = []
        self.excluded: tuple = ()
        #: Paths of post-mortem bundles dumped by this supervisor.
        self.postmortems: List[str] = []
        #: Phase executing (and its start time) when a terminal
        #: :class:`~repro.errors.SortError` escaped, else ``None``.
        self.failed_phase: Optional[str] = None
        self.failed_phase_started: Optional[float] = None

    @property
    def pool(self) -> WorkspacePool:
        """The workspace pool this run's host scratch comes from."""
        return self.config.pool if self.config.pool is not None \
            else default_pool

    # -- bookkeeping hooks the drivers call --------------------------------
    def note_checkpoint(self, ck: PhaseCheckpoint) -> None:
        self.checkpoints.append(ck)
        self.rec.checkpoints += 1
        if self.machine.obs is not None:
            staged = len(ck.payloads) if ck.payloads is not None else 0
            self.machine.obs.checkpointed(ck.phase, staged, ck.at)

    def note_restored(self, phase: str, staged: int) -> None:
        self.rec.checkpoints_restored += 1
        if self.machine.obs is not None:
            self.machine.obs.checkpointed(phase, staged,
                                          self.machine.env.now,
                                          restored=True)

    def last_restorable(self) -> Optional[PhaseCheckpoint]:
        for ck in reversed(self.checkpoints):
            if ck.restorable:
                return ck
        return None

    # -- the supervised run ------------------------------------------------
    def sort(self, data: Union[np.ndarray, HostBuffer],
             algorithm: str = "p2p",
             gpu_ids: Optional[Sequence[int]] = None,
             **driver_kwargs) -> SortResult:
        """Run a supervised sort; returns a :class:`SortResult`.

        ``algorithm`` is ``"p2p"`` or ``"het"``.  Extra keyword
        arguments go to the algorithm driver: ``p2p_config=`` or
        ``het_config=``, and ``values=`` for key-value records.

        The supervisor drives the run from the host side: the
        trampoline below replays the generator's yielded events through
        ``env.run`` without wrapping it in a process, so single-sort
        runs stay bit-identical to the pre-service code.
        """
        generator = self.sort_async(data, algorithm=algorithm,
                                    gpu_ids=gpu_ids, **driver_kwargs)
        env = self.machine.env
        try:
            event = next(generator)
        except StopIteration as stop:
            return stop.value
        while True:
            try:
                value = env.run(until=event)
            except BaseException as exc:  # noqa: BLE001 - replayed below
                # Raw event-loop escapes included: thrown back into the
                # generator at its yield, where the phase loop's except
                # clauses (replan, deadline) and cleanup handle them.
                try:
                    event = generator.throw(exc)
                except StopIteration as stop:
                    return stop.value
                continue
            try:
                event = generator.send(value)
            except StopIteration as stop:
                return stop.value

    def sort_async(self, data: Union[np.ndarray, HostBuffer],
                   algorithm: str = "p2p",
                   gpu_ids: Optional[Sequence[int]] = None,
                   **driver_kwargs):
        """Process form of :meth:`sort`: a generator yielding events.

        Run it under ``env.process`` to execute a supervised sort
        *concurrently* with other work in the same simulated
        environment — the sort service schedules many of these on
        disjoint GPU sets.  The generator's return value is the
        :class:`SortResult`; exceptions propagate through the process
        event like any other task failure.
        """
        return (yield from self.drive(data, algorithm, gpu_ids,
                                      driver_kwargs))

    def drive(self, data: Union[np.ndarray, HostBuffer], algorithm: str,
              gpu_ids: Optional[Sequence[int]], driver_kwargs: dict,
              result_algorithm: Optional[str] = None,
              root_span: Optional[tuple] = None):
        """Process: the phase loop every supervised run goes through.

        Builds the algorithm's driver, runs its phase queue one phase at
        a time through :func:`~repro.recovery.tasks.run_phase` (so a
        phase is supervised only when a fault plan or the deadline can
        stop it), reacts to each phase's single typed error — replan on
        a device or transfer failure, typed partial result on the
        deadline — and returns the :class:`SortResult`.
        :func:`plain_sort` runs the same loop under its own
        ``result_algorithm`` and ``(name, actor)`` root span.
        """
        machine = self.machine
        if algorithm not in ("p2p", "het"):
            raise SortError(f"unknown supervised algorithm {algorithm!r} "
                            "(expected 'p2p' or 'het')")
        if isinstance(data, HostBuffer):
            host_in = data
        else:
            host_in = machine.host_buffer(np.asarray(data))
        if len(host_in.data) == 0:
            raise SortError("cannot sort an empty array")

        ids = self._initial_ids(algorithm, gpu_ids)
        if algorithm == "p2p":
            from repro.sort.p2p import P2PRun as run_class
        else:
            from repro.sort.het import HetRun as run_class
        driver = run_class(machine, host_in, ids, sup=self, **driver_kwargs)

        env = machine.env
        start = env.now
        stats_before = machine.resilience_stats.snapshot()
        deadline = (env.timeout(self.config.deadline_s)
                    if self.config.deadline_s is not None else None)
        span_name, span_actor = root_span or ("SupervisedSort",
                                              self._actor())
        root_id = None
        if machine.obs is not None:
            root_id = machine.trace.allocate_id()
            if self.config.job_label is None:
                # The global parent stack assumes one sort at a time;
                # labelled (service) jobs leave it alone and are found
                # by actor instead.
                machine.trace.push_parent(root_id)

        deadline_hit = False
        failing_phase: Optional[str] = None
        phase_started: Optional[float] = None
        try:
            while driver.queue:
                name = driver.queue[0]
                failing_phase = name
                phase_started = env.now
                try:
                    yield from run_phase(env, name, [driver.body(name)],
                                         machine.faults, deadline)
                    ck_body = driver.checkpoint_body(name)
                    if ck_body is not None:
                        yield from run_phase(env, f"{name}:checkpoint",
                                             [ck_body], machine.faults,
                                             deadline)
                    driver.after_phase(name)
                    self.rec.completed(name)
                    driver.queue.pop(0)
                except DeadlineExceededError:
                    deadline_hit = True
                    break
                except (DeviceFaultError, TransferError) as exc:
                    self._replan(driver, name, exc)
        except SortError as exc:
            # Terminal failures (RecoveryError after exhausting replans,
            # no-survivors SortError): freeze a post-mortem bundle while
            # the state around the death is still reachable.
            self.failed_phase = failing_phase
            self.failed_phase_started = phase_started
            self._dump_postmortem(exc, failing_phase, phase_started)
            raise
        finally:
            driver.cleanup()
            if root_id is not None:
                if self.config.job_label is None:
                    machine.trace.pop_parent()
                machine.trace.record(
                    span_name, span_actor, start,
                    bytes=host_in.data.nbytes * machine.scale, id=root_id)

        duration = env.now - start
        output = output_values = None
        if not deadline_hit:
            output, output_values = driver.finalize()
        recovery = machine.resilience_stats.delta(stats_before)
        fault_downtime = (machine.faults.downtime_between(start, env.now)
                          if machine.faults is not None else 0.0)
        degraded = bool(self.excluded or self.rec.replans
                        or self.rec.speculative_wins or recovery.retries
                        or recovery.reroutes or recovery.timeouts
                        or fault_downtime > 0.0)
        phase_names = ("Redistribute", "HtoD", "Sort", "Merge", "DtoH",
                       "Checkpoint", "Restore", "Speculate")
        phases = {phase: value for phase, value in
                  machine.trace.phase_durations().items()
                  if phase in phase_names}
        return SortResult(
            algorithm=result_algorithm or f"supervised-{algorithm}",
            system=machine.spec.name,
            gpu_ids=driver.ids,
            physical_keys=len(host_in.data),
            logical_keys=len(host_in.data) * machine.scale,
            dtype=str(host_in.dtype),
            duration=duration,
            phase_durations=phases,
            output=output,
            output_values=output_values,
            degraded=degraded,
            retries=recovery.retries,
            reroutes=recovery.reroutes,
            timeouts=recovery.timeouts,
            fault_downtime=fault_downtime,
            excluded_gpus=self.excluded,
            replans=self.rec.replans,
            checkpoints=self.rec.checkpoints,
            checkpoints_restored=self.rec.checkpoints_restored,
            speculations=self.rec.speculations,
            speculative_wins=self.rec.speculative_wins,
            deadline_exceeded=deadline_hit,
            completed_phases=self.rec.completed_phases,
            **driver.result_fields(),
        )

    # -- internals ---------------------------------------------------------
    def _dump_postmortem(self, exc: BaseException,
                         phase: Optional[str],
                         phase_started: Optional[float] = None) -> None:
        """Write a failure bundle if the config asks for one.

        Never raises: the original exception is mid-flight and a
        reporting failure must not mask it.
        """
        directory = self.config.postmortem_dir
        if directory is None:
            return
        from repro.obs.postmortem import build_bundle, write_bundle
        try:
            bundle = build_bundle(self.machine, exc, phase=phase,
                                  phase_started=phase_started,
                                  label=self.config.job_label)
            self.postmortems.append(write_bundle(bundle, directory))
        except Exception:  # noqa: BLE001 - reporting must not mask exc
            pass

    def _actor(self) -> str:
        """Span actor for this run's supervisor-level trace records."""
        if self.config.job_label is not None:
            return f"job:{self.config.job_label}"
        return "supervisor"

    def _initial_ids(self, algorithm: str,
                     gpu_ids: Optional[Sequence[int]]) -> tuple:
        machine = self.machine
        ids = tuple(gpu_ids) if gpu_ids is not None else None
        if ids == ():
            raise SortError("gpu_ids is empty: a sort needs at least one GPU")
        if ids is None:
            if algorithm == "p2p":
                count = min(machine.num_gpus,
                            1 << int(math.log2(machine.num_gpus)))
                ids = machine.spec.preferred_gpu_set(count)
            else:
                ids = machine.spec.preferred_gpu_set(machine.num_gpus)
        if len(set(ids)) != len(ids):
            raise SortError(f"duplicate GPU ids in {ids}")
        if machine.faults is not None:
            survivors, excluded = surviving_gpu_ids(machine, ids)
            if not survivors:
                raise SortError(
                    f"no healthy GPUs left in {ids}: all failed or "
                    "straggling past the exclusion factor")
            self.excluded = excluded
            ids = survivors
        if algorithm == "p2p":
            keep = 1 << int(math.log2(len(ids)))
            ids = tuple(ids[:keep])
        return tuple(ids)

    def _replan(self, driver, phase: str, exc: BaseException) -> None:
        machine = self.machine
        self.rec.replans += 1
        if self.rec.replans > self.config.max_replans:
            raise RecoveryError(
                f"giving up after {self.config.max_replans} replans "
                f"(last failure in {phase}: {exc})") from exc
        survivors, excluded_now = surviving_gpu_ids(machine, driver.ids)
        if not survivors:
            raise SortError(
                f"no healthy GPUs left in {driver.ids}: all failed or "
                "straggling past the exclusion factor") from exc
        dead = tuple(gpu for gpu in driver.ids if gpu not in survivors)
        for gpu in excluded_now:
            if gpu not in self.excluded:
                self.excluded = self.excluded + (gpu,)
        now = machine.env.now
        machine.trace.record("Replan", self._actor(), now)
        if machine.obs is not None:
            machine.obs.replanned(phase, type(exc).__name__, dead,
                                  survivors, now)
        driver.replan(phase, survivors, exc)


def plain_sort(machine: Machine, algorithm: str,
               data: Union[np.ndarray, HostBuffer],
               gpu_ids: Optional[Sequence[int]], driver_kwargs: dict,
               resilience: Optional[ResiliencePolicy],
               span_name: str) -> SortResult:
    """Run one sort's driver as the plain ``algorithm`` sort.

    The entry point of :func:`~repro.sort.p2p.p2p_sort` and
    :func:`~repro.sort.het.het_sort`: the supervisor's phase loop with
    checkpoint staging and speculation off, reported as ``algorithm``
    under a ``(span_name, "sort")`` root span.  ``resilience``
    overrides the machine's policy for this call only (restored on
    exit, error paths included).
    """
    supervisor = SortSupervisor(machine, SupervisorConfig(
        checkpoint_sorted_chunks=False, checkpoint_merged_chunks=False,
        speculation=False))
    saved_policy = machine.resilience
    if resilience is not None:
        machine.resilience = resilience
    try:
        return machine.run(supervisor.drive(
            data, algorithm, gpu_ids, driver_kwargs,
            result_algorithm=algorithm, root_span=(span_name, "sort")))
    finally:
        machine.resilience = saved_policy
