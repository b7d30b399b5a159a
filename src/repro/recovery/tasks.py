"""Structured concurrency for supervised phases.

A :class:`TaskGroup` is a nursery for the processes one supervised
phase spawns.  Every task runs inside a *shield* — a wrapper generator
that absorbs :class:`~repro.sim.engine.Interrupt` (cooperative
cancellation) and records any other failure into the group instead of
letting the process event fail.  That keeps the simulation environment
clean: a bare failing :class:`~repro.sim.engine.Process` with no waiter
crashes the event loop, and two simultaneous failures under one
``AllOf`` crash it even *with* a waiter.  With shields, task process
events always succeed; failures travel through ``group.failure`` and
the ``failed`` event, which the phase runner turns into exactly one
exception raised at a well-defined point.

The runner (:meth:`TaskGroup.run`) waits for all tasks, reacts to the
first recorded failure or an optional deadline event by cancelling the
survivors, drains them, and then raises — so the supervisor observes
one typed error per phase, never a half-torn-down event loop.

:func:`run_phase` is the one place that decides whether a phase needs
a group at all: only a fault plan or a deadline can stop a phase
mid-flight, so without either its tasks run as plain processes under a
:class:`PlainGroup`.  Every phase of every sort driver (the P2P and
HET phase drivers, whether run plain or supervised, and the
hierarchical sort) goes through it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import DeadlineExceededError
from repro.sim.engine import Environment, Event, Interrupt, Process


class TaskGroup:
    """Nursery tracking one supervised phase's processes.

    Spawn with :meth:`spawn`; run the phase via :meth:`run` (itself a
    process generator).  After a failure or cancellation the group is
    *closed*: tasks that have not started yet exit immediately instead
    of beginning fresh work.
    """

    #: Tasks are shielded and can be cancelled (see :class:`PlainGroup`).
    supervised = True

    def __init__(self, env: Environment, name: str = "phase"):
        self.env = env
        self.name = name
        self.procs: List[Process] = []
        #: Results of finished tasks by name (``None`` for failed ones).
        self.results: Dict[str, object] = {}
        #: First failure recorded by any shield (wins; later ones drop).
        self.failure: Optional[BaseException] = None
        self.failed: Event = env.event()
        self.cancelled = False
        self._interrupted: Set[int] = set()

    # -- spawning ----------------------------------------------------------
    def spawn(self, gen, name: Optional[str] = None) -> Process:
        """Run ``gen`` as a shielded task; its failures go to the group."""
        if name is None:
            name = f"t{len(self.procs)}"
        proc = self.env.process(self._shield(gen, name))
        self.procs.append(proc)
        return proc

    def check(self) -> None:
        """Raise the phase failure, if one was recorded.

        Tasks call it after every barrier: a failed sibling's shielded
        process *succeeds*, so the barrier alone cannot tell.
        """
        if self.failure is not None:
            raise self.failure

    def _shield(self, gen, name: str):
        if self.cancelled:
            # The group was torn down before this task ever started —
            # don't begin fresh work on a layout being dismantled.
            gen.close()
            return None
        try:
            value = yield from gen
        except Interrupt:
            return None
        except BaseException as exc:  # noqa: BLE001 - first failure wins
            self.note_failure(exc)
            return None
        self.results[name] = value
        return value

    def note_failure(self, exc: BaseException) -> None:
        """Record ``exc`` as the phase failure (first one wins)."""
        if self.failure is None:
            self.failure = exc
        if not self.failed.triggered:
            self.failed.succeed()

    # -- cancellation ------------------------------------------------------
    def cancel(self) -> None:
        """Interrupt every started live task; block unstarted ones.

        Tasks with no ``_target`` yet (their ``Initialize`` event is
        still queued) cannot be interrupted safely — the shield's entry
        check makes them exit as soon as they start instead.  Each task
        is interrupted at most once: the shield absorbs it and ends the
        task, and interrupting a process twice (or after it died) is an
        engine error.
        """
        self.cancelled = True
        self._interrupt_live()

    def _interrupt_live(self) -> None:
        for proc in self.procs:
            self.interrupt_task(proc)

    def interrupt_task(self, proc: Process,
                       cause: str = "phase cancelled") -> bool:
        """Interrupt one task at most once; returns whether it was sent.

        All targeted cancellation (speculation losers, group teardown)
        goes through here so a task never receives a second interrupt —
        interrupting a process twice, or after it died, is an engine
        error.
        """
        if (proc.is_alive and proc._target is not None
                and id(proc) not in self._interrupted):
            self._interrupted.add(id(proc))
            proc.interrupt(cause)
            return True
        return False

    def alive(self) -> List[Process]:
        """Tasks that have not finished yet."""
        return [proc for proc in self.procs if proc.is_alive]

    # -- the phase runner --------------------------------------------------
    def run(self, body, deadline: Optional[Event] = None):
        """Process: run ``body`` (a generator) plus its spawned tasks.

        Waits until every task (including ones spawned mid-phase) has
        finished.  On the first recorded failure — or when ``deadline``
        fires — cancels the remainder, drains them, and raises the
        failure (or :class:`~repro.errors.DeadlineExceededError`).
        Interrupting the runner itself (supervisor teardown after a raw
        event-loop escape) makes it return quietly.
        """
        try:
            self.spawn(body, name="body")
            while True:
                # ``processed``, not ``triggered``: a Timeout is born
                # triggered (its value is set at construction) and only
                # becomes processed when its delay elapses.
                if (deadline is not None and deadline.processed
                        and self.failure is None):
                    self.cancel()
                    yield from self._drain()
                    raise DeadlineExceededError(
                        f"deadline expired during the {self.name} phase "
                        f"at t={self.env.now:.6f}s")
                if self.failure is not None:
                    self.cancel()
                    yield from self._drain()
                    raise self.failure
                live = self.alive()
                if not live:
                    break
                waits = [self.env.all_of(live)]
                if not self.failed.triggered:
                    waits.append(self.failed)
                if deadline is not None and not deadline.processed:
                    waits.append(deadline)
                yield self.env.any_of(waits)
        except Interrupt:
            return None
        return None

    def _drain(self):
        """Wait for cancelled tasks to finish unwinding.

        Loops because tasks that had not started when :meth:`cancel`
        ran only become interruptible (or exit via the shield's entry
        check) once their ``Initialize`` fires.
        """
        while True:
            live = self.alive()
            if not live:
                return
            self._interrupt_live()
            yield self.env.all_of(live)


class PlainGroup:
    """A phase's tasks as plain processes: nothing can fail mid-flight.

    The unsupervised stand-in for :class:`TaskGroup` with the same
    ``spawn``/``check`` seam, so phase bodies are written once.
    """

    supervised = False

    def __init__(self, env: Environment):
        self.env = env

    def spawn(self, gen, name: Optional[str] = None) -> Process:
        return self.env.process(gen)

    def check(self) -> None:
        return None


def run_phase(env: Environment, name: str,
              tasks: Sequence[Callable], faults=None,
              deadline: Optional[Event] = None):
    """Process: run one phase; each task is called as ``task(group)``.

    The one supervision rule: a phase is supervised only when something
    can stop it mid-flight — an installed fault plan (``faults``) or a
    ``deadline``.  Otherwise the tasks run as plain processes under one
    ``all_of`` (a single task inline, adding no event), so a fault-free
    run keeps the plain pipeline's event stream.  Supervised, the tasks
    run under a :class:`TaskGroup` and the phase raises at most one
    typed error: the first task failure or
    :class:`~repro.errors.DeadlineExceededError`.
    """
    if faults is None and deadline is None:
        group = PlainGroup(env)
        if len(tasks) == 1:
            yield from tasks[0](group)
        elif tasks:
            yield env.all_of([env.process(task(group)) for task in tasks])
        return
    group = TaskGroup(env, name=name)

    def body():
        for task in tasks:
            group.spawn(task(group))
        return None
        yield  # pragma: no cover - makes ``body`` a generator

    runner = env.process(group.run(body(), deadline=deadline))
    try:
        yield runner
    except GeneratorExit:
        # The driver was abandoned (an error crossed ``env.run`` and
        # its generator is being closed): draining would mean yielding
        # inside close(), which is illegal — just unwind.
        raise
    except BaseException:
        # Backstop: force-drain anything the runner could not reap
        # before the driver reacts to the error.
        for _attempt in range(100):
            group.cancelled = True
            leftovers = group.alive()
            if runner.is_alive:
                leftovers.append(runner)
            if not leftovers:
                break
            for proc in leftovers:
                group.interrupt_task(proc)
            try:
                yield env.all_of(leftovers)
            except BaseException:  # noqa: BLE001 - keep draining
                continue
        raise
