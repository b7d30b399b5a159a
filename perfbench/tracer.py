"""Layer spans recorded from outside the program.

The tracer swaps the public functions and methods of each layer for
wrappers that record a span (bucket, start, end, parent) per call and
count the work the call was handed.  Nothing under ``src/`` changes:
every name is rebound where its callers look it up, because
``from x import f`` binds ``f`` into the importing module at import
time.  :meth:`Tracer.installed` restores every original on exit.

Simulation processes are generators: calling ``copy_async`` only
creates one, and its body runs later, one resume at a time, inside
``Environment.step``.  Their wrappers therefore re-yield the inner
generator's events unchanged and record one span per resume.

Spans are kept in memory (flat arrays, no per-span objects) until
:meth:`Tracer.take` turns them into self times.  A span's self time is
its duration minus the durations of its direct children; spans nest
strictly because the program runs in one thread, so the self times of
all spans add up to the summed duration of the root spans, and the
rest of the traced wall is charged to ``other``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Span buckets: every span is charged to exactly one.  The first
#: dotted component is the layer, named after the package it wraps.
BUCKETS = (
    "sim.step", "sim.fill", "sim.flows",
    "hw.route", "hw.build",
    "runtime.copy", "runtime.kernel",
    "gpuprims", "cpuprims",
    "sort",
    "recovery", "faults",
    "obs.rates_changed", "obs.hooks",
    "data",
)

#: Recorder methods the program calls while it runs (its query
#: methods are left alone).
RECORDER_HOOKS = (
    "flow_started", "flow_retired", "flow_aborted", "attach_flow",
    "engine_acquired", "engine_released", "fault_opened", "fault_closed",
    "replanned", "checkpointed", "speculated", "kernel_launched",
    "stream_submitted", "stream_drained", "engine_stepped",
)


def _first_len(keys, *args, **kwargs) -> int:
    return len(keys)


def _run_keys(runs, *args, **kwargs) -> int:
    return sum(len(run) for run in runs)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self._bucket_of = {name: i for i, name in enumerate(BUCKETS)}
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._clear_spans()

    def _clear_spans(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.bucket = array("i")
        self.parent = array("i")

    # -- spans ---------------------------------------------------------
    def enter(self, bucket: int) -> int:
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.bucket.append(bucket)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def take(self, wall_s: float) -> Dict[str, float]:
        """Self seconds per bucket (plus ``other``) of the spans so far.

        ``wall_s`` is the traced wall the spans fall in.  Clears the
        spans and counts; returns ``{bucket: self_s}`` with ``other``,
        the smallest self time of any span under ``min_self`` and the
        counts under ``counts``.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        bucket = np.frombuffer(self.bucket, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=len(duration))
        own = duration - covered
        by_bucket = np.bincount(bucket, weights=own, minlength=len(BUCKETS))
        result = {name: float(by_bucket[i]) for i, name in enumerate(BUCKETS)}
        result["other"] = wall_s - float(duration[~nested].sum())
        result["min_self"] = float(own.min()) if len(own) else 0.0
        result["counts"] = dict(self.counts)
        self.counts.clear()
        self._clear_spans()
        return result

    def save(self, path: str) -> None:
        """Write the spans recorded so far to ``path`` (``.npz``)."""
        np.savez_compressed(
            path, buckets=np.array(BUCKETS),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            bucket=np.frombuffer(self.bucket, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32))

    # -- wrappers ------------------------------------------------------
    def call(self, fn: Callable, bucket: str, count: str,
             work: Optional[Tuple[str, Callable]] = None) -> Callable:
        """Wrap a plain function: one span per call.

        ``work`` is ``(counter, measure)``; ``measure`` receives the
        call's arguments and returns the amount of work they hand over.
        """
        index = self._bucket_of[bucket]
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[count] += 1
            if work is not None:
                counts[work[0]] += work[1](*args, **kwargs)
            span = self.enter(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(span)

        return traced

    def generator(self, fn: Callable, bucket: str, count: str,
                  work: Optional[Tuple[str, Callable]] = None) -> Callable:
        """Wrap a generator function: one span per resume."""
        index = self._bucket_of[bucket]
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[count] += 1
            if work is not None:
                counts[work[0]] += work[1](*args, **kwargs)
            return self._drive(fn(*args, **kwargs), index)

        return traced

    def _drive(self, inner, index: int):
        value, error = None, None
        while True:
            span = self.enter(index)
            try:
                item = inner.send(value) if error is None \
                    else inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit(span)
            try:
                value, error = (yield item), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered to the inner process
                value, error = None, exc

    def auto(self, fn: Callable, bucket: str, count: str,
             work: Optional[Tuple[str, Callable]] = None) -> Callable:
        """:meth:`call` or :meth:`generator`, whichever ``fn`` needs."""
        if inspect.isgeneratorfunction(fn):
            return self.generator(fn, bucket, count, work)
        return self.call(fn, bucket, count, work)

    # -- installation --------------------------------------------------
    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every layer entry point to its traced wrapper."""
        with _Patches() as patches:
            patches.rebind(self._function_targets())
            for cls, name, replacement in self._method_targets():
                patches.set(cls, name, replacement)
            yield self

    def _function_targets(self) -> List[Tuple[Callable, Callable]]:
        # Modules, not their packages: some packages re-export a
        # function under its module's name.
        module = {name: importlib.import_module(f"repro.{name}") for name in (
            "data.generators", "cpuprims.multiway_merge", "cpuprims.paradis",
            "cpuprims.std_sorts", "gpuprims.merge_path", "gpuprims.radix_lsb",
            "gpuprims.registry", "hw.cluster", "hw.systems",
            "runtime.cpu_ops", "runtime.kernels", "runtime.memcpy",
            "sim.flows", "sort.het", "sort.hier", "sort.p2p",
            "sort.radix_partition")}
        flows, kernels = module["sim.flows"], module["runtime.kernels"]
        cpu_ops, merge_path = module["runtime.cpu_ops"], module[
            "gpuprims.merge_path"]
        merges, systems = module["cpuprims.multiway_merge"], module[
            "hw.systems"]

        targets = [
            (flows.water_fill_reference, "sim.fill",
             "sim.fill.reference_calls", ("sim.fill.flows", _first_len)),
            (flows.water_fill_arrays, "sim.fill", "sim.fill.arrays_calls",
             ("sim.fill.flows", lambda ft, kt, act, *a, **k: len(act))),
            (module["runtime.memcpy"].copy_async, "runtime.copy",
             "runtime.copy.calls", ("runtime.copy.bytes",
                                    lambda machine, dst, src, *a, **k:
                                    src.nbytes)),
            (kernels.sort_on_device, "runtime.kernel", "runtime.kernel.calls",
             None),
            (kernels.merge_two_on_device, "runtime.kernel",
             "runtime.kernel.calls", None),
            (cpu_ops.cpu_sort, "runtime.kernel", "runtime.kernel.calls", None),
            (cpu_ops.cpu_multiway_merge, "runtime.kernel",
             "runtime.kernel.calls", None),
            (merge_path.merge_sorted, "gpuprims", "gpuprims.calls",
             ("gpuprims.keys", lambda a, b, *r, **k: len(a) + len(b))),
            (merge_path.merge_sorted_with_values, "gpuprims",
             "gpuprims.calls",
             ("gpuprims.keys", lambda a, b, *r, **k: len(a) + len(b))),
            (merge_path.merge_positions, "gpuprims", "gpuprims.calls",
             ("gpuprims.keys", lambda a, b, *r, **k: len(a) + len(b))),
            (module["gpuprims.radix_lsb"].argsort_radix_lsb, "gpuprims",
             "gpuprims.calls", ("gpuprims.keys", _first_len)),
            (merges.multiway_merge, "cpuprims", "cpuprims.calls",
             ("cpuprims.keys", _run_keys)),
            (merges.multiway_merge_with_values, "cpuprims", "cpuprims.calls",
             ("cpuprims.keys", _run_keys)),
            (module["cpuprims.paradis"].paradis_sort, "cpuprims",
             "cpuprims.calls", ("cpuprims.keys", _first_len)),
            (module["sort.p2p"].p2p_sort, "sort", "sort.calls", None),
            (module["sort.het"].het_sort, "sort", "sort.calls", None),
            (module["sort.hier"].hier_sort, "sort", "sort.calls", None),
            (module["sort.radix_partition"].rp_sort, "sort", "sort.calls",
             None),
            (module["data.generators"].generate, "data", "data.calls", None),
            (module["hw.cluster"].make_cluster, "hw.build", "hw.build.calls",
             None),
        ]
        targets += [(getattr(systems, name), "hw.build", "hw.build.calls",
                     None) for name in ("dgx_a100", "ibm_ac922", "delta_d22x",
                                 "system_by_name")]
        wrapped = [(fn, self.auto(fn, *rest)) for fn, *rest in targets]
        # The kernel registries hand out the callable that does the
        # work; wrap what they return.
        for factory, layer in (
                (module["gpuprims.registry"].functional_sort, "gpuprims"),
                (module["cpuprims.std_sorts"].cpu_functional_sort,
                 "cpuprims")):
            wrapped.append((factory, self._factory(factory, layer)))
        return wrapped

    def _factory(self, factory: Callable, layer: str) -> Callable:
        made: Dict[int, Callable] = {}

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            fn = factory(*args, **kwargs)
            if id(fn) not in made:
                made[id(fn)] = self.call(fn, layer, f"{layer}.calls",
                                         (f"{layer}.keys", _first_len))
            return made[id(fn)]

        return traced

    def _method_targets(self) -> List[Tuple[type, str, Callable]]:
        from repro.faults.injector import FaultInjector
        from repro.hw.topology import Topology
        from repro.obs.recorder import Recorder
        from repro.recovery.cluster import ExchangeLedger
        from repro.recovery.supervisor import SortSupervisor
        from repro.recovery.tasks import TaskGroup
        from repro.sim.engine import Environment
        from repro.sim.flows import FlowNetwork

        targets = [
            (Environment, "step", self.call(
                Environment.step, "sim.step", "sim.step.calls")),
            (Environment, "run", self._env_run(Environment.run)),
            (FlowNetwork, "start_flow", self.call(
                FlowNetwork.start_flow, "sim.flows", "sim.flows.calls",
                ("sim.flows.started", lambda *a, **k: 1))),
            (FlowNetwork, "start_flows", self.call(
                FlowNetwork.start_flows, "sim.flows", "sim.flows.calls",
                ("sim.flows.started", lambda net, requests: len(requests)))),
            (FlowNetwork, "abort_flow", self.call(
                FlowNetwork.abort_flow, "sim.flows", "sim.flows.calls",
                ("sim.flows.aborted", lambda *a, **k: 1))),
            (FlowNetwork, "requery_capacity", self.call(
                FlowNetwork.requery_capacity, "sim.flows", "sim.flows.calls")),
            (Topology, "route", self._route(Topology.route)),
            (Recorder, "rates_changed", self.call(
                Recorder.rates_changed, "obs.rates_changed",
                "obs.rates_changed.calls")),
        ]
        targets += [(Recorder, name, self.call(
            getattr(Recorder, name), "obs.hooks", "obs.hooks.calls"))
            for name in RECORDER_HOOKS]
        for cls, bucket in ((ExchangeLedger, "recovery"),
                            (TaskGroup, "recovery"),
                            (SortSupervisor, "recovery"),
                            (FaultInjector, "faults")):
            for name, fn in vars(cls).items():
                if not name.startswith("_") and inspect.isfunction(fn):
                    targets.append((cls, name, self.auto(
                        fn, bucket, f"{bucket}.calls")))
        return targets

    def _env_run(self, run: Callable) -> Callable:
        """``Environment.run``: the dispatch loop, plus retired events."""
        traced_run = self.call(run, "sim.step", "sim.run.calls")

        @functools.wraps(run)
        def traced(env, *args, **kwargs):
            before = env.events_retired
            try:
                return traced_run(env, *args, **kwargs)
            finally:
                self.counts["sim.events_retired"] += (env.events_retired
                                                      - before)

        return traced

    def _route(self, route: Callable) -> Callable:
        """``Topology.route``, counting route-cache misses."""
        traced_route = self.call(route, "hw.route", "hw.route.calls")

        @functools.wraps(route)
        def traced(topology, *args, **kwargs):
            before = topology.routes.misses
            try:
                return traced_route(topology, *args, **kwargs)
            finally:
                self.counts["hw.route.misses"] += (topology.routes.misses
                                                   - before)

        return traced


class _Patches:
    """Attribute rebinds undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "_Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def rebind(self, pairs: List[Tuple[Callable, Callable]]) -> None:
        """Point every loaded ``repro`` module's name for each original
        function at its replacement."""
        replacements = {id(original): replacement
                        for original, replacement in pairs}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in replacements:
                    self.set(module, name, replacements[id(value)])


@contextlib.contextmanager
def collect_sorts() -> Iterator[List]:
    """Append the ``SortResult`` of every sort run in the block to the
    list it yields, wherever the sort is called from."""
    from repro.sort import het, hier, p2p, radix_partition

    results: List = []

    def collecting(sort: Callable) -> Callable:
        @functools.wraps(sort)
        def collected(*args, **kwargs):
            result = sort(*args, **kwargs)
            results.append(result)
            return result

        return collected

    with _Patches() as patches:
        patches.rebind([(sort, collecting(sort)) for sort in (
            p2p.p2p_sort, het.het_sort, hier.hier_sort,
            radix_partition.rp_sort)])
        yield results
