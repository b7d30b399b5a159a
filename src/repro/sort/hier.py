"""Hierarchical sort: node-local P2P sort + cross-node fabric exchange.

The paper's algorithms stop at one machine; this module scales them out
to the multi-node clusters of :mod:`repro.hw.cluster`.  Three phases:

1. **LocalSort** — every node runs the P2P sort's phase bodies
   (:class:`~repro.sort.p2p.P2PRun`: HtoD, device sort, recursive
   merge with block swaps, DtoH) over its own GPUs and its shard of
   the input, exactly as :func:`repro.sort.p2p.p2p_sort` would on the
   standalone machine.  Nodes proceed concurrently.
2. **Exchange** — deterministic sampled splitters partition every
   node-local run into per-destination segments; the segments cross
   the fabric in ``N - 1`` all-to-all waves (round ``r``: node ``k``
   sends to node ``(k + r) % N``).  Without a fault plan each wave is
   one batched flow set (:meth:`FlowNetwork.start_flows`), so a
   64-node wave pays a single progressive fill instead of 63
   superseded intermediate ones; under an installed fault plan each
   copy is its own resilient task with retries, re-routes and
   watchdogs.
3. **NodeMerge** — each node multiway-merges its own segment with the
   received ones on the CPU (the HET sort's host-merge primitive), so
   the global output is the concatenation of per-node merges.

Every run, faulted or not, takes one execution path: an epoch driver
over a wave-checkpointed :class:`~repro.recovery.cluster.ExchangeLedger`
(see :func:`_elastic_sort`).  Its phases go through the supervisor's
:func:`~repro.recovery.tasks.run_phase`: supervised only when
something can fail mid-flight, that is, when a fault plan or a
deadline is installed; otherwise their tasks run as plain processes.

Degenerate shapes are exact: a 1-node cluster skips phases 2 and 3
entirely and adds *zero* simulated events over the plain P2P sort —
the degenerate-shape tests pin its duration bit-identical to
:func:`~repro.sort.p2p.p2p_sort` on the standalone platform.

As with distributed sort-merge systems, the input is assumed to start
*partitioned across the nodes* (shard ``k`` in node ``k``'s host
memory) and the output ends partitioned the same way; neither the
initial scatter nor the final gather into the convenience output array
is charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    DeviceFaultError,
    RecoveryError,
    SortError,
    TransferError,
)
from repro.faults.policy import ResiliencePolicy
from repro.hw.cluster import ClusterSpec
from repro.recovery.cluster import ExchangeLedger
from repro.recovery.tasks import run_phase
from repro.runtime.buffer import HostBuffer
from repro.runtime.context import Machine
from repro.runtime.cpu_ops import cpu_multiway_merge
from repro.runtime.memcpy import copy_async, span
from repro.sort.gpu_set import surviving_gpu_ids
from repro.sort.p2p import P2PConfig, P2PRun, _Stats
from repro.sort.result import SortResult
from repro.units import US


@dataclass
class HierConfig:
    """Tunables of the hierarchical sort."""

    #: Node-local phase configuration (the P2P sort's knobs apply
    #: per-node: primitive, pivot policy, out-of-place swaps).
    local: P2PConfig = field(default_factory=P2PConfig)
    #: GPUs used per node; ``None`` takes the largest power of two the
    #: node has (the P2P merge needs ``2^k`` chunks).
    gpus_per_node: Optional[int] = None
    #: Sorted-run samples each node contributes to splitter selection.
    samples_per_node: int = 32
    #: Latency of one remote sample read over the fabric.
    splitter_probe_latency_s: float = 8 * US
    #: Node-level replans (a node lost mid-run, its shard re-sharded
    #: over the survivors) allowed before the sort fails with
    #: :class:`~repro.errors.RecoveryError`.  Nodes already dead when
    #: the sort plans are excluded for free and do not consume this.
    max_node_replans: int = 4
    #: Exchange-wave re-executions after transient (non-fatal) wave
    #: failures before giving up with RecoveryError.
    max_wave_replays: int = 4
    #: Wall-clock budget in simulated seconds, with or without a fault
    #: plan; exceeding it returns a typed partial result
    #: (``deadline_exceeded=True``, ``output=None``).  ``None``
    #: disables the budget.
    deadline_s: Optional[float] = None
    #: Directory for post-mortem bundles: a terminal SortError /
    #: RecoveryError dumps a provenance-stamped snapshot (failing
    #: wave, fabric tier, fault timeline) there before propagating.
    postmortem_dir: Optional[str] = None


@dataclass
class _NodePlan:
    """One node's local phase: its input slice and P2P run."""

    node: int
    shard_start: int
    shard_stop: int
    #: The node's P2P run; the shard-length prefix of its ``host_out``
    #: is the node's sorted run (the pads are dtype-max sentinels).
    run: P2PRun


def _select_splitters(runs: Sequence[np.ndarray], num_nodes: int,
                      samples_per_node: int) -> np.ndarray:
    """Regular-sampling splitters: deterministic for a given input.

    Every node contributes ``samples_per_node`` evenly spaced elements
    of its sorted run; the ``N - 1`` global splitters are evenly spaced
    ranks of the merged sample set — the classic sample-sort bound on
    per-node imbalance.
    """
    samples = []
    for run in runs:
        m = run.size
        if m == 0:
            continue
        take = min(samples_per_node, m)
        idx = (np.arange(1, take + 1) * m) // (take + 1)
        samples.append(run[idx])
    merged = np.sort(np.concatenate(samples), kind="stable")
    ranks = (np.arange(1, num_nodes) * merged.size) // num_nodes
    return merged[ranks]


def _exchange_wave(machine: Machine, copies):
    """Process: one all-to-all wave of host-to-host fabric copies.

    ``copies`` is a list of ``(dst_buffer, src_buffer, start, stop,
    src_cpu, dst_cpu)``.  Resolves every route, charges the wave's
    worst hop latency once, then launches the whole wave as a single
    batched allocation — semantically N simultaneous copies, one
    progressive fill.  Interrupted (a deadline cancelling the phase),
    it takes its flows out of the network before unwinding.
    """
    env = machine.env
    topology = machine.spec.topology
    started = env.now
    requests = []
    latency = 0.0
    span_ids = []
    for dst, src, start, stop, src_cpu, dst_cpu in copies:
        route = topology.route(src_cpu, dst_cpu)
        logical = (stop - start) * src.dtype.itemsize * machine.scale
        requests.append((route.hops, logical, None,
                         f"HtoH:{src_cpu}->{dst_cpu}"))
        latency = max(latency, route.latency_s)
        span_ids.append(machine.trace.allocate_id()
                        if machine.obs is not None else None)
    if latency:
        yield env.timeout(latency)
    flows = machine.net.start_flows(requests)
    if machine.obs is not None:
        for flow, span_id in zip(flows, span_ids):
            machine.obs.attach_flow(flow, span_id)
    try:
        yield env.all_of([flow.done for flow in flows])
    except BaseException:
        for flow in flows:
            machine.net.abort_flow(flow)
        raise
    for (dst, src, start, stop, _src_cpu, dst_cpu), span_id, request in zip(
            copies, span_ids, requests):
        dst.data[:] = src.data[start:stop]
        machine.trace.record("Exchange", dst_cpu, started,
                             bytes=request[1], id=span_id)


def hier_sort(machine: Machine, data: Union[np.ndarray, HostBuffer],
              config: Optional[HierConfig] = None,
              resilience: Optional[ResiliencePolicy] = None) -> SortResult:
    """Sort ``data`` across a multi-node cluster; returns the result.

    ``machine`` must wrap a :class:`~repro.hw.cluster.ClusterSpec`
    (:func:`~repro.hw.cluster.make_cluster`).  The input is sharded
    contiguously across the nodes, each node P2P-sorts its shard on
    its own GPUs, and the shards are exchanged and host-merged into
    globally sorted per-node partitions.  The sorted keys come back
    concatenated in ``result.output``.

    ``resilience`` overrides the machine's policy *for this call only*
    (the machine's own policy is restored on exit, error paths
    included).  The sort is elastic whether or not a fault plan is
    installed: nodes already dead at planning time are excluded for
    free, each surviving node plans its local sort over the largest
    power-of-two prefix of its surviving GPUs, the cross-node exchange
    is wave-checkpointed through an
    :class:`~repro.recovery.cluster.ExchangeLedger` (a node lost
    mid-exchange replays only what its death invalidated), and
    node-level replans are bounded by ``config.max_node_replans``.
    Phases are supervised only when something can fail mid-flight — a
    fault plan or ``config.deadline_s``; a fault-free run without a
    deadline runs them as plain processes.
    """
    config = config or HierConfig()
    spec = machine.spec
    if not isinstance(spec, ClusterSpec):
        raise SortError(
            f"hier_sort needs a ClusterSpec, got {type(spec).__name__}; "
            "build one with repro.hw.make_cluster")
    if isinstance(data, HostBuffer):
        host_in = data
    else:
        host_in = machine.host_buffer(np.asarray(data))
    n = len(host_in.data)
    if n < spec.num_nodes:
        raise SortError(
            f"{n} keys cannot be sharded over {spec.num_nodes} nodes")

    per_node = config.gpus_per_node
    if per_node is None:
        per_node = 1 << int(math.log2(spec.gpus_per_node))
    if per_node < 1 or per_node & (per_node - 1):
        raise SortError(
            f"gpus_per_node must be a power of two, got {per_node}")

    saved_policy = machine.resilience
    if resilience is not None:
        machine.resilience = resilience
    try:
        return _elastic_sort(machine, spec, config, host_in, per_node)
    finally:
        machine.resilience = saved_policy


def _elastic_sort(machine: Machine, spec: ClusterSpec, config: HierConfig,
                  host_in: HostBuffer, per_node: int) -> SortResult:
    """The sort's one path: epoch state machine with wave checkpointing.

    The sort runs as a sequence of *epochs*.  Each epoch sorts whatever
    input slices are not durably sorted yet (everything on the first
    one; only the dead node's re-sharded repair slices afterwards),
    then drives the ledger's pending deliveries in waves and merges the
    unmerged ranges.  A node death raises out of the failing phase,
    the driver drops the node from the ledger — completed deliveries
    between survivors stay durable — and the next epoch replays only
    the invalidated work.  Transient (non-fatal) exchange failures
    replay just the failing wave.

    Every phase goes through the shared
    :func:`~repro.recovery.tasks.run_phase` (via ``tracked_phase``,
    which also notes the failing phase), which makes the one decision
    of whether the phase can fail mid-flight.  With neither a fault
    plan nor a deadline nothing can: the phase's tasks run as plain
    processes under one ``all_of`` and a single task runs inline, so a
    fault-free run keeps the plain pipeline's event stream and a 1-node
    cluster adds zero events over :func:`~repro.sort.p2p.p2p_sort`.
    Otherwise the phase runs under a shielded
    :class:`~repro.recovery.tasks.TaskGroup`.
    """
    env = machine.env
    faults = machine.faults
    n = len(host_in.data)
    num_nodes = spec.num_nodes
    dtype = host_in.dtype
    itemsize = dtype.itemsize

    dead: Set[int] = set()
    excluded_nodes: List[int] = []
    excluded: List[int] = []
    node_stats: List[_Stats] = []
    plan_ids: Dict[int, Tuple[int, ...]] = {}
    counters = {"node_replans": 0, "waves_replayed": 0,
                "checkpoints": 0, "restored": 0}
    completed: List[str] = []
    deadline_hit = [False]
    failing: Dict[str, object] = {"phase": None, "started": None}
    #: ``(cid, range)`` pairs that have ever landed — a wave touching
    #: one of them again is a replay, not first-time work.
    ever_delivered: Set[Tuple[int, int]] = set()
    single_run: List[Optional[np.ndarray]] = [None]
    ledger_box: List[Optional[ExchangeLedger]] = [None]
    repair_slices: List[Tuple[int, int]] = []
    #: ``(node, start, stop) -> plan`` of durably sorted slices; a
    #: replanned epoch reuses these instead of re-sorting.
    sorted_cache: Dict[Tuple[int, int, int], _NodePlan] = {}

    stats_before = machine.resilience_stats.snapshot()
    start_time = env.now
    deadline = (env.timeout(config.deadline_s)
                if config.deadline_s is not None else None)
    root_id = None
    if machine.obs is not None:
        root_id = machine.trace.allocate_id()
        machine.trace.push_parent(root_id)

    def node_dead_now(k: int) -> bool:
        if faults is None:
            return False
        if k in faults.failed_node_ids():
            return True
        survivors, _ = surviving_gpu_ids(
            machine, spec.node_gpu_order(k, per_node))
        return not survivors

    def _note_node_dead(k: int) -> None:
        dead.add(k)
        excluded_nodes.append(k)
        for gpu in spec.gpu_ids_of_node(k):
            if gpu not in excluded:
                excluded.append(gpu)
        for key in [key for key in sorted_cache if key[0] == k]:
            del sorted_cache[key]
        plan_ids.pop(k, None)

    def plan_alive_node(k: int, start: int, stop: int) -> _NodePlan:
        ids = spec.node_gpu_order(k, per_node)
        survivors, dropped = surviving_gpu_ids(machine, ids)
        for gpu in dropped:
            if gpu not in excluded:
                excluded.append(gpu)
        if not survivors:
            raise SortError(
                f"node {k} has no healthy GPUs left in {ids}")
        if dropped:
            keep = 1 << int(math.log2(len(survivors)))
            ids = tuple(survivors[:keep])
        shard = machine.host_buffer(host_in.data[start:stop],
                                    numa=spec.node_numa(k), pinned=True)
        return _NodePlan(node=k, shard_start=start, shard_stop=stop,
                         run=P2PRun(machine, shard, ids, config.local))

    def tracked_phase(name: str, tasks):
        """Process: one phase through the shared :func:`run_phase`."""
        failing["phase"] = name
        failing["started"] = env.now
        yield from run_phase(env, name, tasks, faults, deadline)

    def _local_one(plan: _NodePlan, job: Tuple[int, int, int], group):
        yield from plan.run.run_local(group)
        sorted_cache[job] = plan

    def _local_sorts(jobs: List[Tuple[int, int, int]]):
        """Process: sort every job not already durably sorted."""
        plans: List[Optional[_NodePlan]] = [None] * len(jobs)
        fresh: List[int] = []
        for i, job in enumerate(jobs):
            cached = sorted_cache.get(job)
            if cached is not None:
                plans[i] = cached
                plan_ids.setdefault(job[0], cached.run.ids)
            else:
                fresh.append(i)
        if fresh:
            tasks = []
            for i in fresh:
                k, start, stop = jobs[i]
                plans[i] = plan_alive_node(k, start, stop)
                plan_ids[k] = plans[i].run.ids
                # One stats record per job keeps pivots in job order.
                node_stats.append(plans[i].run.stats)
                tasks.append(partial(_local_one, plans[i], jobs[i]))
            try:
                yield from tracked_phase("LocalSort", tasks)
            finally:
                # Also on a failed epoch: a replanned one must not
                # inherit device allocations or pool loans from it.
                for i in fresh:
                    plans[i].run.cleanup()
        return plans

    def _reshard(slices: List[Tuple[int, int]],
                 alive: List[int]) -> List[Tuple[int, int, int]]:
        """Chop repair slices into near-equal pieces over survivors."""
        pieces: List[Tuple[int, int, int]] = []
        for start, stop in slices:
            total = stop - start
            base, extra = divmod(total, len(alive))
            offset = start
            for i, k in enumerate(alive):
                size = base + (1 if i < extra else 0)
                if size:
                    pieces.append((k, offset, offset + size))
                offset += size
        return pieces

    def _register(ledger: ExchangeLedger,
                  plans: List[_NodePlan]) -> None:
        """Add fresh runs to the ledger; idempotent on retries."""
        live = {(c.node, c.src_start, c.src_stop)
                for c in ledger.contributions}
        for plan in plans:
            key = (plan.node, plan.shard_start, plan.shard_stop)
            if key not in live:
                ledger.add_contribution(
                    plan.node, plan.shard_start, plan.shard_stop,
                    plan.run.host_out, plan.shard_stop - plan.shard_start)

    def _inbox(ledger: ExchangeLedger, c, rng: int):
        """``(buffer, lo, hi)`` of one delivery; the receive buffer is
        allocated in the range owner's host memory at delivery time."""
        lo, hi = c.segment(rng, ledger.num_ranges)
        buf = machine.host_buffer(
            hi - lo, dtype=dtype, numa=spec.node_numa(ledger.range_owner[rng]))
        ledger.inbox[(c.cid, rng)] = buf
        return buf, lo, hi

    def _landed(ledger: ExchangeLedger, pairs) -> None:
        # Durability is per-delivery, not per-wave: a wave that fails
        # halfway still keeps the segments that landed.
        for c, rng in pairs:
            ledger.delivered.add((c.cid, rng))
            ever_delivered.add((c.cid, rng))

    def _deliver(ledger: ExchangeLedger, c, rng: int, _group):
        """Process: one resilient per-copy delivery."""
        buf, lo, hi = _inbox(ledger, c, rng)
        yield from copy_async(machine, span(buf), span(c.host, lo, hi),
                              phase="Exchange")
        _landed(ledger, [(c, rng)])

    def _deliver_wave(ledger: ExchangeLedger, batch, _group):
        """Process: a whole wave as one batched flow set."""
        copies = []
        for c, rng in batch:
            buf, lo, hi = _inbox(ledger, c, rng)
            copies.append((buf, c.host, lo, hi, spec.node_cpu_name(c.node),
                           spec.node_cpu_name(ledger.range_owner[rng])))
        yield from _exchange_wave(machine, copies)
        _landed(ledger, batch)

    def _exchange(ledger: ExchangeLedger, alive: List[int]):
        """Process: drive pending deliveries in checkpointed waves."""
        idx = {k: i for i, k in enumerate(alive)}
        a = len(alive)
        while True:
            pairs = ledger.pending()
            if not pairs:
                return
            # Wave r sends from alive node i to (i + r) % a: a perfect
            # matching of disjoint source/destination nodes.
            by_wave: Dict[int, List] = {}
            for c, rng in pairs:
                r = (idx[ledger.range_owner[rng]] - idx[c.node]) % a
                by_wave.setdefault(r, []).append((c, rng))
            r = min(by_wave)
            batch = sorted(by_wave[r], key=lambda p: (p[0].cid, p[1]))
            if any((c.cid, rng) in ever_delivered for c, rng in batch):
                counters["waves_replayed"] += 1
            if faults is None:
                tasks = [partial(_deliver_wave, ledger, batch)]
            else:
                # Per-copy tasks: retries, re-routes and watchdogs act
                # on each copy, and a wave failing halfway keeps the
                # copies that landed.
                tasks = [partial(_deliver, ledger, c, rng)
                         for c, rng in batch]
            yield from tracked_phase(f"Exchange[wave {r}]", tasks)
            counters["checkpoints"] += 1
            if machine.obs is not None:
                machine.obs.checkpointed(f"Exchange[wave {r}]",
                                         len(batch), env.now)

    def _merge_one(ledger: ExchangeLedger, rng: int, owner: int,
                   out: np.ndarray, parts: List[np.ndarray], _group):
        yield from cpu_multiway_merge(machine, out, parts,
                                      numa=spec.node_numa(owner),
                                      phase="NodeMerge")
        ledger.merged[rng] = out

    def _merges(ledger: ExchangeLedger):
        tasks = []
        for rng in ledger.unmerged_ranges():
            parts = ledger.merge_parts(rng)
            out = np.empty(sum(part.size for part in parts), dtype=dtype)
            if out.size:
                tasks.append(partial(_merge_one, ledger, rng,
                                     ledger.range_owner[rng], out, parts))
            else:
                ledger.merged[rng] = out
        if tasks:
            yield from tracked_phase("NodeMerge", tasks)

    def _epoch(alive: List[int]):
        """Process: one attempt at finishing the sort on ``alive``."""
        ledger = ledger_box[0]
        if ledger is None:
            shard = -(-n // len(alive))
            jobs = [(alive[i], i * shard, min((i + 1) * shard, n))
                    for i in range(len(alive))]
            plans = yield from _local_sorts(jobs)
            if "LocalSort" not in completed:
                completed.append("LocalSort")
            if len(alive) == 1:
                plan = plans[0]
                single_run[0] = plan.run.host_out.data[
                    :plan.shard_stop - plan.shard_start]
                return
            # The sorted shard is the padded run's prefix: pads are
            # dtype-max sentinels, interchangeable with any real maxima.
            runs = [p.run.host_out.data[:p.shard_stop - p.shard_start]
                    for p in plans]
            # Splitter selection reads every node's samples over the
            # fabric; charged as latency-bound remote reads, like the
            # P2P sort's pivot probes.
            probes = len(alive) * config.samples_per_node
            yield env.timeout(probes * config.splitter_probe_latency_s)
            if deadline is not None and deadline.processed:
                raise DeadlineExceededError(
                    "deadline expired during the SplitterSelect phase "
                    f"at t={env.now:.6f}s")
            splitters = _select_splitters(runs, len(alive),
                                          config.samples_per_node)
            ledger = ExchangeLedger(splitters=splitters,
                                    nodes=tuple(alive))
            ledger_box[0] = ledger
            _register(ledger, plans)
        elif repair_slices:
            pieces = _reshard(list(repair_slices), alive)
            plans = yield from _local_sorts(pieces)
            _register(ledger, plans)
            # Only now: a failure above re-enters the repair branch.
            del repair_slices[:]
        yield from _exchange(ledger, alive)
        if "Exchange" not in completed:
            completed.append("Exchange")
        yield from _merges(ledger)
        if "NodeMerge" not in completed:
            completed.append("NodeMerge")

    def _absorb_deaths(newly: List[int], alive: List[int],
                       exc: Optional[BaseException]) -> List[int]:
        survivors = [k for k in alive if k not in newly]
        if not survivors:
            raise SortError(
                f"node {newly[0]} died and no cluster nodes survive "
                "it") from exc
        ledger = ledger_box[0]
        for k in newly:
            _note_node_dead(k)
            if ledger is not None:
                repair_slices.extend(ledger.drop_node(k, survivors))
        if ledger is not None:
            # Deliveries that stayed durable across the drop are the
            # checkpointed work the replay will *not* redo.
            counters["restored"] += len(ledger.delivered)
        return survivors

    def run():
        wave_retries = 0
        while True:
            alive = [k for k in range(num_nodes) if k not in dead]
            # Nodes already dead (at planning time, or lost quietly
            # between epochs) are excluded without charging the replan
            # budget — no in-flight work of ours died with them.
            newly = [k for k in alive if node_dead_now(k)]
            if newly:
                alive = _absorb_deaths(newly, alive, None)
            try:
                yield from _epoch(alive)
                return
            except DeadlineExceededError:
                deadline_hit[0] = True
                return
            except (DeviceFaultError, TransferError) as exc:
                phase = failing["phase"] or "LocalSort"
                newly = [k for k in alive if node_dead_now(k)]
                if newly:
                    counters["node_replans"] += 1
                    if counters["node_replans"] > config.max_node_replans:
                        raise RecoveryError(
                            f"giving up after {config.max_node_replans} "
                            f"node replans (last failure in {phase}: "
                            f"{exc})") from exc
                    survivors = _absorb_deaths(newly, alive, exc)
                    now = env.now
                    machine.trace.record("Replan", "hier", now)
                    if machine.obs is not None:
                        machine.obs.replanned(
                            phase, type(exc).__name__,
                            tuple(gpu for k in newly
                                  for gpu in spec.gpu_ids_of_node(k)),
                            tuple(gpu for k in survivors
                                  for gpu in spec.gpu_ids_of_node(k)),
                            now)
                elif phase.startswith("Exchange"):
                    wave_retries += 1
                    counters["waves_replayed"] += 1
                    if wave_retries > config.max_wave_replays:
                        raise RecoveryError(
                            f"giving up after {config.max_wave_replays} "
                            f"wave replays (last failure in {phase}: "
                            f"{exc})") from exc
                else:
                    counters["node_replans"] += 1
                    if counters["node_replans"] > config.max_node_replans:
                        raise RecoveryError(
                            f"giving up after {config.max_node_replans} "
                            f"node replans (last failure in {phase}: "
                            f"{exc})") from exc

    try:
        machine.run(run())
    except SortError as exc:
        exc.failing_phase = failing["phase"]
        exc.failing_phase_started = failing["started"]
        exc.postmortems = []
        if config.postmortem_dir is not None:
            from repro.obs.postmortem import build_bundle, write_bundle
            try:
                bundle = build_bundle(machine, exc,
                                      phase=failing["phase"],
                                      phase_started=failing["started"],
                                      label="hier")
                exc.postmortems.append(
                    write_bundle(bundle, config.postmortem_dir))
            except Exception:  # noqa: BLE001 - must not mask exc
                pass
        raise
    finally:
        if root_id is not None:
            machine.trace.pop_parent()
            machine.trace.record("HierSort", "sort", start_time,
                                 bytes=n * itemsize * machine.scale,
                                 id=root_id)

    duration = env.now - start_time
    ledger = ledger_box[0]
    if deadline_hit[0]:
        output = None
    elif single_run[0] is not None:
        output = single_run[0].copy()
    else:
        output = np.concatenate([ledger.merged[rng]
                                 for rng in range(ledger.num_ranges)])

    recovery = machine.resilience_stats.delta(stats_before)
    fault_downtime = (faults.downtime_between(start_time, env.now)
                      if faults is not None else 0.0)
    degraded = bool(excluded or excluded_nodes or counters["node_replans"]
                    or counters["waves_replayed"] or recovery.retries
                    or recovery.reroutes or recovery.timeouts
                    or fault_downtime > 0.0)

    pivots: List[int] = []
    p2p_bytes = 0.0
    for stats in node_stats:
        pivots.extend(stats.pivots)
        p2p_bytes += stats.p2p_bytes
    planned_nodes = sorted(plan_ids)
    all_ids = tuple(gpu for k in planned_nodes for gpu in plan_ids[k])
    g = len(plan_ids[planned_nodes[0]]) if planned_nodes else 0
    phases = {name: value for name, value in
              machine.trace.phase_durations().items()
              if name in ("Redistribute", "HtoD", "Sort", "Merge", "DtoH",
                          "Exchange", "NodeMerge")}
    return SortResult(
        algorithm="hier",
        system=spec.name,
        gpu_ids=all_ids,
        physical_keys=n,
        logical_keys=n * machine.scale,
        dtype=str(dtype),
        duration=duration,
        phase_durations=phases,
        p2p_bytes=p2p_bytes,
        merge_stages=2 * int(math.log2(g)) - 1 if g > 1 else 0,
        pivots=tuple(pivots),
        output=output,
        degraded=degraded,
        retries=recovery.retries,
        reroutes=recovery.reroutes,
        timeouts=recovery.timeouts,
        fault_downtime=fault_downtime,
        excluded_gpus=tuple(excluded),
        excluded_nodes=tuple(sorted(excluded_nodes)),
        replans=counters["node_replans"],
        waves_replayed=counters["waves_replayed"],
        checkpoints=counters["checkpoints"],
        checkpoints_restored=counters["restored"],
        deadline_exceeded=deadline_hit[0],
        completed_phases=tuple(completed),
    )
