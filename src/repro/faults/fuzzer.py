"""Chaos fuzzer: seeded random fault plans against real sorts.

Every seed deterministically derives one :class:`ChaosCase` — a
workload (algorithm, supervised or plain, input size) plus a
:class:`~repro.faults.plan.FaultPlan` drawn from the same seed, with
up to two hard GPU failures mixed in on top of
:meth:`FaultPlan.generate`'s link/straggler/transient chaos.  Seeds
always draw uniform keys; a case's ``keys`` field swaps in one of the
skewed inputs of :data:`KEY_KINDS` for the same plan.

The contract under test (:func:`run_case`):

* the sort completes and its output is **element-identical** to
  ``np.sort`` of the input, or
* it fails with a *typed* error — :class:`~repro.errors.ReproError` or
  :class:`~repro.sim.engine.SimulationError` — or a typed partial
  result (``deadline_exceeded``).

Anything else — a bare ``KeyError`` out of the event loop, a sorted
but wrong output, an unsorted output — is a fuzzer catch.  When a case
fails, :func:`shrink` delta-debugs the plan down to a minimal failing
one (greedy event removal plus zeroing the transient-kill
probability), so the reproduction printed by the test is as small as
the bug allows.  Same seed, same case, same timeline — chaos stays
debuggable.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from repro.data import generate
from repro.errors import ReproError
from repro.faults.events import GpuFail, LinkFlap, NodeDown, SwitchDown
from repro.faults.plan import FaultPlan
from repro.hw import dgx_a100
from repro.runtime.context import Machine
from repro.sim.engine import SimulationError

#: Logical keys every case sorts (the physical count varies per seed).
LOGICAL_KEYS = 2e9
#: Simulated-seconds span the fault windows are drawn over — roughly
#: the duration of one sort at :data:`LOGICAL_KEYS`.
HORIZON_S = 2.5
#: Horizon of cluster cases: a 4-node hierarchical sort at
#: :data:`LOGICAL_KEYS` finishes in ~0.35 simulated seconds.
CLUSTER_HORIZON_S = 0.4
#: Nodes of every cluster chaos case.
CLUSTER_NODES = 4
#: Input key distributions a case can sort.  Seeds draw ``uniform``;
#: the others stress duplicate-heavy and adversarial orders.
KEY_KINDS = ("uniform", "all-equal", "two-valued", "zipf",
             "reverse-sorted")


@dataclass(frozen=True)
class ChaosCase:
    """One deterministic fuzz case: workload plus fault plan."""

    seed: int
    algorithm: str         # "p2p" | "het" | "rp" | "hier"
    supervised: bool
    n: int                 # physical keys
    plan: FaultPlan
    #: Cluster cases only: node count (0 = standalone machine).
    nodes: int = 0
    fabric: str = "fat-tree"
    #: Input key distribution, one of :data:`KEY_KINDS`.
    keys: str = "uniform"


@dataclass(frozen=True)
class Outcome:
    """Result of one chaos run."""

    #: ``ok`` (sorted, element-identical), ``typed`` (typed error or
    #: typed partial result), ``crash`` (untyped exception), or
    #: ``mismatch`` (completed with wrong output).
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("crash", "mismatch")


def case_for_seed(seed: int) -> ChaosCase:
    """Derive the chaos case for ``seed`` (same seed, same case)."""
    spec = dgx_a100()
    rng = np.random.default_rng(seed ^ 0x5EED)
    supervised = bool(rng.integers(2))
    # The supervisor drives P2P and HET; plain runs also cover RP.
    pool = ("p2p", "het") if supervised else ("p2p", "het", "rp")
    algorithm = pool[int(rng.integers(len(pool)))]
    n = int(rng.integers(8_000, 20_000))
    intensity = float(rng.uniform(0.5, 2.0))
    base = FaultPlan.generate(spec, seed, intensity=intensity,
                              horizon=HORIZON_S)
    events = list(base.events)
    for _ in range(int(rng.integers(0, 3))):
        events.append(GpuFail(
            at=float(rng.uniform(0.05, 0.9) * HORIZON_S),
            gpu=int(rng.integers(spec.num_gpus))))
    plan = FaultPlan(events=tuple(events),
                     transient_failure_prob=base.transient_failure_prob,
                     seed=seed)
    return ChaosCase(seed=seed, algorithm=algorithm,
                     supervised=supervised, n=n, plan=plan)


def case_for_cluster_seed(seed: int) -> ChaosCase:
    """Derive a cluster chaos case: hierarchical sort under
    node/switch/link-flap faults on a 4-node cluster.

    On top of :meth:`FaultPlan.generate`'s link/straggler/transient
    chaos the case mixes in up to two cluster-tier events — a
    :class:`~repro.faults.events.NodeDown`, a
    :class:`~repro.faults.events.SwitchDown` of a random fabric switch,
    or a :class:`~repro.faults.events.LinkFlap` of a random NIC link.
    Same seed, same case.
    """
    from repro.hw.cluster import make_cluster

    rng = np.random.default_rng(seed ^ 0xC105)
    fabric = ("fat-tree", "rail", "dragonfly")[int(rng.integers(3))]
    spec = make_cluster("dgx-a100", CLUSTER_NODES, fabric=fabric)
    n = int(rng.integers(8_000, 20_000))
    intensity = float(rng.uniform(0.25, 1.0))
    base = FaultPlan.generate(spec, seed, intensity=intensity,
                              horizon=CLUSTER_HORIZON_S)
    events = list(base.events)
    switches = spec.topology.fabric_switches
    nic_links = [name for node in range(CLUSTER_NODES)
                 for name in spec.node_nic_links(node)]
    for _ in range(int(rng.integers(0, 3))):
        kind = int(rng.integers(3))
        at = float(rng.uniform(0.05, 0.9) * CLUSTER_HORIZON_S)
        if kind == 0:
            events.append(NodeDown(
                at=at, node=int(rng.integers(CLUSTER_NODES))))
        elif kind == 1 and switches:
            events.append(SwitchDown(
                at=at,
                switch=switches[int(rng.integers(len(switches)))],
                duration=float(
                    rng.uniform(0.02, 0.15) * CLUSTER_HORIZON_S)))
        else:
            events.append(LinkFlap(
                at=at,
                resource=nic_links[int(rng.integers(len(nic_links)))],
                cycles=int(rng.integers(1, 4)),
                down_s=float(
                    rng.uniform(0.005, 0.03) * CLUSTER_HORIZON_S),
                up_s=float(
                    rng.uniform(0.005, 0.03) * CLUSTER_HORIZON_S)))
    plan = FaultPlan(events=tuple(events),
                     transient_failure_prob=base.transient_failure_prob,
                     seed=seed)
    return ChaosCase(seed=seed, algorithm="hier", supervised=False,
                     n=n, plan=plan, nodes=CLUSTER_NODES, fabric=fabric)


def _input_for(case: ChaosCase) -> np.ndarray:
    rng = np.random.default_rng(case.seed)
    if case.keys == "uniform":
        return rng.integers(0, 2**62, size=case.n, dtype=np.int64)
    if case.keys == "all-equal":
        return np.full(case.n, 7, dtype=np.int64)
    if case.keys == "two-valued":
        return rng.integers(0, 2, size=case.n, dtype=np.int64) << 40
    return generate(case.n, case.keys, np.int64, seed=case.seed)


def run_case(case: ChaosCase) -> Outcome:
    """Run one chaos case and classify what happened."""
    data = _input_for(case)
    if case.nodes:
        from repro.hw.cluster import make_cluster

        spec = make_cluster("dgx-a100", case.nodes, fabric=case.fabric)
    else:
        spec = dgx_a100()
    machine = Machine(spec, scale=LOGICAL_KEYS / case.n,
                      fast_functional=True)
    machine.install_faults(case.plan)
    try:
        if case.nodes:
            from repro.sort.hier import hier_sort

            result = hier_sort(machine, data)
        elif case.supervised:
            from repro.recovery import SortSupervisor

            result = SortSupervisor(machine).sort(
                data, algorithm=case.algorithm)
        else:
            from repro.sort import het_sort, p2p_sort, rp_sort

            sort = {"p2p": p2p_sort, "het": het_sort,
                    "rp": rp_sort}[case.algorithm]
            result = sort(machine, data)
    except (ReproError, SimulationError) as exc:
        return Outcome("typed", f"{type(exc).__name__}: {exc}")
    except BaseException:  # noqa: BLE001 - the fuzzer's whole point
        return Outcome("crash", traceback.format_exc())
    if getattr(result, "deadline_exceeded", False):
        return Outcome("typed", "deadline exceeded (typed partial result)")
    if result.output is None:
        return Outcome("crash", "completed without output or typed error")
    if not np.array_equal(np.asarray(result.output), np.sort(data)):
        return Outcome(
            "mismatch",
            f"output is not element-identical to np.sort "
            f"({len(result.output)} keys out, {case.n} in)")
    return Outcome("ok")


def _variants(case: ChaosCase) -> Iterator[ChaosCase]:
    """Single-step reductions of the case's fault plan."""
    plan = case.plan
    for index in range(len(plan.events)):
        events = plan.events[:index] + plan.events[index + 1:]
        yield replace(case, plan=FaultPlan(
            events=events,
            transient_failure_prob=plan.transient_failure_prob,
            seed=plan.seed))
    if plan.transient_failure_prob:
        yield replace(case, plan=FaultPlan(
            events=plan.events, transient_failure_prob=0.0,
            seed=plan.seed))


def shrink(case: ChaosCase,
           failing: Optional[Callable[[ChaosCase], bool]] = None,
           max_runs: int = 200) -> ChaosCase:
    """Greedy delta-debugging: a minimal still-failing variant of ``case``.

    Repeatedly tries every single-event removal (and zeroing the
    transient probability); takes the first reduction that still fails
    and starts over, until no single reduction keeps the case failing.
    ``failing`` defaults to actually running the case; tests inject
    synthetic predicates to pin the machinery itself.
    """
    if failing is None:
        failing = lambda variant: run_case(variant).failed  # noqa: E731
    current = case
    runs = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for variant in _variants(current):
            runs += 1
            if failing(variant):
                current = variant
                progress = True
                break
            if runs >= max_runs:
                break
    return current


def describe_case(case: ChaosCase) -> str:
    """A reproduction recipe for a (shrunken) failing case."""
    lines = [
        f"seed={case.seed} algorithm={case.algorithm} "
        f"supervised={case.supervised} n={case.n}"
        + (f" nodes={case.nodes} fabric={case.fabric}"
           if case.nodes else "")
        + (f" keys={case.keys}" if case.keys != "uniform" else ""),
        f"transient_failure_prob={case.plan.transient_failure_prob}",
    ]
    if case.plan.events:
        lines.append("events:")
        lines.extend(f"  {event!r}" for event in case.plan.events)
    else:
        lines.append("events: (none)")
    return "\n".join(lines)
