"""The benchmark's four workloads, driven through the public API only.

A workload is a list of cases.  One pass runs every case once: a
set-up (platform or cluster, ``Machine``, input, fault plan), the
operation, then the output check.  The runner times set-up and
operation separately and repeats passes.

Each operation returns an :class:`Outcome`: the simulated results the
traced and untraced passes must agree on bit for bit, the
``SortResult`` objects the simulated metrics are computed from, and the
reason the output check failed, if it did.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import data, hw, runtime, sort
from repro.bench.harness import EXPERIMENTS, experiment_by_id
from repro.faults import events, plan
from repro.obs import recorder as obs

#: Experiments of ``repro.bench`` that time themselves and write their
#: own ``BENCH_*.json`` records; the ``paper`` workload leaves them out.
SELF_MEASURING = ("simcore", "kernels", "resilience", "service", "cluster")

#: Referenced paper points the ``paper`` tables hold today.  A change
#: of this count is reported as a failed check: a point was dropped or
#: lost its reference.
PAPER_POINTS = 109

#: The experiment regenerated after the timed phase of every other
#: workload to report ``paper_worst_ratio`` there: the paper's headline
#: figure (16 GB on the DGX A100, CPU vs GPUs).
FIDELITY_PROBE = "fig1"

#: Simulated phases reported by name; any other phase adds to "other".
PHASES = ("HtoD", "Sort", "Merge", "DtoH", "Exchange", "NodeMerge")

CLUSTER = ("dgx-a100", 16, "fat-tree")
CLUSTER_KEYS_PER_NODE = 16_384
CLUSTER_SCALE = 64_000.0
#: Simulated instant of the ``NodeDown``.  A clean 16-node sort of
#: these inputs runs its Exchange phase from about 0.12 s to 0.36 s
#: (seeds 1, 2, 3, 7 and 42), so 0.30 s falls mid-exchange for any seed.
NODE_DOWN_AT_S = 0.30
NODE_DOWN_NODE = 1

NODE_SORT_KEYS = 4_000_000
NODE_SORT_SCALE = 1000.0


@dataclass
class Outcome:
    """What one operation produced."""

    #: Simulated results, compared bit for bit across passes.
    sim: Tuple
    #: Every ``SortResult`` the operation produced, without its output
    #: arrays (kept across passes, they would inflate ``peak_rss_mb``).
    results: List = field(default_factory=list)
    #: Why the output check failed, or ``None``.
    failure: Optional[str] = None
    #: Recorder events emitted (the workload with a recorder only).
    obs_events: int = 0
    #: ``(worst max(r, 1/r), count)`` over referenced paper points.
    fidelity: Optional[Tuple[float, int]] = None


def light(result):
    """``result`` without its output arrays."""
    return dataclasses.replace(result, output=None, output_values=None)


def sim_of(result) -> Tuple:
    """The simulated results of one sort, for bit-for-bit comparison."""
    return (result.duration, tuple(sorted(result.phase_durations.items())))


def check_sorted(result, expected: np.ndarray) -> Optional[str]:
    """Element-identical to ``np.sort``, or the reason it is not."""
    if result.deadline_exceeded or result.output is None:
        return (f"{result.algorithm}: partial result "
                f"(completed {result.completed_phases})")
    if not np.array_equal(result.output, expected):
        return f"{result.algorithm}: output differs from np.sort"
    return None


# -- paper tables ------------------------------------------------------
def _number(cell: str) -> Optional[float]:
    try:
        return float(cell.strip().rstrip("x%").replace(",", ""))
    except ValueError:
        return None


def referenced_points(tables) -> List[float]:
    """measured/paper for every row with a paper value and a ratio."""
    ratios = []
    for table in tables:
        headers = table.headers
        paper = [i for i, h in enumerate(headers) if h.startswith("paper [")]
        if "ratio" not in headers or len(paper) != 1:
            continue
        measured = paper[0] - 1
        for row in table.rows:
            reference = _number(row[paper[0]])
            if reference is None:
                continue
            ratios.append(_number(row[measured]) / reference)
    return ratios


def fidelity(ratios: List[float]) -> Tuple[float, int]:
    """``(worst max(r, 1/r), number of points)``."""
    return max(max(r, 1.0 / r) for r in ratios), len(ratios)


def check_tables(tables) -> Optional[str]:
    """Every numeric cell finite, every referenced ratio positive.

    The P2P series of Figures 12-14 print ``nan`` where the data does
    not fit in the GPUs' memory, so the P2P sort has no point there;
    those tables may hold ``nan`` and nothing else may.
    """
    if not tables:
        return "no tables"
    for table in tables:
        if not table.rows:
            return f"{table.title!r}: no rows"
        out_of_core = "(P2P sort, top)" in table.title
        for row in table.rows:
            for cell in row:
                value = _number(cell)
                if value is None or math.isfinite(value):
                    continue
                if not (out_of_core and cell.strip() == "nan"):
                    return f"{table.title!r}: non-finite cell in {row}"
    bad = [r for r in referenced_points(tables)
           if not (math.isfinite(r) and r > 0)]
    if bad:
        return f"referenced ratios not finite and positive: {bad}"
    return None


def run_experiment(experiment_id: str):
    """Regenerate one experiment's tables with its stdout suppressed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return experiment_by_id(experiment_id).run()


def fidelity_probe() -> Tuple[float, int]:
    """Worst ratio over the referenced points of :data:`FIDELITY_PROBE`."""
    return fidelity(referenced_points(run_experiment(FIDELITY_PROBE)))


# -- workloads ---------------------------------------------------------
class Workload:
    """A named list of cases.

    Per case and pass the runner calls :meth:`setup` (timed as set-up),
    :meth:`prepare` (untimed), :meth:`run` (timed as the operation) and
    :meth:`outcome` (untimed: the output check).
    """

    name = ""
    uses_seed = True

    def __init__(self, seed: int):
        self.seed = seed
        self._expected: Dict[object, np.ndarray] = {}

    def cases(self) -> List:
        raise NotImplementedError

    def run_scope(self):
        """Context entered once around all passes of a run."""
        return contextlib.nullcontext()

    #: Set-up work timed once per pass besides each case's own, or
    #: ``None``.
    pass_setup = None

    def pass_check(self, outcomes: List[Outcome]) -> Optional[str]:
        """A check over a whole pass, or ``None``."""
        return None

    def setup(self, case):
        raise NotImplementedError

    def prepare(self, case, state) -> None:
        """Untimed work before the operation: the expected output."""
        keys = state[1]
        if case not in self._expected:
            self._expected[case] = np.sort(keys)

    def run(self, case, state):
        raise NotImplementedError

    def outcome(self, case, state, result) -> Outcome:
        """Check one sort's output against ``np.sort`` of its input."""
        return Outcome(sim=sim_of(result), results=[light(result)],
                       failure=check_sorted(result, self._expected[case]))


class Paper(Workload):
    """All paper, ablation and extension experiments of ``repro.bench``.

    The experiments fix their own inputs, so the seed does not apply.
    Their sorts are collected through :func:`perfbench.tracer.collect_sorts`,
    installed once per run so the rebinding stays out of the timing.
    """

    name = "paper"
    uses_seed = False

    def cases(self) -> List[str]:
        return [e.id for e in EXPERIMENTS if e.id not in SELF_MEASURING]

    def pass_setup(self) -> None:
        # The set-up each of the experiments' simulated runs repeats:
        # a paper platform, a Machine on it and the standard input
        # (``sort_scaling.make_keys``); here once per paper platform.
        for build in (hw.ibm_ac922, hw.delta_d22x, hw.dgx_a100):
            runtime.Machine(build(), scale=1000.0, fast_functional=True)
            data.generate(500_000, "uniform", np.int32, seed=42)

    @contextlib.contextmanager
    def run_scope(self):
        from perfbench.tracer import collect_sorts

        with collect_sorts() as self._sorts:
            yield

    def pass_check(self, outcomes: List[Outcome]) -> Optional[str]:
        points = sum(o.fidelity[1] for o in outcomes if o.fidelity)
        if points != PAPER_POINTS:
            return (f"{points} referenced paper points, expected "
                    f"{PAPER_POINTS}")
        return None

    def setup(self, case):
        return None

    def prepare(self, case, state) -> None:
        self._sorts.clear()

    def run(self, case, state):
        return run_experiment(case)

    def outcome(self, case, state, result) -> Outcome:
        tables, results = result, [light(r) for r in self._sorts]
        ratios = referenced_points(tables)
        return Outcome(
            sim=(tuple(t.render() for t in tables),
                 tuple(sim_of(r) for r in results)),
            results=results, failure=check_tables(tables),
            fidelity=fidelity(ratios) if ratios else None)


class Cluster16(Workload):
    """One hierarchical sort on a 16-node DGX A100 fat-tree cluster."""

    name = "cluster16"

    def cases(self) -> List[str]:
        return ["hier"]

    def setup(self, case):
        base, nodes, fabric = CLUSTER
        machine = runtime.Machine(hw.make_cluster(base, nodes, fabric=fabric),
                                  scale=CLUSTER_SCALE, fast_functional=True)
        keys = data.generate(CLUSTER_KEYS_PER_NODE * nodes, "uniform",
                             np.int32, seed=self.seed)
        return machine, keys

    def run(self, case, state):
        return sort.hier_sort(state[0], state[1])


class Cluster16NodeDownRecorded(Cluster16):
    """The same sort with a flight recorder and node 1 lost mid-exchange."""

    name = "cluster16-nodedown-recorded"

    def setup(self, case):
        machine, keys = super().setup(case)
        recorder = obs.Recorder(ring=obs.RingConfig())
        machine.enable_observability(recorder)
        machine.install_faults(plan.FaultPlan(events=(
            events.NodeDown(at=NODE_DOWN_AT_S, node=NODE_DOWN_NODE),)))
        return machine, keys, recorder

    def outcome(self, case, state, result) -> Outcome:
        outcome = super().outcome(case, state, result)
        stats = state[2].ring_stats()
        outcome.obs_events = stats["events_retained"] + stats["evicted_total"]
        return outcome


class NodeSorts(Workload):
    """P2P and HET sorts on two paper platforms, functional kernels on."""

    name = "node-sorts"

    def cases(self) -> List[Tuple[str, str, str]]:
        return [(platform, algorithm, distribution)
                for platform in ("dgx-a100", "ibm-ac922")
                for algorithm in ("p2p", "het")
                for distribution in ("uniform", "zipf")]

    def setup(self, case):
        platform, _, distribution = case
        machine = runtime.Machine(hw.system_by_name(platform),
                                  scale=NODE_SORT_SCALE,
                                  fast_functional=False)
        keys = data.generate(NODE_SORT_KEYS, distribution, np.int32,
                             seed=self.seed)
        return machine, keys

    def run(self, case, state):
        algorithm = sort.p2p_sort if case[1] == "p2p" else sort.het_sort
        return algorithm(state[0], state[1])


WORKLOADS = {w.name: w for w in (Paper, Cluster16, Cluster16NodeDownRecorded,
                                 NodeSorts)}
