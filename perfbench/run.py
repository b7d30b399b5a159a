"""The repository's benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` from the root of a checkout for
about ``S`` seconds, checks every output, prints each metric by name
with its unit, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats untraced passes and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics; it also checks that the traced passes
simulate exactly what the untraced ones do and that the layer self
times plus ``other.self_s`` add up to the traced wall.

Exits 0 when every check passes, 1 when one fails, 2 when the program
source is not in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Fewest passes of each kind a run makes, however short ``--seconds``.
MIN_PASSES = 2
#: How far the layer self times plus ``other`` may sit from the traced
#: wall, as a share of it.
ACCOUNTING_TOLERANCE = 0.02
#: Host seconds :func:`reference_s` takes at the reference host speed
#: (its median on the 2-core x86-64 container the bounds were set on).
REFERENCE_S = 0.15
#: Untraced passes repeat a case's set-up (keeping the last one) until
#: it has taken this long or run :data:`SETUP_REPEATS` times, and
#: record the median: set-up is short, so one sample is noisy.
SETUP_MIN_S = 0.05
SETUP_REPEATS = 5
#: Host seconds of program work between two reference timings, at most
#: (one case runs whole between two).
REFERENCE_EVERY_S = 1.0

_REFERENCE_KEYS = None


def reference_s() -> float:
    """Host seconds of a fixed piece of work that uses no program code.

    The host this runs on shares its cores' caches and memory with
    other tenants, and its speed drifts by up to 1.8x in episodes of
    tens of seconds, longer than a pass.  Timing this work before and
    after every case tracks that drift: the program's host times are
    scaled to the speed at which it takes :data:`REFERENCE_S`.  The
    work mixes what the program does, in about equal shares: Python
    dict and heap operations, NumPy calls on 80-element arrays (the
    water-fill solver's kind) and a NumPy sort and search of 400k keys.
    """
    global _REFERENCE_KEYS
    import heapq

    import numpy as np

    if _REFERENCE_KEYS is None:
        _REFERENCE_KEYS = np.random.default_rng(0).integers(
            0, 1 << 31, 400_000).astype(np.int32)
    keys = _REFERENCE_KEYS
    shares, slots = keys[:80] / 2.0**31, keys[80:160] % 16
    began = perf_counter()
    for _ in range(2):
        table: Dict[int, int] = {}
        heap: List[int] = []
        for i in range(40_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
            heapq.heappush(heap, (i * 7919) % 10007)
            if len(heap) > 64:
                heapq.heappop(heap)
        for _ in range(3_000):
            share = shares / 2.0
            np.argmin(share)
            np.bincount(slots, weights=share, minlength=16)
            (share < 0.25).any()
        ordered = np.sort(keys)
        np.searchsorted(ordered, keys[:100_000])
    return perf_counter() - began


@dataclass
class Pass:
    """Timings and outcomes of one pass over a workload's cases.

    ``setup_s`` and ``wall_s`` are raw host seconds per case; ``speed``
    is the factor that scales a case's host seconds to the reference
    host speed.
    """

    setup_s: Dict[int, float] = field(default_factory=dict)
    wall_s: Dict[int, float] = field(default_factory=dict)
    speed: Dict[int, float] = field(default_factory=dict)
    outcomes: Dict[int, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    pass_setup_s: Optional[float] = None
    layers: Optional[dict] = None

    @property
    def timed_s(self) -> float:
        """Raw host seconds of the pass's set-ups and operations."""
        return ((self.pass_setup_s or 0.0) + sum(self.setup_s.values())
                + sum(self.wall_s.values()))

    def scaled(self, key: str) -> Dict[int, float]:
        """``setup_s`` or ``wall_s`` at the reference host speed."""
        return {i: s * self.speed[i] for i, s in getattr(self, key).items()}

    @property
    def scaled_timed_s(self) -> float:
        return ((self.pass_setup_s or 0.0) * self.speed.get(0, 1.0)
                + sum(self.scaled("setup_s").values())
                + sum(self.scaled("wall_s").values()))


def _set_up(setup, tracer) -> Tuple[float, object]:
    """Median host seconds of ``setup`` and its last result.

    A traced pass sets up once, so that its spans and its wall agree.
    """
    samples = []
    while True:
        state = None  # the previous repeat's, freed before the next
        began = perf_counter()
        state = setup()
        samples.append(perf_counter() - began)
        if (tracer is not None or len(samples) == SETUP_REPEATS
                or sum(samples) >= SETUP_MIN_S):
            return statistics.median(samples), state


def run_pass(workload, cases, tracer=None, spans: Optional[str] = None
             ) -> Pass:
    """Set up, run and check every case once."""
    record = Pass()
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed:
        marks = [(perf_counter(), reference_s())]
        bounds: Dict[int, Tuple[float, float]] = {}
        if workload.pass_setup is not None:
            record.pass_setup_s, _ = _set_up(workload.pass_setup, tracer)
        for index, case in enumerate(cases):
            if perf_counter() - marks[-1][0] >= REFERENCE_EVERY_S:
                marks.append((perf_counter(), reference_s()))
            record.attempted += 1
            gc.collect()
            first = perf_counter()
            try:
                record.setup_s[index], state = _set_up(
                    lambda: workload.setup(case), tracer)
                workload.prepare(case, state)
                began = perf_counter()
                result = workload.run(case, state)
                record.wall_s[index] = perf_counter() - began
                outcome = workload.outcome(case, state, result)
            except Exception as exc:  # a raised error is a failed operation
                traceback.print_exc(file=sys.stderr)
                record.failures.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            finally:
                bounds[index] = (first, perf_counter())
            record.outcomes[index] = outcome
            if outcome.failure:
                record.failures.append(f"{case}: {outcome.failure}")
            del state, result
        marks.append((perf_counter(), reference_s()))
        times = [t for t, _ in marks]
        for index, (first, last) in bounds.items():
            before = marks[bisect.bisect_right(times, first) - 1][1]
            after = marks[bisect.bisect_left(times, last)][1]
            record.speed[index] = 2 * REFERENCE_S / (before + after)
        problem = workload.pass_check(list(record.outcomes.values()))
        if problem:
            record.failures.append(problem)
    if tracer is not None:
        if spans:
            tracer.save(spans)
        record.layers = tracer.take(record.timed_s)
    return record


def _median_sum(passes: List[Pass], key: str) -> float:
    """Sum over cases of each case's median across passes, at the
    reference host speed."""
    samples: Dict[int, List[float]] = {}
    for record in passes:
        for index, value in record.scaled(key).items():
            samples.setdefault(index, []).append(value)
    return sum(statistics.median(values) for values in samples.values())


def _sim_gb_per_s(results) -> float:
    import numpy as np

    moved = sum(r.logical_keys * np.dtype(r.dtype).itemsize for r in results)
    simulated = sum(r.duration for r in results)
    return moved / simulated / 1e9 if simulated else 0.0


def _results(record: Pass) -> list:
    return [r for o in record.outcomes.values() for r in o.results]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, passes: List[Pass], peak_rss_mb: float
               ) -> Dict[str, float]:
    """The end-to-end metrics of a run of untraced passes."""
    from perfbench import workloads

    first = passes[0]
    if workload.name == "paper":
        points = [o.fidelity for o in first.outcomes.values() if o.fidelity]
        worst = (max((p[0] for p in points), default=0.0),
                 sum(p[1] for p in points))
    else:
        worst = workloads.fidelity_probe()
    print(f"paper_worst_ratio over {worst[1]} referenced paper points")
    setup = _median_sum(passes, "setup_s")
    pass_setups = [p.pass_setup_s * p.speed.get(0, 1.0) for p in passes
                   if p.pass_setup_s is not None]
    if pass_setups:
        setup += statistics.median(pass_setups)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "wall_s": _median_sum(passes, "wall_s"),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "sim_gb_per_s": _sim_gb_per_s(_results(first)),
        "paper_worst_ratio": worst[0],
        "ok_ops_ratio": (attempted - failed) / attempted,
    }


def layer_metrics(record: Pass) -> Dict[str, float]:
    """Per-layer metrics of one traced pass; self times at the
    reference host speed."""
    from perfbench.workloads import PHASES

    layers = record.layers
    counts = layers["counts"]
    results = _results(record)
    scale = record.scaled_timed_s / record.timed_s
    metrics = {f"{bucket}.self_s": layers[bucket] * scale for bucket in (
        "sim.step", "sim.fill", "sim.flows", "hw.route", "hw.build",
        "runtime.copy", "runtime.kernel", "gpuprims", "cpuprims", "sort",
        "recovery", "faults", "obs.rates_changed", "data")}
    metrics["obs.self_s"] = (layers["obs.hooks"]
                             + layers["obs.rates_changed"]) * scale
    metrics["other.self_s"] = layers["other"] * scale
    for name in ("sim.step.calls", "sim.events_retired",
                 "sim.fill.reference_calls", "sim.fill.arrays_calls",
                 "sim.fill.flows", "sim.flows.started", "sim.flows.aborted",
                 "hw.route.calls", "hw.route.misses", "runtime.copy.calls",
                 "runtime.copy.bytes", "runtime.kernel.calls",
                 "gpuprims.calls", "gpuprims.keys", "cpuprims.calls",
                 "cpuprims.keys", "sort.calls", "obs.rates_changed.calls"):
        metrics[name] = counts.get(name, 0)
    metrics["sim.fill.calls"] = (metrics["sim.fill.reference_calls"]
                                 + metrics["sim.fill.arrays_calls"])
    metrics["obs.calls"] = (counts.get("obs.hooks.calls", 0)
                            + metrics["obs.rates_changed.calls"])
    metrics["sim.dispatch_useful_ratio"] = (
        metrics["sim.step.calls"] / metrics["sim.events_retired"]
        if metrics["sim.events_retired"] else 0.0)
    metrics["hw.route.hit_rate"] = (
        1.0 - metrics["hw.route.misses"] / metrics["hw.route.calls"]
        if metrics["hw.route.calls"] else 0.0)
    for name, field_name in (("recovery.replans", "replans"),
                             ("recovery.waves_replayed", "waves_replayed"),
                             ("recovery.checkpoints_restored",
                              "checkpoints_restored"),
                             ("faults.retries", "retries"),
                             ("faults.reroutes", "reroutes")):
        metrics[name] = sum(getattr(r, field_name) for r in results)
    metrics["obs.events"] = sum(o.obs_events
                                for o in record.outcomes.values())
    phases = {f"model.phase.{p}_s": 0.0 for p in PHASES + ("other",)}
    for result in results:
        for phase, seconds in result.phase_durations.items():
            key = f"model.phase.{phase if phase in PHASES else 'other'}_s"
            phases[key] += seconds
    metrics.update(phases)
    return metrics


def _is_count(name: str) -> bool:
    """Per-layer metrics that are counts, which must repeat exactly."""
    return not (name.endswith("_s") or name.startswith("trace."))


def per_layer(untraced: List[Pass], traced: List[Pass]
              ) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics averaged over the traced passes, with the
    problems the traced-run checks found."""
    problems = []
    each = [layer_metrics(record) for record in traced]
    metrics = {name: statistics.fmean(m[name] for m in each)
               for name in each[0]}
    for name in each[0]:
        if _is_count(name) and len({m[name] for m in each}) != 1:
            problems.append(f"{name} differs between traced passes: "
                            f"{[m[name] for m in each]}")
        elif _is_count(name):
            metrics[name] = each[0][name]
    for record in traced:
        layers = record.layers
        charged = sum(v for k, v in layers.items()
                      if k not in ("counts", "min_self"))
        wall = record.timed_s
        if abs(charged - wall) > ACCOUNTING_TOLERANCE * wall:
            problems.append(f"layers charge {charged:.4f}s of a "
                            f"{wall:.4f}s traced wall")
        if layers["other"] < -ACCOUNTING_TOLERANCE * wall:
            problems.append(f"spans outside the timed phase: other.self_s "
                            f"= {layers['other']:.4f}s")
        if layers["min_self"] < -1e-6:
            problems.append(f"negative self time {layers['min_self']}")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.scaled_timed_s for p in traced)
        / statistics.median(p.scaled_timed_s for p in untraced))
    return metrics, problems


def sim_mismatches(passes: List[Pass]) -> List[str]:
    """Cases whose simulated results differ from the first pass's."""
    reference = passes[0].outcomes
    problems = []
    for number, record in enumerate(passes[1:], start=1):
        for index, outcome in record.outcomes.items():
            if index in reference and outcome.sim != reference[index].sim:
                problems.append(f"case {index}: simulated results of pass "
                                f"{number} differ from pass 0")
    return problems


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1: write the last traced pass's "
                             "spans to this .npz file")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracer, workloads

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload: {workload.name}")
    print(f"seed: {args.seed}" + ("" if workload.uses_seed else
                                  " (not used: the experiments fix their "
                                  "own inputs)"))
    cases = workload.cases()
    untraced: List[Pass] = []
    traced: List[Pass] = []
    with workload.run_scope():
        began = perf_counter()
        while (len(untraced) < MIN_PASSES
               or perf_counter() - began < args.seconds):
            untraced.append(run_pass(workload, cases))
            if len(untraced) == 1:
                # Through one pass: later passes only add heap
                # fragmentation and the outcomes this runner keeps.
                peak_rss_mb = _peak_rss_mb()
            if args.trace:
                traced.append(run_pass(workload, cases, tracer.Tracer(),
                                       args.spans))
        if args.trace:
            metrics, problems = per_layer(untraced, traced)
            wanted = spec["per_layer"]
        else:
            metrics, problems = end_to_end(workload, untraced,
                                           peak_rss_mb), []
            wanted = spec["end_to_end"]
    passes = untraced + traced
    problems += sim_mismatches(passes)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{attempted} operations, {len(failures)} failed")
    for index, case in enumerate(cases):
        raw = [p.wall_s[index] for p in untraced if index in p.wall_s]
        speed = [p.speed[index] for p in untraced if index in p.wall_s]
        print(f"case {case}: raw wall s " + " ".join(f"{s:.3f}" for s in raw)
              + "; host speed factor " + " ".join(f"{s:.2f}" for s in speed))
    for problem in failures + problems:
        print(f"FAILED: {problem}")
    report = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        report[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:32s} {value:.6g} {entry['unit']}")
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
