"""Observability cost: disabled must be free, enabled must stay cheap.

The ``perf``-marked tests use *generous* ceilings so they only trip on
gross regressions, never on machine noise — same policy as the simcore
bench smoke.  Deselect with ``-m 'not perf'``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.bench.experiments.simcore import SEED_BASELINE_WALL_S, run_churn
from repro.hw import dgx_a100
from repro.runtime import Machine
from repro.sort import p2p_sort

#: The events-off hot path must not give back the simcore optimization:
#: the churn-400 storm ran at ~4.2 s on the seed tree and ~3x faster
#: after the incremental-reallocation work, so even matching the *seed*
#: wall would mean instrumentation ate the whole optimization — far
#: beyond its <2% budget.  The ceiling only trips on that gross case,
#: never on machine noise.
CHURN_OFF_CEILING_S = SEED_BASELINE_WALL_S["churn-400"]
#: Enabled-to-disabled wall ratio ceiling for an instrumented sort.
ENABLED_RATIO_CEILING = 3.0
#: Interleaved off/on run pairs of the instrumented-sort gate, compared
#: by medians for the same reason as :data:`RING_PAIRS`.
ENABLED_PAIRS = 5


@pytest.mark.perf
def test_events_off_churn_keeps_optimized_wall():
    wall = min(run_churn(400).wall_s for _ in range(3))
    assert wall < CHURN_OFF_CEILING_S, (
        f"churn-400 with observability off took {wall:.2f}s "
        f"(ceiling {CHURN_OFF_CEILING_S:.2f}s): the disabled-path "
        "instrumentation is no longer free")


#: Flight-recorder (ring) mode vs plain recorder wall ratio ceiling:
#: <=10% overhead; the additive slack absorbs timer noise on
#: sub-second runs.
RING_RATIO_CEILING = 1.10
#: Interleaved flat/ring run pairs.  Medians over interleaved pairs
#: see a host slowdown in both arms; the minimum of three runs per arm
#: let one lucky flat run fail the gate.
RING_PAIRS = 5


@pytest.mark.perf
def test_flight_recorder_overhead_and_memory_on_cluster():
    """Ring mode on a 16-node cluster: <=10% wall overhead over the
    plain recorder, with the retained event stream bounded by the
    per-kind caps instead of growing with the run."""
    from repro.hw import make_cluster
    from repro.obs.recorder import Recorder, RingConfig
    from repro.sort import hier_sort

    # cap well below the ~23k events the run emits (so eviction is
    # exercised), batch large enough that compaction stays amortized.
    ring_config = RingConfig(default_cap=512, completed_flows=256,
                             compact_batch=512)

    def cluster_run(ring):
        machine = Machine(make_cluster("dgx-a100", 16), scale=100,
                          fast_functional=True)
        recorder = machine.enable_observability(
            Recorder(ring=ring_config) if ring else None)
        data = np.random.default_rng(9).integers(
            0, 1 << 24, size=32768).astype(np.int32)
        start = time.perf_counter()
        hier_sort(machine, data)
        return time.perf_counter() - start, recorder

    walls: dict = {False: [], True: []}
    recorders: dict = {}
    for pair in range(RING_PAIRS):
        # Alternate which arm runs first so warm-up favours neither.
        for ring in ((False, True) if pair % 2 == 0 else (True, False)):
            wall, recorders[ring] = cluster_run(ring=ring)
            walls[ring].append(wall)
    flat, ringed = recorders[False], recorders[True]

    # Bounded memory: every kind respects its cap (+ compaction slack),
    # and the ring genuinely dropped events the flat recorder kept.
    counts: dict = {}
    for event in ringed.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    for kind, count in counts.items():
        cap = ring_config.cap_for(kind) + ring_config.compact_batch
        assert count <= cap, f"{kind}: {count} events retained > {cap}"
    assert len(ringed.events) < len(flat.events)
    assert ringed.ring_stats()["evicted_total"] > 0

    baseline = statistics.median(walls[False])
    bounded = statistics.median(walls[True])
    assert bounded < baseline * RING_RATIO_CEILING + 0.05, (
        f"flight-recorder cluster run took {bounded:.3f}s vs "
        f"{baseline:.3f}s plain (medians of {RING_PAIRS}; ceiling "
        f"{RING_RATIO_CEILING}x): ring "
        "compaction has become too expensive for always-on use")


#: Flight-recorder-on to recorder-off wall ratio ceiling on a 16-node
#: cluster sort.  Set once from the measurement after the recorder
#: learned to diff only the link directions that moved: medians of
#: five to seven interleaved pairs gave 1.18-1.49x (typically ~1.35x)
#: on a shared 2-core host, where the full-membership diff gave ~3.2x.
RECORDED_RATIO_CEILING = 1.5
#: Interleaved off/on run pairs, compared by medians like the gates
#: above.
RECORDED_PAIRS = 5


@pytest.mark.perf
def test_flight_recorder_on_vs_off_on_cluster_sort():
    """The always-on flight recorder costs a bounded share of a 16-node
    fat-tree sort (the repository benchmark's ``cluster16`` input)."""
    from repro.data import generate
    from repro.hw import make_cluster
    from repro.obs.recorder import Recorder, RingConfig
    from repro.sort import hier_sort

    def cluster_run(observed):
        machine = Machine(make_cluster("dgx-a100", 16, fabric="fat-tree"),
                          scale=64_000.0, fast_functional=True)
        if observed:
            machine.enable_observability(Recorder(ring=RingConfig()))
        keys = generate(16_384 * 16, "uniform", np.int32, seed=7)
        start = time.perf_counter()
        hier_sort(machine, keys)
        return time.perf_counter() - start

    walls: dict = {False: [], True: []}
    for pair in range(RECORDED_PAIRS):
        # Alternate which arm runs first so warm-up favours neither.
        for observed in ((False, True) if pair % 2 == 0 else (True, False)):
            walls[observed].append(cluster_run(observed))
    baseline = statistics.median(walls[False])
    recorded = statistics.median(walls[True])
    assert recorded < baseline * RECORDED_RATIO_CEILING + 0.05, (
        f"recorded cluster sort took {recorded:.3f}s vs {baseline:.3f}s "
        f"unrecorded (medians of {RECORDED_PAIRS}; ceiling "
        f"{RECORDED_RATIO_CEILING}x): the flight recorder has become too "
        "expensive to leave on")


@pytest.mark.perf
def test_enabled_overhead_is_bounded():
    def sort_wall(observed: bool) -> float:
        machine = Machine(dgx_a100(), scale=1)
        if observed:
            machine.enable_observability()
        data = np.random.default_rng(5).integers(
            0, 1 << 24, size=65536).astype(np.int32)
        start = time.perf_counter()
        p2p_sort(machine, data)
        return time.perf_counter() - start

    walls: dict = {False: [], True: []}
    for pair in range(ENABLED_PAIRS):
        # Alternate which arm runs first so warm-up favours neither.
        for observed in ((False, True) if pair % 2 == 0 else (True, False)):
            walls[observed].append(sort_wall(observed))
    baseline = statistics.median(walls[False])
    observed = statistics.median(walls[True])
    assert observed < baseline * ENABLED_RATIO_CEILING + 0.05, (
        f"instrumented sort took {observed:.3f}s vs {baseline:.3f}s "
        f"uninstrumented (medians of {ENABLED_PAIRS}; ceiling "
        f"{ENABLED_RATIO_CEILING}x): recording has become too expensive "
        "to leave on")
