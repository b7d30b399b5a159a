"""The dirty-key link diff against the full-membership reference.

Every scenario runs twice from scratch, once under the
:class:`~repro.obs.recorder.Recorder` and once under
:class:`~tests.obs.full_diff.FullDiffRecorder`, and the two streams
must agree event for event.  The scenarios aim at the paths that change
membership without a diff (an abort that finds its flow finished, a
batch that starts nothing), at keys that empty and refill between two
diffs, at capacity changes and at a recorder attached mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.events import LinkDegradation
from repro.faults.plan import FaultPlan
from repro.hw import dgx_a100
from repro.obs.recorder import Recorder, RingConfig
from repro.runtime import Machine
from repro.sim.engine import Environment
from repro.sim.flows import FlowNetwork
from repro.sim.resources import Direction, Resource
from repro.sort import p2p_sort
from tests.obs.full_diff import FullDiffRecorder, canonical

FWD, REV = Direction.FWD, Direction.REV

#: A ring small enough that the churn scenarios compact many times.
SMALL_RING = RingConfig(default_cap=16, completed_flows=8, compact_batch=4)


def same_stream(scenario, ring=None):
    """Run ``scenario`` under both recorders; return the dirty-key
    recorder's canonical stream after asserting it equals the
    reference's."""
    streams = []
    for cls in (Recorder, FullDiffRecorder):
        recorder = cls(ring=ring)
        scenario(recorder)
        streams.append(canonical(recorder))
    dirty, full = streams
    assert len(dirty["events"]) == len(full["events"])
    for index, (mine, theirs) in enumerate(zip(dirty["events"],
                                               full["events"])):
        assert mine == theirs, f"event {index} differs"
    assert dirty == full
    return dirty


def link_rates(stream):
    return [(e["t"], e["link"], e["direction"], e["rate"], e["capacity"])
            for e in stream["events"] if e["kind"] == "link_rate"]


def bare(recorder):
    env = Environment()
    net = FlowNetwork(env)
    net.obs = recorder
    return env, net


def test_disjoint_fast_start_and_finish():
    counters = {}

    def scenario(recorder):
        env, net = bare(recorder)
        a, b, c = Resource("a", 10.0), Resource("b", 20.0), Resource("c", 5.0)

        def driver():
            net.start_flow([(a, FWD), (c, REV)], 5.0, label="f1")
            yield env.timeout(0.1)
            net.start_flow([(b, FWD)], 40.0, label="f2")
            yield env.timeout(0.1)
            net.start_flow([(b, REV)], 4.0, label="f3")

        env.process(driver())
        env.run()
        counters[type(recorder)] = (net.fast_starts, net.fast_finishes)

    stream = same_stream(scenario)
    assert counters[Recorder][0] >= 2 and counters[Recorder][1] >= 1
    # Each link rises from and falls back to zero.
    rates = link_rates(stream)
    assert {link for _t, link, *_ in rates} == {"a", "b", "c"}
    assert [r for r in rates if r[1] == "a"][-1][3] == 0.0


def _shared_pair(net, env):
    """Two flows on a shared link; f1 finishes at exactly 0.2 s, and a
    timer created before f1's last restage fires first at 0.2 s."""
    s = Resource("s", 100.0)
    p1, p2 = Resource("p1", 80.0), Resource("p2", 80.0)
    f1 = net.start_flow([(p1, FWD), (s, FWD)], 10.0, label="f1")
    timer = env.timeout(0.2)
    f2 = net.start_flow([(s, FWD), (p2, FWD)], 1000.0, label="f2")
    return s, p1, p2, f1, f2, timer


@pytest.mark.parametrize("unsettle", ["abort", "empty-batch"])
def test_membership_change_without_a_diff(unsettle):
    """An abort that finds its flow finished, or a batch of zero-byte
    starts at a finish instant, empties a key without a diff; a later
    start refills it.  The next diff must see both."""
    seen = {}

    def scenario(recorder):
        env, net = bare(recorder)

        def driver():
            s, p1, _p2, f1, f2, timer = _shared_pair(net, env)
            yield timer
            if unsettle == "abort":
                net.abort_flow(f1)
            else:
                net.start_flows([([(p1, FWD)], 0.0, None, "zero")])
            seen[type(recorder)] = (f1.active, net.aborted_flows,
                                    len(net._unsettled))
            yield env.timeout(0.05)
            # p1 emptied at 0.2 s; it refills after s and p2 in
            # membership order, and all three rates move.
            net.start_flow([(p1, FWD), (s, FWD)], 30.0, rate_cap=10.0,
                           label="f4")
            yield env.timeout(0.05)
            net.abort_flow(f2)

        env.process(driver())
        env.run()

    stream = same_stream(scenario)
    # The unsettled path was taken: f1 finished, nothing aborted.
    assert seen[Recorder] == (False, 0, 1)
    at_refill = [r[1] for r in link_rates(stream)
                 if r[0] == pytest.approx(0.25)]
    assert at_refill == ["s", "p2", "p1"]


def test_key_empties_and_refills_between_diffs_in_one_instant():
    def scenario(recorder):
        env, net = bare(recorder)

        def driver():
            s, p1, p2, f1, _f2, timer = _shared_pair(net, env)
            q = Resource("q", 50.0)
            net.start_flow([(q, FWD)], 1.0, label="q")
            yield timer
            net.abort_flow(f1)          # p1 empties, no diff
            net.start_flow([(p1, REV), (p2, FWD)], 5.0, label="g")
            net.start_flow([(p1, FWD), (q, FWD)], 5.0, label="h")

        env.process(driver())
        env.run()

    same_stream(scenario)


def test_capacity_change_while_a_key_is_empty():
    """A fault factor set while no flow crosses a link must show in the
    capacity of the link's next rate event."""
    def scenario(recorder):
        env, net = bare(recorder)
        x, y = Resource("x", 10.0), Resource("y", 10.0)

        def driver():
            net.start_flow([(x, FWD), (y, FWD)], 20.0, label="f1")
            yield env.timeout(1.0)
            x.set_fault_factor(0.5)
            net.requery_capacity()
            yield env.timeout(10.0)      # f1 is done, x and y are empty
            x.set_fault_factor(0.25)
            net.requery_capacity()
            yield env.timeout(1.0)
            net.start_flow([(x, FWD)], 5.0, label="f2")
            net.start_flow([(y, FWD)], 5.0, label="f3")

        env.process(driver())
        env.run()

    stream = same_stream(scenario)
    capacities = [r[4] for r in link_rates(stream) if r[1] == "x"]
    assert capacities[-2:] == [2.5, 2.5]


def test_link_degradation_window_during_a_sort():
    """``requery_capacity`` under a LinkDegradation window, end to end."""
    def scenario(recorder):
        machine = Machine(dgx_a100(), scale=1)
        machine.enable_observability(recorder)
        machine.install_faults(FaultPlan(events=(LinkDegradation(
            at=0.001, resource="pcie4_uplink_pcie_sw0", duration=0.004,
            factor=0.3),)))
        keys = np.random.default_rng(3).integers(
            0, 1 << 24, size=65536).astype(np.int32)
        p2p_sort(machine, keys)

    stream = same_stream(scenario)
    degraded = {r[4] for r in link_rates(stream)
                if r[1] == "pcie4_uplink_pcie_sw0"}
    assert len(degraded) > 1, "the window never changed a capacity"


def test_recorder_attached_mid_run():
    def scenario(recorder):
        env = Environment()
        net = FlowNetwork(env)
        shared = Resource("shared", 100.0)
        own = [Resource(f"own{i}", 30.0 + i) for i in range(4)]

        def driver():
            for i in range(4):
                if i == 0:
                    # An earlier recorder diffs once and is detached.
                    net.obs = type(recorder)()
                net.start_flow([(shared, FWD), (own[i], FWD)],
                               20.0 * (i + 1), label=f"f{i}")
                yield env.timeout(0.1)
                if i == 0:
                    net.obs = None
                elif i == 1:
                    net.obs = recorder

        env.process(driver())
        env.run()

    stream = same_stream(scenario)
    first = min(r[0] for r in link_rates(stream))
    assert first == pytest.approx(0.2)


def _churn(recorder, seed, flows=160):
    """Random starts, batches (some all zero-byte), aborts and fault
    factor changes over a few shared links in both directions."""
    rng = np.random.default_rng(seed)
    env, net = bare(recorder)
    links = [Resource(f"l{i}", float(rng.integers(20, 200)),
                      duplex_factor=0.8) for i in range(6)]
    live = []

    def route():
        hops = rng.choice(len(links), size=int(rng.integers(1, 4)),
                          replace=False)
        return [(links[int(h)], REV if rng.random() < 0.4 else FWD)
                for h in hops]

    def driver():
        for i in range(flows):
            roll = rng.random()
            if roll < 0.5:
                live.append(net.start_flow(
                    route(), float(rng.integers(1, 60)), label=f"f{i}"))
            elif roll < 0.7:
                requests = [(route(),
                             0.0 if rng.random() < 0.5
                             else float(rng.integers(1, 60)),
                             None, f"b{i}.{j}")
                            for j in range(int(rng.integers(1, 4)))]
                live.extend(net.start_flows(requests))
            elif roll < 0.85 and live:
                net.abort_flow(live.pop(int(rng.integers(len(live)))))
            else:
                link = links[int(rng.integers(len(links)))]
                link.set_fault_factor(
                    1.0 if rng.random() < 0.5 else float(rng.random()) + 0.1)
                net.requery_capacity()
            if rng.random() < 0.7:
                yield env.timeout(float(rng.integers(0, 4)) * 0.05)

    env.process(driver())
    env.run()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_churn(seed):
    stream = same_stream(lambda recorder: _churn(recorder, seed))
    assert len(link_rates(stream)) > 100


@pytest.mark.parametrize("seed", [4, 5])
def test_seeded_churn_in_a_small_ring(seed):
    stream = same_stream(lambda recorder: _churn(recorder, seed),
                         ring=SMALL_RING)
    assert stream["ring"]["evicted_total"] > 0
