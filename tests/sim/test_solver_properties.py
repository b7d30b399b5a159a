"""The vectorized water-fill solver against the retained reference.

:func:`repro.sim.solver.water_fill_arrays` promises *bit-identical*
allocations to :func:`repro.sim.solver.water_fill_reference` (the
pre-vectorization dict implementation) — same divisions, same
first-minimum bottleneck choice, same charge rounding.  These tests pin
that contract on randomized topologies and on the degenerate cases the
array layout could plausibly get wrong: the zero-capacity guard, a
single flow, every flow on one link, and duplex contention.  The
network re-solves only the components a change touches; the last
tests hold those component refills to a global fill, bit for bit.

Comparisons use plain ``==`` on floats, never ``approx``.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import flows as flows_module
from repro.sim.engine import Environment, SimulationError
from repro.sim.flows import Flow, FlowNetwork
from repro.sim.resources import Direction, Resource, SharingCurve
from repro.sim.solver import water_fill_arrays, water_fill_reference

FWD, REV = Direction.FWD, Direction.REV


class _DeadResource(Resource):
    """A resource whose effective capacity collapses to zero under load."""

    __slots__ = ()

    def effective_capacity(self, direction, flows_this_direction,
                           flows_other_direction):
        return 0.0


def _resources(resource_specs):
    return [Resource(f"r{i}", cap, duplex_factor=duplex,
                     sharing=SharingCurve(sharing) if sharing else None)
            for i, (cap, duplex, sharing) in enumerate(resource_specs)]


def _build(resource_specs, flow_specs):
    """Insert flows into a fresh network without allocating rates.

    ``_insert`` maintains both the dict membership index (what the
    reference reads) and the flow/key tables (what the vectorized
    solver reads), so both solvers see exactly the same state.
    """
    env = Environment()
    net = FlowNetwork(env)
    resources = _resources(resource_specs)
    flows = []
    for j, (hops, size, rate_cap) in enumerate(flow_specs):
        route = [(resources[idx], REV if rev else FWD) for idx, rev in hops]
        flow = Flow(net, route, size, rate_cap=rate_cap, label=f"f{j}")
        net._insert(flow)
        flows.append(flow)
    return net, resources, flows


def _assert_solvers_agree(net):
    """Both solvers produce identical rates (or identical errors)."""
    act = net._ft.active_slots()
    flows = list(net._flows)
    assert len(flows) == len(act)
    try:
        ref = water_fill_reference(net._flows, net._members, net._resources)
    except SimulationError as expected:
        with pytest.raises(SimulationError) as caught:
            water_fill_arrays(net._ft, net._kt, act, members=net._members)
        assert str(caught.value) == str(expected)
        return None
    vec = water_fill_arrays(net._ft, net._kt, act, members=net._members)
    for i, flow in enumerate(flows):
        assert vec[i] == ref[flow], (
            f"{flow.label}: vectorized {vec[i]!r} != reference "
            f"{ref[flow]!r}")
    return ref


# -- randomized topologies -----------------------------------------------

_capacity = st.floats(min_value=0.5, max_value=100.0,
                      allow_nan=False, allow_infinity=False)
_size = st.floats(min_value=1.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)
_rate_cap = st.floats(min_value=0.1, max_value=50.0,
                      allow_nan=False, allow_infinity=False)
_resource_spec = st.tuples(
    _capacity,
    st.sampled_from([1.0, 0.5, 0.8]),
    st.sampled_from([None, {2: 0.5}, {2: 0.9, 4: 0.6}]))


@st.composite
def _scenarios(draw):
    n_res = draw(st.integers(min_value=1, max_value=5))
    resource_specs = [draw(_resource_spec) for _ in range(n_res)]
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flow_specs = []
    for _ in range(n_flows):
        hops = draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=n_res - 1),
                      st.booleans()),
            min_size=0, max_size=4))
        rate_cap = draw(st.one_of(st.none(), _rate_cap))
        if not hops and rate_cap is None:
            rate_cap = draw(_rate_cap)  # unconstrained flows are invalid
        flow_specs.append((hops, draw(_size), rate_cap))
    return resource_specs, flow_specs


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_randomized_topologies_allocate_identically(scenario):
    resource_specs, flow_specs = scenario
    net, _resources, _flows = _build(resource_specs, flow_specs)
    _assert_solvers_agree(net)


# -- degenerate cases ----------------------------------------------------

def test_single_flow():
    net, _r, flows = _build([(10.0, 1.0, None)], [([(0, False)], 50.0, None)])
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 10.0


def test_single_flow_rate_capped():
    net, _r, flows = _build([(10.0, 1.0, None)],
                            [([(0, False)], 50.0, 2.5)])
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 2.5


def test_routeless_capped_flow():
    net, _r, flows = _build([], [([], 50.0, 7.0)])
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 7.0


def test_all_flows_on_one_link():
    specs = [([(0, False)], 10.0 + i, None) for i in range(7)]
    net, _r, flows = _build([(21.0, 1.0, None)], specs)
    ref = _assert_solvers_agree(net)
    assert all(ref[f] == 3.0 for f in flows)


def test_duplex_contention():
    # Both directions of one duplex-penalized resource: capacity halves
    # while the opposite direction is busy.
    specs = [([(0, False)], 40.0, None), ([(0, True)], 40.0, None)]
    net, _r, flows = _build([(10.0, 0.5, None)], specs)
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 5.0
    assert ref[flows[1]] == 5.0


def test_same_resource_both_directions_one_route():
    net, _r, _f = _build(
        [(10.0, 0.8, None)],
        [([(0, False), (0, True)], 40.0, None)])
    _assert_solvers_agree(net)


def test_zero_capacity_guard_raises_identically():
    env = Environment()
    net = FlowNetwork(env)
    good = Resource("good", 10.0)
    dead = _DeadResource("dead", 10.0)
    for j, route in enumerate([[(good, FWD)], [(good, FWD), (dead, FWD)]]):
        flow = Flow(net, route, 10.0, label=f"f{j}")
        net._insert(flow)
    with pytest.raises(SimulationError, match="zero effective capacity"):
        water_fill_reference(net._flows, net._members, net._resources)
    _assert_solvers_agree(net)


def test_capped_flows_freeze_before_bottlenecks():
    # Two capped flows (one tighter) and a free flow on one link; the
    # reference freezes capped flows tightest-first.
    specs = [([(0, False)], 30.0, 2.0),
             ([(0, False)], 30.0, 3.0),
             ([(0, False)], 30.0, None)]
    net, _r, flows = _build([(12.0, 1.0, None)], specs)
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 2.0
    assert ref[flows[1]] == 3.0
    assert ref[flows[2]] == 7.0


def test_fault_factor_respected():
    net, resources, flows = _build(
        [(10.0, 1.0, None)], [([(0, False)], 50.0, None)])
    resources[0].set_fault_factor(0.25)
    net._kt.refresh_faults()
    ref = _assert_solvers_agree(net)
    assert ref[flows[0]] == 2.5


# -- component-local refills against the global fill -----------------------

class _GlobalFillNetwork(FlowNetwork):
    """Re-solves every active flow on every reallocation (the oracle)."""

    def _reallocate(self, seeds=None):
        super()._reallocate(None)


class _Twin:
    """One network driven through a transition script."""

    def __init__(self, cls, resource_specs):
        self.env = Environment()
        self.net = cls(self.env)
        self.resources = _resources(resource_specs)
        self.flows = []

    def request(self, spec, index):
        hops, size, rate_cap = spec
        route = [(self.resources[i], REV if rev else FWD) for i, rev in hops]
        return route, size, rate_cap, f"f{index}"

    def apply(self, op):
        kind, arg = op
        n = len(self.flows)
        if kind == "start":
            self.flows.append(self.net.start_flow(*self.request(arg, n)))
        elif kind == "batch":
            self.flows += self.net.start_flows(
                [self.request(spec, n + i) for i, spec in enumerate(arg)])
        elif kind == "abort":
            active = self.net.active_flows
            if active:
                self.net.abort_flow(active[arg % len(active)])
        elif kind == "advance":
            self.env.run(until=self.env.now + arg)
        elif kind == "fault":
            index, factor = arg
            self.resources[index % len(self.resources)].set_fault_factor(
                factor)
            self.net.requery_capacity()


_hop_list = st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                               st.booleans()), min_size=1, max_size=3)
_flow_spec = st.tuples(_hop_list, _size,
                       st.one_of(st.none(), st.none(), _rate_cap))
_transition = st.one_of(
    st.tuples(st.just("start"), _flow_spec),
    st.tuples(st.just("batch"), st.lists(_flow_spec, min_size=1,
                                         max_size=4)),
    st.tuples(st.just("abort"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("advance"), st.floats(min_value=0.05, max_value=5.0)),
    st.tuples(st.just("fault"),
              st.tuples(st.integers(min_value=0, max_value=5),
                        st.sampled_from([0.25, 0.5, 1.0]))),
)


def _assert_rates_are_global_fill(net):
    """Every active flow's rate equals a fresh global reference fill."""
    if not net._flows:
        return
    ref = water_fill_reference(net._flows, net._members, net._resources)
    for flow in net._flows:
        assert flow.rate == ref[flow], (
            f"{flow.label}: stored {flow.rate!r} != global {ref[flow]!r}")


@pytest.mark.parametrize("small_fill_n", [flows_module._SMALL_FILL_N, 0],
                         ids=["reference", "arrays"])
@settings(max_examples=150, deadline=None)
@given(st.lists(_resource_spec, min_size=6, max_size=6),
       st.lists(_transition, min_size=1, max_size=30))
def test_component_refills_match_the_global_fill(small_fill_n,
                                                 resource_specs, script):
    """Duplex partners, rate caps, sharing curves, fault factors, batched
    starts and aborts: after every transition each active flow carries
    the global fill's rate, and the whole trajectory (rates, remaining
    bytes, finish instants) equals a twin that always fills globally.
    ``small_fill_n=0`` sends every fill to the vectorized solver."""
    with mock.patch.object(flows_module, "_SMALL_FILL_N", small_fill_n):
        _run_twins(resource_specs, script)


def _run_twins(resource_specs, script):
    local = _Twin(FlowNetwork, resource_specs)
    oracle = _Twin(_GlobalFillNetwork, resource_specs)
    for op in script:
        errors = []
        for twin in (local, oracle):
            try:
                twin.apply(op)
            except SimulationError as exc:
                errors.append(str(exc))
        if errors:
            assert len(errors) == 2 and errors[0] == errors[1]
            return
        assert local.env.now == oracle.env.now
        if not local.net._unsettled:
            _assert_rates_are_global_fill(local.net)
        assert len(local.flows) == len(oracle.flows)
        for mine, theirs in zip(local.flows, oracle.flows):
            assert mine.rate == theirs.rate
            assert mine.remaining == theirs.remaining
            assert mine.finished_at == theirs.finished_at
    assert local.net.full_reallocations == oracle.net.full_reallocations


def test_reverse_finish_rerates_forward_flow_on_same_link():
    # The REV flow's key and the FWD flow's key never share a member,
    # so only a resource-level component sees that the REV finish lifts
    # the duplex penalty on FWD.
    env = Environment()
    net = FlowNetwork(env)
    link = Resource("link", 10.0, duplex_factor=0.5)
    fwd = net.start_flow([(link, FWD)], 100.0, label="fwd")
    rev = net.start_flow([(link, REV)], 5.0, label="rev")
    assert fwd.rate == 5.0
    env.run(until=rev.done)
    assert fwd.rate == 10.0
    _assert_rates_are_global_fill(net)


def test_abort_of_just_finished_flow_settles_at_next_refill():
    # Aborting a flow at the instant it finishes returns without a
    # reallocation, so its neighbour keeps a stale rate until the next
    # one.  That refill re-solves the neighbour although it lies in
    # another component than the refill's own seed.
    local = _Twin(FlowNetwork, [(10.0, 1.0, None), (10.0, 1.0, None)])
    oracle = _Twin(_GlobalFillNetwork, [(10.0, 1.0, None),
                                        (10.0, 1.0, None)])
    for twin in (local, oracle):
        net, (a, b) = twin.net, twin.resources
        # Scheduled before the flows, so it fires ahead of the short
        # flow's completion at the same instant.
        alarm = twin.env.timeout(2.0)
        short = net.start_flow([(a, FWD)], 10.0, label="short")
        long_ = net.start_flow([(a, FWD)], 100.0, label="long")
        net.start_flow([(b, FWD)], 100.0, label="b0")
        alarm.callbacks.append(lambda _e, net=net, short=short:
                               net.abort_flow(short))
        twin.env.run(until=2.5)
        twin.flows = [long_]
        assert short.finished_at == 2.0
        assert long_.rate == 5.0  # stale: short is gone
    assert local.net._unsettled
    for twin in (local, oracle):
        twin.net.start_flow([(twin.resources[1], FWD)], 100.0, label="b1")
    assert not local.net._unsettled
    assert local.flows[0].rate == oracle.flows[0].rate == 10.0
    local.env.run()
    oracle.env.run()
    assert local.flows[0].finished_at == oracle.flows[0].finished_at
