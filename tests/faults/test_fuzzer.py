"""The chaos fuzzer: 200 seeded plans against real sorts.

Every case must either produce output element-identical to ``np.sort``
or fail with a typed error; any untyped crash or wrong output is
shrunk to a minimal failing plan and printed.  A fixed-seed smoke
subset runs unmarked (CI / tier-1); the full sweep carries the
``chaos`` marker.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults.events import (
    GpuFail,
    LinkDown,
    LinkFlap,
    NodeDown,
    SwitchDown,
    TransientTransfer,
)
from repro.faults.fuzzer import (
    KEY_KINDS,
    ChaosCase,
    case_for_cluster_seed,
    case_for_seed,
    describe_case,
    run_case,
    shrink,
)
from repro.faults.plan import FaultPlan

SMOKE_SEEDS = (0, 1, 9, 23, 42, 77, 101, 137)
FULL_SEEDS = tuple(seed for seed in range(200) if seed not in SMOKE_SEEDS)
CLUSTER_SMOKE_SEEDS = (3, 27, 31, 36, 64, 78)
CLUSTER_FULL_SEEDS = tuple(seed for seed in range(120)
                           if seed not in CLUSTER_SMOKE_SEEDS)


def _check(seed: int) -> None:
    case = case_for_seed(seed)
    outcome = run_case(case)
    if outcome.failed:
        minimal = shrink(case)
        pytest.fail(
            f"chaos seed {seed} {outcome.status}: {outcome.detail}\n"
            f"minimal failing case:\n{describe_case(minimal)}")


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_chaos_smoke(seed):
    _check(seed)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_chaos_full(seed):
    _check(seed)


def _check_cluster(seed: int) -> None:
    case = case_for_cluster_seed(seed)
    outcome = run_case(case)
    if outcome.failed:
        minimal = shrink(case)
        pytest.fail(
            f"cluster chaos seed {seed} {outcome.status}: "
            f"{outcome.detail}\n"
            f"minimal failing case:\n{describe_case(minimal)}")


# Seeds 27, 31, 36 and 78 historically escaped with bare
# NodeFaultError (simultaneous flow deaths under one all_of crashed
# the event loop before the recovery driver saw them) — they stay in
# the smoke subset as regression canaries.
@pytest.mark.parametrize("seed", CLUSTER_SMOKE_SEEDS)
def test_cluster_chaos_smoke(seed):
    _check_cluster(seed)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", CLUSTER_FULL_SEEDS)
def test_cluster_chaos_full(seed):
    _check_cluster(seed)


#: Fixed seeds replayed with every skewed key distribution.
SKEWED_SEEDS = (0, 9, 42)
SKEWED_CLUSTER_SEEDS = (3, 31)


def _check_case(case: ChaosCase) -> None:
    outcome = run_case(case)
    if outcome.failed:
        pytest.fail(f"chaos case {outcome.status}: {outcome.detail}\n"
                    f"{describe_case(shrink(case))}")


@pytest.mark.parametrize("keys", KEY_KINDS[1:])
@pytest.mark.parametrize("supervised", [False, True],
                         ids=["plain", "supervised"])
def test_skewed_keys_through_p2p(keys, supervised):
    for seed in SKEWED_SEEDS:
        _check_case(replace(case_for_seed(seed), algorithm="p2p",
                            supervised=supervised, keys=keys))


@pytest.mark.parametrize("keys", KEY_KINDS[1:])
def test_skewed_keys_through_hier(keys):
    for seed in SKEWED_CLUSTER_SEEDS:
        _check_case(replace(case_for_cluster_seed(seed), keys=keys))


class TestCaseDerivation:
    def test_same_seed_same_case(self):
        assert case_for_seed(13) == case_for_seed(13)

    def test_cases_vary_across_seeds(self):
        cases = [case_for_seed(seed) for seed in range(30)]
        assert len({case.algorithm for case in cases}) > 1
        assert {case.supervised for case in cases} == {True, False}
        assert len({case.plan for case in cases}) > 1

    def test_outcome_classification_is_typed(self):
        outcome = run_case(case_for_seed(0))
        assert outcome.status in ("ok", "typed", "crash", "mismatch")
        assert outcome.failed == (outcome.status in ("crash", "mismatch"))

    def test_same_seed_same_cluster_case(self):
        assert case_for_cluster_seed(13) == case_for_cluster_seed(13)

    def test_cluster_cases_run_hier_on_varied_fabrics(self):
        cases = [case_for_cluster_seed(seed) for seed in range(30)]
        assert all(case.algorithm == "hier" for case in cases)
        assert all(case.nodes == 4 for case in cases)
        assert len({case.fabric for case in cases}) == 3
        kinds = {type(event) for case in cases
                 for event in case.plan.events}
        assert {NodeDown, SwitchDown, LinkFlap} <= kinds

    def test_seeds_draw_uniform_keys(self):
        assert {case_for_seed(seed).keys for seed in range(30)} == \
            {"uniform"}
        assert {case_for_cluster_seed(seed).keys
                for seed in range(30)} == {"uniform"}

    def test_describe_names_skewed_keys(self):
        case = replace(case_for_seed(2), keys="zipf")
        assert "keys=zipf" in describe_case(case)
        assert "keys=" not in describe_case(case_for_seed(2))

    def test_cluster_describe_names_the_fabric(self):
        text = describe_case(case_for_cluster_seed(2))
        assert "nodes=4" in text
        assert "fabric=" in text


class TestShrinking:
    """Pin the delta-debugger with synthetic failure predicates."""

    def _case(self) -> ChaosCase:
        plan = FaultPlan(
            events=(
                LinkDown(at=0.1, resource="nvswitch_port_gpu2",
                         duration=0.5),
                GpuFail(at=0.3, gpu=3),
                TransientTransfer(at=0.2),
                GpuFail(at=0.4, gpu=5),
            ),
            transient_failure_prob=0.1,
            seed=7,
        )
        return ChaosCase(seed=7, algorithm="p2p", supervised=True,
                         n=10_000, plan=plan)

    def test_shrinks_to_single_culprit_event(self):
        def failing(case: ChaosCase) -> bool:
            return any(isinstance(event, GpuFail) and event.gpu == 3
                       for event in case.plan.events)

        minimal = shrink(self._case(), failing=failing)
        assert minimal.plan.events == (GpuFail(at=0.3, gpu=3),)
        assert minimal.plan.transient_failure_prob == 0.0

    def test_shrink_keeps_interacting_pair(self):
        def failing(case: ChaosCase) -> bool:
            kinds = {type(event) for event in case.plan.events}
            return GpuFail in kinds and LinkDown in kinds

        minimal = shrink(self._case(), failing=failing)
        assert len(minimal.plan.events) == 2
        assert {type(event) for event in minimal.plan.events} == \
            {GpuFail, LinkDown}

    def test_non_failing_case_is_returned_unchanged(self):
        case = self._case()
        assert shrink(case, failing=lambda _: False) == case

    def test_describe_is_a_reproduction_recipe(self):
        text = describe_case(self._case())
        assert "seed=7" in text
        assert "algorithm=p2p" in text
        assert "GpuFail" in text

    def test_shrunken_plan_still_validates(self):
        # Reductions go through FaultPlan's constructor, so a shrunken
        # plan is always installable.
        minimal = shrink(self._case(),
                         failing=lambda c: len(c.plan.events) >= 1)
        assert isinstance(minimal.plan, FaultPlan)
        assert len(minimal.plan.events) == 1


def test_smoke_seed_outputs_are_element_identical():
    """At least one smoke seed must exercise the full-comparison path."""
    hits = 0
    for seed in SMOKE_SEEDS:
        case = case_for_seed(seed)
        outcome = run_case(case)
        if outcome.status == "ok":
            hits += 1
    assert hits >= len(SMOKE_SEEDS) // 2
