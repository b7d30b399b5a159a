"""Regression: simulated results are bit-identical to the seed engine.

``golden_determinism.json`` was captured (via ``capture_golden.py``)
from the pre-optimization simulator — the full-rescan allocator with
per-flow watcher processes — its ``hier`` cluster entries from the
hierarchical sort's separate fault-free path, its supervised,
key-value and NUMA-local P2P entries from the P2P sort's separate plain
and supervised implementations, and its out-of-core 3n, eager-merge,
GPU-merged and key-value HET entries from ``het_sort``'s own inline
pipeline.  ``sup-het-dgx-512b-ooc`` equals ``het-dgx-512b-ooc``: the
supervised HET sort runs the paper's schedule.  The incremental engine
and the single hierarchical-sort, P2P and HET paths are required to
reproduce every
simulated timestamp *exactly* (plain ``==`` on floats, no tolerance):
they must be pure reorganizations of the same arithmetic, never
approximations of it.
"""

import json
from pathlib import Path

import pytest

from tests.sim.capture_golden import CASES, run_case

GOLDEN_PATH = Path(__file__).parent / "golden_determinism.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_results_match_seed_bit_exactly(case, golden):
    expected = golden[case]
    actual = run_case(*CASES[case])
    # Durations and phase breakdowns: exact float equality.
    assert actual["duration"] == expected["duration"]
    assert actual["phases"] == expected["phases"]
    # Every trace span: phase, actor, start, end, bytes — all exact.
    assert len(actual["spans"]) == len(expected["spans"])
    for got, want in zip(actual["spans"], expected["spans"]):
        assert got == want


def test_golden_covers_all_cases(golden):
    assert sorted(golden) == sorted(CASES)
