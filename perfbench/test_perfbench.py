"""Tests of the benchmark itself; the repository's test suite does not
collect them.  Run from the repository root (about five minutes):

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import workloads
from perfbench.tracer import BUCKETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper", "cluster16", "cluster16-nodedown-recorded",
             "node-sorts")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def traced(workload: str, seed: int, spans: Path) -> dict:
    """One shortest traced run; its JSON line."""
    run = bench("--workload", workload, "--seed", str(seed), "--seconds",
                "0", "--trace", "1", "--spans", str(spans))
    assert run.returncode == 0, run.stdout + run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def deterministic(name: str) -> bool:
    """Per-layer counts that must repeat exactly for one seed."""
    if name.endswith(".self_s"):
        return False
    return (name.endswith(("calls", ".keys")) or name in (
        "sim.fill.flows", "sim.events_retired", "hw.route.misses")
        or name.startswith(("recovery.", "faults.")))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_another_seed_passes(workload, tmp_path):
    spans = tmp_path / "spans.npz"
    first = traced(workload, 11, spans)
    second = traced(workload, 11, tmp_path / "again.npz")
    assert first["correct"] and second["correct"]
    names = [n for n in first["metrics"] if deterministic(n)]
    assert len(names) == 22
    assert ({n: first["metrics"][n]["value"] for n in names}
            == {n: second["metrics"][n]["value"] for n in names})

    saved = np.load(spans)
    assert list(saved["buckets"]) == list(BUCKETS)
    assert np.all(saved["end"] >= saved["start"])
    assert np.all(saved["parent"] < np.arange(len(saved["parent"])))

    if workload != "paper":
        other = traced(workload, 12, tmp_path / "other.npz")
        assert other["correct"] and other["failed"] == 0


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = bench("--workload", "cluster16", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout


def test_sort_check_rejects_wrong_and_partial_output():
    keys = np.array([3, 1, 2], dtype=np.int32)
    expected = np.sort(keys)

    def result(output, partial=False):
        return SimpleNamespace(algorithm="p2p", output=output,
                               deadline_exceeded=partial,
                               completed_phases=("HtoD",))

    assert workloads.check_sorted(result(expected.copy()), expected) is None
    assert "differs" in workloads.check_sorted(result(keys), expected)
    assert "partial" in workloads.check_sorted(result(None), expected)
    assert "partial" in workloads.check_sorted(
        result(expected.copy(), partial=True), expected)


def test_table_check_allows_nan_only_for_out_of_core_p2p_points():
    from repro.bench.report import Table, comparison_table

    def series(title):
        table = Table(["keys [1e9]", "1 GPU"], title=title)
        table.add_row("8.0", "nan")
        return table

    assert workloads.check_tables(
        [series("Figure 14 (P2P sort, top): duration vs keys")]) is None
    assert "non-finite" in workloads.check_tables(
        [series("Figure 14 (HET sort, top): duration vs keys")])

    table = comparison_table("t", "case",
                             [("a", 66.5, 54.0), ("b", 1.0, None)])
    assert workloads.referenced_points([table]) == [66.5 / 54.0]
    assert workloads.fidelity([66.5 / 54.0, 0.5]) == (2.0, 2)


def test_tracer_rebinds_early_bound_names_and_restores_them():
    import repro.sort
    from repro.bench.experiments import sort_scaling
    from repro.sim.engine import Environment

    original, step = repro.sort.p2p_sort, Environment.step
    with Tracer().installed():
        assert repro.sort.p2p_sort is not original
        assert sort_scaling.p2p_sort is repro.sort.p2p_sort
        assert Environment.step is not step
    assert repro.sort.p2p_sort is original
    assert sort_scaling.p2p_sort is original
    assert Environment.step is step
