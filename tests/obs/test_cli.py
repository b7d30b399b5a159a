"""End-to-end ``python -m repro.obs`` subcommand tests (quick runs)."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import main

_AC922_P2P = ["--quick", "--system", "ibm-ac922", "--algorithm", "p2p",
              "--keys", "1e8", "--seed", "42"]


class TestTimeline:
    def test_writes_perfetto_json(self, tmp_path, capsys):
        path = tmp_path / "timeline.json"
        assert main(["timeline", *_AC922_P2P, "-o", str(path)]) == 0
        out = capsys.readouterr().out
        assert "timeline written to" in out
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        phases = {event["ph"] for event in events}
        # Metadata rows, slices, counter tracks.
        assert {"M", "X", "C"} <= phases
        counter_names = {event["name"] for event in events
                         if event["ph"] == "C"}
        assert any(name.startswith("bw xbus_0_1") for name in counter_names)
        assert "active flows" in counter_names

    def test_faulted_run_carries_fault_markers(self, tmp_path):
        # Default 2e9 logical keys: the run is long enough for the
        # generated plan's windows (inside --fault-horizon) to overlap.
        path = tmp_path / "timeline.json"
        assert main(["timeline", "--quick", "--system", "ibm-ac922",
                     "--algorithm", "het", "--seed", "42",
                     "--faults", "1.0", "-o", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert any(event["ph"] == "i" for event in events)


class TestLinks:
    def test_xbus_is_the_hottest_link_during_exchange(self, capsys):
        # The paper's headline observation on the AC922: the X-Bus is
        # the binding link while partitions cross the socket boundary
        # (the Merge/exchange phase of the P2P sort).
        assert main(["links", *_AC922_P2P, "--phase", "Merge"]) == 0
        out = capsys.readouterr().out
        assert "hottest: xbus_0_1" in out

    def test_whole_run_table_renders(self, capsys):
        assert main(["links", *_AC922_P2P, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth over time" in out
        lines = out.splitlines()
        separator = next(i for i, line in enumerate(lines)
                         if line.startswith("---"))
        rows = []
        for line in lines[separator + 1:]:
            if not line.strip():
                break
            rows.append(line)
        assert len(rows) == 3

    def test_unknown_phase_fails_with_hint(self, capsys):
        assert main(["links", *_AC922_P2P, "--phase", "Nope"]) == 1
        err = capsys.readouterr().err
        assert "no phase 'Nope'" in err
        assert "Merge" in err


class TestSummary:
    def test_rollup_sections_present(self, capsys):
        assert main(["summary", *_AC922_P2P]) == 0
        out = capsys.readouterr().out
        assert "phases (wall = last end - first start)" in out
        assert "actor busy seconds by phase" in out
        assert "links (whole run)" in out
        assert "copy-engine occupancy" in out
        assert "flows.started=" in out
        for phase in ("HtoD", "Sort", "Merge", "DtoH"):
            assert phase in out

    def test_dgx_eight_gpu_smoke(self, capsys):
        assert main(["summary", "--quick", "--keys", "1e8"]) == 0
        out = capsys.readouterr().out
        assert "p2p sort on NVIDIA DGX A100" in out
        assert "GPUs (0, 1, 2, 3, 4, 5, 6, 7)" in out


class TestService:
    _EPISODE = ["--quick", "--system", "ibm-ac922", "--keys", "1e8",
                "--seed", "42", "--service", "6"]

    def test_summary_lists_jobs(self, capsys):
        assert main(["summary", *self._EPISODE]) == 0
        out = capsys.readouterr().out
        assert "service episode on IBM Power System AC922" in out
        assert "6 offered" in out
        assert "jobs (filter with --job tenant/id)" in out

    def test_summary_job_filter_rolls_up_one_job(self, capsys):
        assert main(["summary", *self._EPISODE]) == 0
        out = capsys.readouterr().out
        label = next(line.split()[0] for line in out.splitlines()
                     if line.startswith(("acme/", "globex/", "initech/"))
                     and " completed " in line)
        assert main(["summary", *self._EPISODE, "--job", label]) == 0
        out = capsys.readouterr().out
        assert f"phases of job {label}" in out
        assert "SupervisedSort" in out
        assert f"job:{label}" in out
        assert "links during the job's window" in out

    def test_summary_unknown_job_fails_with_known_labels(self, capsys):
        assert main(["summary", *self._EPISODE,
                     "--job", "nobody/99"]) == 1
        err = capsys.readouterr().err
        assert "no job 'nobody/99'" in err

    def test_timeline_job_filter_writes_only_job_spans(self, tmp_path,
                                                       capsys):
        path = tmp_path / "job.json"
        whole = tmp_path / "whole.json"
        assert main(["timeline", *self._EPISODE,
                     "-o", str(whole)]) == 0
        out = capsys.readouterr().out
        assert "service episode on IBM Power System AC922" in out
        document = json.loads(whole.read_text())
        job_rows = {event["args"]["name"]
                    for event in document["traceEvents"]
                    if event["ph"] == "M"
                    and event.get("args", {}).get("name",
                                                  "").startswith("job:")}
        assert len(job_rows) >= 1
        label = sorted(job_rows)[0][len("job:"):]
        assert main(["timeline", *self._EPISODE, "--job", label,
                     "-o", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert slices
        # No counter tracks in a per-job timeline.
        assert not any(e["ph"] == "C" for e in events)

    def test_job_without_service_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["summary", "--quick", "--job", "acme/0"])

    def test_service_needs_a_positive_count(self):
        with pytest.raises(SystemExit):
            main(["summary", "--quick", "--service", "0"])


class TestArgs:
    def test_gpu_list_parses(self, capsys):
        assert main(["summary", "--quick", "--keys", "1e7",
                     "--gpus", "0,1"]) == 0
        assert "GPUs (0, 1)" in capsys.readouterr().out

    def test_bad_gpu_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["summary", "--gpus", "zero,one"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestKills:
    """``--kill-at`` is simulated seconds; a kill the run never reached
    must not pass for a clean run."""

    def test_kill_node_after_the_run_ended_is_refused(self, capsys):
        # The quick 4-node sort ends at ~0.18 s, before the 0.5 s default.
        assert main(["links", "--quick", "--nodes", "4",
                     "--kill-node", "1"]) == 1
        err = capsys.readouterr().err
        assert "--kill-node 1 never fired" in err
        assert "--kill-at 0.5 s" in err
        assert "the run ended at 0.18" in err

    def test_kill_gpu_after_the_run_ended_is_refused(self, capsys):
        assert main(["summary", "--quick", "--algorithm", "p2p",
                     "--kill-gpu", "3"]) == 1
        err = capsys.readouterr().err
        assert "--kill-gpu 3 never fired" in err
        assert "--kill-at 0.5 s" in err

    def test_kill_node_mid_run_replans_under_the_flight_recorder(
            self, capsys):
        assert main(["summary", "--quick", "--nodes", "4",
                     "--kill-node", "1", "--kill-at", "0.08",
                     "--flight-recorder"]) == 0
        captured = capsys.readouterr()
        assert "Replan" in captured.out
        assert "never fired" not in captured.err
