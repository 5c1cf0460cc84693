"""CLI integration tests for run ids, live telemetry, and the registry."""

import json

import pytest

from repro.obs.registry import RunRegistry
from repro.tool.cli import main
from repro.workloads import figure


def write_source(tmp_path, name):
    path = tmp_path / f"{name}.c"
    path.write_text(figure(name).full_source)
    return str(path)


class TestRunIdThreading:
    def test_single_json_carries_run_id(self, tmp_path, capsys):
        path = write_source(tmp_path, "fig1")
        assert main(["--json", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["run_id"]) == 8

    def test_batch_json_journal_and_events_share_one_id(
        self, tmp_path, capsys
    ):
        paths = [write_source(tmp_path, n) for n in ("fig1", "fig2c")]
        journal = tmp_path / "run.journal"
        events = tmp_path / "events.jsonl"
        code = main(
            ["--batch", "--json", "--jobs", "2", "--keep-going",
             "--journal", str(journal), "--events", str(events), *paths]
        )
        assert code == 1
        run_id = json.loads(capsys.readouterr().out)["run_id"]
        journal_header = json.loads(journal.read_text().splitlines()[0])
        assert journal_header["run_id"] == run_id
        event_header = json.loads(events.read_text().splitlines()[0])
        assert event_header["run_id"] == run_id

    def test_chrome_trace_metadata_carries_run_id(self, tmp_path, capsys):
        path = write_source(tmp_path, "fig1")
        trace = tmp_path / "trace.json"
        assert main(["--json", "--trace", str(trace), path]) == 0
        run_id = json.loads(capsys.readouterr().out)["run_id"]
        payload = json.loads(trace.read_text())
        assert payload["metadata"]["run_id"] == run_id

    def test_fresh_id_per_invocation(self, tmp_path, capsys):
        path = write_source(tmp_path, "fig1")
        ids = set()
        for _ in range(2):
            assert main(["--json", path]) == 0
            ids.add(json.loads(capsys.readouterr().out)["run_id"])
        assert len(ids) == 2

    def test_no_run_id_without_cli(self, tmp_path):
        """run_batch called as a library emits no run_id key at all --
        pre-existing JSON consumers see byte-identical output."""
        from repro.tool.batch import BatchUnit, run_batch

        result = run_batch(
            [BatchUnit(name="u", source=figure("fig1").full_source)]
        )
        assert "run_id" not in json.loads(result.to_json())


class TestMemProfile:
    def test_gauges_present_only_with_flag(self, tmp_path, capsys):
        path = write_source(tmp_path, "fig1")
        assert main(["--json", "--mem-profile", path]) == 0
        with_flag = json.loads(capsys.readouterr().out)["metrics"]
        peaks = {
            name: value
            for name, value in with_flag.items()
            if name.endswith(".peak_mem_bytes")
        }
        assert "pipeline.correlation.peak_mem_bytes" in peaks
        assert all(value > 0 for value in peaks.values())
        assert main(["--json", path]) == 0
        without = json.loads(capsys.readouterr().out)["metrics"]
        assert not any(n.endswith(".peak_mem_bytes") for n in without)

    def test_flag_does_not_leak_across_invocations(self, tmp_path, capsys):
        from repro.obs import observe

        path = write_source(tmp_path, "fig1")
        assert main(["--json", "--mem-profile", path]) == 0
        capsys.readouterr()
        assert observe.observers() == ()


class TestMetricsOut:
    def test_batch_writes_openmetrics_snapshot(self, tmp_path, capsys):
        paths = [write_source(tmp_path, n) for n in ("fig1", "fig2c")]
        out = tmp_path / "metrics.txt"
        code = main(
            ["--batch", "--json", "--keep-going",
             "--metrics-out", str(out), *paths]
        )
        assert code == 1
        capsys.readouterr()
        text = out.read_text()
        assert "repro_batch_units_done 2" in text
        assert "repro_cache_hits" in text
        assert "repro_supervision_respawns" in text
        assert text.endswith("# EOF\n")

    def test_unwritable_path_soft_fails_exit_two(self, tmp_path, capsys):
        path = write_source(tmp_path, "fig1")
        out = tmp_path / "no-such-dir" / "metrics.txt"
        assert main(["--metrics-out", str(out), path]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestRegistryCli:
    def test_runs_recorded_with_outcome_counts(self, tmp_path, capsys):
        paths = [write_source(tmp_path, n) for n in ("fig1", "fig2c")]
        registry = tmp_path / "runs.sqlite"
        code = main(
            ["--batch", "--json", "--keep-going",
             "--registry", str(registry), *paths]
        )
        assert code == 1
        run_id = json.loads(capsys.readouterr().out)["run_id"]
        with RunRegistry(str(registry)) as store:
            runs = store.runs()
        assert len(runs) == 1
        run = runs[0]
        assert run.run_id == run_id
        assert run.mode == "batch"
        assert run.units == 2 and run.succeeded == 2
        assert run.warnings == 1 and run.high == 1
        assert run.exit_code == 1
        assert run.wall_s > 0
        assert run.metrics["batch.units"] == 2

    def test_single_mode_recorded(self, tmp_path, capsys):
        path = write_source(tmp_path, "fig1")
        registry = tmp_path / "runs.sqlite"
        assert main(["--registry", str(registry), path]) == 0
        capsys.readouterr()
        with RunRegistry(str(registry)) as store:
            run = store.runs()[0]
        assert run.mode == "single"
        assert run.units == 1 and run.warnings == 0

    def test_bad_registry_path_exits_two(self, tmp_path, capsys):
        path = write_source(tmp_path, "fig1")
        bad = tmp_path / "missing" / "runs.sqlite"
        assert main(["--registry", str(bad), path]) == 2
        assert "--registry" in capsys.readouterr().err


class TestLiveFlag:
    def test_plain_lines_on_non_tty(self, tmp_path, capsys):
        paths = [write_source(tmp_path, n) for n in ("fig1", "fig2c")]
        code = main(["--batch", "--json", "--keep-going", "--live", *paths])
        assert code == 1
        err = capsys.readouterr().err
        assert "live: run" in err
        assert "2/2 unit(s)" in err

    def test_single_run_notes_and_continues(self, tmp_path, capsys):
        path = write_source(tmp_path, "fig1")
        assert main(["--live", path]) == 0
        captured = capsys.readouterr()
        assert "--live" in captured.err
        assert "region lifetime is consistent" in captured.out


class TestHistorySubcommand:
    def test_dispatched_before_argparse(self, tmp_path, capsys):
        """`regionwiz history` must not trip over the main parser's
        required FILE positional."""
        path = write_source(tmp_path, "fig1")
        registry = tmp_path / "runs.sqlite"
        assert main(["--registry", str(registry), path]) == 0
        capsys.readouterr()
        assert main(["history", "--registry", str(registry)]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_gate_roundtrip_through_cli(self, tmp_path, capsys):
        path = write_source(tmp_path, "fig1")
        registry = tmp_path / "runs.sqlite"
        for _ in range(2):
            assert main(["--registry", str(registry), path]) == 0
            capsys.readouterr()
        code = main(
            ["history", "--registry", str(registry),
             "--fail-on-regression", "--threshold", "1000"]
        )
        assert code == 0
