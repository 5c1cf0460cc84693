"""The structured JSONL event log: record shape, ordering, workers."""

import json

import pytest

from repro.interfaces import rc_regions_interface
from repro.obs import observe
from repro.obs.events import EVENT_SCHEMA_VERSION, EventLog
from repro.tool.batch import run_batch
from repro.tool.regionwiz import run_regionwiz
from repro.util.budget import ResourceBudget
from repro.util.errors import BudgetExceeded
from repro.workloads import figure, figure_units


def _records(path):
    return [json.loads(line) for line in open(path) if line.strip()]


@pytest.fixture
def installed_log(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(str(path))
    with observe.observing(log):
        yield path, log
    log.close()


class TestEventLog:
    def test_header_carries_schema_and_epoch(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventLog(str(path)) as log:
            log.emit("x")
        records = _records(path)
        assert records[0]["kind"] == "log.open"
        assert records[0]["schema"] == EVENT_SCHEMA_VERSION
        assert records[0]["epoch"] == pytest.approx(log.epoch, abs=1e-3)

    def test_seq_monotonic_and_fields_present(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventLog(str(path)) as log:
            for index in range(5):
                log.emit("tick", index=index)
        records = _records(path)
        assert [r["seq"] for r in records] == list(range(1, 7))
        for record in records:
            assert {"seq", "t_ms", "pid", "kind"} <= set(record)

    def test_emit_event_is_noop_without_install(self, tmp_path):
        assert observe.observers() == ()
        log = EventLog(str(tmp_path / "e.jsonl"))
        observe.event("cache.miss", unit="ignored")  # must not raise
        log.close()
        assert [r["kind"] for r in _records(log.path)] == ["log.open"]

    def test_install_uninstall_restores_previous(self, tmp_path):
        outer = EventLog(str(tmp_path / "outer.jsonl"))
        inner = EventLog(str(tmp_path / "inner.jsonl"))
        with observe.observing(outer):
            assert observe.active(EventLog) is outer
            with observe.observing(inner):
                assert observe.observers() == (outer, inner)
                observe.event("cache.miss", unit="both")
            assert observe.observers() == (outer,)
            observe.event("cache.miss", unit="outer")
        assert observe.observers() == ()
        observe.event("cache.miss", unit="nobody")
        outer.close()
        inner.close()
        units = [r.get("unit") for r in _records(outer.path)]
        assert units == [None, "both", "outer"]
        assert [r.get("unit") for r in _records(inner.path)] == [None, "both"]

    def test_append_mode_shares_the_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        parent = EventLog(str(path))
        worker = EventLog(str(path), epoch=parent.epoch, append=True)
        parent.emit("parent")
        worker.emit("worker")
        parent.emit("parent")  # parent writes land at EOF, not offset 1
        parent.close()
        worker.close()
        kinds = [r["kind"] for r in _records(path)]
        assert kinds == ["log.open", "parent", "worker", "parent"]


class TestPipelineEvents:
    def test_phase_brackets_and_warning_emission(self, installed_log):
        path, _ = installed_log
        program = figure("fig2c")
        run_regionwiz(program.full_source, name="fig2c")
        records = _records(path)
        phases = [r["phase"] for r in records if r["kind"] == "phase.start"]
        assert phases == [
            "frontend",
            "call-graph",
            "context-cloning",
            "correlation",
            "post-processing",
        ]
        ends = [r for r in records if r["kind"] == "phase.end"]
        assert [r["phase"] for r in ends] == phases
        assert all(r["duration_ms"] >= 0 for r in ends)
        warnings = [r for r in records if r["kind"] == "warning"]
        assert warnings
        for record in warnings:
            assert record["unit"] == "fig2c"
            assert len(record["fingerprint"]) == 16
            assert record["rank"] in ("high", "low")

    def test_budget_trip_and_ladder_degrade(self, installed_log):
        path, _ = installed_log
        program = figure("fig2c")
        budget = ResourceBudget(max_derived_tuples=5)
        with pytest.raises(BudgetExceeded):
            run_regionwiz(
                program.full_source, name="fig2c", budget=budget, degrade=True
            )
        records = _records(path)
        trips = [r for r in records if r["kind"] == "budget.trip"]
        degrades = [r for r in records if r["kind"] == "ladder.degrade"]
        assert trips and degrades
        assert trips[0]["resource"] == "derived_tuples"
        assert trips[0]["limit"] == 5
        assert [r["precision"] for r in degrades] == [
            "full",
            "no-heap-cloning",
            "context-insensitive",
            "field-insensitive",
        ]


class TestBatchEvents:
    def test_unit_outcomes_and_cache_probes(self, installed_log, tmp_path):
        path, _ = installed_log
        units = figure_units(["fig1", "fig2c"])
        cache_dir = str(tmp_path / "cache")
        run_batch(units, keep_going=True, cache=cache_dir)
        run_batch(units, keep_going=True, cache=cache_dir)
        records = _records(path)
        outcomes = [r for r in records if r["kind"] == "batch.unit"]
        assert len(outcomes) == 4  # two sweeps x two units
        assert [r["cached"] for r in outcomes] == [False, False, True, True]
        misses = [r for r in records if r["kind"] == "cache.miss"]
        hits = [r for r in records if r["kind"] == "cache.hit"]
        assert len(misses) == 2 and len(hits) == 2

    def test_workers_interleave_on_the_parent_timeline(self, installed_log):
        """jobs=2 workers append to the same file with the parent's
        epoch; a global order is sort by (t_ms, pid, seq)."""
        path, log = installed_log
        units = figure_units(["fig1", "fig2c", "fig5"])
        run_batch(units, keep_going=True, jobs=2)
        records = _records(path)
        assert len({r["pid"] for r in records}) >= 2
        per_pid_seqs = {}
        for record in records:
            per_pid_seqs.setdefault(record["pid"], []).append(record["seq"])
        for seqs in per_pid_seqs.values():
            assert seqs == sorted(seqs)  # per-process monotonic
        # Worker records share the parent's time zero: everything the
        # sweep emitted falls within one run's horizon of the epoch.
        assert all(0 <= r["t_ms"] < 120_000 for r in records)
        ordered = sorted(records, key=lambda r: (r["t_ms"], r["pid"], r["seq"]))
        assert ordered[0]["kind"] == "log.open"
        worker_phases = [
            r
            for r in records
            if r["kind"] == "phase.start" and r["pid"] != records[0]["pid"]
        ]
        assert worker_phases  # workers really did emit into the shared log
