"""Tests for the live fleet telemetry bus (repro.obs.live)."""

import io

import pytest

from repro.obs import observe
from repro.obs.live import LiveView, TelemetryBus, new_run_id


class FakeOutcome:
    def __init__(self, ok=True, cached=False, warnings=0, high=0):
        self.ok = ok
        self.cached = cached
        self.warnings = warnings
        self.high = high


def started_bus(sizes=(100, 200, 300), jobs=2):
    bus = TelemetryBus(run_id="cafef00d", jobs=1)
    bus.handle("batch.start", total=len(sizes), sizes=list(sizes), jobs=jobs)
    return bus


class TestRunId:
    def test_short_hex(self):
        rid = new_run_id()
        assert len(rid) == 8
        int(rid, 16)  # raises if not hex

    def test_unique_enough(self):
        assert len({new_run_id() for _ in range(64)}) == 64


class TestBusProgress:
    def test_snapshot_progress_keys_always_present(self):
        bus = TelemetryBus()
        snap = bus.snapshot()
        for key in (
            "batch.units_total",
            "batch.units_done",
            "batch.units_failed",
            "batch.units_in_flight",
            "cache.hits",
            "supervision.respawns",
            "supervision.watchdog_kills",
            "progress.bytes_total",
            "progress.bytes_done",
            "run.finished",
        ):
            assert snap[key] == 0

    def test_unit_done_accumulates(self):
        bus = started_bus()
        bus.handle("unit.start", index=0, unit="a.c", pid=123)
        assert bus.snapshot()["batch.units_in_flight"] == 1
        bus.handle(
            "unit.done", index=0, outcome=FakeOutcome(warnings=2, high=1)
        )
        snap = bus.snapshot()
        assert snap["batch.units_done"] == 1
        assert snap["batch.units_in_flight"] == 0
        assert snap["batch.warnings"] == 2
        assert snap["batch.high"] == 1
        assert snap["progress.bytes_done"] == 100

    def test_retried_unit_counts_once(self):
        bus = started_bus()
        bus.handle("unit.done", index=1, outcome=FakeOutcome())
        bus.handle("unit.done", index=1, outcome=FakeOutcome())
        snap = bus.snapshot()
        assert snap["batch.units_done"] == 1
        assert snap["progress.bytes_done"] == 200

    def test_cached_and_failed_tallies(self):
        bus = started_bus()
        bus.handle("unit.done", index=0, outcome=FakeOutcome(cached=True))
        bus.handle("unit.done", index=1, outcome=FakeOutcome(ok=False))
        snap = bus.snapshot()
        assert snap["cache.hits"] == 1
        assert snap["batch.units_failed"] == 1

    def test_tick_mirrors_supervision_stats(self):
        bus = started_bus()
        bus.handle("tick", stats={"respawns": 2, "watchdog_kills": 1})
        snap = bus.snapshot()
        assert snap["supervision.respawns"] == 2
        assert snap["supervision.watchdog_kills"] == 1

    def test_batch_end_marks_finished(self):
        bus = started_bus()
        assert not bus.finished
        bus.handle("batch.end", interrupted=False)
        assert bus.finished
        assert bus.snapshot()["run.finished"] == 1


class TestEta:
    def test_unknown_before_any_completion(self):
        bus = started_bus()
        assert bus.eta_seconds() is None

    def test_bytes_weighted(self):
        # Completing the 300-byte unit (half the corpus) means the ETA
        # roughly equals the elapsed time -- bytes, not unit counts.
        bus = started_bus()
        bus.handle("unit.done", index=2, outcome=FakeOutcome())
        bus.started_at -= 1.0  # pretend one second has passed
        eta = bus.eta_seconds()
        assert eta == pytest.approx(1.0, rel=0.2)


class TestWorkerDeltas:
    def test_partial_records_tolerated(self):
        """A worker that died before its first flush contributes nothing."""
        bus = started_bus()
        bus.handle("worker.delta", record={})  # no pid at all
        bus.handle("worker.delta", record={"pid": "oops"})  # junk pid
        bus.handle("worker.delta", record=None)  # torn record
        snap = bus.snapshot()
        assert "workers.seen" not in snap

    def test_rss_max_folded_cpu_latest(self):
        bus = started_bus()
        bus.handle("worker.delta", record={"pid": 7, "rss_kb": 100})
        bus.handle(
            "worker.delta", record={"pid": 7, "rss_kb": 50, "cpu_s": 1.5}
        )
        bus.handle("worker.delta", record={"pid": 8, "cpu_s": 0.5})
        snap = bus.snapshot()
        assert snap["workers.seen"] == 2
        assert snap["workers.rss_kb_max"] == 100
        assert snap["workers.cpu_s_total"] == 2.0

    def test_delta_missing_fields_keeps_pid_visible(self):
        bus = started_bus()
        bus.handle("worker.delta", record={"pid": 9})
        snap = bus.snapshot()
        assert snap["workers.seen"] == 1
        assert "workers.rss_kb_max" not in snap


class TestStatusLine:
    def test_mentions_run_and_counts(self):
        bus = started_bus()
        bus.handle("unit.done", index=0, outcome=FakeOutcome())
        line = bus.status_line()
        assert "run cafef00d" in line
        assert "1/3 unit(s)" in line

    def test_failures_and_respawns_surface(self):
        bus = started_bus()
        bus.handle("unit.done", index=0, outcome=FakeOutcome(ok=False))
        bus.handle("tick", stats={"respawns": 3})
        line = bus.status_line()
        assert "failed 1" in line
        assert "respawns 3" in line


class TestLiveView:
    def test_plain_stream_gets_prefixed_lines(self):
        stream = io.StringIO()
        bus = started_bus()
        view = LiveView(bus, stream=stream, interval=0.0)
        bus.attach(view)
        bus.handle("unit.done", index=0, outcome=FakeOutcome())
        assert stream.getvalue().startswith("live: run cafef00d")

    def test_rate_limit_suppresses_spam(self):
        stream = io.StringIO()
        bus = started_bus()
        view = LiveView(bus, stream=stream, interval=3600.0)
        bus.attach(view)
        for index in range(3):
            bus.handle("unit.done", index=index, outcome=FakeOutcome())
        # Only the first event renders inside one interval.
        assert stream.getvalue().count("live:") <= 1

    def test_batch_end_forces_final_render(self):
        stream = io.StringIO()
        bus = started_bus()
        view = LiveView(bus, stream=stream, interval=3600.0)
        bus.attach(view)
        bus.handle("unit.done", index=0, outcome=FakeOutcome())
        bus.handle("batch.end")
        assert "done in" in stream.getvalue()

    def test_closed_stream_disables_view(self):
        stream = io.StringIO()
        bus = started_bus()
        view = LiveView(bus, stream=stream, interval=0.0)
        bus.attach(view)
        stream.close()
        bus.handle("unit.done", index=0, outcome=FakeOutcome())
        bus.handle("unit.done", index=1, outcome=FakeOutcome())
        assert view._closed


class TestGlobalRegistry:
    def test_bus_event_is_noop_without_bus(self):
        assert observe.active(TelemetryBus) is None
        observe.event("unit.done", index=0)  # must not raise

    def test_install_uninstall_roundtrip(self):
        bus = TelemetryBus()
        with observe.observing(bus):
            assert observe.active(TelemetryBus) is bus
            observe.event("batch.start", total=1, sizes=[10], jobs=1)
            assert bus.snapshot()["batch.units_total"] == 1
        assert observe.active(TelemetryBus) is None
        observe.event("batch.start", total=5, sizes=[10], jobs=1)
        assert bus.snapshot()["batch.units_total"] == 1
