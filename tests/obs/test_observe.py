"""The observer registry: one emit path feeding every run-time surface."""

import json
import os
from collections import Counter

import pytest

from repro.obs import observe
from repro.obs.events import EventLog
from repro.obs.live import TelemetryBus
from repro.obs.metrics import MemProfile
from repro.obs.trace import Tracer
from repro.tool.batch import run_batch
from repro.workloads import figure_units


class Recorder(observe.Observer):
    """Logs every callback it receives as ``(callback, name)``."""

    def __init__(self, spans=(), events=()):
        self.spans = spans
        self.events = events
        self.calls = []

    def on_open(self, span):
        self.calls.append(("open", span.name))

    def on_close(self, span):
        self.calls.append(("close", span.name))

    def on_event(self, kind, fields):
        self.calls.append(("event", kind))


class TestRegistry:
    def test_disabled_span_is_a_shared_noop_with_empty_attrs(self):
        assert observe.observers() == ()
        noop = observe.span("phase.frontend", unit="u")
        assert noop is observe.span("other")
        with noop as span:
            span.set(x=1)
            span.add("n")
        assert dict(span.attrs) == {}

    def test_install_returns_previous_observers(self):
        first, second = Recorder(), Recorder()
        assert observe.install(first) == ()
        assert observe.install(first, second) == (first,)
        assert observe.install() == (first, second)
        assert observe.observers() == ()

    def test_routing_follows_declared_names(self):
        exact = Recorder(spans=("a.b",), events=("x",))
        prefix = Recorder(spans=("a.*",), events=("y.*",))
        everything = Recorder(spans=("*",), events=("*",))
        with observe.observing(exact, prefix, everything):
            with observe.span("a.b"):
                pass
            with observe.span("ab"):
                pass
            observe.event("x")
            observe.event("y.z")
            observe.event("yz")
        assert exact.calls == [
            ("open", "a.b"), ("close", "a.b"), ("event", "x"),
        ]
        assert prefix.calls == [
            ("open", "a.b"), ("close", "a.b"), ("event", "y.z"),
        ]
        assert len(everything.calls) == 7

    def test_unconsumed_span_is_the_noop(self):
        with observe.observing(Recorder(spans=("phase.*",))):
            assert observe.span("datalog.rule") is observe.span("x")

    def test_close_runs_in_reverse_install_order(self):
        """A later observer's attribute is visible to earlier ones."""
        seen = {}

        class Stamper(observe.Observer):
            spans = ("*",)

            def on_close(self, span):
                span.attrs["stamp"] = 1

        class Reader(observe.Observer):
            spans = ("*",)

            def on_close(self, span):
                seen.update(span.attrs)

        with observe.observing(Reader(), Stamper()):
            with observe.span("s", unit="u"):
                pass
        assert seen == {"unit": "u", "stamp": 1}

    def test_each_surface_consumes_only_its_own_kinds(self, tmp_path):
        """The event log never sees bus events (their payloads are not
        JSON), the bus never sees log events, the tracer only instants."""
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path))
        bus = TelemetryBus()
        tracer = Tracer()
        with observe.observing(tracer, log, bus):
            observe.event("batch.start", total=2, sizes=[1, 1], jobs=1)
            observe.event("unit.done", index=0, outcome=object())
            observe.event("cache.miss", unit="u", key="k")
            observe.event("cache.hit", unit="u", key="k")
        log.close()
        kinds = [json.loads(line)["kind"] for line in open(path)]
        assert kinds == ["log.open", "cache.miss", "cache.hit"]
        assert bus.snapshot()["batch.units_done"] == 1
        assert [root.name for root in tracer.roots] == ["cache.hit"]

    def test_mem_profile_attaches_peaks_to_phase_spans(self):
        tracer = Tracer()
        with observe.observing(tracer, MemProfile()):
            with observe.span("phase.frontend", unit="u") as span:
                _ = [object() for _ in range(1000)]
            with observe.span("batch.unit", unit="u"):
                pass
        assert span.attrs["peak_mem_bytes"] > 0
        phase, unit = tracer.roots
        assert phase.attrs["peak_mem_bytes"] == span.attrs["peak_mem_bytes"]
        assert "peak_mem_bytes" not in unit.attrs

    def test_worker_counterparts_are_fresh(self, tmp_path):
        tracer = Tracer()
        log = EventLog(str(tmp_path / "events.jsonl"))
        with observe.observing(tracer, log, TelemetryBus(), MemProfile()):
            worker_tracer, worker_log, worker_mem = observe.for_workers()
        log.close()
        assert isinstance(worker_tracer, Tracer)
        assert worker_tracer is not tracer
        assert worker_tracer.epoch == tracer.epoch
        assert (worker_log.path, worker_log.epoch) == (log.path, log.epoch)
        assert isinstance(worker_mem, MemProfile)


def _phase_spans(tracer):
    """``(pid, unit, phase)`` of every ``phase.*`` span, all lanes."""
    found = []

    def walk(record, pid):
        if record.kind == "span" and record.name.startswith("phase."):
            found.append((pid, record.attrs["unit"], record.name[6:]))
        for child in record.children:
            walk(child, pid)

    for root in tracer.roots:
        walk(root, os.getpid())
    for pid, roots in tracer.lanes:
        for root in roots:
            walk(root, pid)
    return Counter(found)


class TestSurfacesAgree:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trace_events_and_bus_describe_one_run(self, tmp_path, jobs):
        path = tmp_path / "events.jsonl"
        tracer = Tracer()
        log = EventLog(str(path))
        bus = TelemetryBus()
        units = figure_units(["fig1", "fig2a", "fig2c"])
        with observe.observing(tracer, log, bus):
            result = run_batch(units, keep_going=True, jobs=jobs)
        log.close()
        records = [json.loads(line) for line in open(path)]

        spans = _phase_spans(tracer)
        assert sum(spans.values()) == 15  # five phases x three units
        if jobs > 1:
            assert tracer.lanes and os.getpid() not in {
                pid for pid, _unit, _phase in spans
            }
        for kind in ("phase.start", "phase.end"):
            brackets = Counter(
                (r["pid"], r["unit"], r["phase"])
                for r in records
                if r["kind"] == kind
            )
            assert brackets == spans

        warned = sorted(
            (r["unit"], r["fingerprint"])
            for r in records
            if r["kind"] == "warning"
        )
        assert warned == sorted(
            (outcome.unit, fingerprint)
            for outcome in result.outcomes
            for fingerprint in outcome.fingerprints
        )
        assert warned  # fig2a and fig2c warn

        assert bus.snapshot()["batch.units_done"] == 3
