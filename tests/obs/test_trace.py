"""Tests for the hierarchical span tracer and its Chrome-trace export."""

import json

import pytest

from repro.obs import observe
from repro.obs.trace import Tracer
from repro.tool.regionwiz import run_regionwiz
from repro.workloads import figure


def check_nesting(events):
    """Every ``E`` must close the most recently opened ``B`` (per tid)."""
    stacks = {}
    for event in events:
        stack = stacks.setdefault((event["pid"], event["tid"]), [])
        if event["ph"] == "B":
            stack.append(event)
        elif event["ph"] == "E":
            assert stack, f"E event {event['name']!r} with no open span"
            opened = stack.pop()
            assert opened["name"] == event["name"]
            assert opened["ts"] <= event["ts"]
    for stack in stacks.values():
        assert not stack, "unclosed B events"


@pytest.fixture
def tracer():
    tracer = Tracer()
    with observe.observing(tracer):
        yield tracer


class TestTracer:
    def test_span_tree_records_time_and_attrs(self, tracer):
        with observe.span("outer", label="x") as outer:
            with observe.span("inner"):
                pass
            outer.set(count=3)
            outer.add("count", 2)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attrs == {"label": "x", "count": 5}
        assert root.end_us >= root.start_us
        assert [child.name for child in root.children] == ["inner"]

    def test_instant_lands_under_open_span(self, tracer):
        with observe.span("outer"):
            observe.event("fault", point="p")
        (blip,) = tracer.roots[0].children
        assert blip.kind == "instant"
        assert blip.attrs == {"point": "p"}

    def test_exception_marks_error_and_closes(self, tracer):
        try:
            with observe.span("failing"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert tracer.roots[0].attrs["error"] == "ValueError"
        assert tracer.roots[0].end_us > 0

    def test_find_walks_depth_first(self, tracer):
        with observe.span("a"):
            with observe.span("b"):
                pass
            with observe.span("b"):
                pass
        assert len(tracer.find("b")) == 2
        assert tracer.find("missing") == []


class TestGlobalRegistry:
    def test_disabled_tracing_is_shared_noop(self):
        assert observe.observers() == ()
        assert observe.active(Tracer) is None
        # One shared stateless object: nothing allocated per call.
        assert observe.span("x", a=1) is observe.span("y")
        observe.event("fault", point="z")  # no-op, must not raise

    def test_tracing_to_installs_and_restores(self):
        tracer = Tracer()
        with observe.observing(tracer):
            assert observe.active(Tracer) is tracer
            with observe.span("recorded"):
                pass
        assert observe.active(Tracer) is None
        with observe.span("dropped"):
            pass
        assert [root.name for root in tracer.roots] == ["recorded"]


class TestChromeTrace:
    def run_traced(self, name="fig2c", **kwargs):
        program = figure(name)
        tracer = Tracer()
        with observe.observing(tracer):
            run_regionwiz(program.full_source, name=name, **kwargs)
        return tracer

    def test_export_is_valid_json_with_monotonic_nesting(self, tmp_path):
        tracer = self.run_traced()
        path = tmp_path / "out.json"
        tracer.write_chrome_trace(str(path))
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert events, "pipeline run recorded no events"
        for event in events:
            assert event["ph"] in ("B", "E", "i")
            assert isinstance(event["ts"], (int, float))
        check_nesting(events)

    def test_all_four_phases_nest_under_the_attempt(self):
        tracer = self.run_traced()
        (attempt,) = tracer.find("ladder.attempt")
        phases = [
            child.name
            for child in attempt.children
            if child.name.startswith("phase.")
        ]
        assert phases == [
            "phase.frontend",
            "phase.call-graph",
            "phase.context-cloning",
            "phase.correlation",
            "phase.post-processing",
        ]

    def test_subsystem_spans_present(self):
        tracer = self.run_traced()
        assert tracer.find("callgraph.fixpoint")
        assert tracer.find("contexts.number")
        assert tracer.find("pointer.solve")

    def test_datalog_spans_when_stats_requested(self):
        tracer = self.run_traced(solver_stats=True)
        (solve,) = tracer.find("datalog.solve")
        strata = solve.find("datalog.stratum")
        assert strata and all(s.attrs.get("rounds") for s in strata)
        assert solve.find("datalog.rule")

    def test_span_attrs_reach_begin_events(self):
        tracer = self.run_traced()
        data = tracer.to_chrome_trace()
        begins = {
            event["name"]: event
            for event in data["traceEvents"]
            if event["ph"] == "B"
        }
        assert begins["phase.call-graph"]["args"]["edges"] >= 1
        assert begins["phase.call-graph"]["cat"] == "phase"

    def test_profile_tree_renders_every_phase(self):
        tracer = self.run_traced()
        tree = tracer.format_tree()
        for phase in ("frontend", "call-graph", "correlation"):
            assert f"phase.{phase}" in tree
        assert "ms" in tree
