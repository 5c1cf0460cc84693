"""Tests for the fault-injection registry."""

import json

import pytest

from repro.obs import observe
from repro.tool.batch import _WorkerJournal
from repro.util import faults
from repro.util.budget import ResourceBudget
from repro.util.errors import BudgetExceeded
from repro.util.faults import InjectedFault


class _FaultRecorder(observe.Observer):
    events = ("fault",)

    def __init__(self):
        self.seen = []

    def on_event(self, kind, fields):
        self.seen.append((fields["point"], fields["action"], fields["unit"]))


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


class TestFire:
    def test_unarmed_point_is_a_noop(self):
        faults.fire("frontend")

    def test_raise_action(self):
        faults.inject("frontend", message="boom")
        with pytest.raises(InjectedFault, match="boom"):
            faults.fire("frontend")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            faults.inject("frontend", action="segfault")

    def test_unit_filter(self):
        faults.inject("batch-unit", unit="svn/commit")
        faults.fire("batch-unit", unit="svn/update")  # other unit: no fire
        faults.fire("batch-unit")  # no unit at all: no fire
        with pytest.raises(InjectedFault):
            faults.fire("batch-unit", unit="svn/commit")

    def test_times_disarms_after_countdown(self):
        faults.inject("correlation", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faults.fire("correlation")
        faults.fire("correlation")  # disarmed
        assert not faults.active()

    def test_delay_action(self):
        recorded = []
        faults.inject("call-graph", action="delay", delay_seconds=0.0)
        faults.fire("call-graph")  # zero-length sleep completes
        assert recorded == []

    def test_corrupt_budget_action(self):
        meter = ResourceBudget().start()
        faults.inject("correlation", action="corrupt-budget")
        faults.fire("correlation", meter=meter)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.checkpoint("correlation")
        assert excinfo.value.resource == "corrupted"

    def test_corrupt_budget_without_meter_is_a_noop(self):
        faults.inject("correlation", action="corrupt-budget")
        faults.fire("correlation", meter=None)


class TestRegistry:
    def test_clear_point(self):
        faults.inject("frontend")
        faults.inject("correlation")
        faults.clear("frontend")
        faults.fire("frontend")
        with pytest.raises(InjectedFault):
            faults.fire("correlation")

    def test_context_manager_cleans_up(self):
        with faults.injected("frontend"):
            assert faults.active()
            with pytest.raises(InjectedFault):
                faults.fire("frontend")
        assert not faults.active()
        faults.fire("frontend")

    def test_context_manager_cleans_up_on_error(self):
        with pytest.raises(RuntimeError):
            with faults.injected("frontend"):
                raise RuntimeError("test error")
        assert not faults.active()


class TestDestructiveActions:
    """The supervisor-facing ``kill``/``hang`` actions and the ``fault``
    event every firing emits before its action."""

    def test_kill_action_sigkills_the_process(self):
        # Fired in a child process: the parent must observe SIGKILL.
        import multiprocessing

        def victim():
            faults.inject("batch-unit", action="kill")
            faults.fire("batch-unit")

        proc = multiprocessing.get_context().Process(target=victim)
        proc.start()
        proc.join(30)
        assert proc.exitcode == -9

    def test_hang_action_sleeps_for_delay_seconds(self):
        import time

        faults.inject("correlation", action="hang", delay_seconds=0.05)
        started = time.monotonic()
        faults.fire("correlation")  # finite hang: returns after the delay
        assert time.monotonic() - started >= 0.05

    def test_fire_hook_sees_spec_and_unit_before_the_action(self):
        recorder = _FaultRecorder()
        with observe.observing(recorder):
            # hang with an explicit (tiny) delay: delay_seconds=0.0 is
            # the unset default and means "hang forever".
            faults.inject(
                "batch-unit", action="hang", delay_seconds=0.001
            )
            faults.fire("batch-unit", unit="svn/commit")
        assert recorder.seen == [("batch-unit", "hang", "svn/commit")]

    def test_fire_hook_runs_before_raise_actions_too(self):
        recorder = _FaultRecorder()
        with observe.observing(recorder):
            faults.inject("frontend")
            with pytest.raises(InjectedFault):
                faults.fire("frontend")
        assert recorder.seen == [("frontend", "raise", "")]

    def test_worker_journal_records_only_destructive_firings(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with observe.observing(_WorkerJournal(str(path))):
            faults.inject("frontend")
            with pytest.raises(InjectedFault):
                faults.fire("frontend", unit="a")
            faults.inject("batch-unit", action="hang", delay_seconds=0.001)
            faults.fire("batch-unit", unit="b")
            faults.inject("correlation", action="hang", delay_seconds=0.001)
            faults.fire("correlation")
        records = [json.loads(line) for line in open(path)]
        assert [
            (r["kind"], r["point"], r["action"], r["unit"]) for r in records
        ] == [
            ("fault.fired", "batch-unit", "hang", "b"),
            ("fault.fired", "correlation", "hang", None),
        ]
