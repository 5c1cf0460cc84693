"""Serial vs. parallel ``run_batch`` equivalence and worker plumbing.

The shard scheduler's contract is that ``jobs > 1`` changes wall-clock
behaviour only: per-unit outcomes, ordering, warning sets, exit codes,
fault isolation, and trace/metrics payloads all match the serial run
(modulo timing and pid values).  These tests hold it to that, including
under injected faults firing *inside* worker processes.
"""

import json
import os
import tempfile

import pytest

from repro.obs import observe
from repro.obs.trace import Tracer
from repro.tool.batch import BatchUnit, run_batch
from repro.util import faults
from repro.workloads import figure_units

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def poison_unit(name):
    return BatchUnit(name=name, source="int main( {", filename=f"<{name}>")


def normalized(result):
    """The batch JSON with timing-dependent payloads stripped.

    Metric values are wall-clock readings, so only their *keys* must
    match across modes; everything else must match byte-for-byte.
    """
    payload = json.loads(result.to_json())
    metric_keys = []
    for entry in payload["results"]:
        metric_keys.append(sorted(entry.pop("metrics", {})))
        entry.pop("traceback", None)  # line numbers differ worker-side
    fleet = payload.pop("fleet_metrics", {})
    payload.pop("run_id", None)  # fresh per CLI invocation by design
    payload["metric_keys"] = metric_keys
    payload["fleet_keys"] = sorted(fleet)
    return payload


def assert_equivalent(serial, parallel):
    assert normalized(serial) == normalized(parallel)
    assert [o.warning_lines for o in serial.outcomes] == [
        o.warning_lines for o in parallel.outcomes
    ]
    assert serial.exit_code() == parallel.exit_code()


class TestSerialParallelEquivalence:
    def test_clean_and_warning_figures(self):
        units = figure_units(["fig1", "fig2a", "fig2c", "fig5"])
        serial = run_batch(units, keep_going=True)
        parallel = run_batch(units, keep_going=True, jobs=2)
        assert_equivalent(serial, parallel)
        assert [o.unit for o in parallel.outcomes] == [u.name for u in units]

    def test_mixed_corpus_with_poison_and_injected_fault(self):
        units = [
            *figure_units(["fig1"]),
            poison_unit("bad"),
            *figure_units(["fig2c", "fig2a"]),
        ]
        with faults.injected("correlation", unit="fig2c"):
            serial = run_batch(units, keep_going=True)
        with faults.injected("correlation", unit="fig2c"):
            parallel = run_batch(units, keep_going=True, jobs=2)
        assert parallel.outcome("fig2c").status == "internal-error"
        assert parallel.outcome("fig2c").error_type == "InjectedFault"
        assert parallel.outcome("bad").status == "input-error"
        assert_equivalent(serial, parallel)

    def test_early_stop_normalizes_to_serial_semantics(self):
        # Workers may finish units past the failure point before the
        # cancel lands; the report must still match the serial one.
        units = [
            poison_unit("bad"),
            *figure_units(["fig1", "fig2a", "fig2c"]),
        ]
        serial = run_batch(units, keep_going=False)
        parallel = run_batch(units, keep_going=False, jobs=2)
        assert_equivalent(serial, parallel)
        assert [o.status for o in parallel.outcomes] == [
            "input-error", "skipped", "skipped", "skipped"
        ]
        assert [o.exit_code for o in parallel.outcomes] == [2, None, None, None]

    def test_retry_inside_worker(self):
        units = figure_units(["fig1", "fig2a"])
        with faults.injected("batch-unit", unit="fig1", times=1):
            parallel = run_batch(units, keep_going=True, jobs=2, max_retries=1)
        outcome = parallel.outcome("fig1")
        assert outcome.status == "clean"
        assert outcome.attempts == 2

    def test_fleet_metrics_match(self):
        units = figure_units(["fig1", "fig2c"])
        serial = run_batch(units, keep_going=True)
        parallel = run_batch(units, keep_going=True, jobs=2)
        assert sorted(serial.fleet_metrics()) == sorted(parallel.fleet_metrics())
        counts = {
            name: summary["count"]
            for name, summary in parallel.fleet_metrics().items()
        }
        assert counts == {
            name: summary["count"]
            for name, summary in serial.fleet_metrics().items()
        }

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_batch(figure_units(["fig1"]), jobs=0)


class TestEarlyStopCacheState:
    """The early-stop cache-leak regression (the headline bugfix).

    With ``keep_going=False``, in-flight workers may finish units past
    the failure point before the cancel lands.  Those results must NOT
    reach the persistent cache: the batch report relabels them
    ``skipped``, and a warm re-run that replayed them would resurrect
    outcomes the report never produced -- diverging from serial cache
    state.
    """

    def test_no_cache_entries_past_the_failure(self, tmp_path):
        units = [
            *figure_units(["fig1"]),
            poison_unit("bad"),
            *figure_units(["fig2a", "fig2c"]),
        ]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_batch(units, keep_going=False, cache=str(serial_dir))
        parallel = run_batch(
            units, keep_going=False, jobs=2, cache=str(parallel_dir)
        )
        assert_equivalent(serial, parallel)
        # fig1 precedes the failure, so both modes persist exactly it;
        # fig2a/fig2c may have completed in a worker but must not leak.
        assert sorted(os.listdir(serial_dir)) == sorted(
            os.listdir(parallel_dir)
        )
        assert len(os.listdir(parallel_dir)) == 1

    def test_warm_rerun_does_not_resurrect_skipped_outcomes(self, tmp_path):
        units = [
            poison_unit("bad"),
            *figure_units(["fig1", "fig2a", "fig2c"]),
        ]
        cache_dir = tmp_path / "cache"
        cold = run_batch(units, keep_going=False, jobs=2, cache=str(cache_dir))
        assert [o.status for o in cold.outcomes] == [
            "input-error", "skipped", "skipped", "skipped"
        ]
        # Nothing precedes the failure, so the cache must stay empty
        # even though workers may have finished fig* units in flight.
        assert os.listdir(cache_dir) == []
        # A warm serial re-run therefore replays nothing: same report,
        # no cached=True outcomes masquerading as fresh results.
        warm = run_batch(units, keep_going=False, cache=str(cache_dir))
        assert [o.status for o in warm.outcomes] == [
            "input-error", "skipped", "skipped", "skipped"
        ]
        assert not any(o.cached for o in warm.outcomes)

    def test_keep_going_still_caches_everything(self, tmp_path):
        units = [
            poison_unit("bad"),
            *figure_units(["fig1", "fig2a"]),
        ]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_batch(units, keep_going=True, cache=str(serial_dir))
        run_batch(units, keep_going=True, jobs=2, cache=str(parallel_dir))
        assert sorted(os.listdir(serial_dir)) == sorted(
            os.listdir(parallel_dir)
        )
        assert len(os.listdir(parallel_dir)) == 2  # poison is never cached


class TestWorkerObservability:
    def test_worker_spans_merge_into_parent_lanes(self):
        import os

        units = figure_units(["fig1", "fig2a", "fig2c"])
        tracer = Tracer()
        with observe.observing(tracer):
            run_batch(units, keep_going=True, jobs=2)
        assert tracer.lanes, "worker spans should come back as lanes"
        unit_spans = tracer.find("batch.unit")
        assert sorted(s.attrs["unit"] for s in unit_spans) == [
            "fig1", "fig2a", "fig2c"
        ]
        # Chrome export puts each worker on its own pid, distinct from
        # the parent's.
        trace = tracer.to_chrome_trace()
        pids = {e["pid"] for e in trace["traceEvents"]}
        worker_pids = {pid for pid, _roots in tracer.lanes}
        assert worker_pids
        assert os.getpid() not in worker_pids
        assert worker_pids <= pids
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "process_name" in names

    def test_forked_worker_drops_inherited_observers(self, tmp_path):
        """A worker forked while the parent observes, but whose config
        enables no observer, records no span, writes no event line and
        journals no ``fault.fired`` -- not even for the kill it dies of."""
        import multiprocessing
        import signal

        from repro.obs.events import EventLog
        from repro.tool.batch import (
            _WorkerConfig,
            _WorkerJournal,
            _worker_analyze_chunk,
            _worker_init,
        )

        clean, doomed = figure_units(["fig1", "fig2c"])
        config = _WorkerConfig(
            options=None,
            budget=None,
            degrade=True,
            refine=False,
            solver_stats=False,
            registry=None,
            max_retries=0,
            fault_specs=[
                faults.FaultSpec("batch-unit", "kill", unit=doomed.name)
            ],
            observers=(),
            keep_going=True,
        )
        events = tmp_path / "events.jsonl"
        journal = tmp_path / "journal.jsonl"
        tracer = Tracer()
        log = EventLog(str(events))
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def worker():
            _worker_init(config)
            results, roots, _pid = _worker_analyze_chunk([(0, clean, None)])
            send.send((results[0][1].status, len(roots), len(tracer.roots)))
            _worker_analyze_chunk([(1, doomed, None)])  # SIGKILLs itself

        with observe.observing(tracer, log, _WorkerJournal(str(journal))):
            child = ctx.Process(target=worker)
            child.start()
            status, shipped, inherited = receive.recv()
            child.join(timeout=60)
        log.close()
        assert child.exitcode == -signal.SIGKILL
        assert (status, shipped, inherited) == ("clean", 0, 0)
        assert tracer.roots == []
        pids = {json.loads(line)["pid"] for line in open(events)}
        assert pids == {os.getpid()}  # the parent's log.open header only
        assert not journal.exists() or journal.read_text() == ""

    def test_serial_mode_records_no_lanes(self):
        tracer = Tracer()
        with observe.observing(tracer):
            run_batch(figure_units(["fig1"]), keep_going=True)
        assert tracer.lanes == []
        assert len(tracer.find("batch.unit")) == 1

    def test_pool_is_clamped_to_the_number_of_chunks(self):
        # ``--jobs 64`` on a four-unit corpus with two-unit chunks must
        # spawn at most two workers, not 64 idle ones.  The worker pids
        # stamped on the outcomes are the observable.
        units = figure_units(["fig1", "fig2a", "fig2c", "fig3"])
        result = run_batch(units, keep_going=True, jobs=64, chunk_size=2)
        assert all(o.ok for o in result.outcomes)
        pids = {o.worker_pid for o in result.outcomes}
        assert None not in pids
        assert len(pids) <= 2


if HAVE_HYPOTHESIS:

    _CORPUS_POOL = ("fig1", "fig2a", "fig2c", "poison", "fault")

    @st.composite
    def corpora(draw):
        picks = draw(
            st.lists(st.sampled_from(_CORPUS_POOL), min_size=1, max_size=5)
        )
        units = []
        for position, pick in enumerate(picks):
            name = f"u{position}-{pick}"
            if pick == "poison":
                units.append(poison_unit(name))
            elif pick == "fault":
                source = figure_units(["fig1"])[0].source
                units.append(
                    BatchUnit(name=name, source=source, filename=f"<{name}>")
                )
            else:
                base = figure_units([pick])[0]
                units.append(
                    BatchUnit(
                        name=name,
                        source=base.source,
                        filename=base.filename,
                        interface=base.interface,
                        entry=base.entry,
                    )
                )
        return units, draw(st.booleans())

    class TestEquivalenceProperty:
        @settings(
            max_examples=6,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(corpora())
        def test_serial_equals_parallel(self, corpus):
            """Reports AND post-run cache state match across modes.

            ``keep_going`` is drawn at random, so the ``False`` draws
            exercise early stops with poison/fault units anywhere in
            the corpus -- exactly the window where in-flight workers
            used to leak results into the cache past the failure.
            """
            units, keep_going = corpus
            faults.clear()

            def run(jobs, cache_dir):
                # Every 'fault' unit crashes mid-analysis, inside the
                # worker when parallel: identical structured outcomes
                # either way.
                for unit in units:
                    if "-fault" in unit.name:
                        faults.inject("correlation", unit=unit.name)
                try:
                    return run_batch(
                        units,
                        keep_going=keep_going,
                        jobs=jobs,
                        cache=cache_dir,
                    )
                finally:
                    faults.clear()

            with tempfile.TemporaryDirectory() as tmp:
                serial_dir = os.path.join(tmp, "serial")
                parallel_dir = os.path.join(tmp, "parallel")
                serial = run(1, serial_dir)
                parallel = run(2, parallel_dir)
                assert_equivalent(serial, parallel)
                assert sorted(os.listdir(serial_dir)) == sorted(
                    os.listdir(parallel_dir)
                )
