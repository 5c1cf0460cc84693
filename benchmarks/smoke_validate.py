"""CI smoke test: dynamic validation round trip (``--validate``).

Asserts the trace/replay/correlate loop end to end:

* the broken Figure-1 example's single HIGH warning labels
  ``confirmed`` through the CLI (``--validate --json``), and the clean
  variant reports zero confirmed warnings;
* a batch sweep with ``--validate`` produces **identical** validation
  payloads serial and parallel (``jobs=2``), and the fleet summary's
  per-bucket precision matches;
* the ``--trace-out`` artifact round-trips: ``load_trace`` on the
  written JSONL, replayed through :func:`repro.obs.replay.replay_trace`,
  is consistent with the runtime fault log and reproduces the verdict;
* the **disabled** paths stay cheap: the ``if self.tracer is not None``
  guards the runtime executes on an untraced run, priced at the
  microbenched per-check cost, must stay under 3% of that run's wall
  time; and the lifecycle events a traced run publishes on the
  observation path, priced at the disabled ``observe.event`` cost, must
  stay under 3% of the traced run (same method as
  ``bench_trace_overhead``).

Usage: ``PYTHONPATH=src python benchmarks/smoke_validate.py``
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

from repro.interfaces import APR_HEADER, apr_pools_interface
from repro.lang import analyze, parse
from repro.obs import observe
from repro.obs.replay import replay_trace
from repro.runtime import RegionTracer, load_trace, run_program
from repro.tool.batch import run_batch
from repro.tool.cli import main as cli_main
from repro.workloads import figure_units

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
BROKEN = os.path.join(EXAMPLES, "fig1_connection_broken.rc")
CLEAN = os.path.join(EXAMPLES, "fig1_connection.rc")

MAX_DISABLED_OVERHEAD = 0.03

#: The staged-server workload: enough allocation/store/delete traffic
#: that the guard count is realistic, still fast enough for CI.
SERVER = APR_HEADER + """
struct request { char *path; int status; };
int serve(apr_pool_t *parent, int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        apr_pool_t *req_pool;
        apr_pool_create(&req_pool, parent);
        struct request *req = apr_palloc(req_pool, sizeof(struct request));
        req->status = 200;
        total += req->status;
        apr_pool_destroy(req_pool);
    }
    return total;
}
int main(void) {
    apr_pool_t *pool;
    apr_pool_create(&pool, NULL);
    int got = serve(pool, 100);
    apr_pool_destroy(pool);
    return got;
}
"""


def run_cli_json(argv):
    """Invoke the CLI capturing stdout; returns (exit_code, payload)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    return code, json.loads(stdout.getvalue())


def check_cli_round_trip(failures):
    code, payload = run_cli_json([BROKEN, "--validate", "--json"])
    validation = payload.get("validation") or {}
    if code != 1:
        failures.append(f"broken example exited {code}, expected 1")
    if validation.get("labels") != ["confirmed"]:
        failures.append(
            f"broken example labels {validation.get('labels')},"
            " expected ['confirmed']"
        )
    if validation.get("replay_consistent") is not True:
        failures.append("broken example: replay disagrees with runtime")
    high = (validation.get("buckets") or {}).get("high") or {}
    if high.get("precision") != 1.0:
        failures.append(
            f"broken example high-bucket precision {high.get('precision')},"
            " expected 1.0"
        )
    warnings = payload.get("warnings") or []
    if not warnings or warnings[0].get("validation") != "confirmed":
        failures.append("per-warning JSON entry missing confirmed label")

    code, payload = run_cli_json([CLEAN, "--validate", "--json"])
    validation = payload.get("validation") or {}
    if code != 0:
        failures.append(f"clean example exited {code}, expected 0")
    if validation.get("confirmed", -1) != 0:
        failures.append(
            f"clean example confirmed {validation.get('confirmed')},"
            " expected 0"
        )
    print(
        "smoke: CLI round trip -- broken confirms its HIGH warning,"
        " clean confirms nothing"
    )


def check_batch_equivalence(failures):
    units = figure_units(["fig1", "fig2c", "fig2d", "fig5", "fig9"])
    serial = run_batch(units, keep_going=True, validate=True)
    parallel = run_batch(units, keep_going=True, validate=True, jobs=2)
    for before, after in zip(serial.outcomes, parallel.outcomes):
        if before.validation != after.validation:
            failures.append(
                f"{before.unit}: serial/parallel validation payloads differ"
            )
    if serial.validation_summary() != parallel.validation_summary():
        failures.append("serial/parallel validation summaries differ")
    summary = serial.validation_summary()
    if summary is None or summary["confirmed"] < 1:
        failures.append(f"batch summary has no confirmed warning: {summary}")
    print(
        f"smoke: batch serial == parallel over {len(units)} unit(s);"
        f" fleet summary {summary['confirmed']} confirmed,"
        f" buckets {sorted(summary['buckets'])}"
    )


def check_trace_artifact(failures):
    with tempfile.TemporaryDirectory(prefix="regionwiz-traces-") as root:
        code, payload = run_cli_json(
            [BROKEN, "--validate", "--trace-out", root, "--json"]
        )
        traces = sorted(os.listdir(root))
        if len(traces) != 1 or not traces[0].endswith(".trace.jsonl"):
            failures.append(f"--trace-out wrote {traces}, expected one trace")
            return
        events = load_trace(os.path.join(root, traces[0]))
        replay = replay_trace(events)
        if not replay.consistent:
            failures.append("replayed trace artifact disagrees with runtime")
        kinds = {fault["kind"] for fault in replay.faults}
        if "dangling-created" not in kinds:
            failures.append(
                f"replayed artifact faults {sorted(kinds)},"
                " expected a dangling-created"
            )
        recorded = (payload.get("validation") or {}).get("events")
        if recorded != len(events):
            failures.append(
                f"trace artifact carries {len(events)} event(s),"
                f" CLI reported {recorded}"
            )
    print(
        f"smoke: --trace-out artifact replays {len(events)} event(s)"
        " consistently"
    )


def _guard_cost_seconds(iterations: int = 200_000) -> float:
    """Per-check cost of the runtime's disabled-tracer guard."""

    class Carrier:
        tracer = None

    carrier = Carrier()
    count = 0
    start = time.perf_counter()
    for _ in range(iterations):
        if carrier.tracer is not None:  # the exact guard shape
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 0
    return elapsed / iterations


def _event_cost_seconds(iterations: int = 200_000) -> float:
    """Per-call cost of a disabled ``observe.event`` call."""
    start = time.perf_counter()
    for _ in range(iterations):
        observe.event("region.create", region=1, name="r")
    return (time.perf_counter() - start) / iterations


class _PublishedCounter(observe.Observer):
    events = ("*",)

    def __init__(self):
        self.published = 0

    def on_event(self, kind, fields):
        self.published += 1


def check_disabled_overhead(failures):
    sema = analyze(parse(SERVER))

    # Count guard executions by tracing one run: every emitted event is
    # one guard that fired, so the event count bounds the guard count an
    # untraced run executes on the same path.  The same run counts the
    # lifecycle events the tracer publishes on the observation path.
    tracer = RegionTracer()
    counter = _PublishedCounter()
    with observe.observing(counter):
        run_program(sema, apr_pools_interface(), tracer=tracer)
    guards = len(tracer.records)

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = run_program(sema, apr_pools_interface())
        best = min(best, time.perf_counter() - start)
    assert result.return_value == 100 * 200

    per_check = _guard_cost_seconds()
    overhead = (guards * per_check) / best
    print(
        f"smoke: disabled-tracing guard share {overhead:.3%}"
        f" ({guards} guard(s) x {per_check * 1e9:.1f}ns"
        f" / {best * 1000:.2f}ms run)"
    )
    if overhead >= MAX_DISABLED_OVERHEAD:
        failures.append(
            f"disabled tracing costs {overhead:.2%} of an untraced run"
            f" (gate: < {MAX_DISABLED_OVERHEAD:.0%})"
        )

    traced = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run_program(sema, apr_pools_interface(), tracer=RegionTracer())
        traced = min(traced, time.perf_counter() - start)
    per_event = _event_cost_seconds()
    share = (counter.published * per_event) / traced
    print(
        f"smoke: observation-off share of a traced run {share:.3%}"
        f" ({counter.published} event(s) x {per_event * 1e9:.1f}ns"
        f" / {traced * 1000:.2f}ms run)"
    )
    if share >= MAX_DISABLED_OVERHEAD:
        failures.append(
            f"disabled observation costs {share:.2%} of a traced run"
            f" (gate: < {MAX_DISABLED_OVERHEAD:.0%})"
        )


def record(failures):
    try:
        from conftest import record_bench

        record_bench(
            "validate_smoke",
            failures=len(failures),
            status="ok" if not failures else "failed",
        )
    except ImportError:
        pass  # direct invocation from another cwd


def main() -> int:
    failures = []
    check_cli_round_trip(failures)
    check_batch_equivalence(failures)
    check_trace_artifact(failures)
    check_disabled_overhead(failures)
    record(failures)
    if failures:
        print("smoke_validate: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("smoke_validate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
