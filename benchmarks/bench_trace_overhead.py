"""Guard: disabled observation must stay under 3% of the Datalog join bench.

The instrumentation is always compiled in -- every rule evaluation,
stratum, phase, and batch unit calls :func:`repro.obs.observe.span`, and
cache probes, warnings and faults call :func:`repro.obs.observe.event`,
unconditionally -- so the no-op path (no observer installed: one global
read, one ``None`` check, a shared stateless span) is on the solver's
hot path.  This bench bounds its cost on the non-linear transitive
closure from ``bench_datalog_joins``:

* ``t_off``  -- the benchmark's wall time with no observer installed;
* ``spans``, ``events`` -- how many ``span``/``set`` pairs and ``event``
  calls one run executes (counted by observing a run with a counter
  that consumes every name);
* ``c_span``, ``c_event`` -- the per-call cost of each disabled path,
  microbenchmarked over many iterations.

The guard asserts ``(spans * c_span + events * c_event) / t_off < 3%``:
the instrumentation the run executes, priced at the disabled-path rate,
is noise relative to the work it annotates.  Also runnable directly (CI
smoke): ``python bench_trace_overhead.py --smoke``.
"""

from __future__ import annotations

import time

from repro.datalog import Program
from repro.obs import observe
from repro.obs.trace import Tracer

NONLINEAR_RULES = """
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), path(y, z).
"""

MAX_OVERHEAD = 0.03


def _closure(n: int):
    program = Program(backend="set", engine="indexed")
    program.domain("V", n)
    program.relation("edge", ["V", "V"])
    program.relation("path", ["V", "V"])
    program.rules(NONLINEAR_RULES)
    for node in range(n):
        program.fact("edge", node, (node + 1) % n)
    return program.solve()


def _baseline_seconds(n: int, runs: int) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        _closure(n)
        best = min(best, time.perf_counter() - start)
    return best


class _CallCounter(observe.Observer):
    """Counts every span opened and every event emitted."""

    spans = ("*",)
    events = ("*",)

    def __init__(self) -> None:
        self.opened = 0
        self.emitted = 0

    def on_open(self, span) -> None:
        self.opened += 1

    def on_event(self, kind, fields) -> None:
        self.emitted += 1


def _count_calls(n: int):
    """How many ``span`` and ``event`` calls one benchmark run makes."""
    counter = _CallCounter()
    with observe.observing(counter):
        _closure(n)
    return counter.opened, counter.emitted


def _noop_span_seconds(iterations: int = 200_000) -> float:
    """Per-call cost of a disabled ``span`` + one ``set`` call."""
    start = time.perf_counter()
    for _ in range(iterations):
        with observe.span("datalog.rule") as span:
            span.set(tuples=0)
    return (time.perf_counter() - start) / iterations


def _noop_event_seconds(iterations: int = 200_000) -> float:
    """Per-call cost of a disabled ``event`` call."""
    start = time.perf_counter()
    for _ in range(iterations):
        observe.event("cache.hit", unit="u", key="k")
    return (time.perf_counter() - start) / iterations


def _measure(n: int, runs: int):
    t_off = _baseline_seconds(n, runs)
    spans, events = _count_calls(n)
    span_cost = _noop_span_seconds()
    event_cost = _noop_event_seconds()
    overhead = (spans * span_cost + events * event_cost) / t_off
    lines = [
        "disabled-observation overhead on the Datalog join benchmark",
        f"  non-linear transitive closure, n={n}:",
        f"    baseline (no observer):  {t_off * 1000:8.2f}ms",
        f"    spans per run:           {spans:8d}",
        f"    events per run:          {events:8d}",
        f"    no-op span cost:         {span_cost * 1e9:8.1f}ns/call",
        f"    no-op event cost:        {event_cost * 1e9:8.1f}ns/call",
        f"    instrumentation share:   {overhead:8.3%}"
        f" (required: < {MAX_OVERHEAD:.0%})",
    ]
    print("\n".join(lines))
    assert overhead < MAX_OVERHEAD, (
        f"disabled observation costs {overhead:.2%} of the join benchmark"
    )
    stats = {
        "baseline_ms": round(t_off * 1000, 2),
        "spans": spans,
        "events": events,
        "noop_ns": round(span_cost * 1e9, 1),
        "noop_event_ns": round(event_cost * 1e9, 1),
        "overhead": round(overhead, 5),
    }
    return lines, stats


def test_overhead_guard():
    lines, stats = _measure(64, runs=3)
    try:
        from conftest import record_bench, write_result

        write_result("trace_overhead.txt", "\n".join(lines))
        record_bench("trace_overhead", **stats)
    except ImportError:
        pass  # direct invocation from another cwd


def test_smoke():
    """Tiny instance (CI smoke): same bound, plus enabled-path sanity."""
    _measure(16, runs=1)
    # While we are here: tracing *on* actually records the solver spans.
    tracer = Tracer()
    with observe.observing(tracer):
        _closure(8)
    assert tracer.find("datalog.solve")
    assert tracer.find("datalog.stratum")
    assert tracer.find("datalog.rule")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instance plus enabled-path sanity checks",
    )
    args = parser.parse_args()
    if args.smoke:
        test_smoke()
    else:
        test_overhead_guard()
    print("bench_trace_overhead: OK")
