"""CI smoke test: live telemetry, /metrics, and the run-registry gate.

Exercises the whole observability surface end to end through the real
CLI:

* serial and ``--jobs 2`` batch JSON stay equivalent (modulo ``run_id``
  and timing-dependent metric values) with telemetry disabled;
* a ``--batch --jobs 2 --live --metrics-port 0`` run serves a valid
  OpenMetrics ``/metrics`` (with the fleet progress series) and a JSON
  ``/healthz`` while the sweep is still running, writes the final
  ``--metrics-out`` snapshot, and prints plain ``live:`` lines off-TTY;
  the same run has every other surface on (``--trace``, ``--events``,
  ``--mem-profile``): the Chrome trace loads, every events line parses,
  and each unit has one ``phase.end`` record per ``phase.*`` span;
* two clean runs into a registry pass ``regionwiz history
  --fail-on-regression``; an injected synthetic 3x slowdown flips the
  gate to exit 1; a fresh 1-run registry with ``--min-runs 1`` exits 2
  with a clean error (no traceback);
* an already-bound ``--metrics-port`` exits 2 with a clean error;
* the observation-*disabled* path (no observer installed) is priced
  under the same <3% discipline as tracing, recorded in
  ``BENCH_live_overhead.json``.

Usage: ``PYTHONPATH=src python benchmarks/smoke_live_telemetry.py``
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.obs import observe
from repro.obs.registry import RunRegistry, RunRecord
from repro.tool.batch import BatchUnit, run_batch
from repro.tool.cli import main as cli_main
from repro.workloads import figure

MAX_OVERHEAD = 0.03
FIGURES = ("fig1", "fig2a", "fig2b", "fig2c")
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def write_corpus(root: str):
    paths = []
    for name in FIGURES:
        path = os.path.join(root, f"{name}.c")
        with open(path, "w") as handle:
            handle.write(figure(name).full_source)
        paths.append(path)
    return paths


def run_cli(argv, **popen_kwargs):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "repro.tool.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
        **popen_kwargs,
    )


def normalized(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("run_id", None)
    payload.pop("fleet_metrics", None)
    payload["results"] = [
        {k: v for k, v in entry.items() if k != "metrics"}
        for entry in payload["results"]
    ]
    return payload


def check_equivalence(paths, failures):
    serial = run_cli(["--batch", "--json", "--keep-going", *paths])
    parallel = run_cli(
        ["--batch", "--json", "--keep-going", "--jobs", "2", *paths]
    )
    if serial.returncode != parallel.returncode:
        failures.append(
            f"serial exit {serial.returncode} !="
            f" parallel {parallel.returncode}"
        )
        return
    lhs = normalized(json.loads(serial.stdout))
    rhs = normalized(json.loads(parallel.stdout))
    if lhs != rhs:
        failures.append("serial/parallel batch JSON diverged (mod run_id)")
    else:
        print("smoke: serial == --jobs 2 batch JSON (mod run_id)")


def check_live_server(paths, registry, artifacts, failures):
    """One supervised run scraped mid-flight, snapshot checked after."""
    env = dict(os.environ, PYTHONPATH="src")
    metrics_out = os.path.join(artifacts, "metrics.txt")
    trace_out = os.path.join(artifacts, "trace.json")
    events_out = os.path.join(artifacts, "events.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.tool.cli", "--batch", "--json",
         "--keep-going", "--jobs", "2", "--live", "--metrics-port", "0",
         "--metrics-out", metrics_out, "--registry", registry,
         "--trace", trace_out, "--events", events_out, "--mem-profile",
         *paths],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    port = None
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            time.sleep(0.05)
            continue
        match = re.search(r"http://127\.0\.0\.1:(\d+)/metrics", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        failures.append("CLI never announced the metrics port")
        return
    base = f"http://127.0.0.1:{port}"
    body = urllib.request.urlopen(f"{base}/metrics", timeout=10)
    content_type = body.headers.get("Content-Type", "")
    text = body.read().decode()
    health = json.loads(
        urllib.request.urlopen(f"{base}/healthz", timeout=10).read()
    )
    out, err = proc.communicate(timeout=300)
    if proc.returncode not in (0, 1):
        failures.append(f"live run exited {proc.returncode}: {err[-500:]}")
        return
    if "openmetrics-text" not in content_type:
        failures.append(f"bad /metrics content type: {content_type}")
    for needle in (
        "repro_batch_units_done",
        "repro_cache_hits",
        "repro_supervision_respawns",
    ):
        if needle not in text:
            failures.append(f"/metrics is missing {needle}")
    if not text.endswith("# EOF\n"):
        failures.append("/metrics is not EOF-terminated")
    run_id = json.loads(out)["run_id"]
    if health.get("run_id") != run_id:
        failures.append(
            f"/healthz run_id {health.get('run_id')} != {run_id}"
        )
    if "live: run" not in err:
        failures.append("no plain live: lines on non-TTY stderr")
    snapshot = open(metrics_out).read()
    match = re.search(r"repro_batch_units_done (\d+)", snapshot)
    if not match or int(match.group(1)) != len(paths):
        failures.append(
            f"--metrics-out units_done != {len(paths)}:"
            f" {match.group(0) if match else 'missing'}"
        )
    check_all_surfaces(trace_out, events_out, len(paths), failures)
    if not failures:
        print(
            f"smoke: /metrics + /healthz live on port {port},"
            f" final snapshot counts {len(paths)}/{len(paths)} units"
        )


def check_all_surfaces(trace_out, events_out, units, failures):
    """The trace and the event log of one run describe the same phases."""
    try:
        with open(trace_out) as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as error:
        failures.append(f"--trace output does not load: {error}")
        return
    spans = Counter(
        event["args"].get("unit")
        for event in trace["traceEvents"]
        if event["ph"] == "B" and event["name"].startswith("phase.")
    )
    ends: Counter = Counter()
    with open(events_out) as handle:
        for number, line in enumerate(handle, 1):
            try:
                record = json.loads(line)
            except ValueError:
                failures.append(f"--events line {number} does not parse")
                return
            if record["kind"] == "phase.end":
                ends[record["unit"]] += 1
    if len(spans) != units or ends != spans:
        failures.append(
            f"phase.end per unit {dict(ends)} != phase spans {dict(spans)}"
        )
    else:
        print(
            f"smoke: trace + events agree on {sum(spans.values())}"
            f" phase span(s) over {units} unit(s)"
        )


def check_regression_gate(paths, registry, failures):
    """Two clean runs pass the gate; a synthetic 3x slowdown fails it."""
    second = run_cli(["--batch", "--json", "--keep-going",
                      "--registry", registry, *paths])
    if second.returncode not in (0, 1):
        failures.append(f"second registry run exited {second.returncode}")
        return
    code = cli_main(["history", "--registry", registry,
                     "--mode", "batch", "--fail-on-regression"])
    if code != 0:
        failures.append(f"clean history gate exited {code}, wanted 0")
    with RunRegistry(registry) as store:
        runs = store.runs(mode="batch")
        latest = runs[-1]
        walls = sorted(run.wall_s for run in runs)
        median = walls[len(walls) // 2]
        # 3x the median of the recorded runs: what the gate's statistic
        # (latest > 1.5 * median of priors) must flag.
        store.record(RunRecord(
            run_id="synthetic-slowdown",
            timestamp=time.time(),
            version=latest.version,
            mode=latest.mode,
            corpus=latest.corpus,
            units=latest.units,
            succeeded=latest.succeeded,
            exit_code=latest.exit_code,
            wall_s=median * 3.0,
        ))
    code = cli_main(["history", "--registry", registry,
                     "--mode", "batch", "--fail-on-regression"])
    if code != 1:
        failures.append(f"injected 3x slowdown exited {code}, wanted 1")
    else:
        print("smoke: regression gate passes clean, flags 3x slowdown")


def check_clean_errors(paths, failures):
    with tempfile.TemporaryDirectory(prefix="regionwiz-err-") as tmp:
        # A fresh 1-run registry cannot anchor the gate: exit 2, no trace.
        fresh = os.path.join(tmp, "fresh.sqlite")
        first = run_cli(["--batch", "--json", "--keep-going",
                         "--registry", fresh, paths[0]])
        if first.returncode not in (0, 1):
            failures.append(f"fresh registry run exited {first.returncode}")
        gate = run_cli(["history", "--registry", fresh,
                        "--fail-on-regression", "--min-runs", "1"])
        if gate.returncode != 2:
            failures.append(
                f"1-run gate exited {gate.returncode}, wanted 2"
            )
        if "Traceback" in gate.stderr:
            failures.append("1-run gate printed a traceback")
        # A pre-bound port is an operator mistake: exit 2, no traceback.
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            bound = run_cli(["--metrics-port", str(port), paths[0]])
        finally:
            blocker.close()
        if bound.returncode != 2:
            failures.append(
                f"bound --metrics-port exited {bound.returncode}, wanted 2"
            )
        if "Traceback" in bound.stderr:
            failures.append("bound --metrics-port printed a traceback")
        if "--metrics-port" not in bound.stderr:
            failures.append("bound-port error does not name --metrics-port")
    if not failures:
        print("smoke: min-runs and bound-port failures exit 2 cleanly")


class _CallCounter(observe.Observer):
    """Counts every span opened and every event emitted."""

    spans = ("*",)
    events = ("*",)

    def __init__(self):
        self.opened = 0
        self.emitted = 0

    def on_open(self, span):
        self.opened += 1

    def on_event(self, kind, fields):
        self.emitted += 1


def check_disabled_overhead(failures):
    """Price the observation-off path like the tracing-off guard.

    With no observer installed a batch run still calls
    :func:`repro.obs.observe.span` for every unit, rung, phase and
    fixpoint, and :func:`repro.obs.observe.event` for the sweep, cache
    probes, warnings, every unit outcome and the end-of-sweep marker;
    each call is one global read plus a None check.  The guard asserts
    that those calls, priced at the measured no-op rates, are noise
    (<3%) relative to the serial sweep they annotate.
    """
    units = [
        BatchUnit(name=name, source=figure(name).full_source)
        for name in FIGURES
    ]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run_batch(units, keep_going=True)
        best = min(best, time.perf_counter() - start)
    # Count the disabled-path calls an identical run makes by running
    # once more under an observer that consumes every name.
    counter = _CallCounter()
    with observe.observing(counter):
        run_batch(units, keep_going=True)
    spans, events = counter.opened, counter.emitted
    iterations = 200_000
    start = time.perf_counter()
    for _ in range(iterations):
        observe.event("unit.done", index=0, outcome=None)
    event_cost = (time.perf_counter() - start) / iterations
    start = time.perf_counter()
    for _ in range(iterations):
        with observe.span("phase.frontend", unit="u") as span:
            span.set(functions=0)
    span_cost = (time.perf_counter() - start) / iterations
    overhead = (events * event_cost + spans * span_cost) / best
    print(
        f"smoke: observation-off overhead {overhead:.4%}"
        f" ({events} event call(s) @ {event_cost * 1e9:.0f}ns,"
        f" {spans} span(s) @ {span_cost * 1e9:.0f}ns"
        f" over {best * 1000:.1f}ms; required < {MAX_OVERHEAD:.0%})"
    )
    stats = {
        "baseline_ms": round(best * 1000, 2),
        "events": events,
        "spans": spans,
        "noop_ns": round(event_cost * 1e9, 1),
        "noop_span_ns": round(span_cost * 1e9, 1),
        "overhead": round(overhead, 5),
    }
    try:
        from conftest import record_bench

        record_bench("live_overhead", **stats)
    except ImportError:
        pass
    if overhead >= MAX_OVERHEAD:
        failures.append(
            f"disabled observation costs {overhead:.2%} of a serial sweep"
        )


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help=(
            "keep the registry DB, final metrics snapshot, Chrome trace"
            " and events log in DIR (CI uploads them); default: a"
            " throwaway tempdir"
        ),
    )
    args = parser.parse_args()
    failures: list = []
    with tempfile.TemporaryDirectory(prefix="regionwiz-tele-") as tmp:
        artifacts = args.artifacts or tmp
        os.makedirs(artifacts, exist_ok=True)
        paths = write_corpus(tmp)
        registry = os.path.join(artifacts, "runs.sqlite")
        check_equivalence(paths, failures)
        check_live_server(paths, registry, artifacts, failures)
        check_regression_gate(paths, registry, failures)
        check_clean_errors(paths, failures)
    check_disabled_overhead(failures)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("smoke: live telemetry OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
