"""Command-line interface: ``regionwiz file.c [options]``.

Exit-code contract (single-file mode; ``--batch`` aggregates the same
codes over all units, most severe first under 3 > 4 > 2 > 1 > 0):

====  =========================================================
code  meaning
====  =========================================================
0     analysis completed, no warnings
1     analysis completed with warnings
2     input error (unreadable file, parse/type diagnostics)
3     internal error (a bug in RegionWiz -- traceback printed)
4     resource budget exhausted, even after degradation if
      ``--degrade`` was given
130   batch sweep interrupted (SIGINT/SIGTERM): partial results
      were still written; resume with ``--journal``/``--resume``
====  =========================================================

In batch mode two supervisor-recorded outcomes fold into the same
codes: ``crashed`` (the worker *process* died repeatedly on one unit;
counts as 3) and ``timeout`` (the unit blew the ``--hard-timeout``
wall-clock deadline; counts as 4).

With ``--fail-on-new`` (requires ``--baseline``), codes 0/1 are instead
decided by the baseline diff: exit 1 only when *new* warnings appeared,
so a CI gate stays green across known findings.  Hard failures (2/3/4)
pass through unchanged.

Multiple source files are concatenated into one translation unit; each
chunk is prefixed with a ``#line 1 "<path>"`` marker so diagnostics and
warning locations report the original file and line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.interfaces import apr_pools_interface, rc_regions_interface
from repro.lang.errors import CompileError
from repro.obs import observe
from repro.obs.events import EventLog
from repro.obs.export import MetricsServer, write_metrics_file
from repro.obs.history import (
    WarningDiff,
    diff_entries,
    diff_outcomes,
    entries_from_outcomes,
    entries_from_report,
    load_baseline,
    save_baseline,
)
from repro.obs.html import write_html_report
from repro.obs.live import LiveView, TelemetryBus, new_run_id
from repro.obs.metrics import MemProfile, format_metrics
from repro.obs.registry import RunRecord, RunRegistry
from repro.obs.trace import Tracer
from repro.pointer import AnalysisOptions
from repro.tool.batch import BatchUnit, run_batch
from repro.tool.regionwiz import RegionWizReport, run_regionwiz
from repro.tool.report import format_report, format_solver_stats
from repro.tool.validate import trace_out_path
from repro.util.budget import ResourceBudget
from repro.util.errors import BudgetExceeded, InputError

#: Provenance chains embedded in the HTML report are capped: --explain
#: recomputes the full Datalog derivation per warning, so unbounded
#: expansion would dominate large reports.
_HTML_EXPLAIN_CAP = 10

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionwiz",
        description=(
            "Find region lifetime inconsistencies in C programs using"
            " region-based memory management (APR pools or RC regions)."
        ),
    )
    parser.add_argument("files", nargs="+", help="C source files (concatenated)")
    parser.add_argument(
        "--interface",
        choices=["apr", "rc"],
        default=None,
        help=(
            "region interface the program uses (default: rc when every"
            " input file ends in .rc, apr otherwise)"
        ),
    )
    parser.add_argument(
        "--entry", default="main", help="program entry function (default: main)"
    )
    parser.add_argument(
        "--open",
        action="store_true",
        dest="open_program",
        help=(
            "library mode: synthesize a harness calling every exported"
            " function with unconstrained arguments (no main required)"
        ),
    )
    parser.add_argument(
        "--context-insensitive",
        action="store_true",
        help="disable context cloning (Andersen baseline)",
    )
    parser.add_argument(
        "--no-heap-cloning",
        action="store_true",
        help="disable per-context heap specialization",
    )
    parser.add_argument(
        "--field-insensitive",
        action="store_true",
        help="collapse all field offsets to zero",
    )
    parser.add_argument(
        "--refine",
        action="store_true",
        help=(
            "apply the Section 4.3 def-use refinement (suppresses"
            " same-region-variable false positives; IPSSA-style, unsound)"
        ),
    )
    parser.add_argument(
        "--sound-offsets",
        action="store_true",
        help="track unknown/dynamic offsets instead of ignoring them",
    )
    parser.add_argument(
        "--max-contexts",
        type=int,
        default=1 << 16,
        help="clamp per-function context counts (default: 65536)",
    )
    budgets = parser.add_argument_group(
        "resource budgets",
        "limits enforced at analysis checkpoints; exceeding one aborts"
        " with exit code 4 (or degrades precision under --degrade)",
    )
    budgets.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole analysis",
    )
    budgets.add_argument(
        "--max-derived",
        type=int,
        default=None,
        metavar="N",
        help="cap on derived points-to/Datalog tuples",
    )
    budgets.add_argument(
        "--max-objects",
        type=int,
        default=None,
        metavar="N",
        help="cap on abstract objects + regions",
    )
    budgets.add_argument(
        "--max-total-contexts",
        type=int,
        default=None,
        metavar="N",
        help=(
            "hard cap on total numbered contexts (unlike --max-contexts,"
            " which silently clamps per function)"
        ),
    )
    budgets.add_argument(
        "--degrade",
        action="store_true",
        help=(
            "on budget exhaustion, retry at lower precision"
            " (heap cloning off, then context-insensitive, then"
            " field-insensitive) instead of failing"
        ),
    )
    batch = parser.add_argument_group("batch mode")
    batch.add_argument(
        "--batch",
        action="store_true",
        help=(
            "analyze each file as an independent unit with fault"
            " isolation, printing a per-unit summary"
        ),
    )
    batch.add_argument(
        "--keep-going",
        action="store_true",
        help="in batch mode, continue past failed units",
    )
    batch.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="in batch mode, retry units failing with internal errors",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "in batch mode, analyze units on N worker processes"
            " (outcomes stay in submission order; default: 1, serial)"
        ),
    )
    batch.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="N",
        dest="chunk_size",
        help=(
            "in parallel batch mode, dispatch N units per worker task"
            " (default: sized for ~4 chunks per worker)"
        ),
    )
    batch.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        dest="cache_dir",
        help=(
            "in batch mode, reuse/store per-unit results in a persistent"
            " content-addressed cache under DIR (keyed by source text,"
            " interface, entry, options, and tool version)"
        ),
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even if --cache was given",
    )
    batch.add_argument(
        "--incremental",
        action="store_true",
        help=(
            "keep per-unit incremental analysis state in the --cache"
            " directory: warm re-runs diff function-level manifests,"
            " serve unchanged units, and re-solve only the fact delta"
            " for edited ones (also works in single-file mode)"
        ),
    )
    batch.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "in parallel batch mode, SIGKILL any unit still running"
            " after SECONDS of wall clock and record a timeout outcome"
            " (exit 4); default: budget wall clock x grace factor, or"
            " no hard limit without a wall-clock budget"
        ),
    )
    batch.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help=(
            "in batch mode, append completed unit outcomes to a JSONL"
            " run journal at FILE (enables --resume after a crashed or"
            " interrupted sweep)"
        ),
    )
    batch.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay outcomes already completed in the --journal file"
            " (matched by unit content + analysis configuration) and"
            " re-analyze only the rest"
        ),
    )
    validation = parser.add_argument_group(
        "dynamic validation",
        "execute the program under the region interpreter with event"
        " tracing, replay the trace, and label every warning"
        " confirmed/unobserved/uncovered against observed faults",
    )
    validation.add_argument(
        "--validate",
        action="store_true",
        help=(
            "run the entry point under the traced interpreter and"
            " annotate each warning with a dynamic verdict (in batch"
            " mode, per unit with fault isolation)"
        ),
    )
    validation.add_argument(
        "--validate-steps",
        type=int,
        default=200_000,
        metavar="N",
        dest="validate_steps",
        help=(
            "interpreter step budget for --validate runs (default:"
            " 200000; exceeding it degrades labels, never the analysis)"
        ),
    )
    validation.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        dest="trace_out",
        help=(
            "with --validate, write each unit's region event trace as"
            " <unit>.trace.jsonl under DIR (versioned JSONL, replayable"
            " with repro.obs.replay)"
        ),
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="show low-ranked warnings too (default: high-ranked only)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="show store locations"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit a machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        dest="solver_stats",
        help=(
            "collect and print Datalog solver statistics to stderr"
            " (fixpoint rounds, tuples derived, index hits, per-stratum"
            " timings); always embedded in --json reports"
        ),
    )
    obs = parser.add_argument_group(
        "observability",
        "tracing, metrics, and warning provenance; diagnostic output"
        " goes to stderr so stdout stays the warning report",
    )
    obs.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record a span trace of the whole run and write Chrome"
            " trace_event JSON to PATH (load in chrome://tracing or"
            " Perfetto)"
        ),
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="print the span tree as an indented text profile on stderr",
    )
    obs.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "print the unified metrics registry on stderr (per-unit"
            " table plus fleet percentiles under --batch)"
        ),
    )
    obs.add_argument(
        "--explain",
        type=int,
        default=None,
        metavar="N",
        help=(
            "print the Datalog derivation chain behind warning N"
            " (1-based, report order) instead of the warning listing"
        ),
    )
    obs.add_argument(
        "--query",
        metavar="FILE:LINE",
        default=None,
        help=(
            "answer one question instead of the full analysis: restrict"
            " the consistency check to the pointer accesses at FILE:LINE"
            " via the demand-transformed (magic-sets) Datalog program"
            " and report only warnings those accesses participate in"
        ),
    )
    obs.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help=(
            "append a structured JSONL event log to PATH: phase"
            " boundaries, ladder degradations, budget trips, cache"
            " probes, batch unit outcomes, and warning emissions"
            " (workers share the parent's file and timeline)"
        ),
    )
    obs.add_argument(
        "--html-report",
        metavar="PATH",
        default=None,
        dest="html_report",
        help=(
            "write a single self-contained HTML report (inline CSS/JS,"
            " no network fetches): warning table with fingerprints and"
            " diff status, metrics, profile tree, batch unit grid"
        ),
    )
    history = parser.add_argument_group(
        "warning history",
        "content-stable fingerprints make warnings diffable across"
        " runs; baselines are JSONL files of (unit, fingerprint) records",
    )
    history.add_argument(
        "--save-baseline",
        metavar="PATH",
        default=None,
        dest="save_baseline",
        help="write this run's warnings as a baseline JSONL file",
    )
    history.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "diff this run against a saved baseline, classifying each"
            " warning as new/persisting/fixed in the report"
        ),
    )
    history.add_argument(
        "--fail-on-new",
        action="store_true",
        dest="fail_on_new",
        help=(
            "CI gate: exit 1 only when warnings NOT in --baseline"
            " appear (known warnings exit 0; hard failures unchanged)"
        ),
    )
    live = parser.add_argument_group(
        "live telemetry and run history",
        "operational observability: a live fleet status line, an"
        " OpenMetrics surface, and a persistent run registry; inspect"
        " past runs with the `regionwiz history` subcommand",
    )
    live.add_argument(
        "--live",
        action="store_true",
        help=(
            "render a rate-limited fleet status line on stderr during"
            " --batch: units done, throughput, cache hit rate, ETA"
            " (bytes-weighted), respawn/watchdog counts; plain periodic"
            " lines when stderr is not a TTY"
        ),
    )
    live.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        dest="metrics_out",
        help=(
            "write a final OpenMetrics text snapshot of the run"
            " (fleet progress plus analysis metrics) to FILE"
        ),
    )
    live.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        dest="metrics_port",
        help=(
            "serve /metrics (OpenMetrics) and /healthz on"
            " 127.0.0.1:PORT for the duration of the run; PORT 0 binds"
            " an ephemeral port, announced on stderr before analysis"
            " starts"
        ),
    )
    live.add_argument(
        "--registry",
        metavar="FILE",
        default=None,
        help=(
            "append this run (outcome counts, metrics snapshot,"
            " wall/CPU time) to a persistent sqlite run registry;"
            " query it later with `regionwiz history --registry FILE`"
        ),
    )
    live.add_argument(
        "--mem-profile",
        action="store_true",
        dest="mem_profile",
        help=(
            "record per-phase peak heap usage via tracemalloc as"
            " pipeline.<phase>.peak_mem_bytes gauges (slows analysis;"
            " off by default)"
        ),
    )
    return parser


def _read_sources(paths: List[str]) -> List[str]:
    """Read every file, raising :class:`InputError` on the first failure."""
    chunks = []
    for path in paths:
        try:
            with open(path) as handle:
                chunks.append(handle.read())
        except OSError as error:
            raise InputError(f"cannot read {path}: {error}") from error
    return chunks


def _concatenate(paths: List[str], chunks: List[str]) -> str:
    """Join chunks with ``#line`` markers so locations stay per-file."""
    parts = []
    for path, chunk in zip(paths, chunks):
        if not chunk.endswith("\n"):
            chunk += "\n"
        parts.append(f'#line 1 "{path}"\n{chunk}')
    return "".join(parts)


def _budget_from_args(args: argparse.Namespace) -> Optional[ResourceBudget]:
    if (
        args.timeout is None
        and args.max_derived is None
        and args.max_objects is None
        and args.max_total_contexts is None
    ):
        return None
    return ResourceBudget(
        wall_clock_seconds=args.timeout,
        max_derived_tuples=args.max_derived,
        max_contexts=args.max_total_contexts,
        max_objects=args.max_objects,
    )


def _detect_interface(paths: List[str], explicit: Optional[str]) -> str:
    """Explicit ``--interface`` wins; otherwise ``.rc`` files mean rc."""
    if explicit is not None:
        return explicit
    if paths and all(path.endswith(".rc") for path in paths):
        return "rc"
    return "apr"


def _run_batch_mode(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print("regionwiz: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.resume and not args.journal:
        print(
            "regionwiz: --resume requires --journal FILE", file=sys.stderr
        )
        return 2
    chunks = _read_sources(args.files)
    units = [
        BatchUnit(
            name=path,
            source=chunk,
            filename=path,
            # None lets BatchUnit auto-detect rc from a .rc filename,
            # matching the single-run CLI's per-file detection.
            interface=args.interface,
            entry=args.entry,
        )
        for path, chunk in zip(args.files, chunks)
    ]
    options = _options_from_args(args)
    cache = None if args.no_cache else args.cache_dir
    result = run_batch(
        units,
        options=options,
        budget=_budget_from_args(args),
        degrade=args.degrade,
        keep_going=args.keep_going,
        max_retries=args.max_retries,
        refine=args.refine,
        solver_stats=args.solver_stats,
        jobs=args.jobs,
        cache=cache,
        chunk_size=args.chunk_size,
        hard_timeout=args.hard_timeout,
        journal=args.journal,
        resume=args.resume,
        validate=args.validate,
        validate_steps=args.validate_steps,
        trace_dir=args.trace_out,
        incremental=args.incremental,
        run_id=getattr(args, "run_id", None),
    )
    fleet = result.fleet_metrics()
    batch_metrics: Dict[str, Any] = dict(result.batch_metrics().to_dict())
    for name, stats in sorted(fleet.items()):
        mean = stats.get("mean")
        if isinstance(mean, (int, float)):
            batch_metrics[f"{name}.mean"] = mean
    args._telemetry_summary = {
        "mode": "batch",
        "units": len(result.outcomes),
        "succeeded": len(result.succeeded),
        "failed": len(result.failed),
        "skipped": len(result.skipped),
        "warnings": sum(o.warnings for o in result.succeeded),
        "high": sum(o.high for o in result.succeeded),
        "metrics": batch_metrics,
    }
    merged: Optional[WarningDiff] = None
    if args.baseline:
        baseline = load_baseline(args.baseline)
        result.per_unit_diff = diff_outcomes(result.outcomes, baseline)
        merged = result.merged_diff()
    if args.save_baseline:
        save_baseline(
            args.save_baseline, entries_from_outcomes(result.outcomes)
        )
    if args.json_output:
        print(result.to_json())
    else:
        print(result.summary())
    if args.metrics:
        print(result.metrics_summary(), file=sys.stderr)
    if args.html_report:
        write_html_report(
            args.html_report,
            title="RegionWiz batch report",
            batch=result,
            diff=merged,
            per_unit_diff=result.per_unit_diff,
            profile=_profile_tree(),
        )
    if result.interrupted:
        # Partial results were printed above; the conventional
        # 128+SIGINT code tells callers the sweep did not finish.
        return 130
    code = result.exit_code()
    if args.fail_on_new and code in (0, 1):
        assert merged is not None  # --fail-on-new requires --baseline
        return 1 if merged.has_new else 0
    return code


def _incremental_summary(session) -> str:
    """One stderr line describing what the incremental session did."""
    mode = session.mode or "cold"
    parts = [f"incremental: {mode}"]
    if session.diff is not None and not session.diff.clean:
        parts.append(f"functions changed: {session.diff.functions_touched}")
        if session.diff.preamble_changed:
            parts.append("preamble changed")
    if session.fallback_reason is not None:
        parts.append(f"fallback: {session.fallback_reason}")
    stats = session.update_stats
    if stats is not None and stats.mode == "delta":
        parts.append(
            f"facts +{stats.facts_asserted}/-{stats.facts_retracted}"
        )
        parts.append(
            f"strata skipped {stats.strata_skipped}/{stats.strata_total}"
        )
    return "  ".join(parts)


def _profile_tree() -> Optional[str]:
    """The active tracer's span tree, for the HTML report's profile pane."""
    tracer = observe.active(Tracer)
    if tracer is None or not tracer.roots:
        return None
    return tracer.format_tree()


def _html_explanations(report: RegionWizReport) -> Optional[Dict[str, str]]:
    """fingerprint -> derivation chain for the first few warnings."""
    from repro.obs.provenance import explain_warning

    explanations: Dict[str, str] = {}
    for number, warning in enumerate(report.warnings[:_HTML_EXPLAIN_CAP], 1):
        try:
            explanations[warning.fingerprint] = explain_warning(
                report, number
            ).format()
        except Exception:  # provenance is best-effort decoration here
            continue
    return explanations or None


def _options_from_args(args: argparse.Namespace) -> AnalysisOptions:
    return AnalysisOptions(
        context_sensitive=not args.context_insensitive,
        heap_cloning=not args.no_heap_cloning,
        field_sensitive=not args.field_insensitive,
        track_unknown_offsets=args.sound_offsets,
        max_contexts=args.max_contexts,
    )


def _corpus_label(paths: List[str]) -> str:
    """Stable short label identifying the input set for the registry."""
    names = sorted({os.path.basename(path) for path in paths})
    if len(names) > 8:
        names = names[:8] + [f"+{len(names) - 8}"]
    return ",".join(names)


def _finish_telemetry(
    args: argparse.Namespace,
    code: int,
    bus: Optional[TelemetryBus],
    registry_store: Optional[RunRegistry],
    wall_start: float,
    cpu_start: float,
) -> int:
    """Record the run in the registry and write the final metrics file.

    Runs after ``_run`` with the exit code in hand so the registry row
    captures the real outcome; a failed ``--metrics-out`` write only
    overrides soft exit codes (0/1), never a harder failure.
    """
    summary = getattr(args, "_telemetry_summary", None) or {}
    metrics: Dict[str, Any] = {}
    if bus is not None:
        metrics.update(bus.snapshot())
    metrics.update(summary.get("metrics") or {})
    if registry_store is not None:
        record = RunRecord(
            run_id=args.run_id,
            timestamp=time.time(),
            version=__version__,
            mode=summary.get("mode")
            or ("batch" if args.batch else "single"),
            corpus=_corpus_label(args.files),
            units=int(summary.get("units", 0)),
            succeeded=int(summary.get("succeeded", 0)),
            failed=int(summary.get("failed", 0)),
            skipped=int(summary.get("skipped", 0)),
            warnings=int(summary.get("warnings", 0)),
            high=int(summary.get("high", 0)),
            exit_code=code,
            wall_s=round(time.time() - wall_start, 6),
            cpu_s=round(sum(os.times()[:4]) - cpu_start, 6),
            metrics=metrics,
        )
        try:
            registry_store.record(record)
        except InputError as error:
            print(f"regionwiz: {error}", file=sys.stderr)
            if code in (0, 1):
                return 2
    if args.metrics_out:
        try:
            write_metrics_file(args.metrics_out, metrics)
        except OSError as error:
            print(
                f"regionwiz: cannot write {args.metrics_out}: {error}",
                file=sys.stderr,
            )
            if code in (0, 1):
                return 2
    return code


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = list(sys.argv[1:])
    if argv and argv[0] == "history":
        # Subcommand dispatch happens before argparse: the main parser
        # has a required FILE positional that `history` does not take.
        from repro.obs.registry import run_history_command

        return run_history_command(list(argv[1:]))
    args = build_parser().parse_args(argv)
    args.run_id = new_run_id()
    args._telemetry_summary = None
    wall_start = time.time()
    cpu_start = sum(os.times()[:4])
    registry_store: Optional[RunRegistry] = None
    if args.registry:
        try:
            registry_store = RunRegistry(args.registry)
        except InputError as error:
            print(f"regionwiz: {error}", file=sys.stderr)
            return 2
    bus: Optional[TelemetryBus] = None
    view: Optional[LiveView] = None
    server: Optional[MetricsServer] = None
    tracer: Optional[Tracer] = None
    event_log: Optional[EventLog] = None
    observers: List[observe.Observer] = []
    try:
        if args.live or args.metrics_port is not None or args.metrics_out:
            bus = TelemetryBus(run_id=args.run_id, jobs=args.jobs)
            observers.append(bus)
            if args.live:
                if args.batch:
                    view = LiveView(bus)
                    bus.attach(view)
                else:
                    print(
                        "regionwiz: --live shows fleet progress and does"
                        " nothing outside --batch",
                        file=sys.stderr,
                    )
        if args.metrics_port is not None:
            assert bus is not None
            try:
                server = MetricsServer(
                    args.metrics_port, bus.snapshot, run_id=args.run_id
                )
                server.start()
            except InputError as error:
                print(f"regionwiz: {error}", file=sys.stderr)
                return 2
            # Announced before analysis starts so a scraper can attach
            # immediately (PORT 0 binds an ephemeral port).
            print(
                f"regionwiz: serving http://127.0.0.1:{server.port}"
                "/metrics (and /healthz)",
                file=sys.stderr,
            )
        # --html-report embeds the profile tree, so it wants a tracer too.
        if args.trace or args.profile or args.html_report:
            # The files the tracer feeds are claimed now, like the event
            # log's, so a bad path fails before analysis starts.
            for path in (args.trace, args.html_report):
                if path and not _claim_output(path):
                    return 2
            tracer = Tracer(run_id=args.run_id)
            observers.append(tracer)
        if args.events:
            try:
                event_log = EventLog(args.events, run_id=args.run_id)
            except OSError as error:
                print(
                    f"regionwiz: cannot write event log"
                    f" {args.events}: {error}",
                    file=sys.stderr,
                )
                return 2
            observers.append(event_log)
        if args.mem_profile:
            observers.append(MemProfile())
        with observe.observing(*observers):
            code = _run(args)
        return _finish_telemetry(
            args, code, bus, registry_store, wall_start, cpu_start
        )
    finally:
        if event_log is not None:
            event_log.close()
        if tracer is not None:
            if args.trace:
                tracer.write_chrome_trace(args.trace)
            if args.profile:
                print(tracer.format_tree(), file=sys.stderr)
        if view is not None:
            view.close()
        if server is not None:
            server.close()
        if registry_store is not None:
            registry_store.close()


def _claim_output(path: str, directory: bool = False) -> bool:
    """Create an output file (or directory) before analysis starts.

    A path that cannot be written is reported on one line and the
    caller exits 2, instead of the run failing after the analysis with
    a traceback.
    """
    try:
        if directory:
            os.makedirs(path, exist_ok=True)
        else:
            open(path, "a").close()
    except OSError as error:
        print(f"regionwiz: cannot write {path}: {error}", file=sys.stderr)
        return False
    return True


def _parse_query(spec: str) -> "tuple[str, int]":
    """Split a ``--query FILE:LINE`` spec (raises :class:`InputError`)."""
    path, sep, line_text = spec.rpartition(":")
    if not sep or not path:
        raise InputError(
            f"--query expects FILE:LINE, got {spec!r}"
        )
    try:
        line = int(line_text)
    except ValueError:
        raise InputError(
            f"--query expects an integer line number, got {line_text!r}"
        ) from None
    if line < 1:
        raise InputError(f"--query line must be >= 1, got {line}")
    return path, line


def _run(args: argparse.Namespace) -> int:
    if args.fail_on_new and not args.baseline:
        print(
            "regionwiz: --fail-on-new requires --baseline", file=sys.stderr
        )
        return 2
    if args.trace_out and not args.validate:
        print(
            "regionwiz: --trace-out requires --validate", file=sys.stderr
        )
        return 2
    if args.incremental and (args.no_cache or not args.cache_dir):
        print(
            "regionwiz: --incremental requires --cache DIR",
            file=sys.stderr,
        )
        return 2
    if args.query is not None:
        conflict = (
            "--batch"
            if args.batch
            else "--open"
            if args.open_program
            else "--incremental"
            if args.incremental
            else None
        )
        if conflict is not None:
            print(
                f"regionwiz: --query cannot be combined with {conflict}",
                file=sys.stderr,
            )
            return 2
    cache_dir = None if args.no_cache else args.cache_dir
    outputs = [
        (args.trace_out, True),
        (args.journal if args.batch else None, False),
        (cache_dir if args.batch or args.incremental else None, True),
    ]
    for path, directory in outputs:
        if path and not _claim_output(path, directory):
            return 2
    try:
        if args.batch:
            return _run_batch_mode(args)
        chunks = _read_sources(args.files)
        source = _concatenate(args.files, chunks)
        interface = (
            rc_regions_interface()
            if _detect_interface(args.files, args.interface) == "rc"
            else apr_pools_interface()
        )
        options = _options_from_args(args)
        budget = _budget_from_args(args)
        if args.open_program:
            from repro.tool.open_analysis import analyze_open_program

            report = analyze_open_program(
                source,
                interface,
                filename=args.files[0],
                options=options,
                name=args.files[0],
                solver_stats=args.solver_stats,
                budget=budget,
                degrade=args.degrade,
            )
        else:
            query = (
                _parse_query(args.query) if args.query is not None else None
            )
            session = None
            if args.incremental:
                from repro.tool.cache import AnalysisCache
                from repro.tool.incremental import IncrementalUnitSession

                cache = AnalysisCache(args.cache_dir)
                identity = AnalysisCache.identity_key(
                    name=args.files[0],
                    filename=args.files[0],
                    interface=_detect_interface(
                        args.files, args.interface
                    ),
                    entry=args.entry,
                    options=options,
                    budget=budget,
                    degrade=args.degrade,
                    refine=args.refine,
                    solver_stats=args.solver_stats,
                )
                session = IncrementalUnitSession(cache, identity)
                session.probe(source, args.files[0])
            report = run_regionwiz(
                source,
                filename=args.files[0],
                interface=interface,
                entry=args.entry,
                options=options,
                name=args.files[0],
                refine=args.refine,
                solver_stats=args.solver_stats,
                budget=budget,
                degrade=args.degrade,
                incremental=session,
                query=query,
            )
            if session is not None:
                session.store()
                print(_incremental_summary(session), file=sys.stderr)
    except (CompileError, InputError) as error:
        print(f"regionwiz: {error}", file=sys.stderr)
        return 2
    except BudgetExceeded as error:
        print(f"regionwiz: {error}", file=sys.stderr)
        return 4
    except Exception:  # a RegionWiz bug: surface it, don't mask it as 2
        traceback.print_exc()
        print("regionwiz: internal error", file=sys.stderr)
        return 3
    # Counted before the high-ranked filter so the registry row records
    # the analysis result, not the display filter.
    args._telemetry_summary = {
        "mode": "single",
        "units": 1,
        "succeeded": 1,
        "failed": 0,
        "skipped": 0,
        "warnings": len(report.warnings),
        "high": sum(1 for w in report.warnings if w.high_ranked),
        "metrics": (
            report.metrics.to_dict() if report.metrics is not None else {}
        ),
    }
    if not args.all:
        report.warnings = [w for w in report.warnings if w.high_ranked]
    validation = None
    if args.validate:
        from repro.tool.validate import validate_report

        # Validation runs after the high-ranked filter so labels align
        # with the warnings the report actually displays.
        trace_path = (
            trace_out_path(args.trace_out, report.name)
            if args.trace_out
            else None
        )
        validation = validate_report(
            report,
            max_steps=args.validate_steps,
            trace_path=trace_path,
        )
        if validation.status != "ok":
            print(
                f"regionwiz: validation {validation.status}:"
                f" {validation.error}",
                file=sys.stderr,
            )
    try:
        diff: Optional[WarningDiff] = None
        if args.baseline:
            baseline = [
                entry
                for entry in load_baseline(args.baseline)
                if entry.unit == report.name
            ]
            diff = diff_entries(entries_from_report(report), baseline)
        if args.save_baseline:
            save_baseline(args.save_baseline, entries_from_report(report))
    except InputError as error:
        print(f"regionwiz: {error}", file=sys.stderr)
        return 2
    if args.solver_stats and report.times.solver is not None:
        print("solver statistics:", file=sys.stderr)
        print(format_solver_stats(report.times.solver), file=sys.stderr)
    if args.metrics and report.metrics is not None:
        print("metrics:", file=sys.stderr)
        print(format_metrics(report.metrics.to_dict()), file=sys.stderr)
    if args.explain is not None:
        from repro.obs.provenance import explain_warning

        total = len(report.warnings)
        if args.explain < 1 or args.explain > total:
            valid = f"valid range: 1..{total}" if total else "no warnings"
            print(
                f"regionwiz: --explain {args.explain} is out of range"
                f" ({valid})",
                file=sys.stderr,
            )
            return 2
        try:
            explanation = explain_warning(report, args.explain)
        except (IndexError, ValueError) as error:
            print(f"regionwiz: {error}", file=sys.stderr)
            return 2
        print(explanation.format())
        return 1 if report.warnings else 0
    if args.json_output:
        from repro.tool.report import report_to_json

        print(
            report_to_json(
                report,
                diff=diff,
                validation=validation,
                run_id=getattr(args, "run_id", None),
            )
        )
    else:
        print(
            format_report(
                report,
                verbose=args.verbose,
                diff=diff,
                validation=validation,
            )
        )
    if args.html_report:
        write_html_report(
            args.html_report,
            title=f"RegionWiz report: {report.name}",
            report=report,
            diff=diff,
            profile=_profile_tree(),
            explanations=_html_explanations(report),
            validation=(
                validation.to_payload() if validation is not None else None
            ),
        )
    if args.fail_on_new:
        assert diff is not None  # validated above
        return 1 if diff.has_new else 0
    return 1 if report.warnings else 0


if __name__ == "__main__":
    sys.exit(main())
