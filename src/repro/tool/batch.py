"""Fault-isolated batch analysis: many units, one sweep, partial results.

The paper's evaluation runs RegionWiz over six packages totalling dozens
of executables; one crashing executable must not kill the sweep.
:func:`run_batch` analyzes a list of :class:`BatchUnit`\\ s with

* **per-unit isolation** -- any exception inside one unit (frontend
  diagnostics, budget exhaustion, internal crashes, injected faults) is
  captured as a structured :class:`UnitOutcome`, never escaping as a
  traceback;
* **``keep_going``** -- continue past failed units (otherwise the sweep
  stops at the first hard failure and the rest are recorded as skipped);
* **bounded retry** -- units failing with *internal* errors are retried
  up to ``max_retries`` times (input errors and budget exhaustion are
  deterministic, so retrying them is pointless);
* a **partial-results JSON summary** (:meth:`BatchResult.to_json`) and a
  **deterministic exit-code policy** (:meth:`BatchResult.exit_code`).

Exit-code policy: per unit, the single-run contract applies (0 clean /
1 warnings / 2 input error / 3 internal / 4 budget-exhausted-even-
degraded); the batch exit code is the *most severe* unit outcome under
the fixed severity order ``3 > 4 > 2 > 1 > 0``.  Skipped units do not
contribute: their ``exit_code`` is ``None`` (``null`` in JSON), so a
stopped sweep can never be mistaken for a mostly-clean one by consumers
keying on exit codes.

Two execution paths, one sweep
------------------------------

:func:`run_batch` builds one sweep config (:class:`_SweepConfig`) and
runs one per-unit loop (:func:`_analyze_units`) on one of two paths:
in process (``jobs == 1``) or in a supervised warm process pool
(``jobs > 1``).  The parent-side bookkeeping -- resume replay, the
cache probe, the earliest-hard-failure scan, deferred cache and
incremental-state stores, ``skipped`` normalization -- is written once
for both (:func:`_sweep`).

Parallel sharding (``jobs > 1``)
--------------------------------

Units are independent by construction -- that independence is exactly
what the fault-isolation design guarantees -- so :func:`run_batch` can
fan them out to a :class:`~concurrent.futures.ProcessPoolExecutor`.
The dispatch is built so parallelism *pays* on paper-scale corpora:

* the sweep config (:class:`AnalysisOptions`, the
  :class:`ResourceBudget` template, the
  :class:`~repro.callgraph.ImplicitCallRegistry`, the fault-spec
  snapshot, and the worker counterparts of the installed observers)
  crosses the pool boundary
  **once per worker** through the pool ``initializer``, not once per
  unit -- a task pickles only ``(index, unit, key)`` triples;
* units are dispatched in **contiguous chunks** so small units amortize
  the submit/result round trip, and the same **warm workers** serve
  every chunk of the batch -- worker startup is paid ``jobs`` times per
  sweep, never per unit;
* outcomes are reassembled in **submission order** regardless of
  completion order;
* armed fault-injection specs are re-installed per dispatched chunk
  from the worker-local snapshot so injection scopes correctly inside
  workers;
* worker-side metrics snapshots and trace spans are shipped back and
  merged into the parent's fleet percentiles and Chrome trace export
  (one lane per worker ``pid``);
* ``keep_going=False`` cancels not-yet-started chunks once a hard
  failure lands (a worker also abandons the rest of its own chunk),
  then **normalizes to serial semantics**: every unit after the
  earliest hard failure in submission order is reported ``skipped``,
  even if a worker happened to finish it first.  Because units are
  deterministic and independent, the parallel report is byte-identical
  to the serial one modulo timing/pid fields.

Supervision (crash-proofing)
----------------------------

The pool always runs under a
:class:`~repro.tool.supervise.BatchSupervisor` (see that module for the
full design), with the caller's run journal or a throwaway one as its
heartbeat channel: a SIGKILL'd/OOM'd worker no longer takes the sweep
down -- its units are retried on a respawned pool and a unit that
repeatedly kills workers is bisected solo and quarantined with a
``crashed`` outcome (exit 3); a hard per-unit wall-clock deadline
(the policy's ``hard_timeout``, or budget wall clock x grace factor)
SIGKILLs hung units and records ``timeout`` outcomes (exit 4).  On
either path a JSONL run ``journal`` of completed outcomes makes sweeps
resumable (``resume=True``) after even the parent dies, and
SIGINT/SIGTERM drain completed results into a partial report
(``BatchResult.interrupted``).  A fault-free pool sweep produces batch
JSON byte-identical to the in-process sweep's, and transient
kills/hangs converge to the fault-free report (modulo ``attempts`` and
the ``supervision`` telemetry block).

Persistent caching
------------------

Pass ``cache=`` (an :class:`~repro.tool.cache.AnalysisCache` or a
directory path) and successful outcomes are stored content-addressed;
a warm re-run of an unchanged corpus skips analysis entirely, marking
each replayed outcome ``cached``.  Hit/miss counters land in the batch
JSON and :meth:`BatchResult.batch_metrics`.  The in-process path
probes the cache lazily, unit by unit; the pool probes every unit up
front, and when a ``keep_going=False`` sweep stops early the probes
past the failure point are retracted (:meth:`AnalysisCache.uncount`),
so reported counters match on both paths exactly.

Cache writes follow serial semantics under early stops: with
``keep_going=False``, results that in-flight workers deliver after the
earliest hard failure are relabelled ``skipped`` in the report, and
their outcomes are **not** persisted -- a serial run would never have
analyzed them, so caching them would let a warm re-run resurrect
results the batch report never produced.  Stores are therefore
deferred until the sweep drains and flushed only for units *before* the
earliest hard failure (all of them when no hard failure occurred), on
both paths.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal as _signal_module
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.callgraph import ImplicitCallRegistry
from repro.interfaces import (
    RegionInterface,
    apr_pools_interface,
    rc_regions_interface,
)
from repro.lang.errors import CompileError
from repro.obs import observe
from repro.obs.history import WarningDiff, merge_diffs
from repro.obs.live import TelemetryBus
from repro.obs.metrics import MetricsRegistry, aggregate_metrics, format_metrics
from repro.obs.validate import LABELS as _VALIDATION_LABELS
from repro.obs.validate import VALIDATION_SCHEMA_VERSION, ValidationResult
from repro.obs.trace import SpanRecord, Tracer, _peak_rss_kb
from repro.pointer import AnalysisOptions
from repro.tool.cache import AnalysisCache
from repro.tool.incremental import IncrementalUnitSession
from repro.tool.regionwiz import RegionWizReport, run_regionwiz
from repro.tool.supervise import (
    _HARD_FAILURES,
    BatchSupervisor,
    RunJournal,
    SupervisePolicy,
    _first_hard_failure,
    interruptible,
)
from repro.tool.validate import (
    DEFAULT_VALIDATE_STEPS,
    trace_out_path,
    validate_report,
)
from repro.util import faults
from repro.util.budget import ResourceBudget
from repro.util.errors import BudgetExceeded, InputError

__all__ = ["BatchUnit", "UnitOutcome", "BatchResult", "run_batch", "SEVERITY_ORDER"]

#: Batch exit code = first of these found among unit exit codes.
SEVERITY_ORDER = (3, 4, 2, 1, 0)

#: Exponential backoff between ``max_retries`` attempts at a unit that
#: failed with an *internal* error: ``min(cap, base * 2**(attempt-1))``
#: seconds.  Retries exist for transient failures (resource spikes, OS
#: hiccups); re-running a crash back-to-back re-creates the exact
#: conditions that just failed.  Kept small: retried units hold a pool
#: worker, and deterministic crashes (the common case) pay the full
#: ladder before giving up.
_RETRY_BACKOFF_BASE = 0.02
_RETRY_BACKOFF_CAP = 0.5


@dataclass(frozen=True)
class BatchUnit:
    """One independently analyzed translation unit.

    ``interface=None`` (the default) auto-detects from the filename --
    ``.rc`` sources use the RC regions interface, everything else APR
    pools -- mirroring the single-run CLI's detection, so ``.rc`` corpus
    units fed through ``--batch`` get the right interface too.
    """

    name: str
    source: str
    filename: str = "<input>"
    interface: Optional[str] = None  # 'apr' | 'rc' | None = detect
    entry: str = "main"

    @property
    def effective_interface(self) -> str:
        if self.interface is not None:
            return self.interface
        return "rc" if self.filename.endswith(".rc") else "apr"

    def region_interface(self) -> RegionInterface:
        if self.effective_interface == "rc":
            return rc_regions_interface()
        return apr_pools_interface()


@dataclass
class UnitOutcome:
    """The structured result of one unit (success or failure).

    Everything the JSON summary needs is carried as plain data
    (``metrics`` is the registry's flat dict, not the registry), so an
    outcome crosses the process-pool boundary and the persistent cache
    without dragging the full :class:`RegionWizReport` along; ``report``
    is populated only for units analyzed in-process.
    """

    unit: str
    #: clean|warnings|input-error|budget-exhausted|internal-error|skipped
    #: plus two supervisor-recorded statuses: ``crashed`` (the worker
    #: *process* died and the unit was quarantined as the poison pill;
    #: exit 3) and ``timeout`` (SIGKILLed past the hard wall-clock
    #: deadline; exit 4, a ``BudgetExceeded`` in ``error_detail``).
    status: str
    exit_code: Optional[int]  # None for skipped units
    attempts: int = 1
    precision: str = "full"
    warnings: int = 0
    high: int = 0
    degraded: bool = False
    degradation_path: Tuple[str, ...] = ()
    #: Flat metrics payload (:meth:`MetricsRegistry.to_dict`) for ok units.
    metrics: Optional[Dict[str, Any]] = None
    #: Dynamic-validation payload
    #: (:meth:`repro.obs.validate.ValidationResult.to_payload`) when the
    #: sweep ran with ``validate=True``; deterministic, so serial and
    #: parallel batch JSON stay byte-identical.
    validation: Optional[Dict[str, Any]] = None
    #: Rendered warning lines (``[HIGH] ...``), for cross-mode equality
    #: checks and cache replay; not part of :meth:`to_dict`.
    warning_lines: List[str] = field(default_factory=list)
    #: Content-stable fingerprints, index-aligned with ``warning_lines``
    #: (see :mod:`repro.obs.fingerprint`); carried through the cache so
    #: replayed outcomes still diff against baselines.
    fingerprints: List[str] = field(default_factory=list)
    #: True when this outcome was replayed from the persistent cache.
    cached: bool = False
    #: True when this outcome was replayed from a run journal by
    #: ``resume=True`` (the unit was completed by an earlier, interrupted
    #: sweep and was not re-analyzed).
    resumed: bool = False
    #: CPU seconds this unit's analysis took in its process (0.0 for
    #: cache replays and skips).  CPU time, not wall time, so the
    #: reading stays meaningful when pool workers contend for cores.
    #: In-memory telemetry only -- deliberately kept out of
    #: :meth:`to_dict` so serial and parallel batch JSON stay
    #: byte-identical.
    elapsed: float = 0.0
    #: The pid of the pool worker that analyzed this unit (None when
    #: analyzed in-process).  In-memory only, like ``elapsed``.
    worker_pid: Optional[int] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    error_detail: Optional[Dict[str, Any]] = None
    traceback: Optional[str] = None
    #: The unit's fresh incremental-state payload when the sweep ran
    #: with ``incremental=True`` (see :mod:`repro.tool.incremental`).
    #: Crosses the pool as plain data but never enters :meth:`to_dict`
    #: or the outcome cache -- the *parent* persists it, reusing the
    #: deferred-store discipline that keeps serial and parallel cache
    #: directories identical.
    incremental_state: Optional[Dict[str, Any]] = None
    #: How the incremental session computed this unit ("served" when the
    #: stored outcome was replayed on a clean manifest diff, else the
    #: session mode: "delta"/"noop"/"resolve"/"cold").  In-memory
    #: telemetry only, like ``elapsed``.
    incremental_mode: Optional[str] = None
    #: The full report for units analyzed in this process (not serialized).
    report: Optional[RegionWizReport] = None

    @property
    def ok(self) -> bool:
        return self.status in ("clean", "warnings")

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "unit": self.unit,
            "status": self.status,
            "exit_code": self.exit_code,
            "attempts": self.attempts,
        }
        if self.ok:
            payload["precision"] = self.precision
            payload["warnings"] = self.warnings
            payload["high"] = self.high
            if self.degraded:
                payload["degraded"] = True
                payload["degradation_path"] = list(self.degradation_path)
            if self.metrics is not None:
                payload["metrics"] = dict(self.metrics)
            if self.validation is not None:
                payload["validation"] = dict(self.validation)
            if self.fingerprints:
                payload["fingerprints"] = list(self.fingerprints)
            if self.cached:
                payload["cached"] = True
        if self.resumed:
            payload["resumed"] = True
        if self.error is not None:
            payload["error"] = self.error
            payload["error_type"] = self.error_type
        if self.error_detail is not None:
            payload["error_detail"] = self.error_detail
        if self.traceback is not None:
            payload["traceback"] = self.traceback
        return payload

    # -- payload round trip (persistent cache and run journal) -------------

    def to_cache_payload(self) -> Dict[str, Any]:
        """The outcome as plain data, minus replay provenance.

        One schema serves both the persistent cache and the supervisor's
        run journal: ``cached``/``resumed`` are stripped because they
        describe *how this copy was obtained*, which the replaying side
        re-decides.
        """
        payload = self.to_dict()
        payload.pop("cached", None)
        payload.pop("resumed", None)
        payload["warning_lines"] = list(self.warning_lines)
        payload["fingerprints"] = list(self.fingerprints)
        return payload

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, Any],
        cached: bool = False,
        resumed: bool = False,
    ) -> "UnitOutcome":
        """Rebuild an outcome from a cache or journal payload.

        Unlike the cache (which only ever stores ``ok`` outcomes), the
        journal records failures too, so the error fields round-trip.
        """
        return cls(
            unit=payload["unit"],
            status=payload["status"],
            exit_code=payload["exit_code"],
            attempts=int(payload.get("attempts", 1)),
            precision=payload.get("precision", "full"),
            warnings=int(payload.get("warnings", 0)),
            high=int(payload.get("high", 0)),
            degraded=bool(payload.get("degraded", False)),
            degradation_path=tuple(payload.get("degradation_path", ())),
            metrics=payload.get("metrics"),
            validation=payload.get("validation"),
            warning_lines=list(payload.get("warning_lines", ())),
            fingerprints=list(payload.get("fingerprints", ())),
            cached=cached,
            resumed=resumed,
            error=payload.get("error"),
            error_type=payload.get("error_type"),
            error_detail=payload.get("error_detail"),
            traceback=payload.get("traceback"),
        )

    @classmethod
    def from_cache_payload(cls, payload: Dict[str, Any]) -> "UnitOutcome":
        return cls.from_payload(payload, cached=True)


def _skipped(unit_name: str) -> UnitOutcome:
    return UnitOutcome(
        unit=unit_name, status="skipped", exit_code=None, attempts=0
    )


@dataclass
class BatchResult:
    """Every unit's outcome plus the aggregate exit-code policy."""

    outcomes: List[UnitOutcome] = field(default_factory=list)
    #: Persistent-cache hit/miss counters (None: no cache configured).
    cache_counters: Optional[Dict[str, int]] = None
    #: Per-unit baseline diffs (set by the CLI when ``--baseline`` is
    #: given; see :func:`repro.obs.history.diff_outcomes`).
    per_unit_diff: Optional[Dict[str, WarningDiff]] = None
    #: True when the sweep was cut short by SIGINT/SIGTERM: everything
    #: completed before the signal is present, the rest is ``skipped``,
    #: and the CLI exits 130 regardless of :meth:`exit_code`.
    interrupted: bool = False
    #: Supervision telemetry (respawns / watchdog_kills / quarantined /
    #: timeouts / journal_recovered / resumed ...), present only when the
    #: supervisor intervened or a journal was replayed -- a fault-free
    #: sweep's JSON is byte-identical on both execution paths.
    supervision: Optional[Dict[str, int]] = None
    #: Parent-generated run id (see :func:`repro.obs.live.new_run_id`);
    #: emitted in :meth:`to_json` only when set, so existing serial ≡
    #: parallel equality checks stay byte-exact by popping one key.
    run_id: Optional[str] = None

    def outcome(self, unit: str) -> UnitOutcome:
        for outcome in self.outcomes:
            if outcome.unit == unit:
                return outcome
        raise KeyError(unit)

    @property
    def succeeded(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[UnitOutcome]:
        return [
            o for o in self.outcomes if not o.ok and o.status != "skipped"
        ]

    @property
    def skipped(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    def exit_code(self) -> int:
        codes = {
            o.exit_code for o in self.outcomes if o.status != "skipped"
        }
        for code in SEVERITY_ORDER:
            if code in codes:
                return code
        return 0

    def unit_metrics(self) -> List[Dict[str, Any]]:
        """Each successful unit's flat metrics dict (cached units included)."""
        return [o.metrics for o in self.succeeded if o.metrics is not None]

    def fleet_metrics(self) -> Dict[str, Dict[str, float]]:
        """Fleet percentiles over every successful unit's metrics."""
        return aggregate_metrics(self.unit_metrics())

    def batch_metrics(self) -> MetricsRegistry:
        """Batch-level counters: unit counts plus cache hits/misses."""
        registry = MetricsRegistry()
        registry.inc("batch.units", len(self.outcomes))
        registry.inc("batch.succeeded", len(self.succeeded))
        registry.inc("batch.failed", len(self.failed))
        registry.inc("batch.skipped", len(self.skipped))
        registry.inc(
            "batch.cached", sum(1 for o in self.outcomes if o.cached)
        )
        registry.inc(
            "batch.attempts", sum(o.attempts for o in self.outcomes)
        )
        registry.inc(
            "batch.retried",
            sum(1 for o in self.outcomes if o.attempts > 1),
        )
        registry.inc(
            "batch.resumed", sum(1 for o in self.outcomes if o.resumed)
        )
        if self.supervision:
            for key in sorted(self.supervision):
                registry.inc(
                    f"supervision.{key}", self.supervision[key]
                )
        if self.cache_counters is not None:
            # .get(): a zero-unit sweep (or a cache that never probed)
            # may carry partial counters; missing keys read as 0.
            registry.inc("cache.hits", self.cache_counters.get("hits", 0))
            registry.inc("cache.misses", self.cache_counters.get("misses", 0))
        return registry

    def merged_diff(self) -> Optional[WarningDiff]:
        """The fleet-wide baseline diff (None when no baseline was given)."""
        if self.per_unit_diff is None:
            return None
        return merge_diffs(self.per_unit_diff.values())

    def validation_summary(self) -> Optional[Dict[str, Any]]:
        """Fleet-wide dynamic-validation aggregate (None: no unit ran it).

        Sums per-unit label counts and per-ranking-bucket counts over
        every validated unit, then recomputes bucket precision from the
        summed counts (a mean of per-unit precisions would weight a
        one-warning unit the same as a fifty-warning one).
        """
        payloads = [
            o.validation for o in self.outcomes if o.validation is not None
        ]
        if not payloads:
            return None
        statuses: Dict[str, int] = {}
        totals: Dict[str, int] = {label: 0 for label in _VALIDATION_LABELS}
        buckets: Dict[str, Dict[str, Any]] = {}
        replay_mismatches = 0
        for payload in payloads:
            status = payload.get("status", "ok")
            statuses[status] = statuses.get(status, 0) + 1
            for label in _VALIDATION_LABELS:
                totals[label] += int(payload.get(label, 0))
            if payload.get("replay_consistent") is False:
                replay_mismatches += 1
            for bucket, counts in (payload.get("buckets") or {}).items():
                agg = buckets.setdefault(
                    bucket, {label: 0 for label in _VALIDATION_LABELS}
                )
                for label in _VALIDATION_LABELS:
                    agg[label] += int(counts.get(label, 0) or 0)
        for agg in buckets.values():
            observed = agg["confirmed"] + agg["unobserved"]
            agg["precision"] = (
                agg["confirmed"] / observed if observed else None
            )
        summary: Dict[str, Any] = {
            "schema": VALIDATION_SCHEMA_VERSION,
            "units": len(payloads),
            "statuses": dict(sorted(statuses.items())),
            "replay_mismatches": replay_mismatches,
            "buckets": {name: buckets[name] for name in sorted(buckets)},
        }
        summary.update(totals)
        return summary

    def to_json(self, indent: int = 2) -> str:
        """The partial-results summary (stable schema for CI)."""
        payload = {
            "exit_code": self.exit_code(),
            "units": len(self.outcomes),
            "succeeded": len(self.succeeded),
            "failed": len(self.failed),
            "skipped": len(self.skipped),
            "results": [o.to_dict() for o in self.outcomes],
        }
        if self.run_id is not None:
            payload["run_id"] = self.run_id
        if self.interrupted:
            payload["interrupted"] = True
        if self.supervision:
            payload["supervision"] = dict(self.supervision)
        if self.cache_counters is not None:
            payload["cache"] = dict(self.cache_counters)
        fleet = self.fleet_metrics()
        if fleet:
            payload["fleet_metrics"] = fleet
        validation = self.validation_summary()
        if validation is not None:
            payload["validation"] = validation
        if self.per_unit_diff is not None:
            merged = self.merged_diff()
            assert merged is not None
            payload["baseline_diff"] = {
                "counts": merged.counts(),
                "units": {
                    unit: diff.to_dict()
                    for unit, diff in sorted(self.per_unit_diff.items())
                },
            }
        return json.dumps(payload, indent=indent)

    def metrics_summary(self) -> str:
        """Per-unit metric table plus fleet percentiles, for ``--metrics``."""
        lines: List[str] = []
        for o in self.succeeded:
            if o.metrics is None:
                continue
            lines.append(f"metrics for {o.unit}:")
            lines.append(format_metrics(o.metrics))
        fleet = self.fleet_metrics()
        if fleet:
            lines.append(
                f"fleet metrics ({len(self.unit_metrics())} unit(s)):"
            )
            for name, summary in fleet.items():
                rendered = " ".join(
                    f"{key}={value}" for key, value in summary.items()
                )
                lines.append(f"  {name}  {rendered}")
        lines.append("batch metrics:")
        lines.append(format_metrics(self.batch_metrics().to_dict()))
        return "\n".join(lines)

    def summary(self) -> str:
        """Human-readable one-line-per-unit account."""
        lines = [
            f"batch: {len(self.succeeded)}/{len(self.outcomes)} unit(s)"
            f" analyzed, exit {130 if self.interrupted else self.exit_code()}"
        ]
        if self.interrupted:
            lines.append(
                "  sweep interrupted: partial results below, resume with"
                " --journal/--resume"
            )
        for o in self.outcomes:
            if o.ok:
                extra = (
                    f" degraded(precision={o.precision})"
                    if o.precision != "full"
                    else ""
                )
                if o.validation is not None:
                    extra += (
                        f" validated({o.validation.get('confirmed', 0)}"
                        " confirmed)"
                    )
                if o.cached:
                    extra += " (cached)"
                if o.resumed:
                    extra += " (resumed)"
                lines.append(
                    f"  {o.unit}: {o.status} ({o.warnings} warning(s),"
                    f" {o.high} high){extra}"
                )
            elif o.status == "skipped":
                lines.append(f"  {o.unit}: skipped")
            else:
                lines.append(
                    f"  {o.unit}: {o.status} [{o.error_type}] {o.error}"
                )
        merged = self.merged_diff()
        if merged is not None:
            lines.append(merged.format())
        return "\n".join(lines)


@dataclass(frozen=True)
class _SweepConfig:
    """The per-sweep invariant state: everything every unit's analysis
    needs but that never varies within one sweep.  :func:`run_batch`
    builds it once and both execution paths run from it; the pool ships
    it to each worker exactly once, through the pool ``initializer``, so
    a task pickles only ``(index, unit, key)`` triples.
    """

    options: Optional[AnalysisOptions]
    budget: Optional[ResourceBudget]
    degrade: bool
    refine: bool
    solver_stats: bool
    registry: Optional[ImplicitCallRegistry]
    max_retries: int
    keep_going: bool
    #: Dynamic validation (``--validate``): run each successful unit's
    #: entry point under the traced interpreter and attach the
    #: validation payload to its outcome.
    validate: bool = False
    validate_steps: int = DEFAULT_VALIDATE_STEPS
    #: Directory for per-unit trace artifacts (``--trace-out``).
    trace_dir: Optional[str] = None
    #: Incremental re-analysis (``--incremental``): units load their
    #: state from the cache directory and run the delta re-solve; fresh
    #: state rides back on the outcome for the parent to persist.
    incremental: bool = False
    cache_root: Optional[str] = None
    #: The fault specs a pool worker re-arms per chunk.  Empty in
    #: process, where the caller's armed specs fire directly.
    fault_specs: List[faults.FaultSpec] = field(default_factory=list)
    #: Everything a pool worker observes through, installed in one step
    #: by :func:`_worker_init`: the worker counterparts of the parent's
    #: observers (:func:`repro.obs.observe.for_workers`) plus the
    #: :class:`_WorkerJournal` writer.  Empty in process, where the
    #: caller's installed observers see everything directly.
    observers: Tuple[observe.Observer, ...] = ()

    @cached_property
    def key_material(self) -> Dict[str, Any]:
        """The configuration half of every content and identity key."""
        return {
            "options": self.options,
            "budget": self.budget,
            "degrade": self.degrade,
            "refine": self.refine,
            "solver_stats": self.solver_stats,
            "validate": (
                {
                    "schema": VALIDATION_SCHEMA_VERSION,
                    "steps": int(self.validate_steps),
                }
                if self.validate
                else None
            ),
            "registry": self.registry,
        }


def _content_key(unit: BatchUnit, config: _SweepConfig) -> str:
    """The unit's content key, addressing both its persistent cache
    entry and its journal identity.

    :meth:`AnalysisCache.key` is static, so no cache directory is
    needed: a resumed sweep must only replay an outcome, and a cache
    only serve one, if the unit's source *and* the analysis
    configuration are unchanged.
    """
    return AnalysisCache.key(
        source=unit.source,
        filename=unit.filename,
        interface=unit.effective_interface,
        entry=unit.entry,
        **config.key_material,
    )


def _unit_identity_key(unit: BatchUnit, config: _SweepConfig) -> str:
    """The unit's source-independent state address (static, like
    :func:`_content_key` -- workers recompute it without a cache)."""
    return AnalysisCache.identity_key(
        name=unit.name,
        filename=unit.filename,
        interface=unit.effective_interface,
        entry=unit.entry,
        **config.key_material,
    )


def _stops(config: _SweepConfig, outcome: UnitOutcome) -> bool:
    """True when ``outcome`` ends a ``keep_going=False`` sweep."""
    return not config.keep_going and outcome.exit_code in _HARD_FAILURES


def _analyze_unit(
    unit: BatchUnit,
    config: _SweepConfig,
    state_cache: Optional[AnalysisCache] = None,
) -> UnitOutcome:
    with observe.span("batch.unit", unit=unit.name) as span:
        started = time.process_time()
        outcome = _analyze_unit_isolated(unit, config, state_cache)
        outcome.elapsed = time.process_time() - started
        span.set(
            status=outcome.status,
            exit_code=outcome.exit_code,
            attempts=outcome.attempts,
        )
        return outcome


def _analyze_unit_isolated(
    unit: BatchUnit,
    config: _SweepConfig,
    state_cache: Optional[AnalysisCache] = None,
) -> UnitOutcome:
    session: Optional[IncrementalUnitSession] = None
    if state_cache is not None:
        identity = _unit_identity_key(unit, config)
        session = IncrementalUnitSession(state_cache, identity)
        diff = session.probe(unit.source, unit.filename)
        if diff is not None and diff.clean:
            served = session.served_outcome()
            if served is not None:
                try:
                    outcome = UnitOutcome.from_payload(served)
                except (KeyError, TypeError, ValueError):
                    outcome = None
                if (
                    outcome is not None
                    and outcome.unit == unit.name
                    and outcome.ok
                ):
                    # A clean manifest diff proves the stored outcome is
                    # exact for this source (locations included); serve
                    # it without running the pipeline.  ``cached`` stays
                    # False so the parent still persists it under the
                    # *current* source's exact cache key.
                    outcome.incremental_mode = "served"
                    observe.event(
                        "incremental.serve", unit=unit.name, key=identity
                    )
                    return outcome
    attempts = 0
    while True:
        attempts += 1
        try:
            faults.fire("batch-unit", unit=unit.name)
            report = run_regionwiz(
                unit.source,
                filename=unit.filename,
                interface=unit.region_interface(),
                entry=unit.entry,
                options=config.options,
                registry=config.registry,
                name=unit.name,
                refine=config.refine,
                solver_stats=config.solver_stats,
                budget=config.budget,
                degrade=config.degrade,
                incremental=session,
            )
        except (CompileError, InputError) as error:
            # Deterministic input failure: retrying cannot help.
            return UnitOutcome(
                unit=unit.name,
                status="input-error",
                exit_code=2,
                attempts=attempts,
                error=str(error),
                error_type=type(error).__name__,
            )
        except BudgetExceeded as error:
            # Deterministic resource exhaustion (even after degradation
            # when enabled): retrying the same budget cannot help.
            return UnitOutcome(
                unit=unit.name,
                status="budget-exhausted",
                exit_code=4,
                attempts=attempts,
                error=str(error),
                error_type=type(error).__name__,
                error_detail=error.to_dict(),
            )
        except Exception as error:  # internal crash: isolate, maybe retry
            if attempts <= config.max_retries:
                time.sleep(
                    min(
                        _RETRY_BACKOFF_CAP,
                        _RETRY_BACKOFF_BASE * (2 ** (attempts - 1)),
                    )
                )
                continue
            return UnitOutcome(
                unit=unit.name,
                status="internal-error",
                exit_code=3,
                attempts=attempts,
                error=str(error),
                error_type=type(error).__name__,
                traceback=traceback.format_exc(),
            )
        high = sum(1 for w in report.warnings if w.high_ranked)
        validation_payload: Optional[Dict[str, Any]] = None
        if config.validate:
            # Dynamic validation runs inside the unit's fault-isolation
            # scope and *before* metrics are snapshotted, so the
            # validation.* gauges land in the outcome's metrics payload.
            # validate_report already degrades interpreter failures to a
            # status; the extra except keeps a simulator crash from
            # turning a successful analysis into a failed unit.
            trace_path = (
                trace_out_path(config.trace_dir, unit.name)
                if config.trace_dir is not None
                else None
            )
            try:
                validation_payload = validate_report(
                    report,
                    max_steps=config.validate_steps,
                    trace_path=trace_path,
                ).to_payload()
            except Exception as error:
                validation_payload = ValidationResult(
                    status="validate-error",
                    error=f"{type(error).__name__}: {error}",
                ).to_payload()
        outcome = UnitOutcome(
            unit=unit.name,
            status="warnings" if report.warnings else "clean",
            exit_code=1 if report.warnings else 0,
            attempts=attempts,
            precision=report.precision,
            warnings=len(report.warnings),
            high=high,
            degraded=report.degraded,
            degradation_path=tuple(report.degradation_path),
            metrics=(
                report.metrics.to_dict() if report.metrics is not None else None
            ),
            validation=validation_payload,
            warning_lines=[str(w) for w in report.warnings],
            fingerprints=[w.fingerprint for w in report.warnings],
            report=report,
        )
        if session is not None:
            # Bundle the outcome into the state so a future warm run can
            # serve it on a clean manifest diff, then hand the payload to
            # the caller -- the parent persists it (deferred-store
            # discipline), never the unit loop.
            session.record_outcome(outcome.to_cache_payload())
            outcome.incremental_state = session.export_state()
            outcome.incremental_mode = session.mode
        return outcome


# ---------------------------------------------------------------------------
# Persistent cache plumbing
# ---------------------------------------------------------------------------


def _cache_lookup(
    cache: AnalysisCache, key: str, unit: BatchUnit
) -> Optional[UnitOutcome]:
    payload = cache.lookup(key)
    if payload is None:
        observe.event("cache.miss", unit=unit.name, key=key)
        return None
    try:
        outcome = UnitOutcome.from_cache_payload(payload)
    except (KeyError, TypeError, ValueError):
        # A structurally valid JSON file with the wrong shape: treat as
        # a corrupt entry -- fall back to analysis.
        cache.hits -= 1
        cache.misses += 1
        observe.event("cache.miss", unit=unit.name, key=key, corrupt=True)
        return None
    if outcome.unit != unit.name or not outcome.ok:
        cache.hits -= 1
        cache.misses += 1
        observe.event("cache.miss", unit=unit.name, key=key, mismatch=True)
        return None
    observe.event("cache.hit", unit=unit.name, key=key)
    return outcome


def _store(
    cache: Optional[AnalysisCache],
    config: _SweepConfig,
    unit: BatchUnit,
    key: Optional[str],
    outcome: UnitOutcome,
) -> None:
    """Persist a freshly analyzed outcome and its incremental state.

    Parent side only, after the sweep drains: replayed outcomes
    (``cached``/``resumed``) are already persisted, and failures never
    are.
    """
    if (
        cache is None
        or key is None
        or not outcome.ok
        or outcome.cached
        or outcome.resumed
    ):
        return
    cache.store(key, outcome.to_cache_payload())
    if outcome.incremental_state is not None:
        cache.store_state(
            _unit_identity_key(unit, config), outcome.incremental_state
        )


# ---------------------------------------------------------------------------
# The unit loop and its journal writer
# ---------------------------------------------------------------------------


class _WorkerJournal(observe.Observer):
    """The unit loop's side of the supervisor's run journal.

    Appends the loop's ``unit.start``/``unit.done`` heartbeats and, with
    ``telemetry`` (a live bus in the parent), one small ``telemetry``
    record per completed unit: rss/cpu readings riding the heartbeat
    channel the supervisor already tails, no second IPC path.  Installed
    as a pool worker's observer it also turns each ``kill``/``hang``
    ``fault`` event into a ``fault.fired`` record *before* the action
    runs: such a fault takes the worker down with it, so this line is
    the only record the parent ever gets that the armed ``times=`` count
    was consumed (see
    :meth:`repro.tool.supervise.BatchSupervisor._consume_fault`).  Each
    record is one short O_APPEND write, like the event log's, so parent
    and worker lines interleave at line granularity.
    """

    events = ("fault",)

    def __init__(
        self, path: str, telemetry: bool = False, run_id: Optional[str] = None
    ) -> None:
        self.path = path
        self.telemetry = telemetry
        self.run_id = run_id
        self._handle = None

    def append(self, kind: str, **fields: Any) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", buffering=1)
        record = {"kind": kind, **fields, "pid": os.getpid(), "t": time.time()}
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def unit_done(
        self,
        index: int,
        unit: BatchUnit,
        key: Optional[str],
        outcome: UnitOutcome,
    ) -> None:
        self.append(
            "unit.done",
            index=index,
            unit=unit.name,
            key=key,
            outcome=outcome.to_cache_payload(),
        )
        if self.telemetry:
            self.append(
                "telemetry",
                index=index,
                unit=unit.name,
                rss_kb=_peak_rss_kb(),
                cpu_s=round(time.process_time(), 6),
                run=self.run_id,
            )

    def on_event(self, kind: str, fields: Dict[str, Any]) -> None:
        if fields["action"] in ("kill", "hang"):
            self.append(
                "fault.fired",
                point=fields["point"],
                action=fields["action"],
                unit=fields["unit"] or None,
            )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


#: A run of ``(index, unit, key)`` triples for the unit loop -- ``key``
#: is the unit's content key (journal identity; None when neither a
#: named journal nor a cache is configured).
_Chunk = Iterable[Tuple[int, BatchUnit, Optional[str]]]


def _analyze_units(
    config: _SweepConfig,
    chunk: _Chunk,
    state_cache: Optional[AnalysisCache],
    journal: Optional[_WorkerJournal],
) -> Iterator[Tuple[int, UnitOutcome]]:
    """The per-unit loop both execution paths run, yielding outcomes.

    With a journal each unit is bracketed by heartbeats: a
    ``unit.start`` before analysis (the supervisor's watchdog clock and,
    if the process dies, the crash attribution) and a ``unit.done``
    carrying the full outcome payload after (so results that completed
    before a later unit killed a worker are adopted, not re-run, and a
    resumed sweep replays them).  Under ``keep_going=False`` the loop
    ends after a hard failure: a serial run never reaches the rest.
    """
    for index, unit, key in chunk:
        if journal is not None:
            journal.append("unit.start", index=index, unit=unit.name)
        outcome = _analyze_unit(unit, config, state_cache)
        # Yield before journaling: a pool worker drops the full report
        # here, so it is freed before the payload is serialized.
        yield index, outcome
        if journal is not None:
            journal.unit_done(index, unit, key, outcome)
        if _stops(config, outcome):
            return


def _run_in_process(
    units: List[BatchUnit],
    config: _SweepConfig,
    keys: List[Optional[str]],
    probe: Callable[[int], Optional[UnitOutcome]],
    slots: List[Optional[UnitOutcome]],
    cache: Optional[AnalysisCache],
    journal: Optional[RunJournal],
) -> None:
    """The ``jobs == 1`` path: the unit loop in this process.

    Units are probed lazily in submission order, so a sweep that stops
    early never probes past its failure, and every unit's ``unit.done``
    event lands as soon as its outcome does.  The caller's armed faults
    and installed observers apply as they stand.
    """

    def misses() -> Iterator[Tuple[int, BatchUnit, Optional[str]]]:
        for index, unit in enumerate(units):
            replayed = probe(index)
            if replayed is None:
                yield index, unit, keys[index]
            elif _stops(config, replayed):
                return

    writer = _WorkerJournal(journal.path) if journal is not None else None
    state_cache = cache if config.incremental else None
    try:
        for index, outcome in _analyze_units(
            config, misses(), state_cache, writer
        ):
            slots[index] = outcome
            observe.event("unit.done", index=index, outcome=outcome)
    finally:
        if writer is not None:
            writer.close()


# ---------------------------------------------------------------------------
# The supervised process pool
# ---------------------------------------------------------------------------


#: This worker's copy of the sweep config, set by :func:`_worker_init`.
_WORKER_CONFIG: Optional[_SweepConfig] = None


def _worker_init(config: _SweepConfig) -> None:
    """Pool initializer: receive the sweep config once, warm the worker.

    Runs once per worker process at spawn.  Freezes the inherited heap
    out of the cyclic GC: a forked worker inherits everything the
    parent retained (on a fork start-method, possibly whole prior batch
    reports), and the first full collection in the child would walk all
    of it -- touching every object's header, copy-on-write-faulting the
    shared pages, and billing seconds of CPU to whatever unit happened
    to run first.  None of that inherited state is garbage the worker
    could free, so ``gc.freeze`` moves it to the permanent generation.

    Also installs the worker's observers in one step, which drops
    whatever observers the worker inherited through ``fork``.
    """
    global _WORKER_CONFIG
    _WORKER_CONFIG = config
    gc.freeze()
    try:
        # The parent runs sweeps under interruptible() (SIGTERM ->
        # KeyboardInterrupt) and workers fork while it is installed; a
        # worker must just die on SIGTERM (pool teardown terminates
        # idle workers), not raise a phantom interrupt into the
        # executor plumbing.
        _signal_module.signal(_signal_module.SIGTERM, _signal_module.SIG_DFL)
    except (ValueError, OSError):
        pass
    observe.install(*config.observers)


def _worker_analyze_chunk(
    chunk: List[Tuple[int, BatchUnit, Optional[str]]],
) -> Tuple[List[Tuple[int, UnitOutcome]], List[SpanRecord], int]:
    """Run the unit loop over one chunk inside a warm pool worker.

    Re-arms the fault-spec snapshot from the worker-local config (one
    dispatch = one chunk, preserving the documented per-dispatch scope
    of bare ``times=`` specs) and journals through the installed
    :class:`_WorkerJournal`.  Ships back the slimmed outcomes, the span
    roots the worker's tracer recorded for this chunk (when the parent
    is tracing), and this worker's pid.
    """
    assert _WORKER_CONFIG is not None, "worker used without initializer"
    config = _WORKER_CONFIG
    state_cache: Optional[AnalysisCache] = None
    if config.incremental and config.cache_root is not None:
        # Worker-local handle on the shared cache directory; counters on
        # it are throwaway (the parent owns the reported counters).
        state_cache = AnalysisCache(config.cache_root)
    faults.install(config.fault_specs)
    results: List[Tuple[int, UnitOutcome]] = []
    try:
        for index, outcome in _analyze_units(
            config, chunk, state_cache, observe.active(_WorkerJournal)
        ):
            outcome.report = None  # the full report does not cross the pool
            outcome.worker_pid = os.getpid()
            results.append((index, outcome))
    finally:
        faults.clear()
    tracer = observe.active(Tracer)
    roots = tracer.drain() if tracer is not None else []
    return results, roots, os.getpid()


def _solo_entry(
    config: _SweepConfig,
    index: int,
    unit: BatchUnit,
    key: Optional[str],
    conn,
) -> None:
    """Bisection child: one unit, one fresh process, result via pipe.

    Reuses the full chunk path (journal heartbeats, fault snapshot,
    event log) so a solo run is observably identical to a pool run of a
    single-unit chunk.  If the unit kills this process too, the parent
    reads the exitcode/signal off the dead child and quarantines the
    unit; trace spans are not shipped (the pool path's tracer adoption
    needs the executor plumbing, and a bisection rerun's spans are not
    worth a second IPC channel).
    """
    _worker_init(config)
    results, _roots, _pid = _worker_analyze_chunk([(index, unit, key)])
    _, outcome = results[0]
    conn.send(outcome.to_cache_payload())
    conn.close()


def _pool_failure_outcome(unit: BatchUnit, error: BaseException) -> UnitOutcome:
    """A structured outcome for a unit whose *worker* died (not the unit)."""
    return UnitOutcome(
        unit=unit.name,
        status="internal-error",
        exit_code=3,
        attempts=1,
        error=f"worker process failed: {error}",
        error_type=type(error).__name__,
    )


def _chunked(indices: List[int], workers: int, chunk_size: Optional[int]) -> List[List[int]]:
    """Contiguous chunks of submission indices, FIFO order.

    Contiguity + FIFO dispatch is what makes early-stop normalization
    sound: whenever a chunk is cancelled before starting, every unit in
    it has a higher submission index than every unit already completed
    or in flight, so the "earliest hard failure" scan never misses a
    unit a serial run would have reached first.

    The default size targets ~4 chunks per worker: large enough that
    small units amortize the submit/result round trip, small enough
    that the tail of the sweep still load-balances.
    """
    if chunk_size is None:
        chunk_size = max(1, min(8, math.ceil(len(indices) / (workers * 4))))
    return [
        indices[start:start + chunk_size]
        for start in range(0, len(indices), chunk_size)
    ]


@contextmanager
def _pool_journal(
    journal: Optional[RunJournal], run_id: Optional[str]
) -> Iterator[RunJournal]:
    """The caller's journal, or a throwaway one: the supervisor needs
    the heartbeat/outcome channel even when no persistent journal was
    asked for."""
    if journal is not None:
        yield journal
        return
    fd, path = tempfile.mkstemp(prefix="regionwiz-journal-", suffix=".jsonl")
    os.close(fd)
    try:
        with RunJournal(path, run_id=run_id) as ephemeral:
            yield ephemeral
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def _run_pool(
    units: List[BatchUnit],
    config: _SweepConfig,
    keys: List[Optional[str]],
    probe: Callable[[int], Optional[UnitOutcome]],
    slots: List[Optional[UnitOutcome]],
    journal: Optional[RunJournal],
    jobs: int,
    chunk_size: Optional[int],
    policy: SupervisePolicy,
    run_id: Optional[str],
) -> Tuple[Dict[str, int], bool]:
    """The ``jobs > 1`` path: the unit loop in a supervised warm pool.

    Probes every unit up front, then hands the misses to the
    :class:`~repro.tool.supervise.BatchSupervisor`, which owns the pool
    lifecycle: it recovers from dead workers, enforces the hard per-unit
    deadline, and drains on SIGINT/SIGTERM.  Returns
    ``(supervision_stats, interrupted)``; a slot left ``None`` means the
    unit never ran (cancelled after an early stop, or still in flight
    when the sweep was interrupted).
    """
    to_run = [index for index in range(len(units)) if probe(index) is None]
    if not to_run:
        return {}, False
    with _pool_journal(journal, run_id) as journal:
        # Worker telemetry piggybacks on the journal; it needs a live
        # bus parent-side to land anywhere.
        writer = _WorkerJournal(
            journal.path,
            telemetry=observe.active(TelemetryBus) is not None,
            run_id=run_id,
        )
        supervisor = BatchSupervisor(
            units=units,
            to_run=to_run,
            jobs=jobs,
            policy=policy,
            journal=journal,
            keys=keys,
            config=replace(
                config,
                fault_specs=faults.snapshot(),
                observers=observe.for_workers() + (writer,),
            ),
            worker_init=_worker_init,
            worker_chunk=_worker_analyze_chunk,
            solo_entry=_solo_entry,
            chunk_fn=lambda indices, workers: _chunked(
                indices, workers, chunk_size
            ),
            pool_failure=_pool_failure_outcome,
        )
        for index, outcome in supervisor.run().items():
            slots[index] = outcome
    return dict(supervisor.stats), supervisor.interrupted


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


def run_batch(
    units: Iterable[BatchUnit],
    options: Optional[AnalysisOptions] = None,
    budget: Optional[ResourceBudget] = None,
    degrade: bool = True,
    keep_going: bool = False,
    max_retries: int = 0,
    refine: bool = False,
    solver_stats: bool = False,
    registry: Optional[ImplicitCallRegistry] = None,
    jobs: int = 1,
    cache: Optional[Union[AnalysisCache, str]] = None,
    chunk_size: Optional[int] = None,
    journal: Optional[str] = None,
    resume: bool = False,
    policy: Optional[SupervisePolicy] = None,
    validate: bool = False,
    validate_steps: int = DEFAULT_VALIDATE_STEPS,
    trace_dir: Optional[str] = None,
    incremental: bool = False,
    run_id: Optional[str] = None,
) -> BatchResult:
    """Analyze every unit with per-unit fault isolation.

    No exception escapes: each unit yields a :class:`UnitOutcome`.  With
    ``keep_going`` the sweep always covers every unit; without it, the
    first hard failure (exit code 2/3/4) stops the sweep and the
    remaining units are recorded as ``skipped`` (``exit_code=None``).

    ``jobs > 1`` shards the sweep over that many warm worker processes
    under the crash-proofing supervisor (see :mod:`repro.tool.supervise`);
    outcomes come back in submission order either way (see the module
    docstring for the full equivalence argument).  ``chunk_size`` pins
    how many units ride in one dispatched chunk (default: sized for ~4
    chunks per worker).  ``policy`` tunes the supervisor
    (:class:`~repro.tool.supervise.SupervisePolicy`; its
    ``hard_timeout``, or the budget's wall clock times its grace factor,
    arms the watchdog that SIGKILLs hung units).  ``cache`` (an
    :class:`~repro.tool.cache.AnalysisCache` or a directory path)
    enables the persistent result cache.

    ``journal`` names a JSONL run journal of completed outcomes;
    ``resume=True`` replays completed units from it instead of
    re-analyzing them (their outcomes are marked ``resumed``).
    SIGINT/SIGTERM drain in-flight results into a partial
    :class:`BatchResult` with ``interrupted=True`` on either path.

    ``incremental=True`` (the ``--incremental`` flag; requires ``cache``)
    gives every unit a persistent incremental state in the cache
    directory (see :mod:`repro.tool.incremental`): on a warm re-run an
    unchanged unit is served from its manifest even when the exact
    source key misses (comment/whitespace edits), and an *edited* unit
    re-solves only the consistency-fact delta against its previous
    fixpoint.  Outcomes are identical to a non-incremental sweep.

    ``validate=True`` (the ``--validate`` flag) runs every successful
    unit's entry point under the traced region interpreter (step budget
    ``validate_steps``), replays the trace, and attaches the dynamic
    validation payload to its outcome; ``trace_dir`` additionally writes
    each unit's trace as ``<unit>.trace.jsonl``.  Validation is part of
    the cache/journal key (toggling it re-analyzes rather than replaying
    unvalidated outcomes), but ``trace_dir`` is not -- it only changes
    where an artifact lands, never the outcome.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")
    if incremental and cache is None:
        raise ValueError("incremental=True requires a cache")
    if isinstance(cache, str):
        cache = AnalysisCache(cache)
    config = _SweepConfig(
        options=options,
        budget=budget,
        degrade=degrade,
        refine=refine,
        solver_stats=solver_stats,
        registry=registry,
        max_retries=max_retries,
        keep_going=keep_going,
        validate=validate,
        validate_steps=validate_steps,
        trace_dir=trace_dir,
        incremental=incremental,
        cache_root=cache.root if cache is not None else None,
    )
    opened = (
        RunJournal(journal, resume=resume, run_id=run_id)
        if journal is not None
        else nullcontext()
    )
    with opened as run_journal:
        return _sweep(
            list(units),
            config,
            cache,
            run_journal,
            jobs,
            chunk_size,
            policy or SupervisePolicy(),
            run_id,
        )


def _sweep(
    units: List[BatchUnit],
    config: _SweepConfig,
    cache: Optional[AnalysisCache],
    journal: Optional[RunJournal],
    jobs: int,
    chunk_size: Optional[int],
    policy: SupervisePolicy,
    run_id: Optional[str],
) -> BatchResult:
    """One sweep: the bookkeeping both execution paths share.

    Resume replay and the cache probe fill slots before the unit loop
    can; afterwards, without ``keep_going``, every unit after the
    earliest hard failure is normalized to ``skipped`` (whatever a pool
    worker finished there), cache and incremental-state stores are
    flushed only for units before it, and the pool's up-front probes of
    the skipped units are retracted, so both paths report the counters
    and leave the cache directory a serial run would.
    """
    observe.event(
        "batch.start",
        total=len(units),
        sizes=[len(unit.source) for unit in units],
        jobs=jobs,
    )
    # Content keys address cache entries and journal records, and the
    # pool always journals.
    keyed = cache is not None or journal is not None or jobs > 1
    keys: List[Optional[str]] = [
        _content_key(unit, config) if keyed else None for unit in units
    ]

    # Resume replay: adopt completed outcomes from the journal's prior
    # run(s), keyed by (unit name, content key) so a unit whose source
    # or configuration changed re-analyzes.
    resumed: Dict[int, UnitOutcome] = {}
    if journal is not None and journal.completed:
        for index, unit in enumerate(units):
            payload = journal.completed.get((unit.name, keys[index]))
            if payload is None:
                continue
            try:
                resumed[index] = UnitOutcome.from_payload(payload, resumed=True)
            except (KeyError, TypeError, ValueError):
                continue
            observe.event("journal.replay", unit=unit.name, key=keys[index])

    slots: List[Optional[UnitOutcome]] = [None] * len(units)
    probed: Set[int] = set()

    def probe(index: int) -> Optional[UnitOutcome]:
        """Fill ``slots[index]`` by replay or cache hit, if either has it."""
        outcome = resumed.get(index)
        if outcome is None and cache is not None:
            probed.add(index)
            outcome = _cache_lookup(cache, keys[index], units[index])
        if outcome is not None:
            slots[index] = outcome
            observe.event("unit.done", index=index, outcome=outcome)
        return outcome

    supervision: Dict[str, int] = {}
    interrupted = False
    try:
        with interruptible():
            if jobs == 1:
                _run_in_process(
                    units, config, keys, probe, slots, cache, journal
                )
            else:
                supervision, interrupted = _run_pool(
                    units,
                    config,
                    keys,
                    probe,
                    slots,
                    journal,
                    jobs,
                    chunk_size,
                    policy,
                    run_id,
                )
    except KeyboardInterrupt:
        # Outside the supervisor's own drain nothing is in flight:
        # keep every slot filled so far.
        interrupted = True
        observe.event(
            "batch.interrupted",
            completed=sum(1 for slot in slots if slot is not None),
            total=len(units),
        )

    first = None if config.keep_going else _first_hard_failure(
        enumerate(slots)
    )
    result = BatchResult(interrupted=interrupted, run_id=run_id)
    for index, (unit, outcome) in enumerate(zip(units, slots)):
        if outcome is None or (first is not None and index > first):
            # The pool probed this unit's cache entry up front, but a
            # serial run stopping at ``first`` never would have.
            if cache is not None and index in probed and not interrupted:
                cache.uncount(hit=outcome is not None and outcome.cached)
            outcome = _skipped(unit.name)
        else:
            _store(cache, config, unit, keys[index], outcome)
        result.outcomes.append(outcome)
    resumed_count = sum(1 for o in result.outcomes if o.resumed)
    if resumed_count:
        supervision["resumed"] = resumed_count
    if supervision:
        result.supervision = supervision
    if cache is not None:
        result.cache_counters = cache.counters()
    for outcome in result.outcomes:
        observe.event(
            "batch.unit",
            unit=outcome.unit,
            status=outcome.status,
            exit_code=outcome.exit_code,
            attempts=outcome.attempts,
            cached=outcome.cached,
        )
    observe.event("batch.end", interrupted=interrupted)
    return result
