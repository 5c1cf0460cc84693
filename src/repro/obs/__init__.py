"""Observability: tracing, metrics, provenance, and warning lifecycle.

Cross-cutting facilities every later performance PR measures itself
against.  Instrumented code emits through one path,
:mod:`repro.obs.observe` (``observe.span`` and ``observe.event``), and
every run-time surface is an observer installed on it:

* :mod:`repro.obs.observe` -- the observer registry: the only
  process-global observation state, one install/restore
  (``observing``), and the shared no-op when nothing is installed;
* :mod:`repro.obs.trace` -- the span tracer observing the pipeline
  phases, Datalog strata/rules, degradation-ladder rungs, and batch
  units; exports Chrome ``trace_event`` JSON (``--trace``) and a text
  profile tree (``--profile``);
* :mod:`repro.obs.events` -- the structured JSONL event log
  (``--events``): phase boundaries, ladder degradations, budget trips,
  cache probes, batch outcomes, and warning emissions as one
  machine-parseable stream shared across worker processes;
* :mod:`repro.obs.live` -- the live fleet bus behind ``--live``,
  ``--metrics-port`` and ``--metrics-out``;
* :mod:`repro.obs.metrics` -- a unified metrics registry absorbing
  ``SolverStats`` and ``BudgetMeter`` readings into one namespaced
  store, serialized into JSON reports and aggregated across batch runs,
  plus the ``--mem-profile`` observer of per-phase tracemalloc peaks;
* :mod:`repro.obs.provenance` -- Datalog derivation traces behind
  ``--explain``, turning each warning into a rule-by-rule chain from
  allocation sites through the ownership closure and the missing
  subregion order to the offending access;
* :mod:`repro.obs.fingerprint` -- content-stable warning identities,
  invariant across engine choice, sharding, ranking, and ordering;
* :mod:`repro.obs.history` -- the JSONL baseline store and the
  new/persisting/fixed differ behind ``--baseline``/``--save-baseline``
  and the ``--fail-on-new`` CI gate;
* :mod:`repro.obs.html` -- the single-file ``--html-report`` fusing
  warnings + diff + metrics + profile + batch grid with no network
  fetches.
"""

from repro.obs.events import EventLog
from repro.obs.fingerprint import pair_fingerprint, warning_fingerprint
from repro.obs.history import (
    BaselineEntry,
    WarningDiff,
    diff_entries,
    load_baseline,
    save_baseline,
)
from repro.obs.html import render_html_report, write_html_report
from repro.obs.metrics import (
    MemProfile,
    MetricsRegistry,
    aggregate_metrics,
    format_metrics,
)
from repro.obs.observe import Observer, observing
from repro.obs.replay import ReplayResult, replay_trace
from repro.obs.validate import (
    VALIDATION_SCHEMA_VERSION,
    ValidationResult,
    correlate_warnings,
    label_warning,
)
from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "BaselineEntry",
    "EventLog",
    "MemProfile",
    "MetricsRegistry",
    "Observer",
    "ReplayResult",
    "SpanRecord",
    "Tracer",
    "VALIDATION_SCHEMA_VERSION",
    "ValidationResult",
    "WarningDiff",
    "aggregate_metrics",
    "correlate_warnings",
    "diff_entries",
    "format_metrics",
    "label_warning",
    "load_baseline",
    "observing",
    "pair_fingerprint",
    "render_html_report",
    "replay_trace",
    "save_baseline",
    "warning_fingerprint",
    "write_html_report",
]
