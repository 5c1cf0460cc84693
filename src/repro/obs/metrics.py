"""A unified, namespaced metrics registry for RegionWiz runs.

PR 1's :class:`~repro.datalog.SolverStats` and PR 2's
:class:`~repro.util.budget.BudgetMeter` each grew their own counters;
this registry absorbs both (plus pipeline-level readings) into one
dotted-name store -- ``datalog.rounds``, ``pointer.contexts``,
``budget.derived_facts``, ... -- with three metric kinds:

* **counters** -- monotone totals (:meth:`MetricsRegistry.inc`);
* **gauges** -- last-value readings (:meth:`MetricsRegistry.gauge`);
* **histograms** -- sampled distributions (:meth:`MetricsRegistry.observe`)
  summarized as count/min/mean/p50/p90/p99/max.

:meth:`MetricsRegistry.to_dict` gives the flat serialization embedded in
the JSON report (``--json``) and per batch unit;
:func:`aggregate_metrics` folds many units' dicts into fleet percentiles
for the ``--batch`` summary.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs.observe import Observer, Span

__all__ = [
    "MemProfile",
    "MetricsRegistry",
    "aggregate_metrics",
    "format_metrics",
]


class MemProfile(Observer):
    """Per-phase tracemalloc peaks (``--mem-profile``), as an observer.

    Resets the tracemalloc peak when a ``phase.*`` span opens and
    attaches the peak seen since as the span's ``peak_mem_bytes``
    attribute when it closes; the pipeline folds those into
    ``pipeline.<phase>.peak_mem_bytes`` gauges.  tracemalloc itself is
    *not* free -- that is exactly why the peaks hide behind an explicit
    opt-in, and why uninstalled they cost nothing at all.
    """

    spans = ("phase.*",)

    def on_open(self, span: Span) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
        tracemalloc.reset_peak()

    def on_close(self, span: Span) -> None:
        import tracemalloc

        if tracemalloc.is_tracing():
            span.attrs["peak_mem_bytes"] = tracemalloc.get_traced_memory()[1]

    def for_worker(self) -> "MemProfile":
        return MemProfile()


def _percentile(ordered: Sequence[float], q: float) -> float:
    """q-th percentile (nearest-rank) of an ascending-sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class MetricsRegistry:
    """Namespaced counters, gauges, and histograms for one analysis run."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add to a counter (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest reading."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one histogram sample."""
        self._histograms.setdefault(name, []).append(value)

    # -- queries -----------------------------------------------------------

    def value(self, name: str) -> Optional[float]:
        """Counter or gauge value by name (None if unknown)."""
        if name in self._counters:
            return self._counters[name]
        return self._gauges.get(name)

    # -- absorption of existing telemetry ----------------------------------

    def absorb_solver_stats(self, stats: Any) -> None:
        """Fold a :class:`~repro.datalog.SolverStats` into ``datalog.*``."""
        self.inc("datalog.facts_loaded", stats.facts_loaded)
        self.inc("datalog.tuples_derived", stats.tuples_derived)
        self.inc("datalog.rounds", stats.rounds)
        self.inc("datalog.rule_evals", stats.rule_evals)
        self.inc("datalog.rule_eval_ms", stats.rule_eval_seconds * 1000.0)
        self.inc("datalog.solve_ms", stats.solve_seconds * 1000.0)
        self.inc("datalog.strata", len(stats.strata))
        if stats.backend == "set":
            self.inc("datalog.index_builds", stats.index_builds)
            self.inc("datalog.index_hits", stats.index_hits)
            self.gauge("datalog.index_hit_rate", stats.index_hit_rate)
        else:
            self.inc("datalog.bdd_cache_lookups", stats.bdd_cache_lookups)
            self.inc("datalog.bdd_cache_hits", stats.bdd_cache_hits)
            self.gauge("datalog.bdd_cache_hit_rate", stats.bdd_cache_hit_rate)
        for stratum in stats.strata:
            self.observe("datalog.stratum_ms", stratum.seconds * 1000.0)

    def absorb_update_stats(self, stats: Any) -> None:
        """Fold a :class:`~repro.datalog.UpdateStats` into ``datalog.update.*``.

        Records the delta re-solve's footprint (the incremental
        analysis path) so a warm run's metrics show what the edit cost
        instead of what a cold closure would have.
        """
        self.gauge("datalog.update.mode", stats.mode)
        self.inc("datalog.update.facts_asserted", stats.facts_asserted)
        self.inc("datalog.update.facts_retracted", stats.facts_retracted)
        self.inc("datalog.update.strata_total", stats.strata_total)
        self.inc("datalog.update.strata_skipped", stats.strata_skipped)
        self.inc("datalog.update.tuples_deleted", stats.tuples_deleted)
        self.inc("datalog.update.tuples_inserted", stats.tuples_inserted)
        self.inc("datalog.update.rederived", stats.rederived)
        self.inc("datalog.update.rounds", stats.rounds)
        self.inc("datalog.update.ms", stats.seconds * 1000.0)

    def absorb_budget_usage(self, usage: Mapping[str, int]) -> None:
        """Fold :meth:`BudgetMeter.usage` counters into ``budget.*``.

        ``derived_tuples`` lands as ``budget.derived_facts`` -- the name
        the report schema and batch aggregation key on.
        """
        renames = {"derived_tuples": "budget.derived_facts"}
        for key, value in usage.items():
            self.gauge(renames.get(key, f"budget.{key}"), value)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Flat name -> value dict (histograms become summary sub-dicts)."""
        payload: Dict[str, Any] = {}
        for name, value in self._counters.items():
            payload[name] = round(value, 6) if isinstance(value, float) else value
        for name, value in self._gauges.items():
            payload[name] = round(value, 6) if isinstance(value, float) else value
        for name, samples in self._histograms.items():
            ordered = sorted(samples)
            if not ordered:  # defensively skip an empty distribution
                continue
            payload[name] = {
                "count": len(ordered),
                "min": round(ordered[0], 6),
                "mean": round(sum(ordered) / len(ordered), 6),
                "p50": round(_percentile(ordered, 0.50), 6),
                "p90": round(_percentile(ordered, 0.90), 6),
                "p99": round(_percentile(ordered, 0.99), 6),
                "max": round(ordered[-1], 6),
            }
        return dict(sorted(payload.items()))


def aggregate_metrics(
    unit_metrics: Iterable[Mapping[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """Fleet percentiles across many units' :meth:`to_dict` outputs.

    Scalar metrics only (histogram sub-dicts are skipped -- their
    per-unit summaries are already in the per-unit payloads).  Returns
    ``{name: {count,min,mean,p50,p90,max,sum}}`` over the units that
    reported the metric.
    """
    samples: Dict[str, List[float]] = {}
    for metrics in unit_metrics:
        for name, value in metrics.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                samples.setdefault(name, []).append(float(value))
    aggregated: Dict[str, Dict[str, float]] = {}
    for name, values in sorted(samples.items()):
        ordered = sorted(values)
        if not ordered:  # zero-unit / all-skipped sweeps aggregate to {}
            continue
        aggregated[name] = {
            "count": len(ordered),
            "min": round(ordered[0], 6),
            "mean": round(sum(ordered) / len(ordered), 6),
            "p50": round(_percentile(ordered, 0.50), 6),
            "p90": round(_percentile(ordered, 0.90), 6),
            "max": round(ordered[-1], 6),
            "sum": round(sum(ordered), 6),
        }
    return aggregated


def format_metrics(metrics: Mapping[str, Any], indent: str = "  ") -> str:
    """Aligned ``name  value`` listing of a :meth:`to_dict` payload."""
    if not metrics:
        return f"{indent}(no metrics)"
    width = max(len(name) for name in metrics)
    lines = []
    for name, value in sorted(metrics.items()):
        if isinstance(value, Mapping):
            rendered = " ".join(f"{k}={v}" for k, v in value.items())
        elif isinstance(value, float):
            rendered = f"{value:.3f}".rstrip("0").rstrip(".")
        else:
            rendered = str(value)
        lines.append(f"{indent}{name.ljust(width)}  {rendered}")
    return "\n".join(lines)
