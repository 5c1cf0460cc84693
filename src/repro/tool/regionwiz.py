"""The RegionWiz tool: the four-phase pipeline of Section 5.

1. **Call graph construction** -- direct, indirect, and implicit calls,
   pruned by reachability from the entry point.
2. **Context cloning** -- Whaley-Lam path numbering over the SCC-reduced
   call graph.
3. **Conditional correlation computation** -- the context-sensitive,
   field-sensitive pointer analysis with heap cloning, producing the
   subregion/ownership/heap effects, then the regionPair/objectPair
   verification.
4. **Post processing** -- condensation to instruction pairs and the
   ranking heuristic.

:func:`run_regionwiz` drives all four on C source text and returns a
:class:`RegionWizReport` carrying the warnings (with source locations) and
the Figure 11 statistics row.

Robustness layer: every phase polls an optional
:class:`~repro.util.budget.ResourceBudget` through cooperative
checkpoints, and on :class:`~repro.util.errors.BudgetExceeded` the driver
can walk the **graceful degradation ladder** (``degrade=True``), retrying
at successively lower precision::

    full -> no-heap-cloning -> context-insensitive -> field-insensitive

Each rung only *merges* abstract objects/contexts/fields, i.e. it widens
the effect sets ``F``/``Phi`` of Definition 3.3 -- a sound
over-approximation, so a degraded run may report more warnings but never
fewer real inconsistencies.  The rung used is recorded on the report
(``report.precision``) and surfaced by the text/JSON renderers as
``degraded(precision=...)``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # import cycle: tool.incremental imports tool.cache
    from repro.tool.incremental import IncrementalUnitSession

from repro.callgraph import (
    CallGraph,
    ImplicitCallRegistry,
    build_call_graph,
    default_registry,
)
from repro.core import (
    ConsistencyResult,
    IPair,
    RankedWarnings,
    build_hierarchy,
    check_consistency,
    rank_warnings,
    solve_object_pairs,
)
from repro.core.consistency import consistency_from_pairs
from repro.core.datalog_check import (
    accesses_at_location,
    solve_demand_pairs,
)
from repro.datalog import SolverStats, UpdateStats
from repro.interfaces import RegionInterface, apr_pools_interface
from repro.ir import IRModule, lower
from repro.lang import SemaResult, SourceLocation, analyze, parse
from repro.obs import observe
from repro.obs.fingerprint import warning_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.pointer import (
    AnalysisOptions,
    ContextNumbering,
    PointerAnalysisResult,
    analyze_pointers,
    number_contexts,
)
from repro.util import faults
from repro.util.budget import BudgetMeter, ResourceBudget
from repro.util.errors import BudgetExceeded

__all__ = [
    "Warning_",
    "PhaseTimes",
    "Fig11Row",
    "RegionWizReport",
    "ANALYSIS_VERSION",
    "PRECISION_LADDER",
    "degrade_options",
    "run_regionwiz",
]

#: Version stamp of the analysis *semantics* (what facts are derived,
#: how warnings are ranked and described).  Part of every persistent
#: cache key (:mod:`repro.tool.cache`): bump it whenever a change can
#: alter a report for unchanged input, so stale cached outcomes can
#: never be served.
ANALYSIS_VERSION = 1

#: The graceful degradation ladder, most precise first.  Each rung keeps
#: the previous rung's weakening (cumulative), so precision decreases
#: monotonically along the ladder.
PRECISION_LADDER = (
    "full",
    "no-heap-cloning",
    "context-insensitive",
    "field-insensitive",
)


def degrade_options(options: AnalysisOptions, rung: str) -> AnalysisOptions:
    """The analysis options for one ladder rung (cumulative weakening)."""
    if rung not in PRECISION_LADDER:
        raise ValueError(f"unknown precision rung {rung!r}")
    if rung == "full":
        return options
    degraded = replace(options, heap_cloning=False)
    if rung in ("context-insensitive", "field-insensitive"):
        degraded = replace(degraded, context_sensitive=False)
    if rung == "field-insensitive":
        degraded = replace(degraded, field_sensitive=False)
    return degraded


@dataclass(frozen=True)
class Warning_:
    """A reported instruction pair with everything needed to inspect it."""

    source_site: int
    target_site: int
    source_loc: SourceLocation
    target_loc: SourceLocation
    store_locs: Tuple[SourceLocation, ...]
    high_ranked: bool
    num_contexts: int
    description: str
    #: Content-stable identity (see :mod:`repro.obs.fingerprint`); the
    #: same finding keeps the same fingerprint across engine choice,
    #: sharding, ranking tweaks, and warning order.
    fingerprint: str = ""

    def __str__(self) -> str:
        rank = "HIGH" if self.high_ranked else "low "
        return f"[{rank}] {self.description}"


@dataclass
class PhaseTimes:
    #: Lex, parse, semantic analysis and lowering to IR.
    frontend: float = 0.0
    call_graph: float = 0.0
    context_cloning: float = 0.0
    correlation: float = 0.0
    post_processing: float = 0.0
    #: Datalog solver telemetry for the consistency query; populated only
    #: when :func:`run_regionwiz` is called with ``solver_stats=True``.
    solver: Optional[SolverStats] = None
    #: Delta re-solve telemetry when the run used an incremental session
    #: and the warm path ran (None on cold solves and normal runs).
    update: Optional[UpdateStats] = None
    #: Per-phase tracemalloc peaks in bytes (``--mem-profile`` only;
    #: empty otherwise, so reports stay byte-identical with it off).
    mem_peaks: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return (
            self.frontend
            + self.call_graph
            + self.context_cloning
            + self.correlation
            + self.post_processing
        )


@dataclass
class Fig11Row:
    """One row of the paper's Figure 11 quantitative table."""

    name: str
    time_seconds: float
    regions: int
    objects: int
    subregion: int
    ownership: int
    heap: int
    r_pairs: int
    o_pairs: int
    i_pairs: int
    high: int
    # Solver telemetry (populated when the run collected SolverStats;
    # deliberately not part of HEADER/as_tuple -- the Figure 11 table
    # shape matches the paper).
    solver_rounds: int = 0
    solver_derived: int = 0
    solver_ms: float = 0.0
    #: Precision rung the numbers were computed at ("full" unless the
    #: degradation ladder kicked in); not part of HEADER/as_tuple.
    precision: str = "full"

    HEADER = (
        "name", "time", "R", "H", "sub.", "own.", "heap",
        "R-pair", "O-pair", "I-pair", "high",
    )

    def as_tuple(self) -> Tuple:
        return (
            self.name,
            f"{self.time_seconds:.2f}s",
            self.regions,
            self.objects,
            self.subregion,
            self.ownership,
            self.heap,
            self.r_pairs,
            self.o_pairs,
            self.i_pairs,
            self.high,
        )


@dataclass
class RegionWizReport:
    sema: SemaResult
    module: IRModule
    graph: CallGraph
    numbering: ContextNumbering
    analysis: PointerAnalysisResult
    consistency: ConsistencyResult
    ranked: RankedWarnings
    warnings: List[Warning_]
    times: PhaseTimes
    name: str = "program"
    #: Precision rung this report was computed at (see PRECISION_LADDER).
    precision: str = "full"
    #: Rungs that were attempted and exceeded the budget before this one.
    degradation_path: Tuple[str, ...] = ()
    #: The budget the run was held to (None: unlimited).
    budget: Optional[ResourceBudget] = None
    #: Meter counters from the successful attempt (None: no budget).
    budget_usage: Optional[Dict[str, int]] = None
    #: Unified metrics registry for this run (see :mod:`repro.obs.metrics`).
    metrics: Optional[MetricsRegistry] = None
    #: Entry point and interface the analysis ran with, kept so dynamic
    #: validation (``--validate``) can execute the same configuration.
    entry: str = "main"
    interface: Optional[RegionInterface] = None

    @property
    def degraded(self) -> bool:
        """True when the degradation ladder lowered precision."""
        return self.precision != "full"

    @property
    def high_warnings(self) -> List[Warning_]:
        return [w for w in self.warnings if w.high_ranked]

    @property
    def is_consistent(self) -> bool:
        return not self.warnings

    def fig11_row(self) -> Fig11Row:
        solver = self.times.solver
        return Fig11Row(
            name=self.name,
            time_seconds=self.times.total,
            regions=self.consistency.num_regions,
            objects=self.consistency.num_objects,
            subregion=self.consistency.subregion_size,
            ownership=self.consistency.ownership_size,
            heap=self.consistency.heap_size,
            r_pairs=self.consistency.region_pair_count,
            o_pairs=self.consistency.o_pair_count,
            i_pairs=self.ranked.i_pair_count,
            high=self.ranked.high_count,
            solver_rounds=0 if solver is None else solver.rounds,
            solver_derived=0 if solver is None else solver.tuples_derived,
            solver_ms=0.0 if solver is None else solver.solve_seconds * 1e3,
            precision=self.precision,
        )


def _loc_of_site(module: IRModule, site: int) -> SourceLocation:
    try:
        return module.instr(site).loc
    except KeyError:
        return SourceLocation.UNKNOWN


def _describe(module: IRModule, ipair: IPair) -> str:
    source_loc = _loc_of_site(module, ipair.source_site)
    target_loc = _loc_of_site(module, ipair.target_site)
    base = (
        f"object allocated at {source_loc} may hold a dangling pointer to"
        f" object allocated at {target_loc}"
    )
    if not ipair.object_pairs:
        # Refinement can strip every contributing object pair; degrade to
        # a description without owner sets rather than crash mid-report.
        return f"{base} ({ipair.num_contexts} context(s))"
    sample = ipair.object_pairs[0]
    return (
        f"{base}"
        f" (owners: {', '.join(sorted(str(r) for r in sample.source_owners))}"
        f" vs {', '.join(sorted(str(r) for r in sample.target_owners))};"
        f" {ipair.num_contexts} context(s))"
    )


@contextmanager
def _phase(
    times: PhaseTimes, phase: str, unit: str, meter: Optional[BudgetMeter]
):
    """Run one pipeline phase under its ``phase.*`` span.

    Fires the phase's fault-injection point inside the span, records the
    phase's wall time in ``times`` and, when a memory profiler observed
    the span, its tracemalloc peak.  The ``phase.start``/``phase.end``
    event records are the event log's view of the same span.
    """
    start = time.perf_counter()
    with observe.span("phase." + phase, unit=unit) as span:
        faults.fire(phase, unit=unit, meter=meter)
        yield span
    field_name = phase.replace("-", "_")
    setattr(times, field_name, time.perf_counter() - start)
    peak = span.attrs.get("peak_mem_bytes")
    if peak is not None:
        times.mem_peaks[field_name] = peak


def _run_pipeline(
    source: str,
    filename: str,
    interface: RegionInterface,
    entry: str,
    options: AnalysisOptions,
    registry: ImplicitCallRegistry,
    name: str,
    refine: bool,
    solver_stats: bool,
    meter: Optional[BudgetMeter],
    incremental: Optional["IncrementalUnitSession"] = None,
    query: Optional[Tuple[str, int]] = None,
) -> RegionWizReport:
    """One pipeline attempt at fixed precision (no degradation)."""
    times = PhaseTimes()

    # Frontend (the paper gets IR from Phoenix; we parse and lower).
    with _phase(times, "frontend", name, meter) as span:
        sema = analyze(parse(source, filename))
        module = lower(sema)
        span.set(functions=len(module.functions))

    # Phase 1: call graph construction.
    with _phase(times, "call-graph", name, meter) as span:
        graph = build_call_graph(
            module, entry=entry, registry=registry, meter=meter
        )
        span.set(reachable=len(graph.reachable), edges=graph.num_edges)

    # Phase 2: context cloning.
    with _phase(times, "context-cloning", name, meter) as span:
        numbering = number_contexts(
            graph,
            context_sensitive=options.context_sensitive,
            max_contexts=options.max_contexts,
            meter=meter,
        )
        span.set(contexts=numbering.total_contexts)

    # Phase 3: conditional correlation computation.
    with _phase(times, "correlation", name, meter) as span:
        analysis = analyze_pointers(graph, interface, options, numbering, meter)
        if query is not None:
            # Demand transformation: only the accesses anchored at the
            # queried file:line are seeded, so the subregion/ownership
            # closure is explored from them alone -- the full
            # le/regionPair closure is never materialized.
            hierarchy = build_hierarchy(
                analysis.regions, analysis.subregion
            )
            queried = accesses_at_location(
                analysis, module, query[0], query[1]
            )
            pairs, demand_stats = solve_demand_pairs(
                analysis, hierarchy, queries=queried, meter=meter
            )
            consistency = consistency_from_pairs(
                analysis, hierarchy, pairs, accesses=queried
            )
            if solver_stats:
                times.solver = demand_stats
        elif incremental is not None:
            consistency, times.update = incremental.check_consistency(
                analysis, module, meter
            )
            if solver_stats:
                _, times.solver = solve_object_pairs(analysis, meter=meter)
        else:
            consistency = check_consistency(analysis)
            if solver_stats:
                _, times.solver = solve_object_pairs(analysis, meter=meter)
        span.set(
            regions=len(analysis.regions),
            objects=len(analysis.objects),
            object_pairs=consistency.o_pair_count,
        )

    # Phase 4: post processing.
    with _phase(times, "post-processing", name, meter) as span:
        if meter is not None:
            meter.checkpoint("post-processing")
        ranked = rank_warnings(consistency)
        if refine:
            from repro.core.refine import refine_warnings

            ranked = refine_warnings(ranked, module, interface)
        warnings = []
        for ipair in ranked:
            store_locs = tuple(
                sorted(
                    (_loc_of_site(module, uid) for uid in ipair.store_uids),
                    key=str,
                )
            )
            warning = Warning_(
                source_site=ipair.source_site,
                target_site=ipair.target_site,
                source_loc=_loc_of_site(module, ipair.source_site),
                target_loc=_loc_of_site(module, ipair.target_site),
                store_locs=store_locs,
                high_ranked=ipair.high_ranked,
                num_contexts=ipair.num_contexts,
                description=_describe(module, ipair),
            )
            warning = replace(
                warning,
                fingerprint=warning_fingerprint(warning, interface.name),
            )
            observe.event(
                "warning",
                unit=name,
                fingerprint=warning.fingerprint,
                rank="high" if warning.high_ranked else "low",
                description=warning.description,
            )
            warnings.append(warning)
        span.set(
            i_pairs=ranked.i_pair_count,
            high=ranked.high_count,
        )

    return RegionWizReport(
        sema=sema,
        module=module,
        graph=graph,
        numbering=numbering,
        analysis=analysis,
        consistency=consistency,
        ranked=ranked,
        warnings=warnings,
        times=times,
        name=name,
        entry=entry,
        interface=interface,
    )


def _collect_metrics(report: RegionWizReport) -> MetricsRegistry:
    """Fold one run's readings into the unified ``repro.obs`` registry."""
    registry = MetricsRegistry()
    times = report.times
    registry.gauge("pipeline.frontend_ms", times.frontend * 1000.0)
    registry.gauge("pipeline.call_graph_ms", times.call_graph * 1000.0)
    registry.gauge("pipeline.context_cloning_ms", times.context_cloning * 1000.0)
    registry.gauge("pipeline.correlation_ms", times.correlation * 1000.0)
    registry.gauge("pipeline.post_processing_ms", times.post_processing * 1000.0)
    registry.gauge("pipeline.total_ms", times.total * 1000.0)
    registry.gauge("callgraph.reachable", len(report.graph.reachable))
    registry.gauge("callgraph.edges", report.graph.num_edges)
    registry.gauge("pointer.contexts", report.numbering.total_contexts)
    registry.gauge("pointer.regions", len(report.analysis.regions))
    registry.gauge("pointer.objects", len(report.analysis.objects))
    registry.gauge("pointer.iterations", report.analysis.iterations)
    registry.gauge("effects.subregion", report.consistency.subregion_size)
    registry.gauge("effects.ownership", report.consistency.ownership_size)
    registry.gauge("effects.heap", report.consistency.heap_size)
    registry.gauge("warnings.region_pairs", report.consistency.region_pair_count)
    registry.gauge("warnings.object_pairs", report.consistency.o_pair_count)
    registry.gauge("warnings.i_pairs", report.ranked.i_pair_count)
    registry.gauge("warnings.high", report.ranked.high_count)
    registry.gauge("ladder.degraded", 1 if report.degraded else 0)
    registry.gauge("ladder.failed_rungs", len(report.degradation_path))
    for phase, peak in sorted(times.mem_peaks.items()):
        registry.gauge(f"pipeline.{phase}.peak_mem_bytes", peak)
    if times.solver is not None:
        registry.absorb_solver_stats(times.solver)
    if times.update is not None:
        registry.absorb_update_stats(times.update)
    if report.budget_usage is not None:
        registry.absorb_budget_usage(report.budget_usage)
    return registry


def run_regionwiz(
    source: str,
    filename: str = "<input>",
    interface: Optional[RegionInterface] = None,
    entry: str = "main",
    options: Optional[AnalysisOptions] = None,
    registry: Optional[ImplicitCallRegistry] = None,
    name: str = "program",
    refine: bool = False,
    solver_stats: bool = False,
    budget: Optional[ResourceBudget] = None,
    degrade: bool = False,
    incremental: Optional["IncrementalUnitSession"] = None,
    query: Optional[Tuple[str, int]] = None,
) -> RegionWizReport:
    """Run the full RegionWiz pipeline on C source text.

    ``refine=True`` additionally applies the Section 4.3 def-use
    refinement (IPSSA-style, deliberately unsound) to suppress warnings
    whose region arguments provably came from the same variable.

    ``solver_stats=True`` re-runs the consistency query on the Datalog
    engine and attaches its :class:`~repro.datalog.SolverStats` to
    ``report.times.solver`` (surfaced by ``--stats`` in the CLI).

    ``budget`` bounds each attempt (wall clock, derived tuples, contexts,
    abstract objects); a fresh meter is started per attempt.  Without
    ``degrade``, exceeding the budget raises
    :class:`~repro.util.errors.BudgetExceeded`.  With ``degrade=True``
    the driver walks :data:`PRECISION_LADDER`, retrying at the next lower
    precision until an attempt fits; the rung used lands in
    ``report.precision`` and the rungs that blew the budget in
    ``report.degradation_path``.  If even the lowest rung exceeds the
    budget, the last ``BudgetExceeded`` propagates.

    ``incremental`` (an
    :class:`~repro.tool.incremental.IncrementalUnitSession`, already
    probed against this source) routes the consistency phase through the
    resume + delta-update path; the result is identical to a normal run,
    and the session is left holding the fresh state payload for the
    caller to persist.  ``query`` (``(filename, line)``) instead runs
    the demand-transformed consistency query seeded with only the
    accesses anchored at that location -- the report's warnings are
    restricted to that seed.  The two are mutually exclusive; ``query``
    wins.
    """
    if interface is None:
        interface = apr_pools_interface()
    if options is None:
        options = AnalysisOptions()
    if registry is None:
        registry = default_registry()

    # Candidate rungs, skipping ones that don't change the options the
    # caller asked for (e.g. an already context-insensitive run).
    candidates: List[Tuple[str, AnalysisOptions]] = []
    for rung in PRECISION_LADDER:
        rung_options = degrade_options(options, rung)
        if candidates and rung_options == candidates[-1][1]:
            continue
        candidates.append((rung, rung_options))
    if not degrade:
        candidates = candidates[:1]

    failed_rungs: List[str] = []
    last_error: Optional[BudgetExceeded] = None
    for rung, rung_options in candidates:
        meter = budget.start() if budget is not None else None
        try:
            with observe.span("ladder.attempt", precision=rung, unit=name):
                report = _run_pipeline(
                    source,
                    filename,
                    interface,
                    entry,
                    rung_options,
                    registry,
                    name,
                    refine,
                    solver_stats,
                    meter,
                    incremental=incremental,
                    query=query,
                )
        except BudgetExceeded as error:
            observe.event(
                "ladder.degrade",
                unit=name,
                precision=rung,
                resource=error.resource,
                limit=error.limit,
                used=error.used,
                phase=error.phase,
            )
            failed_rungs.append(rung)
            last_error = error
            continue
        report.precision = rung
        report.degradation_path = tuple(failed_rungs)
        report.budget = budget
        report.budget_usage = meter.usage() if meter is not None else None
        report.metrics = _collect_metrics(report)
        if incremental is not None:
            incremental.record_metrics(report.metrics)
        return report
    assert last_error is not None
    raise last_error
