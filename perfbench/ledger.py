"""The traced run's span ledger: layer spans recorded from outside ``src/``.

:meth:`Ledger.installed` wraps each layer's public entry point where its
caller looks it up (the module attribute the caller imported, or the
class attribute for methods) with a function that records a span, and
restores the originals on exit.  Spans stay in memory; :meth:`Ledger.dump`
writes them out once the run ends.  A span's self time is its duration
minus its children's, and the per-layer metrics are folds over those
self times and the counts recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Largest share of one unit's ``run_regionwiz`` wall time that may fall
#: outside the layer spans before the traced run fails.
ATTRIBUTION_BOUND = 0.1

#: Span names of the analysis layers.  Time outside these (in
#: ``run_regionwiz`` and ``run_batch`` themselves) is unattributed.
LAYER_SPANS = (
    "lang.lex",
    "lang.parse",
    "lang.sema",
    "ir.lower",
    "callgraph.build",
    "pointer.contexts",
    "pointer.solve",
    "core.hierarchy",
    "core.consistency",
    "core.rank",
    "datalog.solve",
    "datalog.update",
    "cache.lookup",
    "cache.store",
    "incremental.probe",
)


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    unit: Optional[str]
    end: float = 0.0
    child_time: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _count_instrs(module) -> int:
    return sum(len(function.instrs) for function in module.functions.values())


def _solve_counts(solution) -> Dict[str, float]:
    stats = solution.stats
    region_pairs = sum(
        count
        for rule, count in stats.rule_derived.items()
        if rule.startswith("regionPair(")
    )
    counts = {
        "tuples_derived": stats.tuples_derived,
        "rounds": stats.rounds,
        "region_pairs": region_pairs,
    }
    try:
        counts["object_pairs"] = solution.count("objectPair")
    except KeyError:  # not a consistency program
        pass
    return counts


def _targets():
    """``(module, attribute, span name, counts-of-result)`` to wrap."""
    return [
        ("repro.tool.batch", "run_regionwiz", "tool.pipeline", None),
        ("repro.lang.parser", "tokenize", "lang.lex",
         lambda tokens: {"tokens": len(tokens)}),
        ("repro.tool.regionwiz", "parse", "lang.parse", None),
        ("repro.tool.incremental", "parse", "lang.parse", None),
        ("repro.tool.regionwiz", "analyze", "lang.sema", None),
        ("repro.tool.regionwiz", "lower", "ir.lower",
         lambda module: {"instrs": _count_instrs(module)}),
        ("repro.tool.regionwiz", "build_call_graph", "callgraph.build",
         lambda graph: {"edges": graph.num_edges,
                        "reachable": len(graph.reachable)}),
        ("repro.tool.regionwiz", "number_contexts", "pointer.contexts",
         lambda numbering: {"contexts": numbering.total_contexts}),
        ("repro.tool.regionwiz", "analyze_pointers", "pointer.solve",
         lambda analysis: {"iterations": analysis.iterations,
                           "objects": len(analysis.objects),
                           "regions": len(analysis.regions),
                           "accesses": len(analysis.accesses)}),
        ("repro.core.consistency", "build_hierarchy", "core.hierarchy", None),
        ("repro.core.datalog_check", "build_hierarchy", "core.hierarchy",
         None),
        ("repro.tool.regionwiz", "check_consistency", "core.consistency",
         lambda result: {"o_pairs": result.o_pair_count}),
        ("repro.tool.incremental:IncrementalUnitSession", "check_consistency",
         "core.consistency",
         lambda result: {"o_pairs": result[0].o_pair_count}),
        ("repro.tool.regionwiz", "rank_warnings", "core.rank",
         lambda ranked: {"i_pairs": ranked.i_pair_count}),
        ("repro.datalog.program:Program", "solve", "datalog.solve",
         _solve_counts),
        # Resume and update together are the warm delta path.
        ("repro.datalog.program:Program", "resume", "datalog.update", None),
        ("repro.datalog.program:Solution", "update", "datalog.update",
         lambda stats: {f"mode.{stats.mode}": 1}),
        ("repro.tool.incremental:IncrementalUnitSession", "probe",
         "incremental.probe", None),
        ("repro.tool.cache:AnalysisCache", "lookup", "cache.lookup",
         lambda payload: {"lookups": 1}),
        ("repro.tool.cache:AnalysisCache", "lookup_state", "cache.lookup",
         lambda payload: {"lookups": 1}),
        ("repro.tool.cache:AnalysisCache", "store", "cache.store",
         lambda result: {"stores": 1}),
        ("repro.tool.cache:AnalysisCache", "store_state", "cache.store",
         lambda result: {"stores": 1}),
    ]


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Ledger:
    """An in-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.unit: Optional[str] = None

    @contextmanager
    def span(self, name: str, unit: Optional[str] = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if unit is None:
            unit = self.unit
        record = Span(name=name, start=0.0, parent=parent, unit=unit)
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        saved_unit, self.unit = self.unit, unit
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.unit = saved_unit
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += record.duration

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Optional[Callable[[Any], Dict[str, float]]] = None,
    ) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            # run_regionwiz names its unit; everything below inherits it.
            with self.span(name, unit=kwargs.get("name")) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record.counts = counts(result)
                return result

        return timed

    @contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Route every layer entry point through a span while active."""
        saved = []
        try:
            for path, attribute, name, counts in _targets():
                owner = _resolve(path)
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, counts))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- folds ---------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for record in self.spans:
            totals[record.name] = totals.get(record.name, 0.0) + record.self_time
        return totals

    def count(self, name: str, key: str) -> float:
        return sum(
            record.counts.get(key, 0)
            for record in self.spans
            if record.name == name
        )

    def worst_unattributed(self) -> Optional[Dict[str, Any]]:
        """The unit whose ``run_regionwiz`` left the largest share of its
        wall time outside the layer spans."""
        worst = None
        for record in self.spans:
            if record.name != "tool.pipeline" or record.duration <= 0:
                continue
            share = record.self_time / record.duration
            if worst is None or share > worst["share"]:
                worst = {
                    "unit": record.unit,
                    "share": share,
                    "wall_s": record.duration,
                }
        return worst

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, record in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record.name,
                            "start": record.start,
                            "end": record.end,
                            "parent": record.parent,
                            "unit": record.unit,
                            "self": record.self_time,
                            "counts": record.counts,
                        }
                    )
                    + "\n"
                )
