"""Cloning-based context numbering (Section 5.2, Whaley-Lam).

Transforms the context-insensitive call graph into a context-sensitive one
``cc : C x I x C x F`` by numbering call paths: the builder "reduces
strongly connected components in call into single nodes, finds a
topological order, and then numbers individual call paths as calling
contexts".  Each context number of a function names one call path reaching
it from the program entry; calls inside one SCC do not multiply contexts
(all members of a recursive component share their component's paths).

Because context counts are products along paths they grow exponentially;
the paper stores ``cc`` in BDD finite domains, and
:meth:`ContextNumbering.cc_relation` reproduces exactly that encoding on
our BDD engine.  A ``max_contexts`` clamp folds overflowing path numbers
modulo the cap -- merging contexts is a sound (precision-losing)
over-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.bdd import BDD, DomainSpace
from repro.callgraph import CallGraph
from repro.obs import observe
from repro.util.budget import BudgetMeter
from repro.util.graph import condensation

__all__ = ["ContextNumbering", "number_contexts"]


@dataclass
class ContextNumbering:
    """Per-function context counts plus the ``cc`` call-path mapping."""

    entry_functions: Tuple[str, ...]
    num_contexts: Dict[str, int] = field(default_factory=dict)
    # (call uid, callee) -> (base offset, caller function, same_scc flag)
    edge_info: Dict[Tuple[int, str], Tuple[int, str, bool]] = field(
        default_factory=dict
    )
    max_contexts: int = 1 << 16
    clamped: Set[str] = field(default_factory=set)

    def contexts_of(self, function: str) -> int:
        return self.num_contexts.get(function, 1)

    def callee_context(
        self, caller_context: int, call_uid: int, callee: str
    ) -> Optional[int]:
        """Map a caller context through a call edge (the ``cc`` relation)."""
        info = self.edge_info.get((call_uid, callee))
        if info is None:
            return None
        base, _, same_scc = info
        if same_scc:
            return caller_context
        return (base + caller_context) % self.contexts_of(callee)

    def cc_tuples(
        self, graph: CallGraph
    ) -> Iterator[Tuple[int, int, int, str]]:
        """Enumerate ``cc(c0, i, c1, f)`` tuples (can be exponential!)."""
        for (uid, callee), (base, caller, same_scc) in sorted(
            self.edge_info.items()
        ):
            for caller_context in range(self.contexts_of(caller)):
                callee_context = self.callee_context(caller_context, uid, callee)
                if callee_context is not None:
                    yield caller_context, uid, callee_context, callee

    def cc_relation(
        self, graph: CallGraph, space: Optional[DomainSpace] = None
    ):
        """Store ``cc`` in BDD finite domains, bddbddb-style.

        Returns ``(space, instances, node)`` where instances are
        ``(C0, I0, C1, F0)``.  Functions and instructions are indexed
        densely in sorted order.
        """
        functions = sorted(self.num_contexts)
        function_index = {name: i for i, name in enumerate(functions)}
        uids = sorted({uid for uid, _ in self.edge_info})
        uid_index = {uid: i for i, uid in enumerate(uids)}
        max_context = max(self.num_contexts.values(), default=1)
        if space is None:
            space = DomainSpace(BDD())
        space.declare("C", max(max_context, 1), instances=2)
        space.declare("I", max(len(uids), 1))
        space.declare("F", max(len(functions), 1))
        c0 = space.instance("C", 0)
        c1 = space.instance("C", 1)
        i0 = space.instance("I", 0)
        f0 = space.instance("F", 0)
        node = space.bdd.FALSE
        for caller_ctx, uid, callee_ctx, callee in self.cc_tuples(graph):
            cube = space.encode_tuple(
                [c0, i0, c1, f0],
                [caller_ctx, uid_index[uid], callee_ctx, function_index[callee]],
            )
            node = space.bdd.apply_or(node, cube)
        return space, (c0, i0, c1, f0), node

    @property
    def total_contexts(self) -> int:
        return sum(self.num_contexts.values())


def number_contexts(
    graph: CallGraph,
    context_sensitive: bool = True,
    max_contexts: int = 1 << 16,
    meter: Optional[BudgetMeter] = None,
) -> ContextNumbering:
    """Number call paths over the pruned call graph.

    With ``context_sensitive=False`` every function gets a single context
    and every edge maps it to 0 (the context-insensitive degenerate case,
    used by the Andersen baseline and the sensitivity ablation).

    ``meter`` charges the running context total against the budget's
    ``max_contexts`` limit: unlike the ``max_contexts`` *clamp* (which
    folds overflowing path numbers and keeps going), the budget raises a
    structured ``BudgetExceeded`` so the driver can degrade precision.
    """
    with observe.span(
        "contexts.number", sensitive=context_sensitive
    ) as span:
        numbering = _number_contexts(
            graph, context_sensitive, max_contexts, meter
        )
        span.set(
            contexts=numbering.total_contexts,
            clamped=len(numbering.clamped),
        )
        return numbering


def _number_contexts(
    graph: CallGraph,
    context_sensitive: bool,
    max_contexts: int,
    meter: Optional[BudgetMeter],
) -> ContextNumbering:
    entries = tuple(
        name
        for name in (graph.entry, "_global_init")
        if name in graph.module.functions
    ) or (graph.entry,)
    numbering = ContextNumbering(entries, max_contexts=max_contexts)

    # Call edges among reachable defined functions, with per-site callees.
    site_edges: List[Tuple[str, int, str]] = []
    for name in sorted(graph.reachable):
        function = graph.module.functions.get(name)
        if function is None:
            continue
        numbering.num_contexts[name] = 1
        for call in function.calls():
            for target in sorted(graph.targets(call.uid)):
                if (
                    target in graph.reachable
                    and graph.module.is_defined(target)
                ):
                    site_edges.append((name, call.uid, target))

    if not context_sensitive:
        for caller, uid, callee in site_edges:
            numbering.edge_info[(uid, callee)] = (0, caller, True)
        return numbering

    successors: Dict[str, Set[str]] = {
        name: set() for name in numbering.num_contexts
    }
    for caller, _, callee in site_edges:
        successors[caller].add(callee)
    components, component_of, dag = condensation(successors)

    # Components in topological order (callers before callees): Tarjan
    # emits dependencies (callees) first, so reverse.
    order = list(reversed(range(len(components))))

    # Count paths component by component; edges within a component map a
    # context to itself.
    component_contexts: Dict[int, int] = {}
    incoming: Dict[int, List[Tuple[str, int, str]]] = {
        i: [] for i in range(len(components))
    }
    for caller, uid, callee in site_edges:
        a, b = component_of[caller], component_of[callee]
        if a != b:
            incoming[b].append((caller, uid, callee))

    entry_components = {component_of[e] for e in entries if e in component_of}
    running_total = 0
    for comp in order:
        total = 0
        for caller, uid, callee in sorted(
            incoming[comp], key=lambda e: (e[1], e[2])
        ):
            base = total
            total += component_contexts[component_of[caller]]
            numbering.edge_info[(uid, callee)] = (base, caller, False)
        if comp in entry_components or total == 0:
            total += 1  # the path that starts at an entry point
        if total > numbering.max_contexts:
            numbering.clamped.update(components[comp])
            total = numbering.max_contexts
        component_contexts[comp] = total
        for member in components[comp]:
            numbering.num_contexts[member] = total
            running_total += total
            if meter is not None:
                meter.charge_contexts(running_total, "context-cloning")

    # Intra-component edges: identity context mapping.
    for caller, uid, callee in site_edges:
        if component_of[caller] == component_of[callee]:
            numbering.edge_info[(uid, callee)] = (0, caller, True)
    return numbering
